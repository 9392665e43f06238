//! `gfs_lint` CLI — the workspace self-scan.
//!
//! ```text
//! gfs_lint check  [--root DIR] [--json]   # gate (CI)
//! gfs_lint report [--root DIR] [--json]   # print findings only
//! ```
//!
//! `check` exits 0 when the workspace has no findings, 1 when it has any
//! (printing them), and 2 on usage or I/O errors. A justified exception
//! is a `// gfs-lint: allow(rule, "reason")` pragma on its line.

use std::path::PathBuf;
use std::process::ExitCode;

use gfs_lint::{render_json, render_table, scan_workspace, Finding};

struct Opts {
    cmd: String,
    root: PathBuf,
    json: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "check".to_string());
    if !matches!(cmd.as_str(), "check" | "report") {
        return Err(format!(
            "unknown command `{cmd}` (expected check or report)"
        ));
    }
    let mut root = PathBuf::from(".");
    let mut json = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--json" => json = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Opts { cmd, root, json })
}

fn print_findings(findings: &[Finding], json: bool) {
    if json {
        print!("{}", render_json(findings));
    } else {
        print!("{}", render_table(findings));
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gfs_lint: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = match scan_workspace(&opts.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("gfs_lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.cmd == "report" {
        print_findings(&findings, opts.json);
        return ExitCode::SUCCESS;
    }
    if findings.is_empty() {
        eprintln!("gfs_lint: ok — no findings");
        return ExitCode::SUCCESS;
    }
    print_findings(&findings, opts.json);
    eprintln!(
        "gfs_lint: FAIL: {} finding(s) — fix them, or add a `// gfs-lint: allow(rule, \"reason\")` pragma with a real justification",
        findings.len()
    );
    ExitCode::FAILURE
}
