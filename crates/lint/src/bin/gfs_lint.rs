//! `gfs_lint` CLI — the workspace self-scan.
//!
//! ```text
//! gfs_lint check [--root DIR]   # gate (CI)
//! ```
//!
//! `check` exits 0 when the workspace has no findings, 1 when it has any
//! (printing them), and 2 on usage or I/O errors. A justified exception
//! is a `// gfs-lint: allow(rule, "reason")` pragma on its line.

use std::path::PathBuf;
use std::process::ExitCode;

use gfs_lint::{render_table, scan_workspace};

fn parse_args() -> Result<PathBuf, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "check".to_string());
    if cmd != "check" {
        return Err(format!("unknown command `{cmd}` (expected check)"));
    }
    let mut root = PathBuf::from(".");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gfs_lint: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = match scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("gfs_lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if findings.is_empty() {
        eprintln!("gfs_lint: ok — no findings");
        return ExitCode::SUCCESS;
    }
    print!("{}", render_table(&findings));
    eprintln!(
        "gfs_lint: FAIL: {} finding(s) — fix them, or add a `// gfs-lint: allow(rule, \"reason\")` pragma with a real justification",
        findings.len()
    );
    ExitCode::FAILURE
}
