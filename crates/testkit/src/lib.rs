//! `gfs-testkit` — the pin registry.
//!
//! Every golden value the workspace holds still — report and grid
//! fingerprints, loss-trajectory bits, allocation counts, the Eq. 12
//! oracle counts, `lab_fleet`'s fleet hash — is one line of the committed
//! `PINS` file at the workspace root: `name = v1 [v2 …]`, lines sorted by
//! name, each value an unsigned integer in decimal or `0x` hex, `#`
//! starting a comment. [`pin`] checks a computed value against its line.
//!
//! With `GFS_PRINT_GOLDEN` set, [`pin`] prints the line instead of
//! asserting it. `just repin` collects those lines from every test and
//! `lab_fleet`, sorted: its output is the new set of non-comment `PINS`
//! lines, so a re-record is one reviewable diff. Values below 2³² (counts)
//! print in decimal, wider ones (hashes, `f64` bits) as 16-digit hex, so an
//! unchanged run reprints the committed text byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The registry, compiled in: a change to `PINS` rebuilds its users.
const PINS: &str = include_str!("../../../PINS");

/// Asserts that `values` are the `PINS` entry `name`; with
/// `GFS_PRINT_GOLDEN` set, prints the entry's new line instead.
///
/// # Panics
///
/// When `PINS` has no entry `name`, when the entry does not parse, or
/// when its values differ from `values`.
#[track_caller]
pub fn pin(name: &str, values: &[u64]) {
    let got = line(name, values);
    if std::env::var("GFS_PRINT_GOLDEN").is_ok() {
        println!("{got}");
        return;
    }
    let Some(want) = lookup(name) else {
        panic!("no pin `{name}` in PINS; this run gives `{got}`");
    };
    assert!(
        want == values,
        "pin drifted: PINS has `{}`, this run gives `{got}` \
         (re-record with `just repin` only if the change is intentional)",
        line(name, &want)
    );
}

/// `name`'s registry line for `values`.
fn line(name: &str, values: &[u64]) -> String {
    let values: Vec<String> = values
        .iter()
        .map(|&v| {
            if v > u64::from(u32::MAX) {
                format!("{v:#018x}")
            } else {
                v.to_string()
            }
        })
        .collect();
    format!("{name} = {}", values.join(" "))
}

/// The values of `PINS` entry `name`, if it has one.
fn lookup(name: &str) -> Option<Vec<u64>> {
    PINS.lines().find_map(|l| {
        let l = l.split('#').next().unwrap_or_default();
        let (key, values) = l.split_once('=')?;
        (key.trim() == name).then(|| {
            let parse = |v: &str| match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            values
                .split_whitespace()
                .map(|v| parse(v).unwrap_or_else(|e| panic!("PINS `{name}`: `{v}`: {e}")))
                .collect()
        })
    })
}
