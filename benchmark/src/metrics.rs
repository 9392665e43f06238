//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — bound. `BENCHMARK.json` at the
//! repository root is the one place they are written down; it is compiled
//! in and read here. `README.md` says what each metric means and which
//! end-to-end metric each per-layer metric should move.

use std::sync::OnceLock;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for a per-layer metric.
    pub bound: Option<f64>,
}

struct Catalogue {
    workloads: Vec<&'static str>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// The objects of the manifest's array `key`, each as its text between
/// the braces. The manifest's arrays hold flat objects only.
fn objects(key: &str) -> Vec<&'static str> {
    let open = format!("\"{key}\": [");
    let start = MANIFEST
        .find(&open)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no array {key}"))
        + open.len();
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("the array is closed")];
    body.split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("the object is closed")])
        .collect()
}

/// The value of `key` in a flat object: a string without its quotes, or a
/// number as written.
fn field(object: &'static str, key: &str) -> Option<&'static str> {
    let open = format!("\"{key}\": ");
    let rest = &object[object.find(&open)? + open.len()..];
    match rest.strip_prefix('"') {
        Some(text) => Some(&text[..text.find('"')?]),
        None => Some(rest[..rest.find([',', '\n']).unwrap_or(rest.len())].trim()),
    }
}

fn metric(object: &'static str) -> Metric {
    let text = |key| field(object, key).unwrap_or_else(|| panic!("{key} missing in {object}"));
    Metric {
        name: text("name"),
        unit: text("unit"),
        better: text("better"),
        bound: field(object, "bound").map(|b| b.parse().expect("a bound is a number")),
    }
}

fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| Catalogue {
        workloads: objects("workloads")
            .into_iter()
            .map(|o| field(o, "name").expect("a workload has a name"))
            .collect(),
        end_to_end: objects("end_to_end").into_iter().map(metric).collect(),
        per_layer: objects("per_layer").into_iter().map(metric).collect(),
    })
}

/// Workload names, in manifest order.
#[must_use]
pub fn workload_names() -> &'static [&'static str] {
    &catalogue().workloads
}

/// What a user of the service sees. Every workload reports every one.
#[must_use]
pub fn end_to_end() -> &'static [Metric] {
    &catalogue().end_to_end
}

/// What single layers do, from the traced run. A metric whose layer is
/// not part of a workload's session (the fleet driver outside
/// `fleet_sparse`, the forecaster inside it) reads 0 there: no work done,
/// no time busy.
#[must_use]
pub fn per_layer() -> &'static [Metric] {
    &catalogue().per_layer
}

/// Unit of a catalogued metric.
///
/// # Panics
///
/// Panics on a name outside the catalogue — a bug in the harness.
#[must_use]
pub fn unit_of(name: &str) -> &'static str {
    end_to_end()
        .iter()
        .chain(per_layer())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"))
        .unit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parses_into_the_catalogue() {
        let e2e = end_to_end();
        assert_eq!(e2e.len(), 7);
        assert_eq!(
            e2e[0],
            Metric {
                name: "setup_s",
                unit: "s",
                better: "lower",
                bound: e2e[0].bound,
            }
        );
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b > 0.0)));
        assert!(per_layer().iter().all(|m| m.bound.is_none()));
        assert!(per_layer()
            .iter()
            .all(|m| m.better == "lower" || m.better == "higher"));
        assert_eq!(unit_of("sim.fleet.merge_s"), "s");
        assert_eq!(workload_names().len(), 4);
    }
}
