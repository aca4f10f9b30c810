//! The metric lists the benchmark prints match `BENCHMARK.json`, name
//! for name, unit for unit and in order.

use revmon_perfbench::manifest::{END_TO_END, PER_LAYER};

/// `(name, unit)` of every metric in the manifest's `section` array.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn listed(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    assert_eq!(listed(&END_TO_END), declared("end_to_end"));
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    assert_eq!(listed(&PER_LAYER), declared("per_layer"));
}
