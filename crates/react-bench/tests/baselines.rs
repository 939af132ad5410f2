//! The committed engine-bench baseline must deserialize into the
//! current report type, and every arm must carry a usable `speedup`.
//! `bench_gate` is the only other reader of that file; without this
//! test a schema break or a corrupt value would surface only in the CI
//! job that runs the gate.

use std::path::Path;

use react_bench::BenchReport;

#[test]
fn bench_baseline_parses_with_finite_positive_speedups() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/bench-baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: BenchReport =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    assert!(!report.scenarios.is_empty(), "baseline has no arms");
    for arm in &report.scenarios {
        assert!(
            arm.speedup.is_finite() && arm.speedup > 0.0,
            "{}: speedup {} is not finite and positive",
            arm.name,
            arm.speedup
        );
    }
    let mut names: Vec<&str> = report.scenarios.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), report.scenarios.len(), "duplicate arm names");
}
