//! The committed CI baselines must deserialize into the current report
//! types. The serde layer has no schema versioning, so a field added to
//! a report type breaks every committed baseline that predates it; this
//! suite makes that break fail `cargo test` instead of only the CI job
//! that happens to load the file.

use std::path::Path;

use react_repro::core::{find_scenario, FleetBins, FleetReport, FleetSpec, ScenarioReport};
use react_repro::units::Seconds;

fn load<T: serde::Deserialize>(name: &str) -> T {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("ci").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

#[test]
fn scenario_and_fault_baselines_parse_as_scenario_reports() {
    for name in ["scenario-baseline.json", "fault-baseline.json"] {
        let report: ScenarioReport = load(name);
        assert!(!report.cells.is_empty(), "{name} has no cells");
        assert!(report.poisoned.is_empty(), "{name} commits poisoned cells");
    }
}

/// The fleet baseline parses, and the configuration it echoes still
/// fingerprints to the committed value — the fleet gate refuses to
/// compare across a fingerprint change.
#[test]
fn fleet_baseline_parses_and_matches_its_fingerprint() {
    let report: FleetReport = load("fleet-baseline.json");
    let mut base = *find_scenario(&report.scenario).expect("baseline scenario is registered");
    base.horizon = Seconds::new(report.horizon_s);
    let seed = report.fleet_seed as u64;
    let mut spec = FleetSpec::new(base, report.nodes as usize, seed);
    spec.bins = FleetBins::calibrated(&base, seed);
    assert_eq!(spec.fingerprint(), report.fingerprint);
    assert_eq!(report.aggregate.summary(), report.summary);
}
