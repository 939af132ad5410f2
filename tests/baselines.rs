//! The committed CI baselines must deserialize into the current report
//! types. The serde layer has no schema versioning, so a field added to
//! a report type breaks every committed baseline that predates it; this
//! suite makes that break fail `cargo test` instead of only the CI job
//! that happens to load the file.

use std::path::Path;

use react_repro::core::scenario_report::{REPORT_BUFFERS, REPORT_SEEDS};
use react_repro::core::{
    build_report_with, find_scenario, report_scenarios, FleetBins, FleetReport, FleetSpec,
    RunOutcome, ScenarioReport,
};
use react_repro::telemetry::{FallbackReason, Regime};
use react_repro::units::Seconds;
use serde::Value;

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

/// The attribution budget parses the way its gate reads it: every entry
/// has string `cell`/`class` and a numeric `steps_per_hour`, every
/// class is `<regime> fine:<reason>` in the telemetry vocabulary, and
/// every named cell (other than the matrix-wide `*`) is a cell of the
/// report matrix.
#[test]
fn attribution_baseline_names_known_classes_and_cells() {
    let baseline: Value = load("attribution-baseline.json");
    let Ok(Value::Arr(entries)) = baseline.field("entries") else {
        panic!("attribution-baseline.json: `entries` must be an array");
    };
    assert!(!entries.is_empty(), "attribution baseline has no entries");
    // The report's cell ids, expanded exactly as the matrix expands
    // them (the runner is a stub: only the ids are needed).
    let matrix = build_report_with(
        &report_scenarios(),
        &REPORT_BUFFERS,
        &REPORT_SEEDS,
        false,
        &|_| RunOutcome::default(),
    );
    let ids: Vec<String> = matrix.cells.iter().map(|c| c.id()).collect();
    for entry in entries {
        let text = |key: &str| match entry.field(key) {
            Ok(Value::Str(s)) => s.clone(),
            _ => panic!("attribution entry {entry:?}: missing string `{key}`"),
        };
        let (cell, class) = (text("cell"), text("class"));
        assert!(
            matches!(entry.field("steps_per_hour"), Ok(Value::Num(_))),
            "attribution entry {cell} {class}: missing numeric `steps_per_hour`"
        );
        let known = class.split_once(" fine:").is_some_and(|(regime, reason)| {
            Regime::ALL.iter().any(|r| r.label() == regime)
                && FallbackReason::ALL.iter().any(|r| r.label() == reason)
        });
        assert!(
            known,
            "attribution class {class:?} is not `<regime> fine:<reason>`"
        );
        assert!(
            cell == "*" || ids.contains(&cell),
            "attribution cell {cell:?} is not a report-matrix cell"
        );
    }
}
