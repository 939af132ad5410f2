//! Output checks: per-cell correctness against the reference outputs
//! recorded in `reference/`, the fleet check, and bit-exact digests.
//!
//! A cell fails when it panics, when its energy-conservation residual
//! reaches [`CONSERVATION_LIMIT`] (in cells that promise conservation,
//! see [`promises_conservation`]), or when its FoM, ops, on-time
//! fraction, boots or reconfigurations leave
//! `scenario_report::Tolerances::default()` around the reference. A
//! fleet fails per poisoned or timed-out node, and entirely when its
//! summary leaves `FleetTolerances::default()`. Bit-exact agreement
//! with the reference is reported but is not a failure: a change may
//! move numbers within tolerance.

use std::collections::HashMap;

use react_circuit::FaultCampaign;
use react_core::fom::figure_of_merit;
use react_core::{
    compare_fleet_reports, FleetAggregate, FleetReport, FleetSpec, FleetSummary, FleetTolerances,
    RunMetrics, Scenario, Tolerances,
};
use serde::Serialize;

use crate::plan::cell_id;

/// Relative energy-conservation residual at which a cell fails.
pub const CONSERVATION_LIMIT: f64 = 5e-3;

/// Whether a cell's energy books must balance. An unaudited cell under
/// a fault campaign does not: its closed-form strides keep integrating
/// the stale datasheet values after the drift, which leaves a ledger
/// residual by design (`react_core::audit` documents it; the audited
/// twin exists to catch it).
pub fn promises_conservation(s: &Scenario) -> bool {
    s.fault == FaultCampaign::None || s.audited
}

const CELLS_TSV: &str = include_str!("../reference/cells.tsv");
const FLEET_TSV: &str = include_str!("../reference/fleet.tsv");

/// Path the reference files are recorded to (`--record-reference`).
pub fn reference_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference")
}

/// FNV-1a, 64-bit: a stable digest of exact outputs.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Bit-exact digest of one cell's outputs (`Debug` prints every f64 in
/// its shortest round-tripping form, so equal text means equal bits).
pub fn metrics_digest(m: &RunMetrics) -> u64 {
    fnv1a(format!("{m:?}").as_bytes(), FNV_OFFSET)
}

pub fn aggregate_digest(a: &FleetAggregate) -> u64 {
    fnv1a(format!("{a:?}").as_bytes(), FNV_OFFSET)
}

/// Names the fields in which two runs' outputs differ.
pub fn differing_fields<T: Serialize>(a: &T, b: &T) -> Vec<String> {
    use serde::Value;
    match (a.to_value(), b.to_value()) {
        (Value::Obj(x), Value::Obj(y)) => {
            let mut fields: Vec<String> = x
                .iter()
                .zip(&y)
                .filter(|((_, va), (_, vb))| va != vb)
                .map(|((k, _), _)| k.clone())
                .collect();
            if fields.is_empty() {
                fields.push("(bits below the f64 field precision)".to_string());
            }
            fields
        }
        _ => vec!["(whole value)".to_string()],
    }
}

/// The reference key of a cell: a cell whose run ignores its salt
/// replays identically under every salt, so one entry covers them all.
pub fn reference_key(s: &Scenario) -> String {
    if s.seed_salt_matters() {
        cell_id(s)
    } else {
        format!("{}/{}/s*", s.name, s.buffer.label())
    }
}

/// The checked fields of one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Checked {
    pub fom: f64,
    pub ops: f64,
    pub on_time: f64,
    pub boots: f64,
    pub reconfigurations: f64,
}

const CHECKED_FIELDS: [&str; 5] = ["fom", "ops", "on-time", "boots", "reconfigurations"];

impl Checked {
    pub fn of(s: &Scenario, m: &RunMetrics) -> Self {
        Checked {
            fom: figure_of_merit(s.workload, m),
            ops: m.ops_completed as f64,
            on_time: m.duty_cycle(),
            boots: m.boots as f64,
            reconfigurations: m.reconfigurations as f64,
        }
    }

    fn values(&self) -> [f64; 5] {
        [
            self.fom,
            self.ops,
            self.on_time,
            self.boots,
            self.reconfigurations,
        ]
    }
}

/// One recorded reference output.
#[derive(Clone, Copy, Debug)]
pub struct RefOutput {
    pub checked: Checked,
    pub digest: u64,
}

/// The recorded reference outputs.
pub struct Reference {
    cells: HashMap<String, RefOutput>,
    fleets: HashMap<u64, (String, FleetSummary, u64)>,
}

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

impl Reference {
    pub fn load() -> Result<Self, String> {
        let mut cells = HashMap::new();
        for (n, line) in CELLS_TSV.lines().enumerate() {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("reference/cells.tsv line {}: malformed", n + 1);
            if f.len() != 7 {
                return Err(bad());
            }
            let v: Vec<f64> = f[1..6]
                .iter()
                .map(|x| x.parse::<f64>().map_err(|_| bad()))
                .collect::<Result<_, _>>()?;
            let checked = Checked {
                fom: v[0],
                ops: v[1],
                on_time: v[2],
                boots: v[3],
                reconfigurations: v[4],
            };
            let digest = parse_hex(f[6]).ok_or_else(bad)?;
            cells.insert(f[0].to_string(), RefOutput { checked, digest });
        }
        let mut fleets = HashMap::new();
        for (n, line) in FLEET_TSV.lines().enumerate() {
            let f: Vec<&str> = line.splitn(4, '\t').collect();
            let bad = || format!("reference/fleet.tsv line {}: malformed", n + 1);
            if f.len() != 4 {
                return Err(bad());
            }
            let seed = parse_hex(f[0]).ok_or_else(bad)?;
            let digest = parse_hex(f[2]).ok_or_else(bad)?;
            let summary: FleetSummary = serde_json::from_str(f[3]).map_err(|_| bad())?;
            fleets.insert(seed, (f[1].to_string(), summary, digest));
        }
        Ok(Reference { cells, fleets })
    }

    pub fn cell(&self, s: &Scenario) -> Option<&RefOutput> {
        self.cells.get(&reference_key(s))
    }
}

fn within(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + abs
}

/// What checking one cell found.
pub struct CellVerdict {
    /// Why the cell failed (empty: it passed).
    pub failures: Vec<String>,
    /// Whether its outputs equal the reference bit for bit.
    pub bit_exact: bool,
}

/// Checks one cell's outputs.
pub fn check_cell(
    s: &Scenario,
    out: &Result<RunMetrics, String>,
    reference: &Reference,
) -> CellVerdict {
    let m = match out {
        Ok(m) => m,
        Err(msg) => {
            return CellVerdict {
                failures: vec![format!("panicked: {msg}")],
                bit_exact: false,
            }
        }
    };
    let mut failures = Vec::new();
    let residual = m.relative_conservation_error();
    if promises_conservation(s) && (residual.is_nan() || residual >= CONSERVATION_LIMIT) {
        failures.push(format!(
            "conservation residual {residual:.3e} >= {CONSERVATION_LIMIT:e}"
        ));
    }
    let Some(r) = reference.cell(s) else {
        failures.push("no reference output recorded for this cell".to_string());
        return CellVerdict {
            failures,
            bit_exact: false,
        };
    };
    let tol = Tolerances::default();
    let cur = Checked::of(s, m);
    let limits = [
        (tol.fom_rel, tol.fom_abs),
        (tol.fom_rel, tol.fom_abs),
        (0.0, tol.on_time_abs),
        (tol.count_rel, tol.count_abs),
        (tol.count_rel, tol.count_abs),
    ];
    for (((field, c), b), (rel, abs)) in CHECKED_FIELDS
        .iter()
        .zip(cur.values())
        .zip(r.checked.values())
        .zip(limits)
    {
        if !within(c, b, rel, abs) {
            failures.push(format!("{field} {c} vs reference {b} (±{rel} rel + {abs})"));
        }
    }
    CellVerdict {
        failures,
        bit_exact: metrics_digest(m) == r.digest,
    }
}

/// What checking the fleet found.
pub struct FleetVerdict {
    /// Nodes that failed.
    pub failed_nodes: usize,
    pub failures: Vec<String>,
    pub bit_exact: bool,
}

/// Checks a fleet run against its recorded reference.
pub fn check_fleet(
    spec: &FleetSpec,
    aggregate: &Result<FleetAggregate, String>,
    reference: &Reference,
) -> FleetVerdict {
    let agg = match aggregate {
        Ok(a) => a,
        Err(e) => {
            return FleetVerdict {
                failed_nodes: spec.nodes,
                failures: vec![format!("fleet did not run: {e}")],
                bit_exact: false,
            }
        }
    };
    let mut failures: Vec<String> = agg
        .poisoned
        .iter()
        .map(|p| format!("node {}: poisoned: {}", p.node, p.message))
        .chain(agg.timed_out.iter().map(|t| {
            format!(
                "node {}: watchdog timeout after {} engine steps",
                t.node, t.engine_steps
            )
        }))
        .collect();
    let mut failed_nodes = failures.len();
    let Some((fingerprint, summary, digest)) = reference.fleets.get(&spec.fleet_seed) else {
        failures.push(format!(
            "no reference output recorded for fleet seed {:#x}",
            spec.fleet_seed
        ));
        return FleetVerdict {
            failed_nodes: spec.nodes,
            failures,
            bit_exact: false,
        };
    };
    // Poisoned and timed-out nodes are counted above; the tolerance
    // comparison covers the summary alone.
    let mut healthy = agg.clone();
    healthy.poisoned.clear();
    healthy.timed_out.clear();
    let fresh = FleetReport::from_run(spec, healthy, 0.0);
    let mut baseline = fresh.clone();
    baseline.fingerprint = fingerprint.clone();
    baseline.summary = *summary;
    let violations = compare_fleet_reports(&baseline, &fresh, &FleetTolerances::default());
    if !violations.is_empty() {
        failed_nodes = spec.nodes;
        failures.extend(violations);
    }
    FleetVerdict {
        failed_nodes,
        failures,
        bit_exact: aggregate_digest(agg) == *digest,
    }
}

/// Reference file lines for recorded cells.
pub fn cell_reference_line(s: &Scenario, m: &RunMetrics) -> String {
    let c = Checked::of(s, m);
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{:#018x}",
        reference_key(s),
        c.fom,
        c.ops,
        c.on_time,
        c.boots,
        c.reconfigurations,
        metrics_digest(m)
    )
}

/// Reference file line for a recorded fleet.
pub fn fleet_reference_line(spec: &FleetSpec, agg: &FleetAggregate) -> Result<String, String> {
    let summary = serde_json::to_string(&agg.summary()).map_err(|e| e.to_string())?;
    Ok(format!(
        "{:#x}\t{}\t{:#018x}\t{summary}",
        spec.fleet_seed,
        spec.fingerprint(),
        aggregate_digest(agg)
    ))
}
