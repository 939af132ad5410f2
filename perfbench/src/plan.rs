//! The benchmark's inputs: each workload's cells (or fleet), derived from
//! the workload seed, and the set-up that expands them.
//!
//! Every seed salt the cells run at — and the fleet seed — comes from
//! one seed-ordered pool of [`SALT_POOL`] salts. The pool is finite so
//! that the committed reference outputs (see `check.rs`) cover every
//! cell any seed can produce; the seed decides which salts a run uses
//! and in which order.

use react_buffers::BufferKind;
use react_core::scenario::DAY;
use react_core::scenario_report::{report_scenarios, DARK_FLOOR, REPORT_BUFFERS};
use react_core::{fault_scenario_registry, find_scenario, FleetBins, FleetSpec, Scenario};
use react_env::dark_stats;

/// The seed a run uses when `--seed` is not given. It maps to pool
/// order `0, 1, 2, …`, so the default scenario-matrix cells are the
/// committed scenario report's (salts 0 and 1) and the default fleet
/// seed is the committed fleet report's.
pub const DEFAULT_SEED: u64 = 0;

/// Salts `0..SALT_POOL` make up the pool.
pub const SALT_POOL: usize = 16;

/// Salts per stochastic row in `scenario-matrix` (the report's seed axis).
const MATRIX_SALTS: usize = 2;

/// Salts per stochastic row in `dark-strides`: enough for 104 cells, so
/// at least ten lie beyond the p90.
const DARK_SALTS: usize = 12;

/// The registry's stride-bound rows: most of their host time goes to
/// the buffers' closed-form MCU-off and LPM3 strides.
const DARK_ROWS: [&str; 4] = [
    "rf-sparse-week",
    "diurnal-day-react-sc",
    "mobility-day-10mf-sc",
    "react-plateau-sc",
];

/// The fleet: this many `rf-sparse-week` nodes, one simulated day each.
/// Two full 1024-node shards, so a two-core host runs one per core.
const FLEET_NODES: usize = 2048;

/// The fleet report's committed seed; pool salt `k` runs fleet seed
/// `FLEET_SEED ^ k`.
const FLEET_SEED: u64 = 0x000F_1EE7;

/// The benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 116-cell benign report matrix plus the fault registry cells.
    ScenarioMatrix,
    /// The stride-bound registry rows at many salts.
    DarkStrides,
    /// A sharded `rf-sparse-week` fleet over one day.
    FleetDay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScenarioMatrix,
        Workload::DarkStrides,
        Workload::FleetDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScenarioMatrix => "scenario-matrix",
            Workload::DarkStrides => "dark-strides",
            Workload::FleetDay => "fleet-day",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The salt pool in the order `seed` uses it: the identity for
/// [`DEFAULT_SEED`], a seeded Fisher–Yates shuffle otherwise.
pub fn salt_order(seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..SALT_POOL as u64).collect();
    if seed != DEFAULT_SEED {
        let mut state = seed;
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

/// A cell's id, as the scenario report prints it.
pub fn cell_id(s: &Scenario) -> String {
    format!("{}/{}/s{}", s.name, s.buffer.label(), s.seed_salt)
}

/// Simulated hours a cell covers (its harvest horizon).
pub fn sim_hours(s: &Scenario) -> f64 {
    s.horizon.get() / 3600.0
}

/// Rows × report buffers × salts. A cell whose run ignores the salt
/// runs once, at the first salt, as the scenario report does.
fn expand(rows: &[Scenario], salts: &[u64]) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for row in rows {
        for buffer in REPORT_BUFFERS {
            let base = row.with_buffer(buffer);
            let n = if base.seed_salt_matters() {
                salts.len()
            } else {
                1
            };
            cells.extend(salts[..n].iter().map(|&salt| base.with_seed_salt(salt)));
        }
    }
    cells
}

/// The fault report's cells — every fault-registry entry as declared
/// plus the healthy twins it is scored against — at one salt.
fn fault_cells(salt: u64) -> Vec<Scenario> {
    let mut cells: Vec<Scenario> = fault_scenario_registry().to_vec();
    let twins: Vec<Scenario> = cells
        .iter()
        .filter_map(|s| s.healthy_twin())
        .filter_map(find_scenario)
        .copied()
        .collect();
    for twin in twins {
        if !cells.iter().any(|s| s.name == twin.name) {
            cells.push(twin);
        }
    }
    cells.into_iter().map(|s| s.with_seed_salt(salt)).collect()
}

fn registry_row(name: &str) -> Scenario {
    *find_scenario(name).unwrap_or_else(|| panic!("registry scenario {name:?} is missing"))
}

/// The cells of a cell workload at the given salts (in pool order).
pub fn cells(workload: Workload, order: &[u64]) -> Vec<Scenario> {
    match workload {
        Workload::ScenarioMatrix => {
            let mut cells = expand(&report_scenarios(), &order[..MATRIX_SALTS]);
            cells.extend(fault_cells(order[0]));
            cells
        }
        Workload::DarkStrides => {
            let rows: Vec<Scenario> = DARK_ROWS.iter().map(|n| registry_row(n)).collect();
            expand(&rows, &order[..DARK_SALTS])
        }
        Workload::FleetDay => Vec::new(),
    }
}

/// Every cell any seed can give a cell workload: each workload at the
/// whole pool, deduplicated by id.
pub fn all_pool_cells() -> Vec<Scenario> {
    let pool: Vec<u64> = (0..SALT_POOL as u64).collect();
    let mut all = expand(&report_scenarios(), &pool);
    for &salt in &pool {
        all.extend(fault_cells(salt));
    }
    let rows: Vec<Scenario> = DARK_ROWS.iter().map(|n| registry_row(n)).collect();
    all.extend(expand(&rows, &pool));
    let mut seen = std::collections::HashSet::new();
    all.retain(|s| seen.insert(cell_id(s)));
    all
}

/// The fleet spec pool salt `salt` runs, without its calibrated bins.
pub fn fleet_spec(salt: u64) -> FleetSpec {
    let mut base = registry_row("rf-sparse-week");
    base.horizon = base.horizon.min(DAY);
    FleetSpec::new(base, FLEET_NODES, FLEET_SEED ^ salt)
}

/// What a workload runs, once set up.
pub enum Plan {
    Cells(Vec<Scenario>),
    Fleet(FleetSpec),
}

/// A set-up workload plus what its environments look like.
pub struct Setup {
    pub plan: Plan,
    /// Distinct environment streams synthesized.
    pub environments: usize,
    /// Mean fraction of the horizon those environments are dark.
    pub dark_fraction: f64,
}

/// Everything before the first cell starts: scenario expansion, a walk
/// over every distinct environment stream the cells will replay (trace
/// synthesis for recorded traces; the scenario report's environment
/// table computes the same statistics), and for the fleet the
/// `FleetBins::calibrated` pilot run.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let order = salt_order(seed);
    let (plan, envs): (Plan, Vec<Scenario>) = match workload {
        Workload::FleetDay => {
            let mut spec = fleet_spec(order[0]);
            spec.bins = FleetBins::calibrated(&spec.base, spec.fleet_seed);
            let node0 = spec.node_scenario(0);
            (Plan::Fleet(spec), vec![node0])
        }
        _ => {
            let cells = cells(workload, &order);
            let mut envs: Vec<Scenario> = Vec::new();
            for s in &cells {
                let same_stream = |e: &Scenario| {
                    e.env == s.env
                        && e.horizon == s.horizon
                        && (e.seed_salt == s.seed_salt || !s.env.salt_sensitive())
                };
                if !envs.iter().any(same_stream) {
                    envs.push(*s);
                }
            }
            (Plan::Cells(cells), envs)
        }
    };
    let dark: f64 = envs
        .iter()
        .map(|s| dark_stats(s.source().as_mut(), s.horizon, DARK_FLOOR).dark_fraction)
        .sum();
    Setup {
        plan,
        environments: envs.len(),
        dark_fraction: dark / envs.len().max(1) as f64,
    }
}

/// Whether a buffer design runs a capacitance controller (the
/// `.controller` split of `buffers.step`) rather than a fixed capacitor.
pub fn has_controller(kind: BufferKind) -> bool {
    matches!(
        kind,
        BufferKind::React | BufferKind::Morphy | BufferKind::Capybara
    )
}
