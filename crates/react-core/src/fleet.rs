//! Fleet-scale simulation: one run, 100k+ devices.
//!
//! The scalar engine answers "how does *one* node behave under this
//! scenario?". Deployment questions are fleet questions: what is the
//! p5 figure of merit across 100 000 co-deployed tags whose harvests
//! are *almost* — but not exactly — the same? This module answers them
//! without giving up the scalar engine's semantics:
//!
//! * [`FleetSpec`] — a base [`Scenario`] fanned out to `nodes` cells,
//!   each re-salted with [`node_salt`] (splitmix64 over the fleet seed
//!   and node index) so every node sees statistically independent
//!   environment and workload streams from one committed seed.
//! * [`FleetSim`] — the fleet kernel: a shard of salted cells, each
//!   run to completion as a [`SimCore`] in node-index order and folded
//!   into the shard aggregate as it finishes. Because a [`SimCore`]
//!   run is exactly a [`Scenario::run`], fleet aggregates are
//!   *bit-comparable* to N independent scalar runs — the property the
//!   `fleet_vs_scalar` bench and tier-1 tests pin down.
//! * [`FleetAggregate`] / [`Histogram`] — streaming reduction. Memory
//!   is O(one live cell per worker + histogram bins), never O(nodes):
//!   a 100k-node week costs the same RAM as a 1k-node week.
//! * [`run_fleet`] — the sharded runner: rayon-parallel shards,
//!   deterministic in-order merge, and JSON checkpoint/resume keyed by
//!   a config fingerprint so an interrupted 100k run resumes instead
//!   of restarting.
//!
//! [`node_salt`]: react_env::node_salt
//! [`SimCore`]: crate::SimCore

use std::path::Path;
use std::sync::Mutex;

use rayon::prelude::*;
use react_env::node_salt;
use react_telemetry::{NullRecorder, Recorder, StepAttribution};
use react_units::Seconds;
use serde::{Deserialize, Serialize};

use crate::fom::figure_of_merit;
use crate::scenario::Scenario;
use crate::RunMetrics;

/// Default cells per shard: large enough to amortize per-shard
/// overhead, small enough that a checkpoint granule is cheap to lose.
pub const DEFAULT_SHARD_SIZE: usize = 1024;

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Fixed-bin streaming histogram.
///
/// Binning is fixed at construction (not adaptive) so histograms built
/// by different shards — possibly on different machines — merge
/// exactly. Values outside `[lo, lo + bins·width)` land in dedicated
/// underflow/overflow counters rather than silently clamping the
/// distribution.
///
/// Serialization note: `min`/`max` hold `0.0` (not ±inf) while
/// `count == 0` because the JSON layer cannot round-trip non-finite
/// floats; [`Histogram::merge`] and [`Histogram::record`] maintain the
/// convention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Lower edge of bin 0.
    pub lo: f64,
    /// Width of every bin.
    pub width: f64,
    /// Per-bin counts.
    pub bins: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above the last bin edge.
    pub overflow: u64,
    /// Total samples recorded (including under/overflow).
    pub count: u64,
    /// Sum of all samples (for the mean).
    pub sum: f64,
    /// Smallest sample seen (`0.0` while empty).
    pub min: f64,
    /// Largest sample seen (`0.0` while empty).
    pub max: f64,
}

impl Histogram {
    /// A histogram covering `[lo, hi)` with `bins` equal bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "degenerate histogram range");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
        if v < self.lo {
            self.underflow += 1;
        } else {
            let idx = ((v - self.lo) / self.width) as usize;
            if idx >= self.bins.len() {
                self.overflow += 1;
            } else {
                self.bins[idx] += 1;
            }
        }
    }

    /// Merges another histogram with identical binning into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.bins.len() == other.bins.len() && self.lo == other.lo && self.width == other.width,
            "merging histograms with mismatched binning"
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        for (b, o) in self.bins.iter_mut().zip(other.bins.iter()) {
            *b += o;
        }
    }

    /// Mean of all recorded samples (`0.0` while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]` from bin midpoints, clamped
    /// to the exact observed `[min, max]`. Underflow mass reports
    /// `min`, overflow mass reports `max`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = self.underflow;
        if cum >= target {
            return self.min;
        }
        for (i, &b) in self.bins.iter().enumerate() {
            cum += b;
            if cum >= target {
                let mid = self.lo + (i as f64 + 0.5) * self.width;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Per-node stats and the streaming aggregate
// ---------------------------------------------------------------------------

/// The per-node scalars the fleet reduction keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStats {
    /// Workload figure of merit ([`figure_of_merit`]).
    pub fom: f64,
    /// Fraction of the run spent powered on.
    pub on_frac: f64,
    /// Longest continuous off period, seconds.
    pub outage_s: f64,
    /// Boot count.
    pub boots: f64,
    /// Operations completed.
    pub ops: f64,
    /// Hardware-drift fault events injected (0 for benign fleets).
    pub faults: f64,
    /// Invariant-auditor trips that degraded a fast path.
    pub trips: f64,
}

impl NodeStats {
    /// Extracts the fleet-relevant scalars from one finished run.
    pub fn from_metrics(scenario: &Scenario, m: &RunMetrics) -> Self {
        NodeStats {
            fom: figure_of_merit(scenario.workload, m),
            on_frac: m.duty_cycle(),
            outage_s: m.max_off_period.get(),
            boots: m.boots as f64,
            ops: m.ops_completed as f64,
            faults: m.faults_injected as f64,
            trips: m.audit_trips as f64,
        }
    }
}

/// A fleet cell whose run panicked or whose simulator rejected its
/// configuration. The fleet kernel catches the failure, records the
/// node here, and keeps the shard going — one diverging cell never
/// takes down its 1023 neighbours.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoisonedNode {
    /// Fleet node index.
    pub node: f64,
    /// The panic payload, when it was a string (it almost always is).
    pub message: String,
}

/// A fleet cell that exceeded its engine-step watchdog budget — a
/// fault-wedged cell (e.g. a welded switch fine-stepping below
/// brown-out forever) becomes a reported entry instead of a hung
/// shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedOutNode {
    /// Fleet node index.
    pub node: f64,
    /// Engine steps spent when the watchdog fired.
    pub engine_steps: f64,
    /// Simulated time reached when the watchdog fired, seconds.
    pub sim_time_s: f64,
}

/// Histogram binning bounds for a fleet run. Fixed per-run so every
/// shard bins identically and merges are exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetBins {
    /// FoM histogram upper edge (lower edge is 0).
    pub fom_cap: f64,
    /// Outage histogram upper edge, seconds (lower edge is 0).
    pub outage_cap_s: f64,
    /// Boot-count histogram upper edge (lower edge is 0).
    pub boots_cap: f64,
    /// Bin count shared by every histogram.
    pub bins: f64,
}

impl FleetBins {
    /// Bounds sized for the week-class scenario registry: FoM in ops
    /// (DE week ≈ 10⁵–10⁶), outages up to a full day, boots to 10⁴.
    pub fn default_for(horizon: Seconds) -> Self {
        FleetBins {
            fom_cap: 2.0e6,
            outage_cap_s: horizon.get().min(86_400.0),
            boots_cap: 1.0e4,
            bins: 512.0,
        }
    }

    /// Pilot-calibrated bounds: runs node 0 of the (seeded) fleet
    /// scalar and sizes each histogram to a few multiples of its
    /// stats, so the fleet's actual spread lands across many bins
    /// instead of collapsing into one. Deterministic for a given
    /// (scenario, seed) — the pilot is part of the fleet itself — and
    /// the resulting caps are covered by [`FleetSpec::fingerprint`],
    /// so a baseline can never silently compare across binnings.
    pub fn calibrated(base: &Scenario, fleet_seed: u64) -> Self {
        let pilot = base.with_seed_salt(node_salt(fleet_seed, 0));
        let out = pilot.run();
        let stats = NodeStats::from_metrics(&pilot, &out.metrics);
        FleetBins {
            fom_cap: (stats.fom * 4.0).max(16.0),
            outage_cap_s: (stats.outage_s * 4.0).clamp(60.0, base.horizon.get().max(60.0)),
            boots_cap: (stats.boots * 4.0).max(16.0),
            bins: 512.0,
        }
    }

    fn bin_count(&self) -> usize {
        (self.bins as usize).max(1)
    }
}

/// Streaming fleet-wide reduction: four fixed-bin histograms plus
/// exact totals. Memory is O(bins) regardless of fleet size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAggregate {
    /// Nodes folded in so far.
    pub nodes: f64,
    /// Exact total operations across the fleet.
    pub total_ops: f64,
    /// Figure-of-merit distribution.
    pub fom: Histogram,
    /// On-time fraction distribution.
    pub on_frac: Histogram,
    /// Longest-outage distribution (seconds).
    pub outage_s: Histogram,
    /// Boot-count distribution.
    pub boots: Histogram,
    /// Exact total fault events injected across the fleet.
    #[serde(default)]
    pub total_faults: f64,
    /// Exact total auditor trips across the fleet.
    #[serde(default)]
    pub total_trips: f64,
    /// Per-node auditor-trip distribution (degradation histogram).
    /// Fixed binning `[0, 64)` × 64 so shards merge exactly; `None`
    /// only when deserialized from a pre-fault-era checkpoint.
    #[serde(default)]
    pub trips: Option<Histogram>,
    /// Nodes whose run panicked (isolated, not fatal to the shard).
    /// Empty for a healthy fleet; any entry fails the CI gate.
    #[serde(default)]
    pub poisoned: Vec<PoisonedNode>,
    /// Nodes that blew their engine-step watchdog budget. Empty for a
    /// healthy fleet; any entry fails the CI gate.
    #[serde(default)]
    pub timed_out: Vec<TimedOutNode>,
}

impl FleetAggregate {
    /// Fixed binning of the per-node auditor-trip histogram: a cell
    /// trips at most once per (regime × fault window), so 64 covers
    /// any realistic campaign while staying merge-exact everywhere.
    pub const TRIPS_BINS: (f64, f64, usize) = (0.0, 64.0, 64);

    /// An empty aggregate with the given binning.
    pub fn new(bins: FleetBins) -> Self {
        let n = bins.bin_count();
        let (tlo, thi, tn) = Self::TRIPS_BINS;
        FleetAggregate {
            nodes: 0.0,
            total_ops: 0.0,
            fom: Histogram::new(0.0, bins.fom_cap, n),
            on_frac: Histogram::new(0.0, 1.0, n),
            outage_s: Histogram::new(0.0, bins.outage_cap_s, n),
            boots: Histogram::new(0.0, bins.boots_cap, n),
            total_faults: 0.0,
            total_trips: 0.0,
            trips: Some(Histogram::new(tlo, thi, tn)),
            poisoned: Vec::new(),
            timed_out: Vec::new(),
        }
    }

    /// Folds one node's stats into the aggregate.
    pub fn record(&mut self, s: &NodeStats) {
        self.nodes += 1.0;
        self.total_ops += s.ops;
        self.fom.record(s.fom);
        self.on_frac.record(s.on_frac);
        self.outage_s.record(s.outage_s);
        self.boots.record(s.boots);
        self.total_faults += s.faults;
        self.total_trips += s.trips;
        if let Some(trips) = &mut self.trips {
            trips.record(s.trips);
        }
    }

    /// Merges a shard aggregate (identical binning) into this one.
    pub fn merge(&mut self, other: &FleetAggregate) {
        self.nodes += other.nodes;
        self.total_ops += other.total_ops;
        self.fom.merge(&other.fom);
        self.on_frac.merge(&other.on_frac);
        self.outage_s.merge(&other.outage_s);
        self.boots.merge(&other.boots);
        self.total_faults += other.total_faults;
        self.total_trips += other.total_trips;
        // A pre-fault-era side (trips = None) contributes nothing: it
        // could only have recorded zero trips.
        if let Some(theirs) = &other.trips {
            match &mut self.trips {
                Some(mine) => mine.merge(theirs),
                None => self.trips = Some(theirs.clone()),
            }
        }
        self.poisoned.extend(other.poisoned.iter().cloned());
        self.timed_out.extend(other.timed_out.iter().cloned());
    }

    /// Collapses the aggregate into the headline percentile summary.
    pub fn summary(&self) -> FleetSummary {
        FleetSummary {
            nodes: self.nodes,
            total_ops: self.total_ops,
            fom_mean: self.fom.mean(),
            fom_p5: self.fom.quantile(0.05),
            fom_p50: self.fom.quantile(0.50),
            fom_p95: self.fom.quantile(0.95),
            fom_p99: self.fom.quantile(0.99),
            on_frac_mean: self.on_frac.mean(),
            on_frac_p5: self.on_frac.quantile(0.05),
            on_frac_p50: self.on_frac.quantile(0.50),
            outage_p50_s: self.outage_s.quantile(0.50),
            outage_p95_s: self.outage_s.quantile(0.95),
            outage_max_s: self.outage_s.max,
            boots_mean: self.boots.mean(),
            total_faults: self.total_faults,
            total_trips: self.total_trips,
            poisoned_nodes: self.poisoned.len() as f64,
            timed_out_nodes: self.timed_out.len() as f64,
        }
    }
}

/// Headline fleet percentiles — the quantities the CI gate pins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Nodes simulated.
    pub nodes: f64,
    /// Total operations completed fleet-wide.
    pub total_ops: f64,
    /// Mean figure of merit.
    pub fom_mean: f64,
    /// 5th-percentile FoM (the deployment's weak tail).
    pub fom_p5: f64,
    /// Median FoM.
    pub fom_p50: f64,
    /// 95th-percentile FoM.
    pub fom_p95: f64,
    /// 99th-percentile FoM.
    pub fom_p99: f64,
    /// Mean on-time fraction.
    pub on_frac_mean: f64,
    /// 5th-percentile on-time fraction.
    pub on_frac_p5: f64,
    /// Median on-time fraction.
    pub on_frac_p50: f64,
    /// Median longest outage, seconds.
    pub outage_p50_s: f64,
    /// 95th-percentile longest outage, seconds.
    pub outage_p95_s: f64,
    /// Worst outage across the fleet, seconds.
    pub outage_max_s: f64,
    /// Mean boot count.
    pub boots_mean: f64,
    /// Total fault events injected fleet-wide (0 for benign fleets).
    #[serde(default)]
    pub total_faults: f64,
    /// Total auditor trips fleet-wide.
    #[serde(default)]
    pub total_trips: f64,
    /// Nodes whose run panicked (any non-zero value fails the gate).
    #[serde(default)]
    pub poisoned_nodes: f64,
    /// Nodes that blew their watchdog budget (any non-zero value
    /// fails the gate).
    #[serde(default)]
    pub timed_out_nodes: f64,
}

// ---------------------------------------------------------------------------
// Fleet spec
// ---------------------------------------------------------------------------

/// A fleet run: one base scenario fanned out to `nodes` salted cells.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// The shared topology every node runs.
    pub base: Scenario,
    /// Fleet size.
    pub nodes: usize,
    /// Root seed; node `i` runs salt [`node_salt`]`(fleet_seed, i)`.
    pub fleet_seed: u64,
    /// Cells per shard (checkpoint granule).
    pub shard_size: usize,
    /// Histogram binning shared by every shard.
    pub bins: FleetBins,
    /// Explicit per-cell engine-step watchdog budget. `None` (the
    /// default, and the only fingerprint-neutral value) derives the
    /// budget from the cell's scenario: `4·(horizon/dt) + 10_000`
    /// engine steps — four times what the fixed-`dt` reference would
    /// spend, so no honest cell can trip it while a fault-wedged cell
    /// becomes a [`TimedOutNode`] instead of a hung shard.
    pub step_budget: Option<u64>,
}

impl FleetSpec {
    /// A fleet of `nodes` cells over `base` with default sharding.
    pub fn new(base: Scenario, nodes: usize, fleet_seed: u64) -> Self {
        FleetSpec {
            base,
            nodes,
            fleet_seed,
            shard_size: DEFAULT_SHARD_SIZE,
            bins: FleetBins::default_for(base.horizon),
            step_budget: None,
        }
    }

    /// The salted scenario node `i` runs.
    pub fn node_scenario(&self, i: usize) -> Scenario {
        self.base
            .with_seed_salt(node_salt(self.fleet_seed, i as u64))
    }

    /// Number of shards ([`FleetSpec::shard_size`]-sized, last ragged).
    pub fn shard_count(&self) -> usize {
        self.nodes.div_ceil(self.shard_size.max(1))
    }

    /// Node-index range `[start, end)` covered by shard `s`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        let start = s * self.shard_size;
        (start, (start + self.shard_size).min(self.nodes))
    }

    /// Config fingerprint (hex string) binding a checkpoint or a
    /// committed baseline to the exact fleet configuration: scenario
    /// name, node count, seed, sharding, horizon, and binning. FNV-1a
    /// over the rendered config — stable across toolchains, and a
    /// string because the JSON layer only round-trips integers up to
    /// 2^53 exactly.
    pub fn fingerprint(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        // The literal `3600` sits where the retired heap-chunk length
        // was rendered: keeping it keeps every fingerprint — the
        // committed `ci/fleet-baseline.json` (`5aeae4d70ce9200a`), the
        // benchmark's `reference/fleet.tsv` and users' checkpoints —
        // matching.
        let mut rendered = format!(
            "{}|{}|{}|{}|3600|{}|{}|{}|{}",
            self.base.name,
            self.nodes,
            self.fleet_seed,
            self.shard_size,
            self.base.horizon.get(),
            self.bins.fom_cap,
            self.bins.outage_cap_s,
            self.bins.bin_count(),
        );
        // Fault-era segments append only when non-default, so every
        // pre-fault fingerprint (and its committed baselines and
        // checkpoints) is untouched.
        if self.base.fault != react_circuit::FaultCampaign::None {
            rendered.push_str(&format!("|fault:{}", self.base.fault.label()));
        }
        if self.base.audited {
            rendered.push_str("|audited");
        }
        if let Some(budget) = self.step_budget {
            rendered.push_str(&format!("|budget:{budget}"));
        }
        let h = rendered
            .bytes()
            .fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME));
        format!("{h:016x}")
    }
}

// ---------------------------------------------------------------------------
// The fleet kernel
// ---------------------------------------------------------------------------

/// The fleet kernel: a shard of salted cells run one at a time to
/// completion, in node-index order.
///
/// Each [`FleetSimT::step`] builds the next node's
/// [`SimCore`](crate::SimCore), drives it to the end of its run, and
/// folds its [`NodeStats`] into the shard's [`FleetAggregate`]. Cells
/// do not interact, so running them back to back is exactly N scalar
/// runs folded in node order — the order-sensitive f64 reductions are
/// deterministic and bit-equal to the scalar reference — and only one
/// cell is ever alive: memory is O(one live cell per worker +
/// histogram bins).
///
/// The recorder parameter `R` defaults to [`NullRecorder`], which
/// compiles every telemetry hook away — the bare [`FleetSim`] alias is
/// the zero-overhead production kernel. Instantiate with
/// [`StepAttribution`] (e.g. via [`run_shard_attributed`]) to profile
/// where the fleet's engine steps go; per-cell recorders are absorbed
/// in node-index order, so the profile is as deterministic as the
/// aggregate.
pub struct FleetSimT<R: Recorder + Default = NullRecorder> {
    scenarios: Vec<Scenario>,
    /// Index into `scenarios` of the next node to run.
    next: usize,
    /// Fleet node index of `scenarios[0]` (shards report fleet-global
    /// indices).
    first_node: usize,
    /// Explicit watchdog budget; `None` derives per-cell defaults.
    budget_override: Option<u64>,
    aggregate: FleetAggregate,
    recorder: R,
}

/// Default watchdog budget for one cell: four times the fixed-`dt`
/// reference step count plus slack for boot/servicing overhead.
fn default_step_budget(s: &Scenario) -> u64 {
    4 * (s.horizon.get() / s.dt.get()).round() as u64 + 10_000
}

/// How a node's run ended when it did not fail outright.
enum NodeEnd<R> {
    /// Ran to completion.
    Finished(NodeStats, R),
    /// Blew the watchdog budget.
    Overran(TimedOutNode),
}

/// The production fleet kernel: no telemetry, no overhead.
pub type FleetSim = FleetSimT<NullRecorder>;

impl<R: Recorder + Default> FleetSimT<R> {
    /// Builds a shard from explicit (already salted) scenarios. Cells
    /// are built as they run, so a scenario its simulator rejects
    /// surfaces as a [`PoisonedNode`] from [`FleetSimT::step`].
    pub fn from_scenarios(scenarios: Vec<Scenario>, bins: FleetBins) -> Self {
        FleetSimT {
            scenarios,
            next: 0,
            first_node: 0,
            budget_override: None,
            aggregate: FleetAggregate::new(bins),
            recorder: R::default(),
        }
    }

    /// Builds the shard `[start, end)` of a fleet spec. Construction
    /// itself cannot fail: a node whose simulator rejects its
    /// configuration is reported as a [`PoisonedNode`].
    pub fn from_spec_range(spec: &FleetSpec, start: usize, end: usize) -> Result<Self, String> {
        let scenarios: Vec<Scenario> = (start..end).map(|i| spec.node_scenario(i)).collect();
        let mut sim = FleetSimT::from_scenarios(scenarios, spec.bins);
        sim.first_node = start;
        sim.budget_override = spec.step_budget;
        Ok(sim)
    }

    /// Nodes not yet finished.
    pub fn live_cells(&self) -> usize {
        self.scenarios.len() - self.next
    }

    /// Finishes exactly one node — the lowest-indexed one not yet run —
    /// and returns whether any nodes remain. Once every node has
    /// finished this is a no-op returning `false`.
    ///
    /// The node is built and advanced inside `catch_unwind`: a cell
    /// that panics or whose simulator rejects its configuration becomes
    /// a [`PoisonedNode`], and a cell that exceeds its engine-step
    /// watchdog budget becomes a [`TimedOutNode`] — either way the
    /// shard keeps going and the failure is a reported aggregate entry,
    /// not a crashed or hung run.
    pub fn step(&mut self) -> bool {
        let Some(&scenario) = self.scenarios.get(self.next) else {
            return false;
        };
        let node = self.first_node + self.next;
        self.next += 1;
        let budget_override = self.budget_override;
        let ended = std::panic::catch_unwind(move || {
            let mut cell = scenario
                .simulator()
                .with_recorder(R::default())
                .try_into_core()
                .map_err(|e| format!("fleet cell {node} ({}): {e}", scenario.name))?;
            let budget = budget_override.unwrap_or_else(|| default_step_budget(&scenario));
            loop {
                if cell.engine_steps() >= budget {
                    return Ok(NodeEnd::Overran(TimedOutNode {
                        node: node as f64,
                        engine_steps: cell.engine_steps() as f64,
                        sim_time_s: cell.now().get(),
                    }));
                }
                if !cell.advance() {
                    break;
                }
            }
            let (outcome, recorder) = cell.finish_telemetry();
            Ok(NodeEnd::Finished(
                NodeStats::from_metrics(&scenario, &outcome.metrics),
                recorder,
            ))
        })
        .unwrap_or_else(|payload| Err(crate::scenario_report::panic_message(payload)));
        match ended {
            Ok(NodeEnd::Finished(stats, recorder)) => {
                self.aggregate.record(&stats);
                self.recorder.absorb(recorder);
            }
            Ok(NodeEnd::Overran(timed_out)) => self.aggregate.timed_out.push(timed_out),
            Err(message) => self.aggregate.poisoned.push(PoisonedNode {
                node: node as f64,
                message,
            }),
        }
        self.live_cells() > 0
    }

    /// Runs every remaining node to completion, returning the shard
    /// aggregate alongside the shard-wide recorder (per-cell recorders
    /// absorbed in node-index order).
    pub fn run_telemetry(mut self) -> (FleetAggregate, R) {
        while self.step() {}
        (self.aggregate, self.recorder)
    }

    /// Runs every remaining node to completion and returns the shard
    /// aggregate.
    pub fn run(self) -> FleetAggregate {
        self.run_telemetry().0
    }
}

// ---------------------------------------------------------------------------
// Sharded runner with checkpoint/resume
// ---------------------------------------------------------------------------

/// One completed shard inside a [`FleetCheckpoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Shard index within the fleet.
    pub index: f64,
    /// The shard's reduced aggregate.
    pub aggregate: FleetAggregate,
}

/// On-disk checkpoint: the fleet fingerprint plus every finished
/// shard's aggregate. Granularity is the shard — an interrupted run
/// loses at most one shard of work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// [`FleetSpec::fingerprint`] of the producing configuration.
    pub fingerprint: String,
    /// Completed shards, any order on disk; merged in index order.
    pub shards: Vec<ShardEntry>,
}

/// Options for [`run_fleet`].
#[derive(Debug, Clone, Default)]
pub struct FleetRunOptions {
    /// Checkpoint path: loaded (if fingerprint-compatible) before the
    /// run, rewritten after every completed shard.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Stop after this many *newly executed* shards (for tests and
    /// incremental runs). `None` runs to completion.
    pub max_shards: Option<usize>,
    /// Run shards through the rayon pool instead of serially.
    pub parallel: bool,
    /// Also collect a fleet-wide [`StepAttribution`] profile. Shards
    /// restored from a checkpoint carry no recorder state, so a
    /// resumed run's profile covers only the newly executed shards.
    pub attribution: bool,
}

/// Result of a [`run_fleet`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRunResult {
    /// Fleet-wide aggregate over every *completed* shard.
    pub aggregate: FleetAggregate,
    /// Shards completed so far (including resumed ones).
    pub shards_done: usize,
    /// Total shards in the fleet.
    pub shards_total: usize,
    /// Shards skipped because the checkpoint already had them.
    pub shards_resumed: usize,
    /// Fleet-wide step-attribution profile, present only when
    /// [`FleetRunOptions::attribution`] was set. Merged in shard-index
    /// order (each shard absorbed in node-index order), so it is as
    /// deterministic as the aggregate. Resumed shards contribute
    /// nothing — checkpoints store aggregates, not recorders.
    pub attribution: Option<StepAttribution>,
}

impl FleetRunResult {
    /// Whether every shard has been folded in.
    pub fn complete(&self) -> bool {
        self.shards_done == self.shards_total
    }
}

fn load_checkpoint(path: &Path, fingerprint: &str) -> Result<Vec<ShardEntry>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading checkpoint {}: {e}", path.display()))?;
    // A corrupt checkpoint (truncated write, garbled JSON) is not a
    // fatal error: move it aside loudly and restart the fleet clean.
    // A *fingerprint mismatch* below stays fatal — that file is a
    // valid checkpoint for some other configuration.
    let ckpt: FleetCheckpoint = match serde_json::from_str(&text) {
        Ok(ckpt) => ckpt,
        Err(e) => {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("checkpoint");
            let corrupt = path.with_file_name(format!("{name}.corrupt"));
            match std::fs::rename(path, &corrupt) {
                Ok(()) => eprintln!(
                    "fleet checkpoint {} is corrupt ({e}); moved aside to {} and \
                     restarting the fleet from scratch",
                    path.display(),
                    corrupt.display()
                ),
                Err(mv) => eprintln!(
                    "fleet checkpoint {} is corrupt ({e}); could not move it aside \
                     ({mv}); ignoring it and restarting the fleet from scratch",
                    path.display()
                ),
            }
            return Ok(Vec::new());
        }
    };
    if ckpt.fingerprint != fingerprint {
        return Err(format!(
            "checkpoint {} fingerprint {} does not match fleet config {fingerprint}; \
             delete it or rerun the original configuration",
            path.display(),
            ckpt.fingerprint
        ));
    }
    Ok(ckpt.shards)
}

fn save_checkpoint(path: &Path, fingerprint: &str, shards: &[ShardEntry]) -> Result<(), String> {
    let ckpt = FleetCheckpoint {
        fingerprint: fingerprint.to_string(),
        shards: shards.to_vec(),
    };
    let text = serde_json::to_string(&ckpt).map_err(|e| format!("serializing checkpoint: {e}"))?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {}: {e}", tmp.display()))
}

/// Executes one shard of the fleet to completion.
pub fn run_shard(spec: &FleetSpec, shard: usize) -> Result<FleetAggregate, String> {
    let (start, end) = spec.shard_range(shard);
    Ok(FleetSim::from_spec_range(spec, start, end)?.run())
}

/// Executes one shard with step-attribution recording enabled,
/// returning the shard aggregate together with its merged profile.
pub fn run_shard_attributed(
    spec: &FleetSpec,
    shard: usize,
) -> Result<(FleetAggregate, StepAttribution), String> {
    let (start, end) = spec.shard_range(shard);
    Ok(FleetSimT::<StepAttribution>::from_spec_range(spec, start, end)?.run_telemetry())
}

/// Runs a fleet spec shard by shard, honoring checkpoint/resume.
///
/// Shards execute in parallel when requested, but the merge is always
/// performed in shard-index order (and each shard reduces its nodes in
/// node-index order), so the final aggregate is bitwise deterministic
/// for a given spec regardless of scheduling — the property the
/// checkpoint/resume test pins.
pub fn run_fleet(spec: &FleetSpec, opts: &FleetRunOptions) -> Result<FleetRunResult, String> {
    let fingerprint = spec.fingerprint();
    let total = spec.shard_count();
    let mut done: Vec<ShardEntry> = match &opts.checkpoint {
        Some(path) => load_checkpoint(path, &fingerprint)?,
        None => Vec::new(),
    };
    done.retain(|e| (e.index as usize) < total);
    done.sort_by_key(|e| e.index as usize);
    done.dedup_by_key(|e| e.index as usize);
    let resumed = done.len();

    let have: std::collections::HashSet<usize> = done.iter().map(|e| e.index as usize).collect();
    let mut todo: Vec<usize> = (0..total).filter(|s| !have.contains(s)).collect();
    if let Some(cap) = opts.max_shards {
        todo.truncate(cap);
    }

    let ledger = Mutex::new(done);
    let attr_ledger: Mutex<Vec<(usize, StepAttribution)>> = Mutex::new(Vec::new());
    let run_one = |&shard: &usize| -> Result<(), String> {
        let aggregate = if opts.attribution {
            let (aggregate, attr) = run_shard_attributed(spec, shard)?;
            attr_ledger
                .lock()
                .expect("fleet attribution ledger poisoned")
                .push((shard, attr));
            aggregate
        } else {
            run_shard(spec, shard)?
        };
        let mut led = ledger.lock().expect("fleet checkpoint ledger poisoned");
        led.push(ShardEntry {
            index: shard as f64,
            aggregate,
        });
        if let Some(path) = &opts.checkpoint {
            led.sort_by_key(|e| e.index as usize);
            save_checkpoint(path, &fingerprint, &led)?;
        }
        Ok(())
    };

    let results: Vec<Result<(), String>> = if opts.parallel {
        todo.par_iter().map(run_one).collect()
    } else {
        todo.iter().map(run_one).collect()
    };
    for r in results {
        r?;
    }

    let mut done = ledger
        .into_inner()
        .expect("fleet checkpoint ledger poisoned");
    done.sort_by_key(|e| e.index as usize);
    let mut aggregate = FleetAggregate::new(spec.bins);
    for entry in &done {
        aggregate.merge(&entry.aggregate);
    }
    let attribution = if opts.attribution {
        let mut shards = attr_ledger
            .into_inner()
            .expect("fleet attribution ledger poisoned");
        shards.sort_by_key(|&(idx, _)| idx);
        let mut merged = StepAttribution::default();
        for (_, attr) in &shards {
            merged.merge(attr);
        }
        Some(merged)
    } else {
        None
    };
    Ok(FleetRunResult {
        aggregate,
        shards_done: done.len(),
        shards_total: total,
        shards_resumed: resumed,
        attribution,
    })
}

// ---------------------------------------------------------------------------
// Fleet report and the CI gate
// ---------------------------------------------------------------------------

/// The machine-readable fleet report: configuration echo, fingerprint,
/// percentile summary, and the full aggregate (histograms included) so
/// a baseline refresh needs no re-run.
///
/// `fleet_seed` is carried as `f64` (exact for seeds below 2⁵³, which
/// committed configurations use by convention); the fingerprint string
/// covers the exact `u64` value regardless.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Base scenario name.
    pub scenario: String,
    /// Fleet size.
    pub nodes: f64,
    /// Root fleet seed.
    pub fleet_seed: f64,
    /// Cells per shard.
    pub shard_size: f64,
    /// Per-node horizon, seconds.
    pub horizon_s: f64,
    /// [`FleetSpec::fingerprint`] of the producing configuration.
    pub fingerprint: String,
    /// Headline percentile summary (the gated quantities).
    pub summary: FleetSummary,
    /// Full streaming aggregate.
    pub aggregate: FleetAggregate,
    /// Wall-clock seconds the run took (informational, never gated).
    pub elapsed_s: f64,
}

impl FleetReport {
    /// Assembles a report from a spec and its completed aggregate.
    pub fn from_run(spec: &FleetSpec, aggregate: FleetAggregate, elapsed_s: f64) -> Self {
        FleetReport {
            scenario: spec.base.name.to_string(),
            nodes: spec.nodes as f64,
            fleet_seed: spec.fleet_seed as f64,
            shard_size: spec.shard_size as f64,
            horizon_s: spec.base.horizon.get(),
            fingerprint: spec.fingerprint(),
            summary: aggregate.summary(),
            aggregate,
            elapsed_s,
        }
    }
}

/// Per-field tolerances for the fleet CI gate. Relative slack plus an
/// absolute floor per quantity class, so near-zero percentiles (an
/// outage-free fleet, a zero p5) don't demand impossible relative
/// precision.
#[derive(Debug, Clone, Copy)]
pub struct FleetTolerances {
    /// Relative tolerance on every gated field.
    pub rel: f64,
    /// Absolute floor for FoM fields (ops).
    pub fom_floor: f64,
    /// Absolute floor for on-fraction fields.
    pub on_frac_floor: f64,
    /// Absolute floor for outage fields (seconds).
    pub outage_floor_s: f64,
    /// Absolute floor for boot counts.
    pub boots_floor: f64,
}

impl Default for FleetTolerances {
    fn default() -> Self {
        FleetTolerances {
            rel: 0.05,
            fom_floor: 1.0,
            on_frac_floor: 1e-3,
            outage_floor_s: 1.0,
            boots_floor: 0.5,
        }
    }
}

impl FleetTolerances {
    /// Uniformly scales every tolerance (the gate's `[tol-scale]`).
    pub fn scaled(mut self, k: f64) -> Self {
        self.rel *= k;
        self.fom_floor *= k;
        self.on_frac_floor *= k;
        self.outage_floor_s *= k;
        self.boots_floor *= k;
        self
    }
}

fn gate_field(
    violations: &mut Vec<String>,
    name: &str,
    base: f64,
    fresh: f64,
    rel: f64,
    floor: f64,
) {
    let slack = (base.abs() * rel).max(floor);
    if (fresh - base).abs() > slack {
        violations.push(format!(
            "{name}: baseline {base:.6} vs fresh {fresh:.6} (allowed ±{slack:.6})"
        ));
    }
}

/// Diffs a fresh fleet report against a committed baseline.
///
/// A fingerprint mismatch is itself a violation — the gate only means
/// something when both reports ran the *same* fleet configuration.
/// Node counts and every summary percentile are then compared under
/// the per-class tolerances. `elapsed_s` is never gated.
pub fn compare_fleet_reports(
    baseline: &FleetReport,
    fresh: &FleetReport,
    tol: &FleetTolerances,
) -> Vec<String> {
    let mut v = Vec::new();
    if baseline.fingerprint != fresh.fingerprint {
        v.push(format!(
            "fingerprint: baseline {} vs fresh {} — fleet configuration changed \
             (scenario/nodes/seed/sharding/binning); refresh the baseline deliberately",
            baseline.fingerprint, fresh.fingerprint
        ));
        return v;
    }
    let (b, f) = (&baseline.summary, &fresh.summary);
    if b.nodes != f.nodes {
        v.push(format!("nodes: baseline {} vs fresh {}", b.nodes, f.nodes));
    }
    // Poisoned or watchdog-timed-out nodes in the fresh run are
    // unconditional violations: a crashed or wedged cell is never
    // within tolerance of anything.
    for p in &fresh.aggregate.poisoned {
        v.push(format!("node {}: poisoned: {}", p.node, p.message));
    }
    for t in &fresh.aggregate.timed_out {
        v.push(format!(
            "node {}: watchdog timeout after {} engine steps at t={:.0} s",
            t.node, t.engine_steps, t.sim_time_s
        ));
    }
    gate_field(
        &mut v,
        "total_faults",
        b.total_faults,
        f.total_faults,
        tol.rel,
        tol.boots_floor,
    );
    gate_field(
        &mut v,
        "total_trips",
        b.total_trips,
        f.total_trips,
        tol.rel,
        tol.boots_floor,
    );
    gate_field(
        &mut v,
        "total_ops",
        b.total_ops,
        f.total_ops,
        tol.rel,
        tol.fom_floor,
    );
    gate_field(
        &mut v,
        "fom_mean",
        b.fom_mean,
        f.fom_mean,
        tol.rel,
        tol.fom_floor,
    );
    gate_field(&mut v, "fom_p5", b.fom_p5, f.fom_p5, tol.rel, tol.fom_floor);
    gate_field(
        &mut v,
        "fom_p50",
        b.fom_p50,
        f.fom_p50,
        tol.rel,
        tol.fom_floor,
    );
    gate_field(
        &mut v,
        "fom_p95",
        b.fom_p95,
        f.fom_p95,
        tol.rel,
        tol.fom_floor,
    );
    gate_field(
        &mut v,
        "fom_p99",
        b.fom_p99,
        f.fom_p99,
        tol.rel,
        tol.fom_floor,
    );
    gate_field(
        &mut v,
        "on_frac_mean",
        b.on_frac_mean,
        f.on_frac_mean,
        tol.rel,
        tol.on_frac_floor,
    );
    gate_field(
        &mut v,
        "on_frac_p5",
        b.on_frac_p5,
        f.on_frac_p5,
        tol.rel,
        tol.on_frac_floor,
    );
    gate_field(
        &mut v,
        "on_frac_p50",
        b.on_frac_p50,
        f.on_frac_p50,
        tol.rel,
        tol.on_frac_floor,
    );
    gate_field(
        &mut v,
        "outage_p50_s",
        b.outage_p50_s,
        f.outage_p50_s,
        tol.rel,
        tol.outage_floor_s,
    );
    gate_field(
        &mut v,
        "outage_p95_s",
        b.outage_p95_s,
        f.outage_p95_s,
        tol.rel,
        tol.outage_floor_s,
    );
    gate_field(
        &mut v,
        "outage_max_s",
        b.outage_max_s,
        f.outage_max_s,
        tol.rel,
        tol.outage_floor_s,
    );
    gate_field(
        &mut v,
        "boots_mean",
        b.boots_mean,
        f.boots_mean,
        tol.rel,
        tol.boots_floor,
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::find_scenario;

    fn small_spec(nodes: usize, seed: u64) -> FleetSpec {
        let mut base = *find_scenario("rf-sparse-week").expect("registry scenario");
        base.horizon = Seconds::new(1800.0);
        let mut spec = FleetSpec::new(base, nodes, seed);
        spec.shard_size = 4;
        spec
    }

    #[test]
    fn fleet_matches_scalar_runs_bitwise() {
        for &(nodes, seed) in &[(3usize, 1u64), (7, 42), (8, 0xFEED)] {
            let spec = small_spec(nodes, seed);
            let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
            let mut scalar = FleetAggregate::new(spec.bins);
            for shard in 0..spec.shard_count() {
                let (start, end) = spec.shard_range(shard);
                let mut shard_agg = FleetAggregate::new(spec.bins);
                for i in start..end {
                    let sc = spec.node_scenario(i);
                    let out = sc.run();
                    shard_agg.record(&NodeStats::from_metrics(&sc, &out.metrics));
                }
                scalar.merge(&shard_agg);
            }
            assert_eq!(
                fleet.aggregate, scalar,
                "fleet aggregate diverged from scalar runs (nodes={nodes}, seed={seed})"
            );
        }
    }

    #[test]
    fn node_salting_decorrelates_nodes() {
        let spec = small_spec(6, 7);
        let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
        // Six salted nodes of a salt-sensitive scenario should not all
        // collapse onto one FoM value.
        assert!(spec.base.seed_salt_matters());
        assert!(fleet.aggregate.fom.max > fleet.aggregate.fom.min);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join("react-fleet-ckpt-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&path);

        let spec = small_spec(10, 99);
        assert!(spec.shard_count() >= 3, "test needs multiple shards");

        let uninterrupted = run_fleet(&spec, &FleetRunOptions::default()).expect("full run");

        // Interrupt after 2 shards, then resume from the checkpoint.
        let partial_opts = FleetRunOptions {
            checkpoint: Some(path.clone()),
            max_shards: Some(2),
            parallel: false,
            ..Default::default()
        };
        let partial = run_fleet(&spec, &partial_opts).expect("partial run");
        assert!(!partial.complete());
        assert_eq!(partial.shards_done, 2);

        let resume_opts = FleetRunOptions {
            checkpoint: Some(path.clone()),
            max_shards: None,
            parallel: false,
            ..Default::default()
        };
        let resumed = run_fleet(&spec, &resume_opts).expect("resumed run");
        assert!(resumed.complete());
        assert_eq!(resumed.shards_resumed, 2);
        assert_eq!(
            resumed.aggregate, uninterrupted.aggregate,
            "resumed aggregate must be bit-identical to the uninterrupted run"
        );

        // A different config must refuse the stale checkpoint.
        let other = small_spec(10, 100);
        assert!(run_fleet(&other, &resume_opts).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn histogram_quantiles_bracket_min_max() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for v in [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5] {
            h.record(v);
        }
        assert_eq!(h.count, 10);
        assert!(h.quantile(0.0) >= h.min && h.quantile(1.0) <= h.max);
        assert!(h.quantile(0.5) > h.quantile(0.1));
        // Out-of-range samples land in the overflow counters.
        h.record(-1.0);
        h.record(25.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 25.0);
    }

    #[test]
    fn fleet_gate_flags_drift_and_fingerprint_mismatch() {
        let spec = small_spec(6, 11);
        let run = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
        let baseline = FleetReport::from_run(&spec, run.aggregate.clone(), 1.0);
        let tol = FleetTolerances::default();

        // Identical report (different wall-clock) gates clean.
        let fresh = FleetReport::from_run(&spec, run.aggregate.clone(), 99.0);
        assert!(compare_fleet_reports(&baseline, &fresh, &tol).is_empty());

        // Drift beyond tolerance is flagged by field name.
        let mut drifted = fresh.clone();
        drifted.summary.fom_mean *= 1.5;
        drifted.summary.fom_mean += 10.0;
        let violations = compare_fleet_reports(&baseline, &drifted, &tol);
        assert!(violations.iter().any(|v| v.starts_with("fom_mean")));

        // A different configuration is a fingerprint violation, and
        // field diffs are suppressed (they would be meaningless).
        let other = small_spec(6, 12);
        let run2 = run_fleet(&other, &FleetRunOptions::default()).expect("fleet run");
        let mismatched = FleetReport::from_run(&other, run2.aggregate, 1.0);
        let violations = compare_fleet_reports(&baseline, &mismatched, &tol);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("fingerprint"));

        // Report JSON round-trips exactly.
        let text = serde_json::to_string(&baseline).expect("serialize");
        let back: FleetReport = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, baseline);
    }

    #[test]
    fn checkpoint_round_trips_exactly_through_json() {
        let mut agg = FleetAggregate::new(FleetBins::default_for(Seconds::new(3600.0)));
        agg.record(&NodeStats {
            fom: 123.456789012345,
            on_frac: 0.9871234,
            outage_s: 17.25,
            boots: 3.0,
            ops: 123.0,
            faults: 2.0,
            trips: 1.0,
        });
        let ckpt = FleetCheckpoint {
            fingerprint: "deadbeefdeadbeef".to_string(),
            shards: vec![ShardEntry {
                index: 0.0,
                aggregate: agg,
            }],
        };
        let text = serde_json::to_string(&ckpt).expect("serialize");
        let back: FleetCheckpoint = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, ckpt);
    }
}
