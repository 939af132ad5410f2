//! The repository benchmark: runs one named workload through the public
//! `react-core` API and prints its metrics. See README.md.
//!
//! ```text
//! perfbench --workload <scenario-matrix|dark-strides|fleet-day>
//!           [--seed N] [--seconds S] [--trace 0|1] [--threads T]
//! perfbench --record-reference [--threads T]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Exit code 0
//! when the run completed (check `correct`), 2 on bad arguments or an
//! unreadable reference.

mod check;
mod plan;
mod run;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use react_core::{run_fleet, FleetRunOptions, FleetSpec, Scenario};
use react_telemetry::{FallbackReason, Regime};

use check::{
    aggregate_digest, check_cell, check_fleet, differing_fields, fnv1a, metrics_digest, Reference,
    FNV_OFFSET,
};
use plan::{sim_hours, Plan, Workload, DEFAULT_SEED};
use run::{cell_pass, fleet_pass, pool, CellRun};
use trace::{traced_cell, traced_fleet, Layers, StepCounts, TracedCell};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Fleet nodes also run as independent scalar simulations in the
/// traced run (`fleet.overhead_ns_per_node` and the layer timings).
const FLEET_SAMPLE: usize = 128;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    nproc: usize,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        threads: nproc,
        nproc,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value:?} is not valid");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--threads" => {
                let t: usize = value.parse().map_err(|_| bad())?;
                if t == 0 || t > nproc {
                    return Err(format!("--threads must be 1..={nproc} (nproc)"));
                }
                args.threads = t;
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_none() && !args.record {
        return Err("--workload <scenario-matrix|dark-strides|fleet-day> is required".into());
    }
    Ok(args)
}

/// The checkout's git revision, read from `.git` without running git.
fn git_revision() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
                .unwrap_or_else(|| "unknown".into());
        }
        if !dir.pop() {
            return "none (not a git checkout)".into();
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The smallest sample: host timings on a shared machine are the
/// undisturbed cost plus transient interference, so repeated
/// measurements are reduced to their fastest.
fn fastest(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile, plus how many samples lie beyond it.
fn quantile(v: &[f64], q: f64) -> (f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    (s[rank - 1], s.len() - rank)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    samples: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: samples.into(),
    }
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    /// Check failures other than failed cells (nondeterminism, traced
    /// outputs that differ from untraced ones).
    broken: Vec<String>,
    /// One line per failed cell check: workload, cell id, field.
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    fn fail(&mut self, workload: Workload, id: &str, why: &str) {
        self.failures
            .push(format!("FAIL {} {id}: {why}", workload.name()));
    }

    fn print(&self, header: &str) {
        println!("{header}");
        for f in &self.failures {
            println!("{f}");
        }
        for n in &self.notes {
            println!("{n}");
        }
        println!("{:<44} {:>16}  {:<8} samples", "metric", "value", "unit");
        for m in &self.metrics {
            println!(
                "{:<44} {:>16.6}  {:<8} {}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{:<44} {:>16.6}  {:<8} {} failed of {} attempted",
            "failed_frac",
            ratio(self.failed as f64, self.attempted as f64),
            "ratio",
            self.failed,
            self.attempted
        );
        for b in &self.broken {
            println!("CHECK FAILED: {b}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.broken.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Checks one pass's cells against the reference, counting failures.
fn check_cells(
    w: Workload,
    cells: &[Scenario],
    runs: &[CellRun],
    reference: &Reference,
    report: &mut Report,
) -> usize {
    let mut exact = 0;
    for (s, r) in cells.iter().zip(runs) {
        let verdict = check_cell(s, &r.metrics, reference);
        report.attempted += 1;
        if !verdict.failures.is_empty() {
            report.failed += 1;
            for f in &verdict.failures {
                report.fail(w, &plan::cell_id(s), f);
            }
        }
        exact += usize::from(verdict.bit_exact);
    }
    exact
}

/// Digest of a pass's outputs, cell by cell in order.
fn cells_digest(cells: &[Scenario], outputs: impl Iterator<Item = Option<u64>>) -> u64 {
    cells.iter().zip(outputs).fold(FNV_OFFSET, |h, (s, d)| {
        let h = fnv1a(plan::cell_id(s).as_bytes(), h);
        fnv1a(&d.unwrap_or(0).to_le_bytes(), h)
    })
}

fn run_digest(cells: &[Scenario], runs: &[CellRun]) -> u64 {
    cells_digest(
        cells,
        runs.iter()
            .map(|r| r.metrics.as_ref().ok().map(metrics_digest)),
    )
}

/// Names every cell whose outputs differ between two runs of it.
fn compare_runs(
    w: Workload,
    what: &str,
    cells: &[Scenario],
    a: &[&Result<react_core::RunMetrics, String>],
    b: &[&Result<react_core::RunMetrics, String>],
    report: &mut Report,
) {
    for ((s, x), y) in cells.iter().zip(a).zip(b) {
        if let (Ok(x), Ok(y)) = (x, y) {
            if metrics_digest(x) != metrics_digest(y) {
                let fields = differing_fields(x, y).join(", ");
                report.broken.push(format!(
                    "{} {}: {what} differ in {fields}",
                    w.name(),
                    plan::cell_id(s)
                ));
            }
        }
    }
}

fn setup_timed(w: Workload, seed: u64, reps: usize) -> (plan::Setup, Vec<f64>) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let s = plan::setup(w, seed);
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up"), secs)
}

fn inputs_note(setup: &plan::Setup, inputs: String) -> String {
    format!(
        "inputs: {inputs}; {} environment streams, mean dark fraction {:.3}",
        setup.environments, setup.dark_fraction
    )
}

/// Untraced run: end-to-end metrics.
fn untraced(w: Workload, args: &Args, reference: &Reference) -> Report {
    let mut report = Report::default();
    let (setup, setup_secs) = setup_timed(w, args.seed, SETUP_REPS);
    let started = Instant::now();
    // Sampled after the first pass: later passes start fresh worker
    // threads, and their allocator arenas would make the peak depend
    // on how many passes fit in the run.
    let mut rss = None;
    let (throughputs, cell_ms, cell_unit, digest, passes) = match &setup.plan {
        Plan::Cells(cells) => {
            let hours: f64 = cells.iter().map(sim_hours).sum();
            let mut passes = Vec::new();
            loop {
                let p = cell_pass(cells, args.threads);
                let wall = p.wall;
                passes.push(p);
                rss.get_or_insert_with(peak_rss_mb);
                if started.elapsed().as_secs_f64() + wall > args.seconds {
                    break;
                }
            }
            let mut exact = 0;
            for p in &passes {
                exact = check_cells(w, cells, &p.runs, reference, &mut report);
            }
            let first: Vec<_> = passes[0].runs.iter().map(|r| &r.metrics).collect();
            for p in &passes[1..] {
                let later: Vec<_> = p.runs.iter().map(|r| &r.metrics).collect();
                compare_runs(w, "repeated passes", cells, &first, &later, &mut report);
            }
            report.notes.push(inputs_note(
                &setup,
                format!(
                    "{} cells, {:.1} simulated hours per pass; {exact} of {} cells bit-identical to the reference",
                    cells.len(),
                    hours,
                    cells.len()
                ),
            ));
            let cell_ms: Vec<f64> = (0..cells.len())
                .map(|i| fastest(passes.iter().map(|p| p.runs[i].secs * 1e3)))
                .collect();
            let throughputs: Vec<f64> = passes.iter().map(|p| hours / p.wall).collect();
            let digest = run_digest(cells, &passes[0].runs);
            let steps: u64 = passes[0]
                .runs
                .iter()
                .filter_map(|r| r.metrics.as_ref().ok())
                .map(|m| m.engine_steps)
                .sum();
            let walls: Vec<String> = passes.iter().map(|p| format!("{:.2}", p.wall)).collect();
            report.notes.push(format!(
                "{steps} engine steps per pass; pass walls {} s",
                walls.join(", ")
            ));
            (throughputs, cell_ms, "cells", digest, passes.len())
        }
        Plan::Fleet(spec) => {
            let hours = spec.nodes as f64 * sim_hours(&spec.base);
            let mut passes = Vec::new();
            loop {
                let p = fleet_pass(spec, args.threads);
                let wall = p.wall;
                passes.push(p);
                rss.get_or_insert_with(peak_rss_mb);
                if started.elapsed().as_secs_f64() + wall > args.seconds {
                    break;
                }
            }
            let mut exact = false;
            for p in &passes {
                let verdict = check_fleet(spec, &p.aggregate, reference);
                report.attempted += spec.nodes;
                report.failed += verdict.failed_nodes;
                for f in &verdict.failures {
                    report.fail(w, &format!("fleet {:#x}", spec.fleet_seed), f);
                }
                exact = verdict.bit_exact;
            }
            let digest = passes[0].aggregate.as_ref().map_or(0, aggregate_digest);
            for p in &passes[1..] {
                if let (Ok(a), Ok(b)) = (&passes[0].aggregate, &p.aggregate) {
                    if aggregate_digest(b) != digest {
                        let fields = differing_fields(a, b).join(", ");
                        report
                            .broken
                            .push(format!("{}: repeated passes differ in {fields}", w.name()));
                    }
                }
            }
            report.notes.push(inputs_note(
                &setup,
                format!(
                    "{} nodes x {:.0} h ({} shards), fleet seed {:#x}; aggregate bit-identical to the reference: {exact}",
                    spec.nodes,
                    sim_hours(&spec.base),
                    spec.shard_count(),
                    spec.fleet_seed
                ),
            ));
            let nodes = passes[0].node_ms.len();
            let cell_ms: Vec<f64> = (0..nodes)
                .map(|i| fastest(passes.iter().filter_map(|p| p.node_ms.get(i).copied())))
                .collect();
            let throughputs: Vec<f64> = passes.iter().map(|p| hours / p.wall).collect();
            let walls: Vec<String> = passes.iter().map(|p| format!("{:.2}", p.wall)).collect();
            report
                .notes
                .push(format!("pass walls {} s", walls.join(", ")));
            (throughputs, cell_ms, "nodes", digest, passes.len())
        }
    };
    let (p50, _) = quantile(&cell_ms, 0.5);
    let (p90, beyond) = quantile(&cell_ms, 0.9);
    let n = cell_ms.len();
    report.notes.push(format!("digest {digest:#018x}"));
    report.metrics = vec![
        metric(
            "sim_hours_per_s",
            throughputs.iter().copied().fold(0.0, f64::max),
            "sim_h/s",
            format!("fastest of {passes} passes"),
        ),
        metric(
            "cell_ms_p50",
            p50,
            "ms",
            format!("{n} {cell_unit}, each its fastest of {passes} passes"),
        ),
        metric(
            "cell_ms_p90",
            p90,
            "ms",
            format!("{n} {cell_unit}, {beyond} beyond p90"),
        ),
        metric(
            "peak_rss_mb",
            rss.unwrap_or_else(peak_rss_mb),
            "MB",
            "set-up and first pass",
        ),
        metric(
            "setup_s",
            median(&setup_secs),
            "s",
            format!("median of {SETUP_REPS} set-ups"),
        ),
    ];
    report
}

/// Per-layer metrics from traced cells.
fn layer_metrics(cells: &[Scenario], traced: &[TracedCell]) -> Vec<Metric> {
    let hours: f64 = cells.iter().map(sim_hours).sum();
    let mut layers = Layers::default();
    let mut counts = StepCounts::default();
    let (mut wall_ns, mut fixed_dt, mut checks, mut trips) = (0.0, 0.0, 0.0, 0.0);
    for (s, t) in cells.iter().zip(traced) {
        layers.add(&t.layers);
        counts.merge(&t.counts);
        wall_ns += t.secs * 1e9;
        fixed_dt += (s.horizon.get() / s.dt.get()).round();
        if let Ok(m) = &t.metrics {
            checks += m.audit_checks as f64;
            trips += m.audit_trips as f64;
        }
    }
    let samples = format!("{} cells, {hours:.1} sim h", cells.len());
    let mut out = Vec::new();
    for (name, acc) in trace::LAYER_NAMES.iter().zip(layers.slots) {
        out.push(metric(
            format!("{name}.ns_per_call"),
            ratio(acc.ns as f64, acc.calls as f64),
            "ns",
            format!("{} calls", acc.calls),
        ));
        out.push(metric(
            format!("{name}.calls_per_sim_h"),
            ratio(acc.calls as f64, hours),
            "1/sim_h",
            samples.clone(),
        ));
    }
    let powered = layers.slots[trace::BUF_POWERED].calls;
    out.push(metric(
        "buffers.powered_advance.accept_ratio",
        ratio(layers.powered_accepted as f64, powered as f64),
        "ratio",
        format!("{powered} calls"),
    ));
    out.extend(step_metrics(&counts, hours, fixed_dt, &samples));
    out.push(metric(
        "sim.self_ns_per_step",
        ratio(
            wall_ns - layers.total_ns() as f64,
            counts.engine_steps() as f64,
        ),
        "ns",
        format!("{} engine steps", counts.engine_steps()),
    ));
    out.push(metric(
        "audit.checks_per_sim_h",
        ratio(checks, hours),
        "1/sim_h",
        samples.clone(),
    ));
    out.push(metric("audit.trips", trips, "count", samples));
    out
}

/// Exact engine step counts per simulated hour.
fn step_metrics(counts: &StepCounts, hours: f64, fixed_dt: f64, samples: &str) -> Vec<Metric> {
    let active = counts.fine_steps(Regime::Active, FallbackReason::McuActive);
    let due = counts.fine_steps(Regime::Sleep, FallbackReason::TransitionDue);
    let no_form = counts.fine_steps(Regime::Sleep, FallbackReason::NoClosedForm);
    let fine: u64 = counts.fine.iter().flatten().sum();
    let steps = counts.engine_steps() as f64;
    let per_h = |n: u64| ratio(n as f64, hours);
    vec![
        metric(
            "sim.engine_steps",
            per_h(counts.engine_steps()),
            "1/sim_h",
            samples,
        ),
        metric(
            "sim.fine_steps.active.mcu-active",
            per_h(active),
            "1/sim_h",
            samples,
        ),
        metric(
            "sim.fine_steps.sleep.transition-due",
            per_h(due),
            "1/sim_h",
            samples,
        ),
        metric(
            "sim.fine_steps.sleep.no-closed-form",
            per_h(no_form),
            "1/sim_h",
            samples,
        ),
        metric(
            "sim.fine_steps.other",
            per_h(fine - active - due - no_form),
            "1/sim_h",
            samples,
        ),
        metric(
            "sim.strides.idle",
            per_h(counts.strides[0]),
            "1/sim_h",
            samples,
        ),
        metric(
            "sim.strides.sleep",
            per_h(counts.strides[1]),
            "1/sim_h",
            samples,
        ),
        metric(
            "sim.step_collapse",
            ratio(fixed_dt, steps),
            "ratio",
            samples,
        ),
    ]
}

/// Runs cells traced, checks them against their untraced outputs, and
/// returns the traced cells and the traced wall time.
fn traced_cells(
    w: Workload,
    what: &str,
    cells: &[Scenario],
    untraced: &[CellRun],
    threads: usize,
    report: &mut Report,
) -> (Vec<TracedCell>, f64) {
    let t0 = Instant::now();
    let traced = pool(cells.len(), threads, |i| traced_cell(&cells[i]));
    let wall = t0.elapsed().as_secs_f64();
    let a: Vec<_> = untraced.iter().map(|r| &r.metrics).collect();
    let b: Vec<_> = traced.iter().map(|t| &t.metrics).collect();
    compare_runs(w, "traced and untraced outputs", cells, &a, &b, report);
    for ((s, u), t) in cells.iter().zip(untraced).zip(&traced) {
        match (&u.metrics, &t.metrics) {
            (Ok(m), Ok(_)) if m.engine_steps != t.counts.engine_steps() => {
                report.broken.push(format!(
                    "{} {}: recorder counted {} engine steps, the run {}",
                    w.name(),
                    plan::cell_id(s),
                    t.counts.engine_steps(),
                    m.engine_steps
                ))
            }
            (Ok(_), Err(e)) => report.broken.push(format!(
                "{} {}: traced run failed: {e}",
                w.name(),
                plan::cell_id(s)
            )),
            _ => {}
        }
    }
    let digest = cells_digest(
        cells,
        traced
            .iter()
            .map(|t| t.metrics.as_ref().ok().map(metrics_digest)),
    );
    report
        .notes
        .push(format!("traced {what} digest {digest:#018x}"));
    (traced, wall)
}

/// The fleet metrics that do not apply to a cell workload.
fn no_fleet_metrics() -> Vec<Metric> {
    vec![
        metric("fleet.step.ns_per_call", 0.0, "ns", "not a fleet workload"),
        metric("fleet.step.calls", 0.0, "count", "not a fleet workload"),
        metric("fleet.live_cells_max", 0.0, "count", "not a fleet workload"),
        metric("fleet.shard_s_p50", 0.0, "s", "not a fleet workload"),
        metric(
            "fleet.overhead_ns_per_node",
            0.0,
            "ns",
            "not a fleet workload",
        ),
    ]
}

/// Traced run: per-layer metrics, and the traced outputs checked
/// against the untraced ones bit for bit.
fn traced(w: Workload, args: &Args, reference: &Reference) -> Result<Report, String> {
    let mut report = Report::default();
    let setup = plan::setup(w, args.seed);
    let threads = args.threads;
    match &setup.plan {
        Plan::Cells(cells) => {
            let untraced = cell_pass(cells, threads);
            check_cells(w, cells, &untraced.runs, reference, &mut report);
            report.notes.push(format!(
                "untraced cells digest {:#018x}",
                run_digest(cells, &untraced.runs)
            ));
            let (traced, traced_wall) =
                traced_cells(w, "cells", cells, &untraced.runs, threads, &mut report);
            let busy: f64 = untraced.runs.iter().map(|r| r.secs).sum();
            report
                .notes
                .push(inputs_note(&setup, format!("{} cells", cells.len())));
            report.metrics = layer_metrics(cells, &traced);
            report.metrics.push(metric(
                "matrix.busy_frac",
                ratio(busy, untraced.wall * threads as f64),
                "ratio",
                format!("{} cells on {threads} threads", cells.len()),
            ));
            report.metrics.extend(no_fleet_metrics());
            report.metrics.push(metric(
                "trace.overhead_ratio",
                ratio(traced_wall, untraced.wall),
                "ratio",
                format!(
                    "traced {traced_wall:.2} s / untraced {:.2} s",
                    untraced.wall
                ),
            ));
        }
        Plan::Fleet(spec) => {
            let untraced = fleet_pass(spec, threads);
            let verdict = check_fleet(spec, &untraced.aggregate, reference);
            report.attempted += spec.nodes;
            report.failed += verdict.failed_nodes;
            for f in &verdict.failures {
                report.fail(w, &format!("fleet {:#x}", spec.fleet_seed), f);
            }
            let fleet = traced_fleet_checks(w, spec, &untraced, threads, &mut report)?;
            let sample: Vec<Scenario> = (0..FLEET_SAMPLE)
                .map(|k| spec.node_scenario(k * spec.nodes / FLEET_SAMPLE))
                .collect();
            let scalar = cell_pass(&sample, threads);
            report.notes.push(format!(
                "untraced sample digest {:#018x}",
                run_digest(&sample, &scalar.runs)
            ));
            let (sample_traced, _) =
                traced_cells(w, "sample", &sample, &scalar.runs, threads, &mut report);
            report.notes.push(inputs_note(
                &setup,
                format!(
                    "{} nodes, fleet seed {:#x}; layer timings from {FLEET_SAMPLE} sampled nodes run as scalar simulations",
                    spec.nodes, spec.fleet_seed
                ),
            ));
            // Layer timings from the scalar sample; exact step counts
            // from the whole traced fleet.
            let hours = spec.nodes as f64 * sim_hours(&spec.base);
            let fixed_dt =
                spec.nodes as f64 * (spec.base.horizon.get() / spec.base.dt.get()).round();
            let samples = format!("{} nodes, {hours:.1} sim h", spec.nodes);
            let mut metrics: Vec<Metric> = layer_metrics(&sample, &sample_traced)
                .into_iter()
                .filter(|m| !m.name.starts_with("sim.") || m.name == "sim.self_ns_per_step")
                .collect();
            metrics.extend(step_metrics(&fleet.counts, hours, fixed_dt, &samples));
            let shard_sum: f64 = untraced.shard_secs.iter().sum();
            let fleet_ns = shard_sum * 1e9 / spec.nodes as f64;
            let scalar_ns =
                scalar.runs.iter().map(|r| r.secs).sum::<f64>() * 1e9 / FLEET_SAMPLE as f64;
            metrics.push(metric(
                "matrix.busy_frac",
                ratio(shard_sum, untraced.wall * threads as f64),
                "ratio",
                format!("{} shards on {threads} threads", untraced.shard_secs.len()),
            ));
            metrics.extend([
                metric(
                    "fleet.step.ns_per_call",
                    ratio(fleet.step.ns as f64, fleet.step.calls as f64),
                    "ns",
                    format!("{} calls", fleet.step.calls),
                ),
                metric("fleet.step.calls", fleet.step.calls as f64, "count", samples.clone()),
                metric("fleet.live_cells_max", fleet.live_max as f64, "count", samples.clone()),
                metric(
                    "fleet.shard_s_p50",
                    median(&untraced.shard_secs),
                    "s",
                    format!("{} shards", untraced.shard_secs.len()),
                ),
                metric(
                    "fleet.overhead_ns_per_node",
                    fleet_ns - scalar_ns,
                    "ns",
                    format!("fleet {fleet_ns:.0} ns/node vs scalar {scalar_ns:.0} ns/node over {FLEET_SAMPLE} nodes"),
                ),
                metric(
                    "trace.overhead_ratio",
                    ratio(fleet.wall, untraced.wall),
                    "ratio",
                    format!("traced {:.2} s / untraced {:.2} s", fleet.wall, untraced.wall),
                ),
            ]);
            report.metrics = metrics;
        }
    }
    Ok(report)
}

/// Runs `run_fleet` and the traced fleet loop, and checks that both
/// aggregates equal the untraced pass's bit for bit.
fn traced_fleet_checks(
    w: Workload,
    spec: &FleetSpec,
    untraced: &run::FleetPass,
    threads: usize,
    report: &mut Report,
) -> Result<trace::TracedFleet, String> {
    // The repository's rayon shim sizes its pool from this variable.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let opts = FleetRunOptions {
        parallel: true,
        ..FleetRunOptions::default()
    };
    let reference = run_fleet(spec, &opts)?.aggregate;
    let fleet = traced_fleet(spec, threads);
    for (what, agg) in [
        ("untraced shard loop", &untraced.aggregate),
        ("traced fleet loop", &fleet.aggregate),
    ] {
        match agg {
            Ok(a) if aggregate_digest(a) != aggregate_digest(&reference) => {
                report.broken.push(format!(
                    "{}: {what} and run_fleet differ in {}",
                    w.name(),
                    differing_fields(a, &reference).join(", ")
                ))
            }
            Err(e) => report
                .broken
                .push(format!("{}: {what} failed: {e}", w.name())),
            Ok(_) => {}
        }
    }
    report.notes.push(format!(
        "run_fleet digest {:#018x}",
        aggregate_digest(&reference)
    ));
    Ok(fleet)
}

/// Records the reference outputs of every cell and fleet any seed can
/// produce.
fn record_reference(threads: usize) -> Result<(), String> {
    let cells = plan::all_pool_cells();
    eprintln!("recording {} reference cells", cells.len());
    let pass = cell_pass(&cells, threads);
    let mut lines = Vec::with_capacity(cells.len());
    for (s, r) in cells.iter().zip(&pass.runs) {
        let m = r
            .metrics
            .as_ref()
            .map_err(|e| format!("{}: panicked: {e}", plan::cell_id(s)))?;
        let residual = m.relative_conservation_error();
        if check::promises_conservation(s)
            && (residual.is_nan() || residual >= check::CONSERVATION_LIMIT)
        {
            return Err(format!(
                "{}: conservation residual too large",
                plan::cell_id(s)
            ));
        }
        lines.push(check::cell_reference_line(s, m));
    }
    lines.sort();
    lines.dedup();
    let dir = check::reference_dir();
    let write = |name: &str, lines: &[String]| {
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n") + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    write("cells.tsv", &lines)?;
    let mut fleets = Vec::new();
    for salt in 0..plan::SALT_POOL as u64 {
        let mut spec = plan::fleet_spec(salt);
        spec.bins = react_core::FleetBins::calibrated(&spec.base, spec.fleet_seed);
        eprintln!("recording reference fleet {:#x}", spec.fleet_seed);
        let agg = fleet_pass(&spec, threads).aggregate?;
        if !agg.poisoned.is_empty() || !agg.timed_out.is_empty() {
            return Err(format!("fleet {:#x} has failed nodes", spec.fleet_seed));
        }
        fleets.push(check::fleet_reference_line(&spec, &agg)?);
    }
    write("fleet.tsv", &fleets)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record_reference(args.threads) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let reference = match Reference::load() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload.expect("checked in parse_args");
    let header = format!(
        "perfbench {} ({}): seed {} | threads {} of nproc {} | rev {} | run {} s",
        w.name(),
        if args.trace { "traced" } else { "untraced" },
        args.seed,
        args.threads,
        args.nproc,
        git_revision(),
        args.seconds
    );
    let report = if args.trace {
        match traced(w, &args, &reference) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        untraced(w, &args, &reference)
    };
    report.print(&header);
    ExitCode::SUCCESS
}
