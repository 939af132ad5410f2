//! The fleet-scale percentile report runner and CI fleet-smoke gate.
//!
//! ```text
//! fleet_report                          # full fleet: 100k nodes, week horizon
//! fleet_report --quick                  # CI fleet: 10k nodes, 1-day horizon
//! fleet_report --check <baseline.json> [tolerance-scale]
//! fleet_report --write-baseline <path>
//! fleet_report --checkpoint <path>      # resume an interrupted run
//! fleet_report --nodes <n>              # override the fleet size
//! fleet_report --scenario <name>        # override the base scenario
//! ```
//!
//! Fans one base scenario (default `rf-sparse-week`) out to a salted
//! fleet, runs it shard by shard through the fleet kernel into
//! streaming percentile histograms, prints the summary table, and
//! writes `target/paper-artifacts/FLEET_report.json`.
//!
//! Unlike `scenario_report`, the committed baseline **is** the
//! `--quick` configuration: CI runs `--quick --check
//! ci/fleet-baseline.json`, and the report fingerprint binds the gate
//! to the exact fleet configuration — a full-size report can never
//! silently gate against the quick baseline or vice versa.
//!
//! `--checkpoint` persists per-shard aggregates; an interrupted run
//! re-invoked with the same configuration and checkpoint path resumes,
//! losing at most one shard of work, and produces bit-identical
//! aggregates to an uninterrupted run.
//!
//! Every run also collects the fleet-wide step-attribution profile
//! (bit-identical metrics by the telemetry contract), prints the top
//! fine-step sources — where the whole fleet's engine steps go — and
//! writes `FLEET_attribution.json` / `.txt`. Shards resumed from a
//! checkpoint carry no recorder state, so a resumed run's profile
//! covers only the freshly executed shards.
//!
//! Exit codes: 0 success, 1 gate violation, 2 usage/configuration/IO
//! error (the conventions `scenario_report` uses).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::process::ExitCode;

use react_bench::save_named_artifact;
use react_core::{
    compare_fleet_reports, find_scenario, run_fleet, FleetBins, FleetReport, FleetRunOptions,
    FleetSpec, FleetTolerances,
};
use react_units::Seconds;

/// Default base scenario: the cheapest salt-sensitive week-class cell.
const DEFAULT_SCENARIO: &str = "rf-sparse-week";

/// Full-fleet node count (the acceptance-scale run).
const FULL_NODES: usize = 100_000;

/// Quick-fleet node count (the CI gate).
const QUICK_NODES: usize = 10_000;

/// Quick-mode horizon cap: one day.
const QUICK_HORIZON: Seconds = Seconds::new(86_400.0);

/// The committed fleet seed (arbitrary, fixed forever).
const FLEET_SEED: u64 = 0x000F_1EE7;

fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("usage: fleet_report {flag} <value>")),
        },
        None => Ok(None),
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = flag_value(&args, "--check")?;
    let tolerance_scale: f64 = match args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 2))
        .filter(|raw| !raw.starts_with("--"))
    {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("tolerance-scale {raw:?} is not a number"))?,
        None => 1.0,
    };
    let write_baseline = flag_value(&args, "--write-baseline")?;
    let checkpoint = flag_value(&args, "--checkpoint")?;
    let scenario_name = flag_value(&args, "--scenario")?;
    let nodes_override: Option<usize> = match flag_value(&args, "--nodes")? {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("--nodes {raw:?} is not a count"))?,
        ),
        None => None,
    };

    let name = scenario_name.as_deref().unwrap_or(DEFAULT_SCENARIO);
    let mut base = *find_scenario(name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
    if quick {
        base.horizon = base.horizon.min(QUICK_HORIZON);
    }
    let nodes = nodes_override.unwrap_or(if quick { QUICK_NODES } else { FULL_NODES });

    let mut spec = FleetSpec::new(base, nodes, FLEET_SEED);
    spec.bins = FleetBins::calibrated(&base, FLEET_SEED);

    let opts = FleetRunOptions {
        checkpoint: checkpoint.map(std::path::PathBuf::from),
        max_shards: None,
        parallel: true,
        attribution: true,
    };

    println!(
        "fleet: {} × {nodes} nodes, horizon {:.0} s, seed {:#x}, {} shards of {} (fingerprint {})",
        spec.base.name,
        spec.base.horizon.get(),
        spec.fleet_seed,
        spec.shard_count(),
        spec.shard_size,
        spec.fingerprint(),
    );

    let started = std::time::Instant::now();
    let result = run_fleet(&spec, &opts)?;
    let elapsed = started.elapsed().as_secs_f64();
    if result.shards_resumed > 0 {
        println!(
            "resumed {} shard(s) from checkpoint; ran {} fresh",
            result.shards_resumed,
            result.shards_done - result.shards_resumed
        );
    }

    let report = FleetReport::from_run(&spec, result.aggregate, elapsed);
    let s = &report.summary;
    println!(
        "\n{:>12}  {:>12} {:>12} {:>12} {:>12} {:>12}",
        "", "mean", "p5", "p50", "p95", "p99"
    );
    println!(
        "{:>12}  {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
        "fom (ops)", s.fom_mean, s.fom_p5, s.fom_p50, s.fom_p95, s.fom_p99
    );
    println!(
        "{:>12}  {:>12.4} {:>12.4} {:>12.4} {:>12} {:>12}",
        "on-frac", s.on_frac_mean, s.on_frac_p5, s.on_frac_p50, "-", "-"
    );
    println!(
        "{:>12}  {:>12} {:>12} {:>12.1} {:>12.1} {:>12}",
        "outage (s)", "-", "-", s.outage_p50_s, s.outage_p95_s, "-"
    );
    println!(
        "\n{} nodes, {:.0} total ops, worst outage {:.1} s, mean boots {:.1}; {:.1} s wall-clock",
        s.nodes, s.total_ops, s.outage_max_s, s.boots_mean, elapsed
    );

    let json = serde_json::to_string(&report).map_err(|e| format!("serialize: {e}"))?;
    let path = save_named_artifact("FLEET_report.json", &json)
        .map_err(|e| format!("write report: {e}"))?;
    println!("report written to {}", path.display());

    if let Some(attr) = &result.attribution {
        println!("\ntop fine-step sources across the fleet:");
        for row in attr.rows().iter().filter(|r| r.reason.is_some()).take(8) {
            let share = if attr.total_steps() == 0 {
                0.0
            } else {
                100.0 * row.steps as f64 / attr.total_steps() as f64
            };
            println!(
                "  {:>28}  {:>14} steps  {share:>5.1} %  {:>14.1} sim-s",
                row.label(),
                row.steps,
                row.seconds
            );
        }
        if result.shards_resumed > 0 {
            println!(
                "  (profile covers the {} freshly executed shard(s) only)",
                result.shards_done - result.shards_resumed
            );
        }
        let attr_json = serde_json::to_string(attr).map_err(|e| format!("serialize: {e}"))?;
        let path = save_named_artifact("FLEET_attribution.json", &attr_json)
            .map_err(|e| format!("write attribution: {e}"))?;
        println!("attribution written to {}", path.display());
        save_named_artifact("FLEET_attribution.txt", &attr.render())
            .map_err(|e| format!("write attribution table: {e}"))?;
    }

    // Load the check baseline *before* any baseline write, so
    // `--check X --write-baseline X` gates against the committed file.
    let check_baseline = match &check {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let b: FleetReport = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            Some(b)
        }
        None => None,
    };

    if let Some(path) = &write_baseline {
        std::fs::write(path, &json).map_err(|e| format!("write baseline {path}: {e}"))?;
        println!("baseline written to {path}");
    }

    if let (Some(path), Some(baseline)) = (check, check_baseline) {
        let tol = FleetTolerances::default().scaled(tolerance_scale);
        let violations = compare_fleet_reports(&baseline, &report, &tol);
        if violations.is_empty() {
            println!(
                "fleet gate: conformant with {path} (tolerance ×{tolerance_scale}, fingerprint {})",
                report.fingerprint
            );
        } else {
            eprintln!(
                "fleet gate: {} violation(s) vs {path} (tolerance ×{tolerance_scale}):",
                violations.len()
            );
            for v in &violations {
                eprintln!("  {v}");
            }
            eprintln!("if the change is intentional, refresh the baseline with --write-baseline");
            return Ok(ExitCode::FAILURE);
        }
    }

    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fleet_report: {e}");
            ExitCode::from(2)
        }
    }
}
