//! Engine bench: adaptive kernel + parallel runners vs the fixed-`dt`
//! serial baseline, plus the controller-aware REACT/Morphy fast path vs
//! the legacy adaptive kernel that fine-stepped controller buffers.
//!
//! Prints (and saves under `target/paper-artifacts/engine.txt`) four
//! comparisons:
//!
//! 1. single-run kernel throughput (wall-clock and engine steps) for a
//!    charge-dominated scenario,
//! 2. a buffer-size sweep: serial fixed-`dt` vs parallel adaptive
//!    wall-clock,
//! 3. a small static trace × buffer experiment matrix, same comparison,
//! 4. a REACT-dominated matrix (REACT + Morphy cells): the
//!    controller-aware idle fast path vs the same adaptive kernel with
//!    the fast path suppressed (PR 1 behavior — controller buffers fell
//!    back to fine stepping while dark),
//! 5. a week-horizon streaming environment (the `rf-sparse-week`
//!    registry scenario): the adaptive kernel consuming generative
//!    segments directly vs the pre-`react-env` workflow of
//!    materializing the environment into a 100 ms trace and replaying
//!    it (both adaptive — the ratio isolates streaming vs
//!    sample-bounded strides),
//! 6. the mobility-week sleep fast path vs the NoFastPath legacy
//!    kernel,
//! 7. the fleet kernel vs the same salted cells run as
//!    independent scalar simulations (aggregates asserted bit-equal).
//!
//! Every comparison also lands in
//! `target/paper-artifacts/BENCH_engine.json` (name, wall-clock,
//! speedup, steps/sec per scenario); CI uploads that file and fails if
//! any scenario's *speedup* regresses >20 % against the committed
//! baseline in `ci/bench-baseline.json` (absolute wall-clock is not
//! comparable across runners, the speedup ratio is).
//!
//! Run with `cargo bench --bench engine`; `-- --test` is the CI smoke
//! mode (each measurement body runs once, no timing claims).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use react_bench::{save_artifact, save_bench_report, BenchReport, BenchScenario};
use react_buffers::{BufferKind, EnergyBuffer};
use react_circuit::EnergyLedger;
use react_core::sweep::{log_spaced_sizes, static_size_sweep_with, SweepOptions};
use react_core::{
    calib, find_scenario, Experiment, ExperimentMatrix, KernelMode, RunMetrics, Simulator,
    WorkloadKind,
};
use react_env::materialize;
use react_harvest::{Converter, PowerReplay};
use react_traces::{paper_trace, PaperTrace, PowerTrace};
use react_units::{Amps, Farads, Joules, Seconds, Volts, Watts};

/// Forwarding wrapper that hides a buffer's idle fast path, reproducing
/// the legacy adaptive kernel: the engine fine-steps the buffer while
/// the MCU is dark instead of handing it whole trace windows.
struct NoFastPath<B>(B);

impl<B: EnergyBuffer> EnergyBuffer for NoFastPath<B> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn rail_voltage(&self) -> Volts {
        self.0.rail_voltage()
    }
    fn input_voltage(&self) -> Volts {
        self.0.input_voltage()
    }
    fn equivalent_capacitance(&self) -> Farads {
        self.0.equivalent_capacitance()
    }
    fn stored_energy(&self) -> Joules {
        self.0.stored_energy()
    }
    fn usable_energy_above(&self, v_floor: Volts) -> Joules {
        self.0.usable_energy_above(v_floor)
    }
    fn supports_longevity(&self) -> bool {
        self.0.supports_longevity()
    }
    fn capacitance_level(&self) -> u32 {
        self.0.capacitance_level()
    }
    fn reconfiguration_count(&self) -> u64 {
        self.0.reconfiguration_count()
    }
    fn capacitance_dwell(&self) -> Vec<(u32, f64)> {
        self.0.capacitance_dwell()
    }
    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, mcu_running: bool) {
        self.0.step(input, load, dt, mcu_running)
    }
    fn ledger(&self) -> &EnergyLedger {
        self.0.ledger()
    }
}

fn single_run(trace: &Arc<PowerTrace>, kernel: KernelMode) -> (f64, u64, u64) {
    let start = Instant::now();
    let out = Experiment::new(BufferKind::Static10mF, WorkloadKind::DataEncryption).run_shared(
        trace,
        None,
        calib::DEFAULT_DT,
        None,
        kernel,
    );
    (
        start.elapsed().as_secs_f64(),
        out.metrics.engine_steps,
        out.metrics.ops_completed,
    )
}

/// Runs one REACT-dominated matrix cell; `fast_path` selects the
/// controller-aware closed form vs the legacy fine-step fallback.
fn controller_cell(
    trace: &Arc<PowerTrace>,
    which: PaperTrace,
    buffer: BufferKind,
    fast_path: bool,
) -> RunMetrics {
    let replay = PowerReplay::new(Arc::clone(trace), Converter::ideal());
    let workload = WorkloadKind::DataEncryption.build(trace, Some(which));
    if fast_path {
        Simulator::new(replay, buffer.build(), workload)
            .run()
            .metrics
    } else {
        Simulator::new(replay, NoFastPath(buffer.build()), workload)
            .run()
            .metrics
    }
}

fn compare_then_bench(c: &mut Criterion) {
    let mut report = String::new();
    let mut perf = BenchReport::default();

    // 1. Kernel throughput on one charge-dominated run. Min-of-3 per
    // arm: the adaptive arm finishes in ~0.1 ms, so a single sample's
    // jitter would dominate the gated ratio.
    let trace = Arc::new(paper_trace(PaperTrace::RfObstructed).truncated(Seconds::new(120.0)));
    let best = |kernel: KernelMode| {
        (0..3)
            .map(|_| single_run(&trace, kernel))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("three samples")
    };
    let (t_fixed, steps_fixed, ops_fixed) = best(KernelMode::FixedDt);
    let (t_adaptive, steps_adaptive, ops_adaptive) = best(KernelMode::Adaptive);
    report.push_str(&format!(
        "single run (DE × 10 mF × RF Obs. 120 s)\n\
         \x20 fixed-dt : {:>8.1} ms, {:>8} engine steps, {} ops\n\
         \x20 adaptive : {:>8.1} ms, {:>8} engine steps, {} ops\n\
         \x20 kernel speedup: {:.1}× wall-clock, {:.0}× fewer steps\n\n",
        t_fixed * 1e3,
        steps_fixed,
        ops_fixed,
        t_adaptive * 1e3,
        steps_adaptive,
        ops_adaptive,
        t_fixed / t_adaptive.max(1e-9),
        steps_fixed as f64 / steps_adaptive.max(1) as f64,
    ));
    perf.scenarios.push(BenchScenario {
        name: "single_de_10mf_rfobs".into(),
        wall_ms_baseline: t_fixed * 1e3,
        wall_ms_fast: t_adaptive * 1e3,
        speedup: t_fixed / t_adaptive.max(1e-9),
        steps_per_sec: steps_adaptive as f64 / t_adaptive.max(1e-9),
    });

    // 2. Buffer-size sweep: the §2.1 design-space exploration.
    let sweep_trace = paper_trace(PaperTrace::RfObstructed).truncated(Seconds::new(120.0));
    let sizes = log_spaced_sizes(
        react_units::Farads::from_micro(200.0),
        react_units::Farads::from_milli(50.0),
        8,
    );
    let start = Instant::now();
    let reference = static_size_sweep_with(
        &sweep_trace,
        WorkloadKind::DataEncryption,
        &sizes,
        SweepOptions::serial_reference(),
    );
    let t_serial = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let fast = static_size_sweep_with(
        &sweep_trace,
        WorkloadKind::DataEncryption,
        &sizes,
        SweepOptions::default(),
    );
    let t_parallel = start.elapsed().as_secs_f64();
    let sweep_speedup = t_serial / t_parallel.max(1e-9);
    let agree = reference
        .iter()
        .zip(&fast)
        .all(|(r, f)| (r.metrics.ops_completed as i64 - f.metrics.ops_completed as i64).abs() <= 2);
    report.push_str(&format!(
        "static-size sweep (8 sizes × DE × RF Obs. 120 s)\n\
         \x20 serial fixed-dt  : {:>8.1} ms\n\
         \x20 parallel adaptive: {:>8.1} ms\n\
         \x20 sweep speedup: {sweep_speedup:.1}×  (results agree: {agree})\n\n",
        t_serial * 1e3,
        t_parallel * 1e3,
    ));
    let sweep_steps: u64 = fast.iter().map(|r| r.metrics.engine_steps).sum();
    perf.scenarios.push(BenchScenario {
        name: "sweep_de_8sizes_rfobs".into(),
        wall_ms_baseline: t_serial * 1e3,
        wall_ms_fast: t_parallel * 1e3,
        speedup: sweep_speedup,
        steps_per_sec: sweep_steps as f64 / t_parallel.max(1e-9),
    });

    // 3. Static trace × buffer matrix corner. SolarCommute is the
    // paper's long mostly-dark trace (6030 s, 0.148 mW) — the case whose
    // hour-scale charge phases motivated the adaptive kernel.
    let traces = [
        PaperTrace::RfCart,
        PaperTrace::RfObstructed,
        PaperTrace::SolarCommute,
    ];
    let buffers = [
        BufferKind::Static770uF,
        BufferKind::Static10mF,
        BufferKind::Static17mF,
    ];
    let start = Instant::now();
    let m_ref = ExperimentMatrix::run_serial_reference(
        WorkloadKind::DataEncryption,
        &traces,
        &buffers,
        calib::DEFAULT_DT,
    );
    let t_serial = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let m_fast = ExperimentMatrix::run_with(
        WorkloadKind::DataEncryption,
        &traces,
        &buffers,
        calib::DEFAULT_DT,
    );
    let t_parallel = start.elapsed().as_secs_f64();
    let matrix_speedup = t_serial / t_parallel.max(1e-9);
    let cells_agree = m_ref.rows.iter().zip(&m_fast.rows).all(|(rr, fr)| {
        rr.cells.iter().zip(&fr.cells).all(|(rc, fc)| {
            let (a, b) = (
                rc.outcome.metrics.ops_completed as f64,
                fc.outcome.metrics.ops_completed as f64,
            );
            (a - b).abs() <= 0.02 * a.max(b) + 2.0
        })
    });
    report.push_str(&format!(
        "experiment matrix (3 traces × 3 static buffers × DE, full traces)\n\
         \x20 serial fixed-dt  : {:>8.1} ms\n\
         \x20 parallel adaptive: {:>8.1} ms\n\
         \x20 matrix speedup: {matrix_speedup:.1}×  (results agree: {cells_agree})\n\n",
        t_serial * 1e3,
        t_parallel * 1e3,
    ));
    let matrix_steps: u64 = m_fast
        .rows
        .iter()
        .flat_map(|r| r.cells.iter().map(|c| c.outcome.metrics.engine_steps))
        .sum();
    perf.scenarios.push(BenchScenario {
        name: "matrix_static_3x3".into(),
        wall_ms_baseline: t_serial * 1e3,
        wall_ms_fast: t_parallel * 1e3,
        speedup: matrix_speedup,
        steps_per_sec: matrix_steps as f64 / t_parallel.max(1e-9),
    });

    // 4. REACT-dominated matrix: the controller cells the ROADMAP
    // flagged as dominating wall-clock. Baseline is the *legacy*
    // adaptive kernel (fast path suppressed, so REACT/Morphy fine-step
    // while dark — PR 1 behavior); fast is the controller-aware closed
    // form. Both serial, so the ratio is pure kernel speedup.
    let ctl_traces = [
        (
            PaperTrace::RfObstructed,
            Arc::new(paper_trace(PaperTrace::RfObstructed)),
        ),
        (
            PaperTrace::SolarCommute,
            Arc::new(paper_trace(PaperTrace::SolarCommute).truncated(Seconds::new(1200.0))),
        ),
    ];
    let ctl_buffers = [BufferKind::React, BufferKind::Morphy];
    let start = Instant::now();
    let legacy: Vec<RunMetrics> = ctl_traces
        .iter()
        .flat_map(|(which, trace)| {
            ctl_buffers
                .iter()
                .map(|&b| controller_cell(trace, *which, b, false))
        })
        .collect();
    let t_legacy = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let fastpath: Vec<RunMetrics> = ctl_traces
        .iter()
        .flat_map(|(which, trace)| {
            ctl_buffers
                .iter()
                .map(|&b| controller_cell(trace, *which, b, true))
        })
        .collect();
    let t_fastpath = start.elapsed().as_secs_f64();
    let ctl_speedup = t_legacy / t_fastpath.max(1e-9);
    let ctl_agree = legacy.iter().zip(&fastpath).all(|(l, f)| {
        let (a, b) = (l.ops_completed as f64, f.ops_completed as f64);
        (a - b).abs() <= 0.02 * a.max(b) + 2.0
    });
    report.push_str(&format!(
        "REACT-dominated matrix (2 traces × REACT/Morphy × DE)\n\
         \x20 legacy adaptive (no controller fast path): {:>8.1} ms\n\
         \x20 controller-aware adaptive                : {:>8.1} ms\n\
         \x20 controller fast-path speedup: {ctl_speedup:.1}×  (results agree: {ctl_agree})\n",
        t_legacy * 1e3,
        t_fastpath * 1e3,
    ));
    let ctl_steps: u64 = fastpath.iter().map(|m| m.engine_steps).sum();
    perf.scenarios.push(BenchScenario {
        name: "matrix_react_morphy".into(),
        wall_ms_baseline: t_legacy * 1e3,
        wall_ms_fast: t_fastpath * 1e3,
        speedup: ctl_speedup,
        steps_per_sec: ctl_steps as f64 / t_fastpath.max(1e-9),
    });

    // 5. Week-horizon streaming environment. The streaming arm never
    // materializes anything: the adaptive kernel strides the
    // environment's native segments (a few thousand for the whole
    // week). The baseline arm is what required a bounded PowerTrace
    // before react-env existed: sample the same seeded environment at
    // the trace library's 100 ms resolution (6 M samples) and replay
    // it — same adaptive kernel, but every idle stride stops at a
    // sample-window boundary.
    let week = find_scenario("rf-sparse-week").expect("registry scenario");
    let start = Instant::now();
    let streamed = week.run().metrics;
    let t_stream = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mat_trace = Arc::new(materialize(
        &mut week.source(),
        "rf-sparse-week (materialized)",
        Seconds::new(0.1),
        week.horizon,
    ));
    let mat_workload = week
        .workload
        .build_streaming(week.horizon, week.workload_seed());
    // Both arms must share the scenario's declared converter (the
    // registry entry applies an RF rectifier), or the comparison runs
    // two different physical systems.
    let materialized = Simulator::new(
        PowerReplay::new(Arc::clone(&mat_trace), week.converter.build()),
        week.buffer.build(),
        mat_workload,
    )
    .with_timestep(week.dt)
    .run()
    .metrics;
    let t_materialized = start.elapsed().as_secs_f64();
    let week_speedup = t_materialized / t_stream.max(1e-9);
    let week_agree = {
        let (a, b) = (
            streamed.ops_completed as f64,
            materialized.ops_completed as f64,
        );
        (a - b).abs() <= 0.05 * a.max(b) + 5.0
    };
    report.push_str(&format!(
        "\nweek-horizon streaming environment (rf-sparse-week, SC × 770 µF × 7 days)\n\
         \x20 materialize 100 ms trace + adaptive replay: {:>8.1} ms ({} steps)\n\
         \x20 streaming adaptive (no materialization)   : {:>8.1} ms ({} steps)\n\
         \x20 streaming speedup: {week_speedup:.1}×  (results agree: {week_agree})\n",
        t_materialized * 1e3,
        materialized.engine_steps,
        t_stream * 1e3,
        streamed.engine_steps,
    ));
    perf.scenarios.push(BenchScenario {
        name: "week_streaming_env".into(),
        wall_ms_baseline: t_materialized * 1e3,
        wall_ms_fast: t_stream * 1e3,
        speedup: week_speedup,
        steps_per_sec: streamed.engine_steps as f64 / t_stream.max(1e-9),
    });

    // 6. Mobility-week sleep fast path: the commuter-week cell whose
    // LPM3 stretches dominated the scenario-report matrix (~55 M fine
    // steps: the MCU stays lit, responsively asleep, for most of the
    // week). Baseline is the NoFastPath legacy kernel (no idle *or*
    // sleep closed forms — every powered millisecond fine-steps); fast
    // is the adaptive kernel striding to each workload wake-up. Both
    // serial, Dewdrop cell (static-class physics + its adaptive enable
    // gate, exactly as the report runs it).
    let mob = find_scenario("mobility-week-pf")
        .expect("registry scenario")
        .with_buffer(react_buffers::BufferKind::Dewdrop);
    let mob_cell = |fast: bool| -> (RunMetrics, f64) {
        let replay = react_harvest::PowerReplay::from_source(mob.source(), mob.converter.build());
        let workload = mob
            .workload
            .build_streaming(mob.horizon, mob.workload_seed());
        let start = Instant::now();
        let metrics = if fast {
            Simulator::new(replay, mob.buffer.build(), workload)
                .with_timestep(mob.dt)
                .with_horizon(mob.horizon)
                .with_gate(mob.gate())
                .run()
                .metrics
        } else {
            Simulator::new(replay, NoFastPath(mob.buffer.build()), workload)
                .with_timestep(mob.dt)
                .with_horizon(mob.horizon)
                .with_gate(mob.gate())
                .run()
                .metrics
        };
        (metrics, start.elapsed().as_secs_f64())
    };
    let (legacy_m, t_mob_legacy) = mob_cell(false);
    let (fast_m, t_mob_fast) = mob_cell(true);
    let mob_speedup = t_mob_legacy / t_mob_fast.max(1e-9);
    let mob_collapse = legacy_m.engine_steps as f64 / fast_m.engine_steps.max(1) as f64;
    let mob_agree = {
        let (a, b) = (fast_m.ops_completed as f64, legacy_m.ops_completed as f64);
        (a - b).abs() <= 0.02 * a.max(b) + 2.0
    };
    report.push_str(&format!(
        "\nmobility-week sleep fast path (commuter week × PF × Dewdrop)\n\
         \x20 NoFastPath legacy (fine-steps all on-time): {:>8.1} ms ({} steps)\n\
         \x20 sleep fast path (wake-hint strides)        : {:>8.1} ms ({} steps)\n\
         \x20 sleep speedup: {mob_speedup:.1}× wall-clock, {mob_collapse:.0}× fewer steps  \
         (results agree: {mob_agree})\n",
        t_mob_legacy * 1e3,
        legacy_m.engine_steps,
        t_mob_fast * 1e3,
        fast_m.engine_steps,
    ));
    perf.scenarios.push(BenchScenario {
        name: "mobility_week_sleep".into(),
        wall_ms_baseline: t_mob_legacy * 1e3,
        wall_ms_fast: t_mob_fast * 1e3,
        speedup: mob_speedup,
        steps_per_sec: fast_m.engine_steps as f64 / t_mob_fast.max(1e-9),
    });

    // 7. Fleet kernel vs N independent scalar runs. Both arms run the
    // same 128 salted rf-sparse-week cells (4 h horizon — big enough
    // that the ~1× expected ratio isn't swamped by timer noise); the
    // baseline arm runs each node through `Scenario::run` serially,
    // the fast arm through the fleet kernel's shard loop. The fleet
    // kernel executes the same float ops in the same per-cell order,
    // so the aggregates must be *bit-equal* — the
    // agree flag here is exact equality, not a tolerance.
    let fleet_base = {
        let mut s = *find_scenario("rf-sparse-week").expect("registry scenario");
        s.horizon = Seconds::new(4.0 * 3600.0);
        s
    };
    let fleet_spec = react_core::FleetSpec::new(fleet_base, 128, 7);
    let fleet_cells: Vec<_> = (0..fleet_spec.nodes)
        .map(|i| fleet_spec.node_scenario(i))
        .collect();
    // Min-of-3 per arm: the expected ratio is ~1×, so a single timing
    // sample's jitter would dominate the gated number.
    let mut t_scalar = f64::INFINITY;
    let mut scalar_agg = react_core::FleetAggregate::new(fleet_spec.bins);
    for _ in 0..3 {
        let start = Instant::now();
        let mut agg = react_core::FleetAggregate::new(fleet_spec.bins);
        for sc in &fleet_cells {
            let out = sc.run();
            agg.record(&react_core::NodeStats::from_metrics(sc, &out.metrics));
        }
        t_scalar = t_scalar.min(start.elapsed().as_secs_f64());
        scalar_agg = agg;
    }
    let mut t_fleet = f64::INFINITY;
    let mut fleet_agg = react_core::FleetAggregate::new(fleet_spec.bins);
    for _ in 0..3 {
        let start = Instant::now();
        let agg = react_core::FleetSim::from_scenarios(fleet_cells.clone(), fleet_spec.bins).run();
        t_fleet = t_fleet.min(start.elapsed().as_secs_f64());
        fleet_agg = agg;
    }
    let fleet_speedup = t_scalar / t_fleet.max(1e-9);
    let fleet_agree = fleet_agg == scalar_agg;
    report.push_str(&format!(
        "\nfleet kernel vs scalar runs (128 salted nodes × rf-sparse-week, 4 h)\n\
         \x20 128 independent scalar runs: {:>8.1} ms\n\
         \x20 fleet kernel               : {:>8.1} ms\n\
         \x20 fleet speedup: {fleet_speedup:.2}×  (aggregates bit-equal: {fleet_agree})\n",
        t_scalar * 1e3,
        t_fleet * 1e3,
    ));
    assert!(
        fleet_agree,
        "fleet kernel aggregates diverged from scalar runs"
    );
    perf.scenarios.push(BenchScenario {
        name: "fleet_vs_scalar".into(),
        wall_ms_baseline: t_scalar * 1e3,
        wall_ms_fast: t_fleet * 1e3,
        speedup: fleet_speedup,
        steps_per_sec: fleet_spec.nodes as f64 / t_fleet.max(1e-9),
    });

    // 8. Telemetry overhead on the same week cell: step-attribution
    // recording on vs the NullRecorder default. The recorder hooks are
    // monomorphized away when disabled, so the expected ratio is ~1×;
    // the two-sided gate pins both directions — recording must never
    // become a tax, and the Null path must stay free. Metrics are
    // asserted *bit-equal* across the arms (the telemetry bit-identity
    // contract, pinned matrix-wide in tests/telemetry.rs). Min-of-3
    // per arm, like every ~1× ratio here.
    let mut t_null = f64::INFINITY;
    let mut null_m = None;
    for _ in 0..3 {
        let start = Instant::now();
        let m = week.run().metrics;
        t_null = t_null.min(start.elapsed().as_secs_f64());
        null_m = Some(m);
    }
    let mut t_rec = f64::INFINITY;
    let mut rec = None;
    for _ in 0..3 {
        let start = Instant::now();
        let (out, attr) = week.run_attributed();
        t_rec = t_rec.min(start.elapsed().as_secs_f64());
        rec = Some((out.metrics, attr));
    }
    let (rec_m, attr) = rec.expect("three recorded samples");
    let null_m = null_m.expect("three null samples");
    let tele_identical = rec_m == null_m;
    assert!(
        tele_identical,
        "recorded run's metrics diverged from the NullRecorder run"
    );
    assert_eq!(
        attr.total_steps(),
        rec_m.engine_steps,
        "attribution bins must account for every engine step"
    );
    let tele_ratio = t_rec / t_null.max(1e-9);
    report.push_str(&format!(
        "\ntelemetry overhead (rf-sparse-week, step attribution vs NullRecorder)\n\
         \x20 attribution recording on: {:>8.1} ms\n\
         \x20 NullRecorder (default)  : {:>8.1} ms\n\
         \x20 recording cost: {tele_ratio:.2}× (metrics bit-equal: {tele_identical}; \
         top fine sink: {})\n",
        t_rec * 1e3,
        t_null * 1e3,
        attr.top_fine_row()
            .map(|r| r.label())
            .unwrap_or_else(|| "-".to_string()),
    ));
    perf.scenarios.push(BenchScenario {
        name: "telemetry_overhead_week".into(),
        wall_ms_baseline: t_rec * 1e3,
        wall_ms_fast: t_null * 1e3,
        speedup: tele_ratio,
        steps_per_sec: rec_m.engine_steps as f64 / t_rec.max(1e-9),
    });

    // 9. Plateau sleep-stride collapse: the two cells whose fine-step
    // sinks the staged un-equalized solve, the guard-band microstate
    // offset, and the Morphy idle dead-band bulk stride eliminated.
    // react-plateau-sc parks REACT's equilibrium inside the ±20 mV
    // comparator band under MCU sleep (formerly ~16k no-closed-form +
    // ~3.5k guard-band fine steps per simulated hour); stormy-day's
    // Morphy cell idles MCU-off between sparse boots. Baseline is the
    // NoFastPath legacy kernel (no controller closed forms — every
    // powered or idle span fine-steps); fast is the adaptive kernel
    // with the full stride stack. Both serial.
    let stride_cells = [
        find_scenario("react-plateau-sc")
            .expect("registry scenario")
            .with_buffer(react_buffers::BufferKind::React),
        find_scenario("stormy-day-morphy-de")
            .expect("registry scenario")
            .with_buffer(react_buffers::BufferKind::Morphy),
    ];
    let stride_cell = |sc: &react_core::Scenario, fast: bool| -> (RunMetrics, f64) {
        let replay = react_harvest::PowerReplay::from_source(sc.source(), sc.converter.build());
        let workload = sc.workload.build_streaming(sc.horizon, sc.workload_seed());
        let start = Instant::now();
        let metrics = if fast {
            Simulator::new(replay, sc.buffer.build(), workload)
                .with_timestep(sc.dt)
                .with_horizon(sc.horizon)
                .with_gate(sc.gate())
                .run()
                .metrics
        } else {
            Simulator::new(replay, NoFastPath(sc.buffer.build()), workload)
                .with_timestep(sc.dt)
                .with_horizon(sc.horizon)
                .with_gate(sc.gate())
                .run()
                .metrics
        };
        (metrics, start.elapsed().as_secs_f64())
    };
    let mut t_stride_legacy = 0.0;
    let mut t_stride_fast = 0.0;
    let mut stride_legacy_steps = 0u64;
    let mut stride_fast_steps = 0u64;
    let mut stride_agree = true;
    for sc in &stride_cells {
        let (legacy_m, t_l) = stride_cell(sc, false);
        let (fast_m, t_f) = stride_cell(sc, true);
        t_stride_legacy += t_l;
        t_stride_fast += t_f;
        stride_legacy_steps += legacy_m.engine_steps;
        stride_fast_steps += fast_m.engine_steps;
        let (a, b) = (fast_m.ops_completed as f64, legacy_m.ops_completed as f64);
        stride_agree &= (a - b).abs() <= 0.02 * a.max(b) + 2.0;
    }
    let stride_speedup = t_stride_legacy / t_stride_fast.max(1e-9);
    let stride_collapse = stride_legacy_steps as f64 / stride_fast_steps.max(1) as f64;
    report.push_str(&format!(
        "\nplateau sleep-stride collapse (react-plateau-sc × REACT + stormy-day × Morphy)\n\
         \x20 NoFastPath legacy (fine-steps all spans): {:>8.1} ms ({} steps)\n\
         \x20 staged/guard-band/dead-band strides     : {:>8.1} ms ({} steps)\n\
         \x20 stride speedup: {stride_speedup:.1}× wall-clock, {stride_collapse:.0}× fewer steps  \
         (results agree: {stride_agree})\n",
        t_stride_legacy * 1e3,
        stride_legacy_steps,
        t_stride_fast * 1e3,
        stride_fast_steps,
    ));
    perf.scenarios.push(BenchScenario {
        name: "plateau_sleep_stride".into(),
        wall_ms_baseline: t_stride_legacy * 1e3,
        wall_ms_fast: t_stride_fast * 1e3,
        speedup: stride_speedup,
        steps_per_sec: stride_fast_steps as f64 / t_stride_fast.max(1e-9),
    });

    println!("{report}");
    save_artifact("engine", &report, None);
    save_bench_report("engine", &perf);

    // Criterion-style timed kernels for regression tracking.
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    let short = Arc::new(paper_trace(PaperTrace::RfObstructed).truncated(Seconds::new(60.0)));
    group.bench_function("de_10mf_rfobs_60s_adaptive", |b| {
        b.iter(|| {
            Experiment::new(BufferKind::Static10mF, WorkloadKind::DataEncryption)
                .run_shared(&short, None, calib::DEFAULT_DT, None, KernelMode::Adaptive)
                .metrics
                .ops_completed
        })
    });
    group.bench_function("de_10mf_rfobs_60s_fixed", |b| {
        b.iter(|| {
            Experiment::new(BufferKind::Static10mF, WorkloadKind::DataEncryption)
                .run_shared(&short, None, calib::DEFAULT_DT, None, KernelMode::FixedDt)
                .metrics
                .ops_completed
        })
    });
    group.bench_function("de_react_rfobs_60s_adaptive", |b| {
        b.iter(|| {
            Experiment::new(BufferKind::React, WorkloadKind::DataEncryption)
                .run_shared(&short, None, calib::DEFAULT_DT, None, KernelMode::Adaptive)
                .metrics
                .ops_completed
        })
    });
    group.finish();
}

criterion_group!(benches, compare_then_bench);
criterion_main!(benches);
