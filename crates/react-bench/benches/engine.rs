//! Engine bench: the adaptive kernel and the parallel runners against
//! the fixed-`dt` serial reference, which fine-steps every span.
//!
//! Prints (and saves under `target/paper-artifacts/engine.txt`) nine
//! comparisons:
//!
//! 1. single-run kernel throughput (wall-clock and engine steps) for a
//!    charge-dominated scenario,
//! 2. a buffer-size sweep: serial fixed-`dt` vs parallel adaptive
//!    wall-clock,
//! 3. a small static trace × buffer experiment matrix, same comparison,
//! 4. a REACT-dominated matrix (REACT + Morphy cells): the
//!    controller-aware strides vs the fixed-`dt` reference,
//! 5. a week-horizon streaming environment (the `rf-sparse-week`
//!    registry scenario): the adaptive kernel consuming generative
//!    segments directly vs the pre-`react-env` workflow of
//!    materializing the environment into a 100 ms trace and replaying
//!    it (both adaptive — the ratio isolates streaming vs
//!    sample-bounded strides),
//! 6. the mobility-week sleep fast path vs the fixed-`dt` reference,
//! 7. the fleet kernel vs the same salted cells run as
//!    independent scalar simulations (aggregates asserted bit-equal),
//! 8. step-attribution recording vs the `NullRecorder` default,
//! 9. the plateau and dead-band strides vs the fixed-`dt` reference.
//!
//! Every comparison also lands in
//! `target/paper-artifacts/BENCH_engine.json` (name, wall-clock,
//! speedup, steps/sec per scenario); CI uploads that file and fails if
//! any scenario's *speedup* regresses >20 % against the committed
//! baseline in `ci/bench-baseline.json` (absolute wall-clock is not
//! comparable across runners, the speedup ratio is).
//!
//! Every comparison is timed by [`time_arms`]: its two arms alternate,
//! one repetition each, for at least [`MIN_ROUNDS`] rounds and
//! [`MIN_PAIR_WALL`], and each keeps its fastest repetition, so no gated
//! ratio rests on a single sample or on one burst of host interference.
//!
//! Run with `cargo bench --bench engine`; `-- --test` is the CI smoke
//! mode (the criterion bodies run once, no timing claims).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use react_bench::{save_artifact, save_bench_report, BenchReport, BenchScenario};
use react_buffers::BufferKind;
use react_core::sweep::{log_spaced_sizes, static_size_sweep_with, SweepOptions};
use react_core::{
    calib, find_scenario, Experiment, ExperimentMatrix, KernelMode, RunMetrics, Simulator,
    WorkloadKind,
};
use react_env::materialize;
use react_harvest::PowerReplay;
use react_traces::{paper_trace, PaperTrace, PowerTrace};
use react_units::Seconds;

/// Host interference on a shared machine comes in stretches of seconds
/// that slow an arm by up to ~1.8×, and not every arm by the same
/// factor, so a ratio is only stable between repetitions that both ran
/// in a quiet stretch. [`time_arms`] alternates a comparison's arms for
/// at least this long, so that both fastest repetitions can come from
/// a quiet stretch whenever the window contains one...
const MIN_PAIR_WALL: Duration = Duration::from_secs(5);
/// ...and at least this many rounds, however long the arms run.
const MIN_ROUNDS: u32 = 5;

/// Times a comparison's baseline and fast arms: runs one repetition of
/// each in turn until there have been [`MIN_ROUNDS`] rounds and the pair
/// has run for [`MIN_PAIR_WALL`]. Returns each arm's fastest repetition
/// in seconds with its last output (every arm is deterministic).
/// Interference only ever adds time, so the minimum is the stable
/// estimate of an arm's cost.
fn time_arms<A, B>(
    mut baseline: impl FnMut() -> A,
    mut fast: impl FnMut() -> B,
) -> ((f64, A), (f64, B)) {
    fn timed<T>(arm: &mut impl FnMut() -> T, best: &mut Duration) -> T {
        let start = Instant::now();
        let out = arm();
        *best = (*best).min(start.elapsed());
        out
    }
    let (mut best_b, mut best_f) = (Duration::MAX, Duration::MAX);
    let start = Instant::now();
    let mut rounds = 1;
    let mut out_b = timed(&mut baseline, &mut best_b);
    let mut out_f = timed(&mut fast, &mut best_f);
    while rounds < MIN_ROUNDS || start.elapsed() < MIN_PAIR_WALL {
        out_b = timed(&mut baseline, &mut best_b);
        out_f = timed(&mut fast, &mut best_f);
        rounds += 1;
    }
    ((best_b.as_secs_f64(), out_b), (best_f.as_secs_f64(), out_f))
}

fn single_run(trace: &Arc<PowerTrace>, kernel: KernelMode) -> (u64, u64) {
    let out = Experiment::new(BufferKind::Static10mF, WorkloadKind::DataEncryption).run_shared(
        trace,
        None,
        calib::DEFAULT_DT,
        None,
        kernel,
    );
    (out.metrics.engine_steps, out.metrics.ops_completed)
}

fn compare_then_bench(c: &mut Criterion) {
    let mut report = String::new();
    let mut perf = BenchReport::default();

    // 1. Kernel throughput on one charge-dominated run.
    let trace = Arc::new(paper_trace(PaperTrace::RfObstructed).truncated(Seconds::new(120.0)));
    let ((t_fixed, (steps_fixed, ops_fixed)), (t_adaptive, (steps_adaptive, ops_adaptive))) =
        time_arms(
            || single_run(&trace, KernelMode::FixedDt),
            || single_run(&trace, KernelMode::Adaptive),
        );
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
    let sweep = |options| {
        static_size_sweep_with(&sweep_trace, WorkloadKind::DataEncryption, &sizes, options)
    };
    let ((t_serial, reference), (t_parallel, fast)) = time_arms(
        || sweep(SweepOptions::serial_reference()),
        || sweep(SweepOptions::default()),
    );
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
    let ((t_serial, m_ref), (t_parallel, m_fast)) = time_arms(
        || {
            ExperimentMatrix::run_serial_reference(
                WorkloadKind::DataEncryption,
                &traces,
                &buffers,
                calib::DEFAULT_DT,
            )
        },
        || {
            ExperimentMatrix::run_with(
                WorkloadKind::DataEncryption,
                &traces,
                &buffers,
                calib::DEFAULT_DT,
            )
        },
    );
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
    // flagged as dominating wall-clock. Baseline is the fixed-`dt`
    // reference (REACT/Morphy fine-step while dark); fast is the
    // controller-aware closed form. Both serial, so the ratio is pure
    // kernel speedup.
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
    let ctl_arm = |kernel: KernelMode| -> Vec<RunMetrics> {
        ctl_traces
            .iter()
            .flat_map(|(which, trace)| {
                ctl_buffers.iter().map(move |&b| {
                    Experiment::new(b, WorkloadKind::DataEncryption)
                        .run_shared(trace, Some(*which), calib::DEFAULT_DT, None, kernel)
                        .metrics
                })
            })
            .collect()
    };
    let ((t_fixed, fixed), (t_fastpath, fastpath)) = time_arms(
        || ctl_arm(KernelMode::FixedDt),
        || ctl_arm(KernelMode::Adaptive),
    );
    let ctl_speedup = t_fixed / t_fastpath.max(1e-9);
    let ctl_agree = fixed.iter().zip(&fastpath).all(|(l, f)| {
        let (a, b) = (l.ops_completed as f64, f.ops_completed as f64);
        (a - b).abs() <= 0.02 * a.max(b) + 2.0
    });
    report.push_str(&format!(
        "REACT-dominated matrix (2 traces × REACT/Morphy × DE)\n\
         \x20 fixed-dt reference       : {:>8.1} ms\n\
         \x20 controller-aware adaptive: {:>8.1} ms\n\
         \x20 controller fast-path speedup: {ctl_speedup:.1}×  (results agree: {ctl_agree})\n",
        t_fixed * 1e3,
        t_fastpath * 1e3,
    ));
    let ctl_steps: u64 = fastpath.iter().map(|m| m.engine_steps).sum();
    perf.scenarios.push(BenchScenario {
        name: "matrix_react_morphy".into(),
        wall_ms_baseline: t_fixed * 1e3,
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
    let ((t_materialized, materialized), (t_stream, streamed)) = time_arms(
        || {
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
            Simulator::new(
                PowerReplay::new(mat_trace, week.converter.build()),
                week.buffer.build(),
                mat_workload,
            )
            .with_timestep(week.dt)
            .run()
            .metrics
        },
        || week.run().metrics,
    );
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
    // week). Baseline is the fixed-`dt` reference (no idle *or* sleep
    // closed forms — every powered millisecond fine-steps); fast
    // is the adaptive kernel striding to each workload wake-up. Both
    // serial, Dewdrop cell (static-class physics + its adaptive enable
    // gate, exactly as the report runs it).
    let mob = find_scenario("mobility-week-pf")
        .expect("registry scenario")
        .with_buffer(react_buffers::BufferKind::Dewdrop);
    let ((t_mob_fixed, fixed_m), (t_mob_fast, fast_m)) = time_arms(
        || mob.run_with_kernel(KernelMode::FixedDt).metrics,
        || mob.run_with_kernel(KernelMode::Adaptive).metrics,
    );
    let mob_speedup = t_mob_fixed / t_mob_fast.max(1e-9);
    let mob_collapse = fixed_m.engine_steps as f64 / fast_m.engine_steps.max(1) as f64;
    let mob_agree = {
        let (a, b) = (fast_m.ops_completed as f64, fixed_m.ops_completed as f64);
        (a - b).abs() <= 0.02 * a.max(b) + 2.0
    };
    report.push_str(&format!(
        "\nmobility-week sleep fast path (commuter week × PF × Dewdrop)\n\
         \x20 fixed-dt reference (fine-steps all on-time): {:>8.1} ms ({} steps)\n\
         \x20 sleep fast path (wake-hint strides)         : {:>8.1} ms ({} steps)\n\
         \x20 sleep speedup: {mob_speedup:.1}× wall-clock, {mob_collapse:.0}× fewer steps  \
         (results agree: {mob_agree})\n",
        t_mob_fixed * 1e3,
        fixed_m.engine_steps,
        t_mob_fast * 1e3,
        fast_m.engine_steps,
    ));
    perf.scenarios.push(BenchScenario {
        name: "mobility_week_sleep".into(),
        wall_ms_baseline: t_mob_fixed * 1e3,
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
    let ((t_scalar, scalar_agg), (t_fleet, fleet_agg)) = time_arms(
        || {
            let mut agg = react_core::FleetAggregate::new(fleet_spec.bins);
            for sc in &fleet_cells {
                let out = sc.run();
                agg.record(&react_core::NodeStats::from_metrics(sc, &out.metrics));
            }
            agg
        },
        || react_core::FleetSim::from_scenarios(fleet_cells.clone(), fleet_spec.bins).run(),
    );
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
    // contract, pinned matrix-wide in tests/telemetry.rs).
    let ((t_rec, (rec_m, attr)), (t_null, null_m)) = time_arms(
        || {
            let (out, attr) = week.run_attributed();
            (out.metrics, attr)
        },
        || week.run().metrics,
    );
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
    // fixed-`dt` reference (every powered or idle span fine-steps);
    // fast is the adaptive kernel with the full stride stack. Both
    // serial.
    let stride_cells = [
        find_scenario("react-plateau-sc")
            .expect("registry scenario")
            .with_buffer(react_buffers::BufferKind::React),
        find_scenario("stormy-day-morphy-de")
            .expect("registry scenario")
            .with_buffer(react_buffers::BufferKind::Morphy),
    ];
    let mut t_stride_fixed = 0.0;
    let mut t_stride_fast = 0.0;
    let mut stride_fixed_steps = 0u64;
    let mut stride_fast_steps = 0u64;
    let mut stride_agree = true;
    for sc in &stride_cells {
        let ((t_l, fixed_m), (t_f, fast_m)) = time_arms(
            || sc.run_with_kernel(KernelMode::FixedDt).metrics,
            || sc.run_with_kernel(KernelMode::Adaptive).metrics,
        );
        t_stride_fixed += t_l;
        t_stride_fast += t_f;
        stride_fixed_steps += fixed_m.engine_steps;
        stride_fast_steps += fast_m.engine_steps;
        let (a, b) = (fast_m.ops_completed as f64, fixed_m.ops_completed as f64);
        stride_agree &= (a - b).abs() <= 0.02 * a.max(b) + 2.0;
    }
    let stride_speedup = t_stride_fixed / t_stride_fast.max(1e-9);
    let stride_collapse = stride_fixed_steps as f64 / stride_fast_steps.max(1) as f64;
    report.push_str(&format!(
        "\nplateau sleep-stride collapse (react-plateau-sc × REACT + stormy-day × Morphy)\n\
         \x20 fixed-dt reference (fine-steps all spans): {:>8.1} ms ({} steps)\n\
         \x20 staged/guard-band/dead-band strides      : {:>8.1} ms ({} steps)\n\
         \x20 stride speedup: {stride_speedup:.1}× wall-clock, {stride_collapse:.0}× fewer steps  \
         (results agree: {stride_agree})\n",
        t_stride_fixed * 1e3,
        stride_fixed_steps,
        t_stride_fast * 1e3,
        stride_fast_steps,
    ));
    perf.scenarios.push(BenchScenario {
        name: "plateau_sleep_stride".into(),
        wall_ms_baseline: t_stride_fixed * 1e3,
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
