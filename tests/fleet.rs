//! Fleet-kernel acceptance tests: the fleet kernel must be
//! *bit-comparable* to independent scalar simulations, scale to
//! four-digit node counts in test time, and checkpoint/resume without
//! perturbing a single bit of the aggregate.

use react_repro::core::{
    find_scenario, run_fleet, FleetAggregate, FleetRunOptions, FleetSim, FleetSpec, NodeStats,
};
use react_repro::units::Seconds;

/// A truncated salt-sensitive week-class base so tests stay fast.
fn base_scenario(horizon_s: f64) -> react_repro::core::Scenario {
    let mut base = *find_scenario("rf-sparse-week").expect("registry scenario");
    base.horizon = Seconds::new(horizon_s);
    base
}

/// Folds independent scalar runs of the fleet's cells, shard by shard
/// in node order — the reference the fleet kernel must reproduce.
fn scalar_reference(spec: &FleetSpec) -> FleetAggregate {
    let mut agg = FleetAggregate::new(spec.bins);
    for shard in 0..spec.shard_count() {
        let (start, end) = spec.shard_range(shard);
        let mut shard_agg = FleetAggregate::new(spec.bins);
        for i in start..end {
            let sc = spec.node_scenario(i);
            let out = sc.run();
            shard_agg.record(&NodeStats::from_metrics(&sc, &out.metrics));
        }
        agg.merge(&shard_agg);
    }
    agg
}

/// Sweep of small fleets across seeds and node counts: every aggregate
/// must be bit-equal to the scalar reference.
#[test]
fn fleet_aggregates_bit_equal_scalar_sweep() {
    for &(nodes, seed) in &[(5usize, 2u64), (12, 77), (17, 0xACE0_FBA5E)] {
        let mut spec = FleetSpec::new(base_scenario(1800.0), nodes, seed);
        spec.shard_size = 8;
        let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
        assert!(fleet.complete());
        assert_eq!(
            fleet.aggregate,
            scalar_reference(&spec),
            "nodes={nodes} seed={seed}"
        );
    }
}

/// The acceptance-scale property: a 1000-node fleet over a day-class
/// horizon, fleet kernel vs scalar. Aggregate FoM (and every histogram
/// bit) must match the 1000 independent runs exactly; the summary's
/// headline numbers are additionally checked as finite and populated.
#[test]
fn thousand_node_fleet_matches_scalar_runs() {
    let spec = FleetSpec::new(base_scenario(3600.0), 1000, 0xF1EE7);
    let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("fleet run");
    let scalar = scalar_reference(&spec);
    assert_eq!(fleet.aggregate, scalar);

    let s = fleet.aggregate.summary();
    assert_eq!(s.nodes, 1000.0);
    assert!(s.total_ops > 0.0);
    assert!(s.fom_mean.is_finite() && s.fom_mean > 0.0);
    assert!(s.fom_p5 <= s.fom_p50 && s.fom_p50 <= s.fom_p95 && s.fom_p95 <= s.fom_p99);
    assert!(s.on_frac_mean > 0.0 && s.on_frac_mean < 1.0);
    // Salted environments must actually decorrelate the fleet.
    assert!(fleet.aggregate.fom.max > fleet.aggregate.fom.min);
}

/// `FleetSim::step` finishes exactly one node per call, lowest index
/// first: `live_cells` drops by one per call, `step` reports `false`
/// once the last node is done (and stays a no-op after), and failed
/// nodes — watchdog timeouts and rejected configurations alike — come
/// out in ascending node order.
#[test]
fn step_finishes_one_node_per_call_in_node_order() {
    // A horizon longer than an hour, so a kernel that advances cells
    // in time slices would leave node 0 live after the first call.
    let mut spec = FleetSpec::new(base_scenario(7200.0), 8, 13);
    spec.shard_size = 8;
    let steps: Vec<u64> = (0..spec.nodes)
        .map(|i| spec.node_scenario(i).run().metrics.engine_steps)
        .collect();
    let mut sorted = steps.clone();
    sorted.sort_unstable();
    // A budget between the fastest and slowest nodes: some finish,
    // some time out.
    let budget = sorted[spec.nodes / 2];
    assert!(sorted[0] < budget && budget < sorted[spec.nodes - 1]);
    spec.step_budget = Some(budget);

    let mut sim = FleetSim::from_spec_range(&spec, 0, spec.nodes).expect("shard");
    for finished in 1..=spec.nodes {
        assert_eq!(sim.step(), finished < spec.nodes);
        assert_eq!(sim.live_cells(), spec.nodes - finished);
    }
    assert!(!sim.step());
    assert_eq!(sim.live_cells(), 0);
    let agg = sim.run();
    let timed_out: Vec<f64> = agg.timed_out.iter().map(|t| t.node).collect();
    let expected: Vec<f64> = (0..spec.nodes)
        .filter(|&i| steps[i] > budget)
        .map(|i| i as f64)
        .collect();
    assert_eq!(timed_out, expected);
    assert_eq!(agg.nodes as usize + timed_out.len(), spec.nodes);

    // A node whose simulator rejects its configuration is poisoned in
    // place, and its neighbours still run.
    let mut cells: Vec<_> = (0..4).map(|i| spec.node_scenario(i)).collect();
    for i in [1, 3] {
        cells[i].dt = Seconds::ZERO;
    }
    let agg = FleetSim::from_scenarios(cells, spec.bins).run();
    let poisoned: Vec<f64> = agg.poisoned.iter().map(|p| p.node).collect();
    assert_eq!(poisoned, vec![1.0, 3.0]);
    assert!(agg.poisoned.iter().all(|p| p.message.contains("timestep")));
    assert_eq!(agg.nodes, 2.0);
}

/// A run interrupted mid-fleet and resumed from its checkpoint must
/// produce bit-identical aggregate histograms to the uninterrupted
/// run (and the resumed shards must actually be reused, not re-run).
#[test]
fn checkpointed_fleet_resumes_bit_identical() {
    let dir = std::env::temp_dir().join("react-fleet-resume-acceptance");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fleet.ckpt.json");
    let _ = std::fs::remove_file(&path);

    let mut spec = FleetSpec::new(base_scenario(1800.0), 30, 21);
    spec.shard_size = 7;
    assert!(spec.shard_count() >= 4);

    let uninterrupted = run_fleet(&spec, &FleetRunOptions::default()).expect("full run");

    let partial = run_fleet(
        &spec,
        &FleetRunOptions {
            checkpoint: Some(path.clone()),
            max_shards: Some(3),
            parallel: false,
            ..Default::default()
        },
    )
    .expect("partial run");
    assert_eq!(partial.shards_done, 3);
    assert!(!partial.complete());

    let resumed = run_fleet(
        &spec,
        &FleetRunOptions {
            checkpoint: Some(path.clone()),
            max_shards: None,
            parallel: true,
            ..Default::default()
        },
    )
    .expect("resumed run");
    assert!(resumed.complete());
    assert_eq!(resumed.shards_resumed, 3);
    assert_eq!(resumed.aggregate, uninterrupted.aggregate);
    let _ = std::fs::remove_file(&path);
}

/// A corrupt checkpoint (truncated write, garbled JSON) must not kill
/// the run or poison the result: the file is moved aside to
/// `*.corrupt` and the fleet restarts clean, bit-identical to a run
/// that never had a checkpoint.
#[test]
fn corrupt_checkpoint_is_quarantined_and_fleet_restarts_clean() {
    let dir = std::env::temp_dir().join("react-fleet-corrupt-ckpt");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fleet.ckpt.json");
    let corrupt = dir.join("fleet.ckpt.json.corrupt");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&corrupt);

    let mut spec = FleetSpec::new(base_scenario(1800.0), 10, 33);
    spec.shard_size = 4;
    let clean = run_fleet(&spec, &FleetRunOptions::default()).expect("clean run");

    // Write a valid partial checkpoint, then truncate it mid-JSON the
    // way a crash mid-write would.
    run_fleet(
        &spec,
        &FleetRunOptions {
            checkpoint: Some(path.clone()),
            max_shards: Some(2),
            parallel: false,
            ..Default::default()
        },
    )
    .expect("partial run");
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    assert!(text.len() > 40);
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate checkpoint");

    let recovered = run_fleet(
        &spec,
        &FleetRunOptions {
            checkpoint: Some(path.clone()),
            max_shards: None,
            parallel: false,
            ..Default::default()
        },
    )
    .expect("recovered run");
    // Nothing resumed — the corrupt file contributed no shards — and
    // the rebuilt aggregate is bit-identical to the clean run.
    assert_eq!(recovered.shards_resumed, 0);
    assert!(recovered.complete());
    assert_eq!(recovered.aggregate, clean.aggregate);
    // The corrupt file was quarantined, not deleted, and the fresh
    // checkpoint took its place.
    assert!(corrupt.exists(), "corrupt checkpoint not moved aside");
    assert!(path.exists(), "fresh checkpoint not rewritten");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&corrupt);
}

/// A starved watchdog budget turns every cell into a reported
/// [`TimedOutNode`](react_repro::core::TimedOutNode) instead of a hung
/// shard, and the fleet gate treats any such node as an unconditional
/// violation.
#[test]
fn watchdog_budget_reports_timed_out_nodes() {
    use react_repro::core::{compare_fleet_reports, FleetReport, FleetTolerances};

    let mut spec = FleetSpec::new(base_scenario(1800.0), 6, 9);
    spec.shard_size = 3;
    let healthy = run_fleet(&spec, &FleetRunOptions::default()).expect("healthy run");
    assert!(healthy.aggregate.timed_out.is_empty());
    assert!(healthy.aggregate.poisoned.is_empty());

    // 8 engine steps cannot cover a 1800 s horizon for any cell.
    spec.step_budget = Some(8);
    let starved = run_fleet(&spec, &FleetRunOptions::default()).expect("starved run");
    assert_eq!(starved.aggregate.timed_out.len(), spec.nodes);
    assert_eq!(starved.aggregate.nodes, 0.0);
    // Node indices are fleet-global and unique.
    let mut nodes: Vec<f64> = starved.aggregate.timed_out.iter().map(|t| t.node).collect();
    nodes.sort_by(f64::total_cmp);
    assert_eq!(nodes, (0..spec.nodes).map(|i| i as f64).collect::<Vec<_>>());
    let summary = starved.aggregate.summary();
    assert_eq!(summary.timed_out_nodes, spec.nodes as f64);

    // The explicit budget changes the fingerprint (a budgeted run is a
    // different configuration), and the gate flags every wedged node.
    let healthy_spec = {
        let mut s = spec;
        s.step_budget = None;
        s
    };
    assert_ne!(spec.fingerprint(), healthy_spec.fingerprint());
    let baseline = FleetReport::from_run(
        &spec,
        {
            let mut agg = starved.aggregate.clone();
            agg.timed_out.clear();
            agg
        },
        1.0,
    );
    let fresh = FleetReport::from_run(&spec, starved.aggregate.clone(), 1.0);
    let violations = compare_fleet_reports(&baseline, &fresh, &FleetTolerances::default());
    assert!(
        violations.iter().any(|v| v.contains("watchdog timeout")),
        "{violations:?}"
    );
}

/// A fleet over a faulted, audited base scenario: every salted node
/// gets its own deterministic fault plan, the auditor counters flow
/// into the aggregate, and the degradation (trips) histogram is
/// populated. The whole thing stays bit-identical to scalar runs.
#[test]
fn faulted_fleet_aggregates_fault_and_audit_counters() {
    let mut base = *find_scenario("fault-fade-offset-hour-10mf-de-audited").expect("registered");
    base.horizon = Seconds::new(900.0);
    let mut spec = FleetSpec::new(base, 6, 0xFA_0175);
    spec.shard_size = 3;

    let fleet = run_fleet(&spec, &FleetRunOptions::default()).expect("faulted fleet run");
    assert!(fleet.complete());
    assert_eq!(fleet.aggregate, scalar_reference(&spec));
    // Two scheduled events per node (fade at 25 %, offset at 50 %).
    assert_eq!(fleet.aggregate.total_faults, 2.0 * spec.nodes as f64);
    assert!(
        fleet.aggregate.total_trips >= 1.0,
        "no node tripped the auditor"
    );
    let trips = fleet.aggregate.trips.as_ref().expect("trips histogram");
    assert_eq!(trips.count, spec.nodes as u64);
    assert!(trips.max >= 1.0);
    let summary = fleet.aggregate.summary();
    assert_eq!(summary.total_faults, fleet.aggregate.total_faults);
    assert_eq!(summary.total_trips, fleet.aggregate.total_trips);
    // No cell wedged or panicked under the campaign.
    assert!(fleet.aggregate.poisoned.is_empty());
    assert!(fleet.aggregate.timed_out.is_empty());
}
