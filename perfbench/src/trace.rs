//! The traced run: every layer measured from outside.
//!
//! A traced cell is rebuilt from the public `Scenario` recipe with its
//! buffer, workload and power source wrapped in forwarding types that
//! time calls into the layer traits, plus a [`StepCounts`] recorder. The
//! wrappers forward *every* trait method, defaulted ones included, so
//! the traced program computes what the untraced one does; `main.rs`
//! checks that bit for bit. Timings accumulate in thread-local slots:
//! a cell runs start to finish on one worker thread.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use react_buffers::defense::DefenseConfig;
use react_buffers::EnergyBuffer;
use react_circuit::{EnergyLedger, FaultCampaign, FaultKind};
use react_core::{
    AuditConfig, FleetAggregate, FleetSimT, FleetSpec, RunMetrics, Scenario, Simulator,
};
use react_env::{PowerSource, Segment, VictimEvent};
use react_harvest::PowerReplay;
use react_telemetry::{EventKind, FallbackReason, Recorder, Regime, SimEvent, StrideKind};
use react_units::{Amps, Farads, Joules, Seconds, Volts, Watts};
use react_workloads::{LoadDemand, WakeHint, Workload, WorkloadEnv};

use crate::plan::has_controller;
use crate::run::{panic_message, pool};

/// Workload labels, in slot order.
const WORKLOADS: [&str; 4] = ["DE", "SC", "RT", "PF"];

/// Timed layer slots.
pub const SLOTS: usize = 13;
/// Each slot's layer name (module names), in slot order.
pub const LAYER_NAMES: [&str; SLOTS] = [
    "workloads.step.DE",
    "workloads.step.SC",
    "workloads.step.RT",
    "workloads.step.PF",
    "workloads.next_wake.DE",
    "workloads.next_wake.SC",
    "workloads.next_wake.RT",
    "workloads.next_wake.PF",
    "buffers.step.static",
    "buffers.step.controller",
    "buffers.idle_advance",
    "buffers.powered_advance",
    "env.segment",
];
/// `workloads.step.<W>` is slot `WL_STEP + w`.
const WL_STEP: usize = 0;
/// `workloads.next_wake.<W>` is slot `WL_WAKE + w`.
const WL_WAKE: usize = 4;
const BUF_STEP_STATIC: usize = 8;
const BUF_STEP_CONTROLLER: usize = 9;
const BUF_IDLE: usize = 10;
pub const BUF_POWERED: usize = 11;
const ENV_SEGMENT: usize = 12;

/// Calls into one layer and the host nanoseconds they took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
}

impl Acc {
    pub fn add(&mut self, other: Acc) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Everything the wrappers measured in one cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub slots: [Acc; SLOTS],
    /// `powered_advance` calls that returned a stride.
    pub powered_accepted: u64,
}

impl Layers {
    pub fn add(&mut self, other: &Layers) {
        for (a, b) in self.slots.iter_mut().zip(other.slots) {
            a.add(b);
        }
        self.powered_accepted += other.powered_accepted;
    }

    /// Host nanoseconds spent inside any wrapped layer.
    pub fn total_ns(&self) -> u64 {
        self.slots.iter().map(|a| a.ns).sum()
    }
}

thread_local! {
    static LAYERS: RefCell<Layers> = const {
        RefCell::new(Layers {
            slots: [Acc { calls: 0, ns: 0 }; SLOTS],
            powered_accepted: 0,
        })
    };
}

#[inline(always)]
fn timed<T>(slot: usize, call: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = call();
    let ns = t0.elapsed().as_nanos() as u64;
    LAYERS.with(|l| {
        let acc = &mut l.borrow_mut().slots[slot];
        acc.calls += 1;
        acc.ns += ns;
    });
    out
}

fn take_layers() -> Layers {
    LAYERS.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// A buffer whose `step`, `idle_advance` and `powered_advance` are timed.
pub struct TracedBuffer {
    inner: Box<dyn EnergyBuffer>,
    step_slot: usize,
}

impl EnergyBuffer for TracedBuffer {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn rail_voltage(&self) -> Volts {
        self.inner.rail_voltage()
    }
    fn input_voltage(&self) -> Volts {
        self.inner.input_voltage()
    }
    fn equivalent_capacitance(&self) -> Farads {
        self.inner.equivalent_capacitance()
    }
    fn stored_energy(&self) -> Joules {
        self.inner.stored_energy()
    }
    fn usable_energy_above(&self, v_floor: Volts) -> Joules {
        self.inner.usable_energy_above(v_floor)
    }
    fn supports_longevity(&self) -> bool {
        self.inner.supports_longevity()
    }
    fn capacitance_level(&self) -> u32 {
        self.inner.capacitance_level()
    }
    fn supports_idle_fast_path(&self) -> bool {
        self.inner.supports_idle_fast_path()
    }
    fn reconfiguration_count(&self) -> u64 {
        self.inner.reconfiguration_count()
    }
    fn defensive_reconfigure(&mut self) -> bool {
        self.inner.defensive_reconfigure()
    }
    fn capacitance_dwell(&self) -> Vec<(u32, f64)> {
        self.inner.capacitance_dwell()
    }
    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, mcu_running: bool) {
        let inner = &mut self.inner;
        timed(self.step_slot, || inner.step(input, load, dt, mcu_running))
    }
    fn idle_advance(
        &mut self,
        input: Watts,
        duration: Seconds,
        v_stop: Volts,
        fine_dt: Seconds,
    ) -> Seconds {
        let inner = &mut self.inner;
        timed(BUF_IDLE, || {
            inner.idle_advance(input, duration, v_stop, fine_dt)
        })
    }
    fn supports_powered_fast_path(&self) -> bool {
        self.inner.supports_powered_fast_path()
    }
    fn powered_advance(
        &mut self,
        input: Watts,
        load: Amps,
        duration: Seconds,
        v_stop: Volts,
        v_wake: Option<Volts>,
        fine_dt: Seconds,
    ) -> Option<Seconds> {
        let inner = &mut self.inner;
        let stride = timed(BUF_POWERED, || {
            inner.powered_advance(input, load, duration, v_stop, v_wake, fine_dt)
        });
        if stride.is_some() {
            LAYERS.with(|l| l.borrow_mut().powered_accepted += 1);
        }
        stride
    }
    fn rail_voltage_for_usable(&self, energy: Joules, v_floor: Volts) -> Option<Volts> {
        self.inner.rail_voltage_for_usable(energy, v_floor)
    }
    fn take_fallback(&mut self) -> Option<FallbackReason> {
        self.inner.take_fallback()
    }
    fn apply_fault(&mut self, kind: FaultKind) -> bool {
        self.inner.apply_fault(kind)
    }
    fn leakage_probe(&self) -> Option<Watts> {
        self.inner.leakage_probe()
    }
    fn ledger(&self) -> &EnergyLedger {
        self.inner.ledger()
    }
}

/// A workload whose `step` and `next_wake` are timed, per workload kind.
pub struct TracedWorkload {
    inner: Box<dyn Workload>,
    kind: usize,
}

impl Workload for TracedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_power_up(&mut self, now: Seconds) {
        self.inner.on_power_up(now)
    }
    fn on_power_down(&mut self, now: Seconds) {
        self.inner.on_power_down(now)
    }
    fn step(&mut self, env: &WorkloadEnv) -> LoadDemand {
        let inner = &mut self.inner;
        timed(WL_STEP + self.kind, || inner.step(env))
    }
    fn next_wake(&self, env: &WorkloadEnv) -> WakeHint {
        timed(WL_WAKE + self.kind, || self.inner.next_wake(env))
    }
    fn finalize(&mut self, now: Seconds) {
        self.inner.finalize(now)
    }
    fn ops_completed(&self) -> u64 {
        self.inner.ops_completed()
    }
    fn ops_failed(&self) -> u64 {
        self.inner.ops_failed()
    }
    fn aux_completed(&self) -> u64 {
        self.inner.aux_completed()
    }
    fn events_missed(&self) -> u64 {
        self.inner.events_missed()
    }
}

/// A power source whose `segment` and `power_at` are timed together.
#[derive(Clone, Debug)]
pub struct TracedSource(Box<dyn PowerSource>);

impl PowerSource for TracedSource {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn segment(&mut self, t: Seconds) -> Segment {
        let inner = &mut self.0;
        timed(ENV_SEGMENT, || inner.segment(t))
    }
    fn power_at(&mut self, t: Seconds) -> Watts {
        let inner = &mut self.0;
        timed(ENV_SEGMENT, || inner.power_at(t))
    }
    fn duration(&self) -> Option<Seconds> {
        self.0.duration()
    }
    fn observe(&mut self, event: VictimEvent) {
        self.0.observe(event)
    }
    fn clone_source(&self) -> Box<dyn PowerSource> {
        Box::new(self.clone())
    }
}

/// Exact engine step counts: fine steps per regime × fallback reason,
/// and closed-form strides per kind.
#[derive(Clone, Debug, Default)]
pub struct StepCounts {
    pub fine: [[u64; FallbackReason::COUNT]; Regime::COUNT],
    /// Idle strides, then sleep (powered) strides.
    pub strides: [u64; 2],
}

impl StepCounts {
    pub fn merge(&mut self, other: &StepCounts) {
        for (a, b) in self
            .fine
            .iter_mut()
            .flatten()
            .zip(other.fine.iter().flatten())
        {
            *a += b;
        }
        self.strides[0] += other.strides[0];
        self.strides[1] += other.strides[1];
    }

    pub fn fine_steps(&self, regime: Regime, reason: FallbackReason) -> u64 {
        self.fine[regime.index()][reason.index()]
    }

    /// Engine steps: every fine step plus one per stride.
    pub fn engine_steps(&self) -> u64 {
        self.fine.iter().flatten().sum::<u64>() + self.strides[0] + self.strides[1]
    }
}

impl Recorder for StepCounts {
    const ENABLED: bool = true;

    fn record(&mut self, event: &SimEvent) {
        match event.kind {
            EventKind::CoarseStride { kind } => {
                self.strides[match kind {
                    StrideKind::Idle => 0,
                    StrideKind::Powered => 1,
                }] += 1;
            }
            EventKind::FineSpan {
                regime,
                reason,
                steps,
            } => self.fine[regime.index()][reason.index()] += steps,
            _ => {}
        }
    }

    fn absorb(&mut self, other: Self) {
        self.merge(&other);
    }
}

/// `Scenario::simulator`'s recipe, with every layer wrapped.
fn traced_simulator(
    s: &Scenario,
) -> Simulator<TracedBuffer, TracedWorkload, TracedSource, StepCounts> {
    let replay = PowerReplay::from_source(TracedSource(s.source()), s.converter.build());
    let inner = s.workload.build_streaming(s.horizon, s.workload_seed());
    let kind = WORKLOADS
        .iter()
        .position(|&w| w == inner.name())
        .unwrap_or_else(|| panic!("unknown workload {:?}", inner.name()));
    let workload = TracedWorkload { inner, kind };
    let step_slot = if has_controller(s.buffer) {
        BUF_STEP_CONTROLLER
    } else {
        BUF_STEP_STATIC
    };
    let buffer = TracedBuffer {
        inner: s.buffer.build(),
        step_slot,
    };
    let mut sim = Simulator::new(replay, buffer, workload)
        .with_timestep(s.dt)
        .with_horizon(s.horizon)
        .with_gate(s.gate());
    if s.env.adversarial() {
        sim = sim.with_feedback();
    }
    if s.defended {
        sim = sim.with_defense(DefenseConfig::default());
    }
    if s.fault != FaultCampaign::None {
        sim = sim.with_faults(s.fault.plan(s.fault_seed(), s.horizon));
    }
    if s.audited {
        sim = sim.with_auditor(AuditConfig::default());
    }
    sim.with_recorder(StepCounts::default())
}

/// One traced cell.
pub struct TracedCell {
    pub metrics: Result<RunMetrics, String>,
    pub secs: f64,
    pub layers: Layers,
    pub counts: StepCounts,
}

/// Runs one cell traced.
pub fn traced_cell(s: &Scenario) -> TracedCell {
    take_layers();
    let t0 = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| traced_simulator(s).try_run_telemetry()));
    let secs = t0.elapsed().as_secs_f64();
    let layers = take_layers();
    let (metrics, counts) = match run {
        Ok(Ok((outcome, counts))) => (Ok(outcome.metrics), counts),
        Ok(Err(e)) => (Err(e.to_string()), StepCounts::default()),
        Err(payload) => (Err(panic_message(payload)), StepCounts::default()),
    };
    TracedCell {
        metrics,
        secs,
        layers,
        counts,
    }
}

/// The fleet run through `FleetSimT::from_spec_range` and a timed
/// `step()` loop per shard, recording step counts.
pub struct TracedFleet {
    pub aggregate: Result<FleetAggregate, String>,
    pub wall: f64,
    pub counts: StepCounts,
    pub step: Acc,
    pub live_max: usize,
}

pub fn traced_fleet(spec: &FleetSpec, threads: usize) -> TracedFleet {
    let started = Instant::now();
    let shards = pool(spec.shard_count(), threads, |shard| {
        let (start, end) = spec.shard_range(shard);
        let mut sim = FleetSimT::<StepCounts>::from_spec_range(spec, start, end)?;
        let mut step = Acc::default();
        let mut live_max = sim.live_cells();
        loop {
            let t0 = Instant::now();
            let more = sim.step();
            step.add(Acc {
                calls: 1,
                ns: t0.elapsed().as_nanos() as u64,
            });
            live_max = live_max.max(sim.live_cells());
            if !more {
                break;
            }
        }
        let (aggregate, counts) = sim.run_telemetry();
        Ok::<_, String>((aggregate, counts, step, live_max))
    });
    let mut out = TracedFleet {
        aggregate: Ok(FleetAggregate::new(spec.bins)),
        wall: 0.0,
        counts: StepCounts::default(),
        step: Acc::default(),
        live_max: 0,
    };
    for shard in shards {
        match (shard, &mut out.aggregate) {
            (Ok((agg, counts, step, live)), Ok(total)) => {
                total.merge(&agg);
                out.counts.merge(&counts);
                out.step.add(step);
                out.live_max = out.live_max.max(live);
            }
            (Err(e), _) => out.aggregate = Err(e),
            (Ok(_), Err(_)) => {}
        }
    }
    out.wall = started.elapsed().as_secs_f64();
    out
}
