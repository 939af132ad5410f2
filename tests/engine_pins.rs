//! Bit pins on the engine's outputs. Every cell below is a short,
//! truncated run whose `RunMetrics` `Debug` text and step-attribution
//! bins (steps plus the bits of the simulated seconds) are hashed with
//! FNV-1a and compared with values recorded from the engine as it was
//! before its idle and sleep strides shared one code path. A change
//! that moves any float by one ULP, any step between attribution
//! classes, or any stride by one `dt` fails here.
//!
//! The cells cover both closed-form stride regimes on every report
//! buffer, the three wake-hint shapes the sleep stride resolves (`At`,
//! `WhenEnergy`, and a defensive backoff hold), the staged and
//! guard-band REACT plateau, an audited fault campaign that trips, a
//! harvester derate, a probed experiment run, and the fixed-`dt`
//! reference kernel.

use std::sync::Arc;

use react_repro::buffers::BufferKind;
use react_repro::core::{
    calib, find_scenario, Experiment, KernelMode, RunMetrics, RunOutcome, Scenario, Simulator,
    WorkloadKind,
};
use react_repro::harvest::{Converter, PowerReplay};
use react_repro::telemetry::{FallbackReason, Regime, StepAttribution};
use react_repro::traces::{paper_trace, PaperTrace};
use react_repro::units::Seconds;

/// 64-bit FNV-1a over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// Hash of every attribution bin, in `Regime::ALL` × (coarse, then
/// `FallbackReason::ALL`) order.
fn attr_hash(attr: &StepAttribution) -> u64 {
    let mut h = Fnv::new();
    for regime in Regime::ALL {
        let classes = std::iter::once(None).chain(FallbackReason::ALL.into_iter().map(Some));
        for reason in classes {
            let bin = attr.bin(regime, reason);
            h = h.u64(bin.steps).u64(bin.seconds.to_bits());
        }
    }
    h.0
}

/// What one pinned cell produced: the metrics hash, the attribution
/// hash, and (for probed runs) the voltage-series hash.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    metrics: u64,
    attr: u64,
    series: u64,
}

fn series_hash(out: &RunOutcome) -> u64 {
    let mut h = Fnv::new();
    for s in &out.voltage_series {
        h = h
            .u64(s.time_s.to_bits())
            .u64(s.voltage_v.to_bits())
            .u64(s.on as u64)
            .u64(s.capacitance_f.to_bits());
    }
    h.0
}

/// Runs a configured scenario twice, without and with step
/// attribution, checks that recording changed nothing and that the run
/// took a coarse stride in every regime of `strides` (a pin on a cell
/// that never strides would say nothing about the stride paths), and
/// pins both. Also returns the metrics for cell-specific checks.
fn pin_scenario(s: &Scenario, kernel: KernelMode, strides: &[Regime]) -> (Pin, RunMetrics) {
    let plain = s.simulator().with_kernel(kernel).run();
    let (recorded, attr) = s
        .simulator()
        .with_kernel(kernel)
        .with_recorder(StepAttribution::default())
        .try_run_telemetry()
        .expect("scenario has a horizon");
    let text = format!("{:?}", plain.metrics);
    assert_eq!(
        text,
        format!("{:?}", recorded.metrics),
        "{}: recording changed the metrics",
        s.name
    );
    for &r in strides {
        assert!(
            attr.bin(r, None).steps > 0,
            "{}: no {} stride",
            s.name,
            r.label()
        );
    }
    let pin = Pin {
        metrics: Fnv::new().bytes(text.as_bytes()).0,
        attr: attr_hash(&attr),
        series: series_hash(&plain),
    };
    (pin, plain.metrics)
}

fn cell(name: &str, buffer: Option<BufferKind>, horizon_s: f64) -> Scenario {
    let mut s = *find_scenario(name).expect("registry scenario");
    if let Some(b) = buffer {
        s = s.with_buffer(b);
    }
    s.horizon = s.horizon.min(Seconds::new(horizon_s));
    s
}

/// The probed experiment path: `Experiment::run_configured` on a
/// truncated paper trace with a 0.5 s voltage probe.
fn pin_probed_experiment() -> Pin {
    let trace = paper_trace(PaperTrace::RfObstructed).truncated(Seconds::new(120.0));
    let exp = Experiment::new(BufferKind::React, WorkloadKind::DataEncryption);
    let out = exp.run_configured(
        &trace,
        Some(PaperTrace::RfObstructed),
        calib::DEFAULT_DT,
        Some(Seconds::new(0.5)),
    );
    assert!(!out.voltage_series.is_empty(), "probe recorded nothing");
    // The same run with step attribution (the recorder never changes
    // the physics, so the series is not recomputed).
    let trace = Arc::new(trace);
    let replay = PowerReplay::new(Arc::clone(&trace), Converter::ideal());
    let workload = WorkloadKind::DataEncryption.build(&trace, Some(PaperTrace::RfObstructed));
    let (recorded, attr) = Simulator::new(replay, BufferKind::React.build(), workload)
        .with_timestep(calib::DEFAULT_DT)
        .with_probe(Seconds::new(0.5))
        .with_recorder(StepAttribution::default())
        .try_run_telemetry()
        .expect("bounded trace");
    let text = format!("{:?}", out.metrics);
    assert_eq!(text, format!("{:?}", recorded.metrics));
    assert_eq!(series_hash(&out), series_hash(&recorded));
    Pin {
        metrics: Fnv::new().bytes(text.as_bytes()).0,
        attr: attr_hash(&attr),
        series: series_hash(&out),
    }
}

/// Every pinned cell, by label.
fn pinned_cells() -> Vec<(&'static str, Pin)> {
    use BufferKind::{Dewdrop, Morphy, React, Static770uF};
    use KernelMode::{Adaptive, FixedDt};
    use Regime::{Idle, Sleep};
    let mut out = Vec::new();
    // Idle strides on every report buffer: a sparse RF field leaves
    // the MCU dark for minutes between bursts. On REACT the same cell
    // also sleep-strides to its sensing deadlines (`At`).
    for (label, b, strides) in [
        ("idle/static", Static770uF, &[Idle][..]),
        ("idle-sleep/react-sc", React, &[Idle, Sleep][..]),
        ("idle/morphy", Morphy, &[Idle][..]),
        ("idle/dewdrop", Dewdrop, &[Idle][..]),
    ] {
        let s = cell("rf-sparse-week", Some(b), 3.0 * 3600.0);
        out.push((label, pin_scenario(&s, Adaptive, strides).0));
    }
    // Sleep strides to a packet arrival (`At`) on Dewdrop, and to a
    // TX-energy threshold (`WhenEnergy`) on longevity-aware REACT.
    let s = cell("mobility-week-pf", Some(Dewdrop), 9.0 * 3600.0);
    out.push((
        "sleep-at/pf-dewdrop",
        pin_scenario(&s, Adaptive, &[Sleep]).0,
    ));
    let s = cell("mobility-week-pf", Some(React), 9.0 * 3600.0);
    out.push((
        "sleep-energy/pf-react",
        pin_scenario(&s, Adaptive, &[Sleep]).0,
    ));
    // The staged and guard-band REACT plateau.
    let s = cell("react-plateau-sc", None, 900.0);
    out.push(("sleep/plateau", pin_scenario(&s, Adaptive, &[Sleep]).0));
    // A defended attack: detection and backoff holds. DE never sleeps
    // on its own, so its sleep strides are the held ones.
    let mut s = cell("attack-bootstrike-hour-de-defended", None, 3600.0);
    s.dt = Seconds::new(0.01);
    out.push((
        "defended/bootstrike",
        pin_scenario(&s, Adaptive, &[Idle, Sleep]).0,
    ));
    // An audited fault campaign that trips, and a harvester derate.
    let s = cell("fault-fade-offset-hour-10mf-de-audited", None, 900.0);
    let (pin, m) = pin_scenario(&s, Adaptive, &[Idle]);
    assert!(m.audit_trips >= 1, "the audited fade must trip");
    out.push(("fault/fade-offset-audited", pin));
    let s = cell("fault-derate-hour-10mf-de", None, 900.0);
    let (pin, m) = pin_scenario(&s, Adaptive, &[Idle]);
    assert!(m.faults_injected >= 1, "the derate must fire");
    out.push(("fault/derate", pin));
    // The probed experiment path and the fixed-`dt` reference.
    out.push(("experiment/probed", pin_probed_experiment()));
    let s = cell("rf-ge-hour-react-de", None, 60.0);
    out.push(("fixed-dt/rf-ge-react", pin_scenario(&s, FixedDt, &[]).0));
    out
}

/// `(label, metrics, attribution, series)` recorded before the stride
/// paths merged. Cells without a probe hash an empty series (the FNV
/// offset basis).
const EXPECTED: &[(&str, u64, u64, u64)] = &[
    (
        "idle/static",
        0x8390cb31ec246388,
        0x849602f20abe51a7,
        0xcbf29ce484222325,
    ),
    (
        "idle-sleep/react-sc",
        0x6192c34e1cfb6345,
        0x5bfcf8733b7605bb,
        0xcbf29ce484222325,
    ),
    (
        "idle/morphy",
        0xca73681e1b962e07,
        0xfa4217d3a6ecc309,
        0xcbf29ce484222325,
    ),
    (
        "idle/dewdrop",
        0xdc87e6b457f6befc,
        0xcaf2fe061674d925,
        0xcbf29ce484222325,
    ),
    (
        "sleep-at/pf-dewdrop",
        0xc85a85e0733b31c2,
        0x23d573b21615213a,
        0xcbf29ce484222325,
    ),
    (
        "sleep-energy/pf-react",
        0x056a84852f0ad16b,
        0x42406c0d7f53eb37,
        0xcbf29ce484222325,
    ),
    (
        "sleep/plateau",
        0x7599478a60dd80a7,
        0x8c28e027db69f58e,
        0xcbf29ce484222325,
    ),
    (
        "defended/bootstrike",
        0xb219b7028b74cd2e,
        0xe04357e8b2864805,
        0xcbf29ce484222325,
    ),
    (
        "fault/fade-offset-audited",
        0x4a52f3ceb571455e,
        0x2f4d8782899a0144,
        0xcbf29ce484222325,
    ),
    (
        "fault/derate",
        0x1e031d2c07e7dede,
        0x62fc26c2b4462cee,
        0xcbf29ce484222325,
    ),
    (
        "experiment/probed",
        0x46643bc856ec382e,
        0x18c625261ea3ba7f,
        0x8adc75b912fbf89b,
    ),
    (
        "fixed-dt/rf-ge-react",
        0x80673c9c1c1377fc,
        0xf5427e00fe220b38,
        0xcbf29ce484222325,
    ),
];

#[test]
fn engine_outputs_match_recorded_pins() {
    let got = pinned_cells();
    let mut listing = String::new();
    let mut mismatched = false;
    for (label, pin) in &got {
        let want = EXPECTED.iter().find(|e| e.0 == *label);
        let ok = want.is_some_and(|&(_, m, a, s)| {
            pin == &Pin {
                metrics: m,
                attr: a,
                series: s,
            }
        });
        mismatched |= !ok;
        listing.push_str(&format!(
            "    (\"{label}\", {:#018x}, {:#018x}, {:#018x}),{}\n",
            pin.metrics,
            pin.attr,
            pin.series,
            if ok { "" } else { " // differs" }
        ));
    }
    assert_eq!(got.len(), EXPECTED.len(), "pinned cells:\n{listing}");
    assert!(!mismatched, "engine outputs moved:\n{listing}");
}
