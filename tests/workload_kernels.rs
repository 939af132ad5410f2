//! Bit-for-bit pins of the workloads' host compute kernels: the DE
//! AES-128 bulk pass, the SC microphone windows, the SC low-pass FIR and
//! the SC signal level.
//!
//! None of these values reach `RunMetrics` (their simulated cost is a
//! constant from `costs`), so no scenario digest or report baseline
//! would notice a kernel that computes different bits. The constants
//! were recorded from the table-free AES round functions, the uncached
//! tone formula and the direct-form FIR; a faster kernel must reproduce
//! them exactly.

use react_repro::units::{Joules, Seconds, Volts};
use react_repro::workloads::aes::Aes128;
use react_repro::workloads::fir::FirFilter;
use react_repro::workloads::mic::Microphone;
use react_repro::workloads::{DataEncryption, SenseCompute, Workload, WorkloadEnv};

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the IEEE bits of a float slice.
fn bits_hash(xs: &[f64]) -> u64 {
    fnv1a(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Drives a workload with always-on 1 ms steps from `t = 0`.
fn drive(w: &mut impl Workload, steps: u64) {
    let dt = 0.001;
    for i in 0..steps {
        w.step(&WorkloadEnv {
            now: Seconds::new(i as f64 * dt),
            dt: Seconds::new(dt),
            rail_voltage: Volts::new(3.3),
            usable_energy: Joules::new(1.0),
            supports_longevity: false,
        });
    }
}

#[test]
fn de_bulk_encryption_is_pinned() {
    // The DE workload's key and initial buffer.
    let aes = Aes128::new(b"react-asplos2024");
    let mut buffer: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
    for _ in 0..100 {
        aes.encrypt_ecb(&mut buffer);
    }
    assert_eq!(
        fnv1a(buffer.iter().copied()),
        0x7db2_ea78_4252_8941,
        "buffer after 100 ECB passes"
    );

    // 2.5 s of always-on 1 ms steps: 25 ops at 100 ms each.
    let mut de = DataEncryption::new();
    drive(&mut de, 2_500);
    assert_eq!(de.ops_completed(), 25);
    assert_eq!(de.digest(), 0x61, "DE digest after 25 ops");
}

#[test]
fn microphone_windows_are_pinned() {
    let mut mic = Microphone::spu0414(0x5C_5EED);
    let hashes: Vec<u64> = [160, 160, 64, 512, 160, 0, 1]
        .iter()
        .map(|&n| bits_hash(&mic.acquire(n)))
        .collect();
    assert_eq!(
        hashes,
        [
            0xd1f6_1cdf_46f6_d274,
            0x9e62_37ac_1f7d_37a5,
            0x94c8_7112_b5c6_d583,
            0xb082_f922_4bc6_f651,
            0xe724_7988_2d5d_1877,
            // The empty window hashes to the FNV offset basis.
            0xcbf2_9ce4_8422_2325,
            0xc410_9c57_e5d4_bc17,
        ],
        "per-window sample-bit hashes"
    );
    assert_eq!(mic.windows_taken(), 7);
}

#[test]
fn lowpass_fir_output_is_pinned() {
    let filter = FirFilter::lowpass(0.0625, 63);
    assert_eq!(bits_hash(filter.taps()), 0x6d46_1286_c8c4_bd4b, "tap bits");
    let mut mic = Microphone::spu0414(0x5C_5EED);
    let window = mic.acquire(160);
    // A full SC window, a signal shorter than the filter, and nothing.
    let outputs = [
        bits_hash(&filter.apply(&window)),
        bits_hash(&filter.apply(&window[..40])),
        bits_hash(&filter.apply(&[])),
    ];
    assert_eq!(
        outputs,
        [
            0x851e_6179_2698_45cc,
            0x6aa8_a68d_1fab_a762,
            0xcbf2_9ce4_8422_2325
        ],
        "filtered-output bit hashes"
    );
}

#[test]
fn sense_compute_level_is_pinned() {
    // 61 s of always-on 1 ms steps: deadlines at 5..60 s, twelve
    // measurements.
    let mut sc = SenseCompute::new(Seconds::new(3_600.0));
    drive(&mut sc, 61_000);
    assert_eq!(sc.ops_completed(), 12);
    assert_eq!(
        sc.last_level().to_bits(),
        0x3fd9_dae8_fcaf_e980,
        "level after 12 windows"
    );
}
