//! Synthetic microphone signal source for the SC benchmark.
//!
//! The paper samples a Knowles SPU0414HR5H analogue microphone \[11\]. The
//! simulation substitutes a deterministic signal generator: a mixture of
//! tones plus wideband noise, seeded per acquisition window so runs are
//! repeatable while windows still differ.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates microphone sample windows.
#[derive(Clone)]
pub struct Microphone {
    sample_rate: f64,
    seed: u64,
    windows_taken: u64,
    /// `tones[i]` is sample `i`'s tone term, which is the same in every
    /// window; only the noise differs. Filled on first use up to the
    /// longest window acquired so far, so the SC loop stops paying two
    /// `sin` calls per sample. A pure cache: equality and `Debug` ignore
    /// it.
    tones: Vec<f64>,
}

impl PartialEq for Microphone {
    fn eq(&self, other: &Self) -> bool {
        self.sample_rate == other.sample_rate
            && self.seed == other.seed
            && self.windows_taken == other.windows_taken
    }
}

impl std::fmt::Debug for Microphone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Microphone")
            .field("sample_rate", &self.sample_rate)
            .field("seed", &self.seed)
            .field("windows_taken", &self.windows_taken)
            .finish()
    }
}

impl Microphone {
    /// Creates a microphone sampled at `sample_rate` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not positive.
    pub fn new(sample_rate: f64, seed: u64) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        Self {
            sample_rate,
            seed,
            windows_taken: 0,
            tones: Vec::new(),
        }
    }

    /// 16 kHz acquisition, the SPU0414's audio band.
    pub fn spu0414(seed: u64) -> Self {
        Self::new(16_000.0, seed)
    }

    /// Configured sample rate.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of windows acquired so far.
    pub fn windows_taken(&self) -> u64 {
        self.windows_taken
    }

    /// Acquires a window of `n` samples: a 440 Hz "signal" tone, a 5 kHz
    /// interferer, and noise. Each call advances the window counter so
    /// successive acquisitions differ deterministically.
    pub fn acquire(&mut self, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(self.windows_taken));
        self.windows_taken += 1;
        if self.tones.len() < n {
            let w = 2.0 * std::f64::consts::PI / self.sample_rate;
            self.tones.extend((self.tones.len()..n).map(|i| tone(w, i)));
        }
        // `tone + noise` is how `(a + b) + c` parses, so caching the
        // tone sum leaves every sample's bits unchanged.
        self.tones[..n]
            .iter()
            .map(|&tone| tone + 0.2 * rng.gen_range(-1.0..1.0))
            .collect()
    }
}

/// Sample `i`'s window-independent tones at angular step `w` rad/sample:
/// the 440 Hz signal plus the half-amplitude 5 kHz interferer.
fn tone(w: f64, i: usize) -> f64 {
    let t = i as f64;
    (440.0 * w * t).sin() + 0.5 * (5000.0 * w * t).sin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fir::FirFilter;
    use proptest::prelude::*;

    /// The uncached formula: every sample's tones recomputed in place.
    fn uncached(sample_rate: f64, seed: u64, window: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(window));
        let w = 2.0 * std::f64::consts::PI / sample_rate;
        (0..n)
            .map(|i| {
                let t = i as f64;
                (440.0 * w * t).sin()
                    + 0.5 * (5000.0 * w * t).sin()
                    + 0.2 * rng.gen_range(-1.0..1.0)
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Window lengths that grow past and shrink below the cached
        /// length reproduce the uncached samples bit for bit.
        #[test]
        fn cached_tones_match_uncached_formula(
            seed in any::<u64>(),
            rate in 1_000.0..48_000.0f64,
            lengths in prop::collection::vec(0usize..600, 1..8),
        ) {
            let mut mic = Microphone::new(rate, seed);
            for (window, &n) in lengths.iter().enumerate() {
                let got = mic.acquire(n);
                prop_assert_eq!(bits(&got), bits(&uncached(rate, seed, window as u64, n)));
            }
        }
    }

    #[test]
    fn tone_cache_is_invisible_to_eq_and_debug() {
        let mut warm = Microphone::spu0414(3);
        warm.acquire(512);
        let mut cold = Microphone::spu0414(3);
        cold.acquire(0);
        assert_eq!(warm, cold);
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
        assert_eq!(
            format!("{cold:?}"),
            "Microphone { sample_rate: 16000.0, seed: 3, windows_taken: 1 }"
        );
    }

    #[test]
    fn windows_are_deterministic_but_distinct() {
        let mut a = Microphone::spu0414(1);
        let mut b = Microphone::spu0414(1);
        assert_eq!(a.acquire(64), b.acquire(64));
        // Second window differs from the first.
        let w1 = a.acquire(64);
        let mut c = Microphone::spu0414(1);
        let w0 = c.acquire(64);
        assert_ne!(w0, w1);
        assert_eq!(a.windows_taken(), 2);
    }

    #[test]
    fn filtering_recovers_the_low_tone() {
        // End-to-end SC kernel: the 5 kHz interferer is filtered out.
        let mut mic = Microphone::spu0414(7);
        let window = mic.acquire(512);
        // Cutoff 1 kHz at 16 kHz sampling → normalized 0.0625.
        let filter = FirFilter::lowpass(0.0625, 63);
        let clean = filter.apply(&window);
        // The interferer at 5 kHz (normalized 0.3125) is strongly
        // attenuated: compare spectral magnitude via the filter response.
        assert!(filter.magnitude_at(440.0 / 16_000.0) > 0.9);
        assert!(filter.magnitude_at(5000.0 / 16_000.0) < 0.01);
        // Output amplitude close to the 440 Hz tone alone (amplitude 1).
        let peak = clean[100..]
            .iter()
            .cloned()
            .fold(0.0_f64, |m, x| m.max(x.abs()));
        assert!(peak > 0.7 && peak < 1.3, "peak {peak}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        Microphone::new(0.0, 1);
    }
}
