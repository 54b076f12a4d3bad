//! Self-similar VBR background traffic.
//!
//! Real VBR traffic is long-range dependent: burstiness does not
//! smooth out under aggregation the way Poisson arrivals do. The
//! classic construction (Willinger et al.) superposes many on/off
//! sources with heavy-tailed on/off periods; aggregate variance then
//! decays like `m^(2H-2)` with Hurst parameter `H > 1/2` instead of
//! Poisson's `1/m`.
//!
//! [`LrdVbrSource`] is the std-only, seeded analogue: a fixed bank of
//! deterministic on/off phases whose periods span several octaves
//! (`2^3 … 2^(3+octaves)` slots). The slow sources contribute
//! correlations at every lag up to their period, so block-averaged
//! variance decays visibly slower than a memoryless source's — which
//! the unit test checks directly. The fuzzer reads the source as an
//! *arrival intensity*: more active sources in a slot, more connect
//! directives emitted in that slot.

use rtcac_net::SimRng;

/// One deterministic on/off phase: active while
/// `(slot + phase) mod period < on`.
#[derive(Debug, Clone, Copy)]
struct OnOff {
    period: u64,
    on: u64,
    phase: u64,
}

/// A superposition of seeded on/off sources with multi-octave
/// periods, evaluated per slot. Equal seeds give equal processes.
#[derive(Debug, Clone)]
pub struct LrdVbrSource {
    sources: Vec<OnOff>,
}

impl LrdVbrSource {
    /// A bank of `3 * octaves` sources, three per octave, with
    /// periods `2^3 … 2^(2 + octaves)` and seeded on-fractions and
    /// phases. `octaves` is clamped to `1..=16`.
    pub fn new(rng: &mut SimRng, octaves: u32) -> LrdVbrSource {
        let octaves = octaves.clamp(1, 16);
        let mut sources = Vec::new();
        for octave in 0..octaves {
            let period = 8u64 << octave;
            for _ in 0..3 {
                // On-fraction in [1/4, 3/4) of the period, so every
                // timescale contributes both bursts and silences.
                let on = period / 4 + rng.gen_below((period / 2).max(1));
                let phase = rng.gen_below(period);
                sources.push(OnOff { period, on, phase });
            }
        }
        LrdVbrSource { sources }
    }

    /// How many sources are in their on-period at `slot` — the
    /// background arrival intensity the fuzzer modulates with.
    pub fn intensity(&self, slot: u64) -> u64 {
        self.sources
            .iter()
            .filter(|s| (slot + s.phase) % s.period < s.on)
            .count() as u64
    }

    /// The number of superposed sources (the maximum intensity).
    pub fn sources(&self) -> usize {
        self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Variance of `xs` block-averaged over windows of `m` slots.
    fn block_variance(xs: &[f64], m: usize) -> f64 {
        let blocks: Vec<f64> = xs
            .chunks_exact(m)
            .map(|c| c.iter().sum::<f64>() / m as f64)
            .collect();
        let mean = blocks.iter().sum::<f64>() / blocks.len() as f64;
        blocks.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / blocks.len() as f64
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::seed_from_u64(21);
        let mut b = SimRng::seed_from_u64(21);
        let sa = LrdVbrSource::new(&mut a, 5);
        let sb = LrdVbrSource::new(&mut b, 5);
        for slot in 0..500 {
            assert_eq!(sa.intensity(slot), sb.intensity(slot));
        }
    }

    #[test]
    fn intensity_varies_and_stays_bounded() {
        let mut rng = SimRng::seed_from_u64(8);
        let source = LrdVbrSource::new(&mut rng, 4);
        let series: Vec<u64> = (0..2_000).map(|s| source.intensity(s)).collect();
        let max = *series.iter().max().unwrap();
        let min = *series.iter().min().unwrap();
        assert!(max as usize <= source.sources());
        assert!(max > min, "a bursty source is not constant");
    }

    /// The long-range-dependence check: block-averaged variance of
    /// the superposition must decay much slower than the `1/m` a
    /// memoryless (shuffled) source shows. We compare the variance
    /// ratio var(m=64)/var(m=1) against the Poisson prediction 1/64:
    /// self-similar traffic keeps an order of magnitude more.
    #[test]
    fn aggregate_variance_decays_slower_than_poisson() {
        let mut rng = SimRng::seed_from_u64(77);
        let source = LrdVbrSource::new(&mut rng, 6);
        let series: Vec<f64> = (0..4_096).map(|s| source.intensity(s) as f64).collect();
        let v1 = block_variance(&series, 1);
        let v64 = block_variance(&series, 64);
        assert!(v1 > 0.0);
        let ratio = v64 / v1;
        assert!(
            ratio > 4.0 / 64.0,
            "variance ratio {ratio:.4} decayed like short-range traffic"
        );

        // The same samples shuffled (seeded Fisher-Yates) destroy the
        // correlation structure; their block variance must be close
        // to the 1/m law — the contrast proving the slow decay above
        // comes from long-range correlation, not the marginals.
        let mut shuffled = series.clone();
        let mut shuffle_rng = SimRng::seed_from_u64(78);
        for i in (1..shuffled.len()).rev() {
            let j = shuffle_rng.gen_below(i as u64 + 1) as usize;
            shuffled.swap(i, j);
        }
        let shuffled_ratio = block_variance(&shuffled, 64) / v1;
        assert!(
            ratio > 3.0 * shuffled_ratio,
            "correlated ratio {ratio:.4} vs shuffled {shuffled_ratio:.4}"
        );
    }
}
