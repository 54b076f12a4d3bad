//! Traffic sources: patterns gated by the contract [`Shaper`].

use rtcac_bitstream::TrafficContract;

use crate::Shaper;
use crate::SimRng;

/// How a source *wants* to emit; the [`Shaper`] decides what it *may*
/// emit.
#[derive(Debug, Clone)]
pub enum TrafficPattern {
    /// Emits whenever the shaper allows — exactly the worst-case
    /// pattern of the paper's Figure 1 (MBS cells at PCR, then SCR).
    Greedy,
    /// Emits one cell every `period` slots, starting at `phase`
    /// (a well-behaved CBR source; the shaper still polices it).
    Periodic {
        /// Slots between consecutive emission attempts.
        period: u64,
        /// Slot of the first attempt.
        phase: u64,
    },
    /// On/off: each slot wants a cell with probability `p_percent/100`,
    /// from a deterministic seeded generator.
    Random {
        /// Emission probability per slot, in percent (0–100).
        p_percent: u8,
        /// RNG seed (runs are reproducible).
        seed: u64,
    },
}

/// A traffic source: a [`TrafficPattern`] policed by a contract
/// [`Shaper`].
#[derive(Debug, Clone)]
pub struct ShapedSource {
    pattern: PatternState,
    shaper: Shaper,
}

#[derive(Debug, Clone)]
enum PatternState {
    Greedy,
    Periodic { period: u64, phase: u64 },
    Random { p_percent: u8, rng: SimRng },
}

impl ShapedSource {
    /// Creates a source for a contract and pattern.
    pub fn new(contract: &TrafficContract, pattern: TrafficPattern) -> ShapedSource {
        let pattern = match pattern {
            TrafficPattern::Greedy => PatternState::Greedy,
            TrafficPattern::Periodic { period, phase } => PatternState::Periodic {
                period: period.max(1),
                phase,
            },
            TrafficPattern::Random { p_percent, seed } => PatternState::Random {
                p_percent: p_percent.min(100),
                rng: SimRng::seed_from_u64(seed),
            },
        };
        ShapedSource {
            pattern,
            shaper: Shaper::new(contract),
        }
    }

    /// Whether the source emits a cell in `slot`. Must be called once
    /// per slot, in increasing slot order.
    pub fn emit(&mut self, slot: u64) -> bool {
        let wants = match &mut self.pattern {
            PatternState::Greedy => true,
            PatternState::Periodic { period, phase } => {
                slot >= *phase && (slot - *phase).is_multiple_of(*period)
            }
            PatternState::Random { p_percent, rng } => rng.gen_below(100) < u64::from(*p_percent),
        };
        wants && self.shaper.try_send(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::{CbrParams, Rate, VbrParams};
    use rtcac_rational::ratio;

    fn cbr(n: i128, d: i128) -> TrafficContract {
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(n, d))).unwrap())
    }

    fn emissions(src: &mut ShapedSource, slots: u64) -> Vec<u64> {
        (0..slots).filter(|&t| src.emit(t)).collect()
    }

    #[test]
    fn greedy_matches_shaper() {
        let c = cbr(1, 5);
        let mut src = ShapedSource::new(&c, TrafficPattern::Greedy);
        assert_eq!(emissions(&mut src, 25), vec![0, 5, 10, 15, 20]);
    }

    #[test]
    fn periodic_respects_phase_and_period() {
        let c = cbr(1, 2);
        let mut src = ShapedSource::new(
            &c,
            TrafficPattern::Periodic {
                period: 4,
                phase: 3,
            },
        );
        assert_eq!(emissions(&mut src, 20), vec![3, 7, 11, 15, 19]);
    }

    #[test]
    fn periodic_faster_than_contract_is_policed() {
        // Pattern wants every slot; CBR 1/4 allows every 4th.
        let c = cbr(1, 4);
        let mut src = ShapedSource::new(
            &c,
            TrafficPattern::Periodic {
                period: 1,
                phase: 0,
            },
        );
        let sent = emissions(&mut src, 16);
        assert_eq!(sent, vec![0, 4, 8, 12]);
    }

    #[test]
    fn random_is_reproducible_and_policed() {
        let c = TrafficContract::vbr(
            VbrParams::new(Rate::new(ratio(1, 2)), Rate::new(ratio(1, 8)), 4).unwrap(),
        );
        let mut a = ShapedSource::new(
            &c,
            TrafficPattern::Random {
                p_percent: 60,
                seed: 42,
            },
        );
        let mut b = ShapedSource::new(
            &c,
            TrafficPattern::Random {
                p_percent: 60,
                seed: 42,
            },
        );
        let ea = emissions(&mut a, 500);
        let eb = emissions(&mut b, 500);
        assert_eq!(ea, eb);
        // Policed to the SCR in the long run (1/8 * 500 + MBS slack).
        assert!(ea.len() as u64 <= 500 / 8 + 4);
        assert!(!ea.is_empty());
    }

    #[test]
    fn zero_probability_random_is_silent() {
        let c = cbr(1, 2);
        let mut src = ShapedSource::new(
            &c,
            TrafficPattern::Random {
                p_percent: 0,
                seed: 7,
            },
        );
        assert!(emissions(&mut src, 100).is_empty());
    }
}
