//! A tiny deterministic pseudo-random generator (SplitMix64).
//!
//! The workspace builds against an offline registry, so the `rand`
//! crate is unavailable; this generator covers everything the seeded
//! parts of the workspace need — topology and fault-plan generators,
//! load generators, fuzzers, the cell simulator — reproducible seeded
//! streams with uniform draws from small ranges. It lives in the
//! topology crate because that is the lowest layer every one of those
//! users already depends on. SplitMix64 passes BigCrush and is the
//! standard seeding generator of the xoshiro family.

/// Deterministic SplitMix64 generator.
///
/// Identical seeds yield identical sequences on every platform, which
/// is what makes seeded runs reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        SimRng { state: seed }
    }

    /// Returns the next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform draw from `0..bound` (`bound` must be > 0).
    ///
    /// Uses the widening-multiply method; the bias for the small bounds
    /// used here (≤ 2^32) is below 2^-32 and irrelevant for traffic
    /// patterns.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Splits off an independent child stream, advancing this
    /// generator by one draw. SplitMix64 is the standard seeding
    /// generator, so a forked stream is as well-mixed as the parent —
    /// the storm harness forks one stream per fuzz round so rounds
    /// stay reproducible in isolation (and resumable mid-run) without
    /// replaying every earlier round's draws.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::seed_from_u64(99);
        let mut b = SimRng::seed_from_u64(99);
        for _ in 0..1_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_below_stays_in_range_and_covers_it() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn roughly_uniform_percentages() {
        // 60% draws should land near 600/1000.
        let mut rng = SimRng::seed_from_u64(42);
        let hits = (0..1_000).filter(|_| rng.gen_below(100) < 60).count();
        assert!((500..=700).contains(&hits), "hits = {hits}");
    }
}
