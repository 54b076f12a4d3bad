//! The numerator merge against exact `Ratio` arithmetic.
//!
//! [`Merge`] sums rates as counts of `1 / D` wherever its inputs share
//! word-sized denominators, and falls back to `Ratio` sums where they do
//! not. Both paths must give what plain `Ratio` arithmetic gives:
//! `multiplex_all` and `multiplex_filtered` against a sum over every
//! breakpoint computed here, and `delay_bound_of_filtered_sum` against
//! the reference Algorithm 4.1. The draws cover denominators near
//! `i64::MAX`, shared inputs beside wide ones, and input sets whose `D`
//! or sum of peaks leaves a word and must take the fallback.
//!
//! Seeded and std-only; `RTCAC_TEST_SEED=<u64>` replays a failure, and
//! every assertion message carries the seed.

use rtcac_rational::{ratio, Ratio};

use super::Merge;
use crate::cumulative::reference;
use crate::{BitStream, StreamError};

/// A stream as `(rate, start)` pairs.
type Pairs = Vec<(Ratio, Ratio)>;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn seed() -> u64 {
    match std::env::var("RTCAC_TEST_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("RTCAC_TEST_SEED={s:?} is not a u64")),
        Err(_) => 0x4E_0D,
    }
}

/// Two primes just below 2^63.
const P1: i128 = 9_223_372_036_854_775_783;
const P2: i128 = 9_223_372_036_854_775_643;

/// Algorithm 3.2 by definition: the sum of every stream's rate at each
/// breakpoint of any of them, equal-rate neighbours merged.
fn ratio_sum(inputs: &[Pairs]) -> Pairs {
    let mut starts: Vec<Ratio> = inputs.iter().flatten().map(|&(_, t)| t).collect();
    starts.sort_unstable();
    starts.dedup();
    let rate_at = |pairs: &Pairs, t: Ratio| {
        let before = pairs.iter().rev().find(|&&(_, start)| start <= t);
        before.map_or(Ratio::ZERO, |&(rate, _)| rate)
    };
    let mut out: Pairs = Vec::new();
    for t in starts {
        let rate = inputs
            .iter()
            .fold(Ratio::ZERO, |sum, p| sum + rate_at(p, t));
        if out.last().is_none_or(|&(prev, _)| prev != rate) {
            out.push((rate, t));
        }
    }
    if out.is_empty() {
        out.push((Ratio::ZERO, Ratio::ZERO));
    }
    out
}

/// Algorithm 3.4 by definition: rate 1 until the queue of what arrived
/// above it drains, then the input.
fn ratio_filter(pairs: &Pairs) -> Pairs {
    let mut queue = Ratio::ZERO;
    for (k, &(rate, start)) in pairs.iter().enumerate() {
        let end = pairs.get(k + 1).map(|&(_, t)| t);
        if rate < Ratio::ONE {
            let drained = start + queue / (Ratio::ONE - rate);
            if end.is_none_or(|end| drained <= end) {
                let mut out = Vec::new();
                if drained.is_positive() {
                    out.push((Ratio::ONE, Ratio::ZERO));
                }
                if end != Some(drained) {
                    out.push((rate, drained));
                }
                out.extend_from_slice(&pairs[k + 1..]);
                return out;
            }
        }
        if let Some(end) = end {
            queue += (rate - Ratio::ONE) * (end - start);
        }
    }
    vec![(Ratio::ONE, Ratio::ZERO)]
}

/// Rates `num / den` falling from `top` through up to three segments,
/// one to five cell times apart; `wide_start` makes at least two and
/// moves the second past `i64`.
fn stream(rng: &mut SplitMix64, den: i128, top: i128, wide_start: bool) -> Pairs {
    let mut num = top;
    let mut t = Ratio::ZERO;
    let mut out = vec![(ratio(num, den), t)];
    for _ in 0..rng.below(3).max(u64::from(wide_start)) {
        if num == 0 {
            break;
        }
        num -= 1 + (rng.next() as i128).rem_euclid((num / 3).max(1));
        num = num.max(0);
        t += Ratio::from_integer(1 + rng.below(5) as i128);
        if wide_start && out.len() == 1 {
            t += Ratio::from_integer(1 << 63);
        }
        out.push((ratio(num, den), t));
    }
    out
}

/// A stream on the 1/4096 grid peaking anywhere up to 5/2 of the link.
fn dyadic(rng: &mut SplitMix64) -> Pairs {
    let top = rng.below(10_240) as i128;
    stream(rng, 4096, top, false)
}

/// The shapes a port's in-links are drawn in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Rates on the 1/4096 grid, as every benchmark rate quantizes to.
    Dyadic,
    /// One prime denominator just below 2^63, rates summing below 1/2.
    NearMax,
    /// The same denominator with peaks near 1: their sum leaves `i64`.
    PeakSum,
    /// Two coprime 63-bit CBR rates, beside zero streams: `D` leaves a
    /// word (any further rate would take the sum past `i128`).
    Coprime,
    /// A stream with a start past `i64` beside grid streams, within the
    /// link so that its filtered view is itself.
    Wide,
}

const KINDS: [Kind; 5] = [
    Kind::Dyadic,
    Kind::NearMax,
    Kind::PeakSum,
    Kind::Coprime,
    Kind::Wide,
];

fn port(rng: &mut SplitMix64, kind: Kind) -> Vec<Pairs> {
    let n = 1 + rng.below(4) as usize;
    let mut port: Vec<Pairs> = match kind {
        Kind::Dyadic | Kind::Wide => (0..n).map(|_| dyadic(rng)).collect(),
        Kind::NearMax => (0..n)
            .map(|_| {
                let top = P1 / (2 * n as i128) - rng.below(1 << 40) as i128;
                stream(rng, P1, top, false)
            })
            .collect(),
        Kind::PeakSum => (0..n.max(2))
            .map(|_| {
                let top = P1 - rng.below(1 << 40) as i128;
                stream(rng, P1, top, false)
            })
            .collect(),
        Kind::Coprime => {
            let mut port = vec![
                vec![(ratio(1, P1), Ratio::ZERO)],
                vec![(ratio(1, P2), Ratio::ZERO)],
            ];
            port.extend((1..n).map(|_| vec![(Ratio::ZERO, Ratio::ZERO)]));
            port
        }
    };
    if kind == Kind::Wide {
        let top = 1 + rng.below(4095) as i128;
        port.push(stream(rng, 4096, top, true));
    }
    port
}

#[test]
fn numerator_merge_matches_ratio_sums() {
    let seed = seed();
    let mut rng = SplitMix64(seed ^ 0x4E_0D);
    // Per kind, the cases the merge summed as counts and as `Ratio`s.
    let mut paths = [[0usize; 2]; KINDS.len()];
    for case in 0..2_500 {
        let kind = KINDS[case % KINDS.len()];
        let inputs = port(&mut rng, kind);
        let streams: Vec<BitStream> = inputs
            .iter()
            .map(|pairs| BitStream::from_rate_breaks(pairs.iter().copied()).unwrap())
            .collect();
        // Interference within the link, on the inputs' own denominator so
        // that the reference's products stay within `i128`.
        let higher = match (kind, rng.below(3)) {
            (Kind::Coprime, _) | (_, 0) => BitStream::zero(),
            (Kind::NearMax | Kind::PeakSum, _) => {
                let top = P1 / 2 - rng.below(1 << 40) as i128;
                BitStream::from_rate_breaks(stream(&mut rng, P1, top, false)).unwrap()
            }
            _ => {
                let top = rng.below(4097) as i128;
                BitStream::from_rate_breaks(stream(&mut rng, 4096, top, false)).unwrap()
            }
        };
        let ctx =
            format!("RTCAC_TEST_SEED={seed} case {case} ({kind:?}): {streams:?} under {higher:?}");

        let sum = BitStream::from_rate_breaks(ratio_sum(&inputs)).unwrap();
        assert_eq!(BitStream::multiplex_all(&streams), sum, "{ctx}");
        let filtered: Vec<Pairs> = inputs.iter().map(ratio_filter).collect();
        let soa = BitStream::from_rate_breaks(ratio_sum(&filtered)).unwrap();
        assert_eq!(BitStream::multiplex_filtered(&streams), soa, "{ctx}");
        match (
            BitStream::delay_bound_of_filtered_sum(&streams, &higher),
            reference::delay_bound(&soa, &higher),
        ) {
            (Ok(got), Some(want)) => assert_eq!(got, want, "{ctx}"),
            (Err(StreamError::Overload { .. }), None) => {}
            (got, want) => panic!("{ctx}: {got:?} against {want:?}"),
        }

        let merge = Merge::new(streams.iter().map(BitStream::filtered));
        paths[case % KINDS.len()][usize::from(matches!(merge, Merge::Exact(_)))] += 1;
    }
    // Each kind took the path its values call for, every time.
    let ctx = format!("RTCAC_TEST_SEED={seed}: [counts, ratios] per kind {paths:?}");
    for (kind, [counts, ratios]) in KINDS.iter().zip(paths) {
        let fits = matches!(kind, Kind::Dyadic | Kind::NearMax);
        assert_eq!(counts == 0, !fits, "{ctx}");
        assert_eq!(ratios == 0, fits, "{ctx}");
    }
}
