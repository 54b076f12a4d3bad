//! Piecewise-linear cumulative curves.
//!
//! A [`BitStream`] is a step function of *rate*; its integral is a
//! piecewise-linear, non-decreasing *cumulative* curve. Algorithm 4.1
//! (the queueing delay bound) is the maximum horizontal deviation
//! between the arrival curve of the priority class and the leftover
//! service curve under higher-priority interference. The service curve
//! is a [`PiecewiseLinear`] value; the arrival curve is integrated from
//! any source of segments — a stored stream, or a merge that sums a
//! port's filtered in-links lazily — only as far as
//! [`horizontal_deviation`] pulls it.

use rtcac_rational::Ratio;

use crate::{BitStream, Cells, Rate, Segment, StreamError, Time};

/// A non-decreasing piecewise-linear curve starting at `(0, 0)`.
///
/// `knots[i]` is the curve value at the start of linear piece `i`;
/// `slopes[i]` applies on `[knots[i].0, knots[i+1].0)`, with the last
/// slope extending to infinity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PiecewiseLinear {
    knots: Vec<(Time, Cells)>,
    slopes: Vec<Ratio>,
}

impl PiecewiseLinear {
    /// The leftover service curve `C(t) = ∫₀ᵗ (1 − r₁(u)) du` available
    /// to a priority class under higher-priority interference `r₁`, which
    /// must not exceed the link rate (it must have been filtered,
    /// Algorithm 3.4): [`StreamError::UnfilteredInterference`] otherwise.
    pub(crate) fn leftover_service(higher: &BitStream) -> Result<PiecewiseLinear, StreamError> {
        if higher.peak_rate() > Rate::FULL {
            return Err(StreamError::UnfilteredInterference {
                rate: higher.peak_rate(),
            });
        }
        let segs = higher.segments();
        let mut knots = Vec::with_capacity(segs.len());
        let mut slopes = Vec::with_capacity(segs.len());
        let mut value = Cells::ZERO;
        let mut prev: Option<(Rate, Time)> = None;
        let mut k = 0;
        while let (Some(start), Some(slope)) = (segs.start(k), segs.headroom(k, Rate::FULL)) {
            if let Some((slope, prev)) = prev {
                value += slope * (start - prev);
            }
            knots.push((start, value));
            slopes.push(slope.as_ratio());
            prev = Some((slope, start));
            k += 1;
        }
        Ok(PiecewiseLinear { knots, slopes })
    }
}

/// The maximum horizontal deviation `max_t [ C⁻¹(A(t)) − t ]` between
/// the arrival curve `A = ∫ r` of a stream's segments, pulled from
/// `arrival` one at a time, and a service curve `C` — the worst-case
/// FIFO queueing delay. Returns `None` when the deviation is unbounded:
/// both curves reach their last piece with `A` the steeper (long-run
/// overload), or `C` never rises while something arrives.
///
/// The deviation `D(t) = g(t) − t`, with `g(t)` the departure of the bit
/// arriving at `t`, is piecewise linear. It bends only where `A` reaches
/// one of its own knots (the first candidate family) or one of `C`'s
/// knot values (the second), and between bends its slope is `r / s − 1`
/// for `A`'s slope `r` and `C`'s slope `s` at the departure.
///
/// `C` must be convex — slopes that never fall, as the integral of
/// `1 − r₁` has for a non-increasing `r₁` — and `A` is concave because a
/// stream's rates never rise. Then `C⁻¹` is concave wherever `C` rises,
/// `g = C⁻¹ ∘ A` is concave, and so is `D`: its maximum sits at the
/// first bend after which it stops rising (`r <= s`). The walk goes
/// through both families' bends in order up to that one, integrating `A`
/// as it goes, and evaluates `D` there alone, having pulled at most one
/// segment of `A` past it. Convexity also makes it the overload test:
/// `r > s` past both curves' last knots is `r > s` forever.
pub(crate) fn horizontal_deviation(
    arrival: impl IntoIterator<Item = Segment>,
    c: &PiecewiseLinear,
) -> Option<Time> {
    debug_assert!(
        c.slopes.windows(2).all(|w| w[0] <= w[1]),
        "the peak walk needs a convex service curve: {c:?}"
    );
    let mut segs = arrival.into_iter().peekable();
    // Nothing ever arrives, so nothing waits.
    let Some(mut a) = segs.next().filter(|first| first.rate.is_positive()) else {
        return Some(Time::ZERO);
    };
    // The first bits leave once `C` starts rising: at the end of its
    // flat prefix (the right limit of `C⁻¹` at 0). `m` is the piece of
    // `C` that serves the bits arriving just after the current bend.
    let mut m = c.slopes.iter().position(Ratio::is_positive)?;
    // `A`'s current piece `a`, `A` where it starts, and `A` at the
    // current bend.
    let (mut v_k, mut v) = (Cells::ZERO, Cells::ZERO);
    while a.rate.as_ratio() > c.slopes[m] {
        // The next bend: `A`'s next knot or `C`'s next knot value,
        // whichever `A` reaches first (both, on a tie).
        let a_next = segs
            .peek()
            .map(|&next| (next, v_k + a.rate * (next.start - a.start)));
        let c_next = c.knots.get(m + 1).map(|&(_, value)| value);
        match a_next {
            Some((next, value)) if c_next.is_none_or(|c_value| value <= c_value) => {
                segs.next();
                m += usize::from(c_next == Some(value));
                (a, v_k, v) = (next, value, value);
            }
            // Both on their last piece with `r > s`: rising forever.
            _ => {
                v = c_next?;
                m += 1;
            }
        }
    }
    // `D` at that bend: the bit that brings the arrivals to `v` arrives
    // at `t` and departs at `g`.
    let t = if v == v_k {
        a.start
    } else {
        a.start + (v - v_k) / a.rate
    };
    let (start, value) = c.knots[m];
    let g = if v == value {
        start
    } else {
        start + (v - value) / Rate::new(c.slopes[m])
    };
    Some(g - t)
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::Merge;
    use rtcac_rational::ratio;

    fn stream(pairs: &[(i128, i128, i128, i128)]) -> BitStream {
        BitStream::from_rate_breaks(
            pairs
                .iter()
                .map(|&(rn, rd, tn, td)| (ratio(rn, rd), ratio(tn, td))),
        )
        .unwrap()
    }

    /// The walk over a stored stream's segments.
    fn horizontal_deviation(a: &BitStream, c: &PiecewiseLinear) -> Option<Time> {
        super::horizontal_deviation(a.segments(), c)
    }

    #[test]
    fn walk_reads_the_arrival_only_to_the_peak() {
        // 17 segments: rates 4, 3, 2, then 14/16 down to 1/16, one cell
        // time apart. Under full service the backlog stops growing at
        // knot 3, where the rate first falls below 1.
        let rates = [(4, 1), (3, 1), (2, 1)]
            .into_iter()
            .chain((1..=14).rev().map(|k| (k, 16)));
        let s = BitStream::from_rate_breaks(
            rates
                .enumerate()
                .map(|(k, (n, d))| (ratio(n, d), ratio(k as i128, 1))),
        )
        .unwrap();
        assert_eq!(s.segment_count(), 17);
        let c = PiecewiseLinear::leftover_service(&BitStream::zero()).unwrap();
        let mut pulled = 0;
        let counted = s.segments().iter().inspect(|_| pulled += 1);
        // 3 + 2 + 1 cells queue up, and the last of them waits 6.
        assert_eq!(
            super::horizontal_deviation(counted, &c),
            Some(Time::from_integer(6))
        );
        assert!(pulled <= 5, "the walk pulled {pulled} of 17 segments");
        assert_eq!(
            horizontal_deviation(&s, &c),
            reference::delay_bound(&s, &BitStream::zero())
        );
    }

    #[test]
    fn leftover_service_values() {
        // Higher-priority interference: rate 1 on [0,2), then 1/2.
        let h = stream(&[(1, 1, 0, 1), (1, 2, 2, 1)]);
        let c = PiecewiseLinear::leftover_service(&h).unwrap();
        // No service while interference saturates the link.
        assert_eq!(
            c.knots,
            [
                (Time::ZERO, Cells::ZERO),
                (Time::from_integer(2), Cells::ZERO)
            ]
        );
        assert_eq!(c.slopes, [Ratio::ZERO, ratio(1, 2)]);
    }

    #[test]
    fn deviation_simple_burst() {
        // Burst: rate 2 for 3 cell times then 0, full service.
        let s = stream(&[(2, 1, 0, 1), (0, 1, 3, 1)]);
        let c = PiecewiseLinear::leftover_service(&BitStream::zero()).unwrap();
        // Backlog peaks at 3 cells at t=3; last bit waits 3 cell times.
        assert_eq!(horizontal_deviation(&s, &c), Some(Time::from_integer(3)));
    }

    #[test]
    fn deviation_unbounded_on_overload() {
        let s = stream(&[(3, 2, 0, 1)]);
        let c = PiecewiseLinear::leftover_service(&BitStream::zero()).unwrap();
        assert_eq!(horizontal_deviation(&s, &c), None);
    }

    #[test]
    fn deviation_zero_for_light_traffic() {
        let s = stream(&[(1, 2, 0, 1)]);
        let c = PiecewiseLinear::leftover_service(&BitStream::zero()).unwrap();
        assert_eq!(horizontal_deviation(&s, &c), Some(Time::ZERO));
    }

    #[test]
    fn deviation_with_interference() {
        // Arrival: 1/2 constant. Interference: full rate for 4 cell
        // times then zero. During [0,4) nothing is served; 2 cells
        // accumulate; the bit arriving at t=4^- waits until service
        // catches up: C(t) = t - 4, A(t) = t/2 -> g(t) = t/2 + 4,
        // D(t) = 4 - t/2, max at t=0: D = 4.
        let s = stream(&[(1, 2, 0, 1)]);
        let h = stream(&[(1, 1, 0, 1), (0, 1, 4, 1)]);
        let c = PiecewiseLinear::leftover_service(&h).unwrap();
        assert_eq!(horizontal_deviation(&s, &c), Some(Time::from_integer(4)));
    }

    #[test]
    fn deviation_equal_final_slopes_saturating() {
        // Interference is non-increasing, so the only service curve with
        // a flat tail is flat throughout: the link busy forever. It
        // serves an empty arrival and nothing else. Arrival: 2 cells
        // then stop.
        let c_none =
            PiecewiseLinear::leftover_service(&BitStream::constant(Rate::FULL).unwrap()).unwrap();
        let a_sat = stream(&[(1, 1, 0, 1), (0, 1, 2, 1)]);
        assert_eq!(horizontal_deviation(&a_sat, &c_none), None);
        assert_eq!(
            horizontal_deviation(&BitStream::zero(), &c_none),
            Some(Time::ZERO)
        );
        let c_full = PiecewiseLinear::leftover_service(&BitStream::zero()).unwrap();
        assert_eq!(horizontal_deviation(&a_sat, &c_full), Some(Time::ZERO));
    }

    #[test]
    fn deviation_peak_at_an_arrival_knot() {
        // A: rate 2 on [0,2), 3/2 on [2,4), 1/4 on [4,8), then 1/8.
        // Full service, so D at A's knots is 0, 2, 3, 0: the backlog
        // grows while A outpaces the link and peaks at the third knot,
        // where A's rate falls to 1/4.
        let s = stream(&[(2, 1, 0, 1), (3, 2, 2, 1), (1, 4, 4, 1), (1, 8, 8, 1)]);
        let c = PiecewiseLinear::leftover_service(&BitStream::zero()).unwrap();
        assert_eq!(horizontal_deviation(&s, &c), Some(Time::from_integer(3)));
        assert_eq!(
            horizontal_deviation(&s, &c),
            reference::delay_bound(&s, &BitStream::zero())
        );
    }

    #[test]
    fn deviation_peak_at_a_service_knot() {
        // A: 3/4 forever. Interference 1/2 until t = 4, then nothing:
        // C(t) = t/2 up to C(4) = 2, then rises at 1. A outpaces C until
        // it reaches 2 at t = 8/3; that bit leaves at 4, and after it C
        // outpaces A. D = 4 - 8/3 = 4/3, at no knot of A.
        let s = stream(&[(3, 4, 0, 1)]);
        let h = stream(&[(1, 2, 0, 1), (0, 1, 4, 1)]);
        let c = PiecewiseLinear::leftover_service(&h).unwrap();
        assert_eq!(horizontal_deviation(&s, &c), Some(Time::new(ratio(4, 3))));
        assert_eq!(horizontal_deviation(&s, &c), reference::delay_bound(&s, &h));
    }

    #[test]
    fn deviation_after_a_blackout_prefix() {
        // The link is busy with higher traffic for 2 cell times, then
        // half free; A sends 1 cell at rate 1. The first bit waits out
        // the blackout; the last one arrives at 1 and leaves at 4.
        let s = stream(&[(1, 1, 0, 1), (0, 1, 1, 1)]);
        let h = stream(&[(1, 1, 0, 1), (1, 2, 2, 1)]);
        let c = PiecewiseLinear::leftover_service(&h).unwrap();
        assert_eq!(horizontal_deviation(&s, &c), Some(Time::from_integer(3)));
        assert_eq!(horizontal_deviation(&s, &c), reference::delay_bound(&s, &h));
    }

    // ---- the sweep against the reference -------------------------------

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

        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }
    }

    fn seed() -> u64 {
        match std::env::var("RTCAC_TEST_SEED") {
            Ok(s) => s
                .parse()
                .unwrap_or_else(|_| panic!("RTCAC_TEST_SEED={s:?} is not a u64")),
            Err(_) => 0x41_5EED,
        }
    }

    /// Strictly increasing breakpoints from 0, on thirds and halves.
    fn breakpoints(rng: &mut SplitMix64, n: usize) -> Vec<Ratio> {
        let mut t = Ratio::ZERO;
        (0..n)
            .map(|k| {
                if k > 0 {
                    t += ratio(1 + rng.below(9) as i128, 1 + rng.below(3) as i128);
                }
                t
            })
            .collect()
    }

    /// A stream of up to seven segments with rates in twelfths, falling
    /// from at most `peak/12` (exactly that if `pin_peak`) to `last/12`.
    fn random_stream(rng: &mut SplitMix64, peak: u64, pin_peak: bool, last: u64) -> BitStream {
        let mut rates = vec![last];
        let want = 1 + rng.below(7) as usize;
        while rates.len() < want {
            let next = rates[rates.len() - 1] + 1 + rng.below(6);
            if next > peak {
                break;
            }
            rates.push(next);
        }
        if pin_peak && rates[rates.len() - 1] < peak {
            rates.push(peak);
        }
        rates.reverse();
        let times = breakpoints(rng, rates.len());
        BitStream::from_rate_breaks(
            rates
                .iter()
                .zip(times)
                .map(|(&q, t)| (ratio(q as i128, 12), t)),
        )
        .unwrap()
    }

    /// An `(arrival, higher)` pair. `higher` is filtered (rates <= 1).
    /// The draw leans on what the plateau rule exists for: a rate-1
    /// prefix on `higher` (a zero-slope service piece), arrivals that
    /// stop (saturating curves), and equal final slopes.
    fn random_pair(rng: &mut SplitMix64) -> (BitStream, BitStream) {
        let (higher_last, higher) = random_higher(rng);
        let left = 12 - higher_last;
        let last = match rng.below(8) {
            0..=2 => 0,                   // the arrivals stop
            3..=4 => left,                // equal final slopes
            5 => left + 1 + rng.below(3), // long-run overload
            _ => rng.below(left + 1),     // long-run slack
        };
        let arrival = if last == 0 && rng.one_in(4) {
            BitStream::zero()
        } else {
            let peak = last + rng.below(30);
            random_stream(rng, peak, false, last)
        };
        (arrival, higher)
    }

    /// A filtered `higher` and its last rate in twelfths: zero, the link
    /// forever, or any stream within the link, a third of them with a
    /// full-rate (blackout) prefix.
    fn random_higher(rng: &mut SplitMix64) -> (u64, BitStream) {
        match rng.below(8) {
            0 => (0, BitStream::zero()),
            1 => (12, random_stream(rng, 12, true, 12)), // the link, forever
            _ => {
                let last = rng.below(12);
                let blackout = rng.one_in(3);
                (last, random_stream(rng, 12, blackout, last))
            }
        }
    }

    /// Up to eight in-link aggregates peaking anywhere up to 5/2 of the
    /// link, so that some views clamp and the rest pass through.
    fn random_port(rng: &mut SplitMix64) -> Vec<BitStream> {
        let n = rng.below(9);
        (0..n)
            .map(|_| {
                let last = rng.below(4);
                let peak = last + rng.below(27);
                let pin_peak = rng.one_in(2);
                random_stream(rng, peak, pin_peak, last)
            })
            .collect()
    }

    #[test]
    fn fused_bound_matches_built_sum() {
        let seed = seed();
        let mut rng = SplitMix64(seed ^ 0xF0_5ED);
        let (mut bounded, mut overload, mut clamped, mut early) = (0, 0, 0, 0);
        for case in 0..6_000 {
            let port = random_port(&mut rng);
            let (_, higher) = random_higher(&mut rng);
            let ctx = format!("RTCAC_TEST_SEED={seed} case {case}: {port:?} under {higher:?}");
            let built = BitStream::multiplex_filtered(&port);
            let want = built.delay_bound(&higher);
            let got = BitStream::delay_bound_of_filtered_sum(&port, &higher);
            assert_eq!(got, want, "{ctx}");
            let exact = reference::delay_bound(&built, &higher);
            assert_eq!(want.as_ref().ok(), exact.as_ref(), "{ctx}");
            // How far the walk reads the merge.
            let mut pulled = 0;
            let soa = Merge::new(port.iter().map(BitStream::filtered)).inspect(|_| pulled += 1);
            let c = PiecewiseLinear::leftover_service(&higher).unwrap();
            assert_eq!(super::horizontal_deviation(soa, &c), exact, "{ctx}");
            match want {
                Ok(_) => bounded += 1,
                Err(StreamError::Overload { .. }) => overload += 1,
                Err(e) => panic!("{ctx}: {e}"),
            }
            clamped += usize::from(port.iter().any(|s| s.peak_rate() > Rate::FULL));
            early += usize::from(exact.is_some() && pulled < built.segment_count());
        }
        let ctx = format!("RTCAC_TEST_SEED={seed}");
        for (what, n) in [
            ("bounded", bounded),
            ("overload", overload),
            ("clamped view", clamped),
            ("peak before the last knot", early),
        ] {
            assert!(n >= 800, "{ctx}: {what}: only {n} cases");
        }
    }

    #[test]
    fn sweep_matches_reference_on_streams() {
        let seed = seed();
        let mut rng = SplitMix64(seed);
        let (mut bounded, mut unbounded, mut blackout, mut stopped, mut tied) = (0, 0, 0, 0, 0);
        for case in 0..24_000 {
            let (arrival, higher) = random_pair(&mut rng);
            let want = reference::delay_bound(&arrival, &higher);
            let got = arrival.delay_bound(&higher).ok();
            assert_eq!(
                got, want,
                "RTCAC_TEST_SEED={seed} case {case}: {arrival:?} under {higher:?}"
            );
            match want {
                Some(_) => bounded += 1,
                None => unbounded += 1,
            }
            let full = higher.peak_rate() == Rate::FULL;
            blackout += usize::from(full && want.is_some_and(|d| d.is_positive()));
            stopped += usize::from(arrival.long_run_rate().is_zero() && !arrival.is_zero());
            tied += usize::from(
                arrival.long_run_rate() + higher.long_run_rate() == Rate::FULL && want.is_some(),
            );
        }
        // Every shape the plateau rule and the overload ending exist for.
        for (what, n) in [
            ("bounded", bounded),
            ("unbounded", unbounded),
            ("blackout prefix", blackout),
            ("stopping arrivals", stopped),
            ("equal final slopes", tied),
        ] {
            assert!(n >= 1_000, "{what}: only {n} cases");
        }
    }

    /// One to six slopes: a third of them flat, the rest in `[1/5, 2]`.
    fn random_slopes(rng: &mut SplitMix64) -> Vec<Ratio> {
        let n = 1 + rng.below(6) as usize;
        (0..n)
            .map(|_| match rng.below(6) {
                0 | 1 => Ratio::ZERO,
                k => ratio(1 + rng.below(4) as i128, k as i128),
            })
            .collect()
    }

    /// Any arrival curve a stream integrates to: concave, its slopes
    /// never rising, flat (if at all) only in its final piece.
    fn random_arrival(rng: &mut SplitMix64) -> BitStream {
        let mut rates = random_slopes(rng);
        rates.sort_unstable_by(|a, b| b.cmp(a));
        let times = breakpoints(rng, rates.len());
        BitStream::from_rate_breaks(rates.into_iter().zip(times)).unwrap()
    }

    /// Any convex service curve — slopes never falling, flat (if at all)
    /// only in a prefix, as a filtered `higher` gives — at any slope
    /// scale, as both types.
    fn random_service(rng: &mut SplitMix64) -> (PiecewiseLinear, reference::PiecewiseLinear) {
        let mut slopes = random_slopes(rng);
        slopes.sort_unstable();
        let n = slopes.len();
        let mut value = Cells::ZERO;
        let mut knots: Vec<(Time, Cells)> = Vec::new();
        for (k, t) in breakpoints(rng, n).into_iter().enumerate() {
            if let Some(&(prev, _)) = knots.last() {
                value += Rate::new(slopes[k - 1]) * (Time::new(t) - prev);
            }
            knots.push((Time::new(t), value));
        }
        (
            PiecewiseLinear {
                knots: knots.clone(),
                slopes: slopes.clone(),
            },
            reference::PiecewiseLinear { knots, slopes },
        )
    }

    #[test]
    fn sweep_matches_reference_on_arbitrary_curves() {
        let seed = seed();
        let mut rng = SplitMix64(seed ^ 0xC0_FFEE);
        let (mut bounded, mut unbounded, mut interior) = (0, 0, 0);
        for case in 0..12_000 {
            let a = random_arrival(&mut rng);
            let (c, c_ref) = random_service(&mut rng);
            let a_ref = reference::PiecewiseLinear::arrival(&a);
            let want = reference::horizontal_deviation(&a_ref, &c_ref);
            assert_eq!(
                horizontal_deviation(&a, &c),
                want,
                "RTCAC_TEST_SEED={seed} case {case}: {a:?} over {c:?}"
            );
            match want {
                Some(_) => bounded += 1,
                None => unbounded += 1,
            }
            // The deviation at t = 0 is the first candidate of both
            // families; a peak beyond it is what the walk must find.
            let first = if a.peak_rate().is_positive() {
                c_ref.first_time_strictly_exceeding(Cells::ZERO)
            } else {
                Some(Time::ZERO)
            };
            interior += usize::from(want.zip(first).is_some_and(|(d, f)| d > f));
        }
        for (what, n) in [
            ("bounded", bounded),
            ("unbounded", unbounded),
            ("peak past the first candidate", interior),
        ] {
            assert!(n >= 1_000, "{what}: only {n} cases");
        }
    }
}
