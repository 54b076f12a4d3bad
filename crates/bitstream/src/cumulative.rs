//! Piecewise-linear cumulative curves.
//!
//! A [`BitStream`] is a step function of *rate*; its integral is a
//! piecewise-linear, non-decreasing *cumulative* curve. Algorithm 4.1
//! (the queueing delay bound) is the maximum horizontal deviation
//! between the arrival curve of the priority class and the leftover
//! service curve under higher-priority interference. Both are
//! [`PiecewiseLinear`] values here.

use rtcac_rational::Ratio;

use crate::{BitStream, Cells, Rate, Time};

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
    /// The cumulative arrival curve `A(t) = ∫₀ᵗ r(u) du` of a stream.
    pub(crate) fn arrival(stream: &BitStream) -> PiecewiseLinear {
        PiecewiseLinear::integral(stream, |rate| rate.as_ratio())
    }

    /// The leftover service curve `C(t) = ∫₀ᵗ (1 − r₁(u)) du` available
    /// to a priority class under higher-priority interference `r₁`.
    ///
    /// The caller must ensure `r₁ <= 1` everywhere (i.e. the
    /// interference stream has been filtered, Algorithm 3.4).
    pub(crate) fn leftover_service(higher: &BitStream) -> PiecewiseLinear {
        PiecewiseLinear::integral(higher, |rate| {
            let slope = Ratio::ONE - rate.as_ratio();
            debug_assert!(
                !slope.is_negative(),
                "leftover_service: interference above link rate"
            );
            slope
        })
    }

    /// `∫₀ᵗ slope_of(r(u)) du` over a stream's segments.
    fn integral(stream: &BitStream, slope_of: impl Fn(Rate) -> Ratio) -> PiecewiseLinear {
        let segs = stream.segments();
        let mut knots = Vec::with_capacity(segs.len());
        let mut slopes = Vec::with_capacity(segs.len());
        let mut value = Cells::ZERO;
        let mut prev: Option<(Ratio, Time)> = None;
        for seg in segs {
            if let Some((slope, start)) = prev {
                value += Rate::new(slope) * (seg.start - start);
            }
            let slope = slope_of(seg.rate);
            knots.push((seg.start, value));
            slopes.push(slope);
            prev = Some((slope, seg.start));
        }
        PiecewiseLinear { knots, slopes }
    }

    /// Start value and slope of the last (infinite) piece; `None` only
    /// for an empty curve, which neither constructor produces.
    fn tail(&self) -> Option<(Cells, Ratio)> {
        Some((self.knots.last()?.1, *self.slopes.last()?))
    }
}

/// Where a curve first reaches a value.
struct Reached {
    time: Time,
    /// The piece in effect at `time` (right-continuous: a knot time
    /// belongs to the piece that starts there).
    piece: usize,
}

/// A forward-only reader of a curve's pseudo-inverse. Queries must come
/// in non-decreasing order of value; each then resumes where the last
/// one stopped, so a whole sweep costs one pass over the pieces.
struct InverseCursor<'a> {
    curve: &'a PiecewiseLinear,
    /// The first piece that ends above the last value asked for.
    piece: usize,
    /// The first rising piece at or after the last plateau looked at.
    rising: usize,
}

impl<'a> InverseCursor<'a> {
    fn new(curve: &'a PiecewiseLinear) -> InverseCursor<'a> {
        InverseCursor {
            curve,
            piece: 0,
            rising: 0,
        }
    }

    /// The earliest time at which the curve reaches `v >= 0`, or `None`
    /// if it never does (curve saturates below `v`).
    fn reach(&mut self, v: Cells) -> Option<Reached> {
        debug_assert!(!v.is_negative());
        if v.is_zero() {
            return Some(Reached {
                time: Time::ZERO,
                piece: 0,
            });
        }
        let knots = &self.curve.knots;
        while let Some(&(next_t, next_v)) = knots.get(self.piece + 1) {
            if next_v == v {
                return Some(Reached {
                    time: next_t,
                    piece: self.piece + 1,
                });
            }
            if next_v > v {
                break;
            }
            self.piece += 1;
        }
        // Every earlier piece ends below `v`, so this one starts below
        // it; unless it is the last, it also ends above `v` and rises.
        let (kt, kv) = knots[self.piece];
        let slope = Rate::new(self.curve.slopes[self.piece]);
        slope.is_positive().then(|| Reached {
            time: kt + (v - kv) / slope,
            piece: self.piece,
        })
    }

    /// When the bit that brings the arrivals to `v` departs: the first
    /// time the curve reaches `v`, or — while traffic is `still_arriving`
    /// — the first time it *strictly exceeds* `v`, the right limit of
    /// the pseudo-inverse. The two differ exactly when the curve has a
    /// plateau at `v`. `None` if the curve saturates first.
    fn departure(&mut self, v: Cells, still_arriving: bool) -> Option<Time> {
        let at = self.reach(v)?;
        if !still_arriving {
            return Some(at.time);
        }
        // The curve equals v here; it strictly exceeds v as soon as a
        // positive slope resumes.
        self.rising = self.rising.max(at.piece);
        while !self.curve.slopes.get(self.rising)?.is_positive() {
            self.rising += 1;
        }
        Some(at.time.max(self.curve.knots[self.rising].0))
    }
}

/// The maximum horizontal deviation `max_t [ C⁻¹(A(t)) − t ]` between an
/// arrival curve `A` and a service curve `C` — the worst-case FIFO
/// queueing delay. Returns `None` when the deviation is unbounded
/// (long-run arrival rate exceeds long-run service rate, or the service
/// saturates below the total arrival volume).
pub(crate) fn horizontal_deviation(a: &PiecewiseLinear, c: &PiecewiseLinear) -> Option<Time> {
    let ((a_max, ra), (c_max, rc)) = (a.tail()?, c.tail()?);
    if ra > rc {
        return None;
    }
    // Both curves saturate; the service must cover the total volume.
    if ra == rc && rc.is_zero() && a_max > c_max {
        return None;
    }
    // Candidate times: knots of A, plus preimages (under A) of the
    // values C takes at its knots. Between consecutive candidates the
    // deviation is affine, so the maximum is attained at a candidate.
    // Each candidate's deviation is g − t, with g the departure of the
    // bit arriving exactly at t and — when traffic is still arriving
    // there — of the bits arriving immediately after it.
    //
    // Both families ascend in time and in value, so each is one forward
    // walk: an A-knot already carries its value and slope, and the
    // values handed to C only grow.
    let mut best = Time::ZERO;
    let mut service = InverseCursor::new(c);
    for (&(t, v), slope) in a.knots.iter().zip(&a.slopes) {
        let g = service.departure(v, slope.is_positive())?;
        best = best.max(g - t);
    }
    let mut service = InverseCursor::new(c);
    let mut arrival = InverseCursor::new(a);
    for &(_, v) in &c.knots {
        // A saturates below this value, hence below all later ones.
        let Some(at) = arrival.reach(v) else { break };
        let g = service.departure(v, a.slopes[at.piece].is_positive())?;
        best = best.max(g - at.time);
    }
    Some(best)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_rational::ratio;

    fn stream(pairs: &[(i128, i128, i128, i128)]) -> BitStream {
        BitStream::from_rate_breaks(
            pairs
                .iter()
                .map(|&(rn, rd, tn, td)| (ratio(rn, rd), ratio(tn, td))),
        )
        .unwrap()
    }

    fn first_time_reaching(curve: &PiecewiseLinear, v: Cells) -> Option<Time> {
        InverseCursor::new(curve).reach(v).map(|at| at.time)
    }

    #[test]
    fn arrival_values() {
        // Rate 1 on [0,4), then 1/4.
        let s = stream(&[(1, 1, 0, 1), (1, 4, 4, 1)]);
        let a = PiecewiseLinear::arrival(&s);
        assert_eq!(
            a.knots,
            [
                (Time::ZERO, Cells::ZERO),
                (Time::from_integer(4), Cells::from_integer(4))
            ]
        );
        assert_eq!(a.tail(), Some((Cells::from_integer(4), ratio(1, 4))));
    }

    #[test]
    fn leftover_service_values() {
        // Higher-priority interference: rate 1 on [0,2), then 1/2.
        let h = stream(&[(1, 1, 0, 1), (1, 2, 2, 1)]);
        let c = PiecewiseLinear::leftover_service(&h);
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
    fn first_time_reaching_with_plateau() {
        let h = stream(&[(1, 1, 0, 1), (1, 2, 2, 1)]);
        let c = PiecewiseLinear::leftover_service(&h);
        assert_eq!(first_time_reaching(&c, Cells::ZERO), Some(Time::ZERO));
        // First cell of leftover service completes at t = 2 + 2 = 4.
        assert_eq!(
            first_time_reaching(&c, Cells::ONE),
            Some(Time::from_integer(4))
        );
        // Traffic still arriving at value 0 leaves once the plateau ends.
        assert_eq!(
            InverseCursor::new(&c).departure(Cells::ZERO, true),
            Some(Time::from_integer(2))
        );
    }

    #[test]
    fn first_time_reaching_saturated() {
        // Arrival that stops: rate 1 on [0, 3), then zero.
        let s = stream(&[(1, 1, 0, 1), (0, 1, 3, 1)]);
        let a = PiecewiseLinear::arrival(&s);
        assert_eq!(
            first_time_reaching(&a, Cells::from_integer(3)),
            Some(Time::from_integer(3))
        );
        assert_eq!(first_time_reaching(&a, Cells::from_integer(4)), None);
        // At the saturation value nothing ever strictly exceeds it.
        let mut cursor = InverseCursor::new(&a);
        assert_eq!(
            cursor.departure(Cells::from_integer(3), false),
            Some(Time::from_integer(3))
        );
        assert_eq!(cursor.departure(Cells::from_integer(3), true), None);
    }

    #[test]
    fn deviation_simple_burst() {
        // Burst: rate 2 for 3 cell times then 0, full service.
        let s = stream(&[(2, 1, 0, 1), (0, 1, 3, 1)]);
        let a = PiecewiseLinear::arrival(&s);
        let c = PiecewiseLinear::leftover_service(&BitStream::zero());
        // Backlog peaks at 3 cells at t=3; last bit waits 3 cell times.
        assert_eq!(horizontal_deviation(&a, &c), Some(Time::from_integer(3)));
    }

    #[test]
    fn deviation_unbounded_on_overload() {
        let s = stream(&[(3, 2, 0, 1)]);
        let a = PiecewiseLinear::arrival(&s);
        let c = PiecewiseLinear::leftover_service(&BitStream::zero());
        assert_eq!(horizontal_deviation(&a, &c), None);
    }

    #[test]
    fn deviation_zero_for_light_traffic() {
        let s = stream(&[(1, 2, 0, 1)]);
        let a = PiecewiseLinear::arrival(&s);
        let c = PiecewiseLinear::leftover_service(&BitStream::zero());
        assert_eq!(horizontal_deviation(&a, &c), Some(Time::ZERO));
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
        let a = PiecewiseLinear::arrival(&s);
        let c = PiecewiseLinear::leftover_service(&h);
        assert_eq!(horizontal_deviation(&a, &c), Some(Time::from_integer(4)));
    }

    #[test]
    fn deviation_equal_final_slopes_saturating() {
        // Interference is non-increasing, so no `higher` stream yields a
        // saturating service curve; two arrival curves stand in for the
        // pair of flat tails. Arrival: 2 cells then stop.
        let a_sat = PiecewiseLinear::arrival(&stream(&[(1, 1, 0, 1), (0, 1, 2, 1)]));
        let c_sat = PiecewiseLinear::arrival(&stream(&[(1, 1, 0, 1), (0, 1, 1, 1)])); // saturates at 1
        assert_eq!(horizontal_deviation(&a_sat, &c_sat), None);
        let c_big = PiecewiseLinear::arrival(&stream(&[(1, 1, 0, 1), (0, 1, 5, 1)]));
        assert!(horizontal_deviation(&a_sat, &c_big).is_some());
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
        let (higher_last, higher) = match rng.below(8) {
            0 => (0, BitStream::zero()),
            1 => (12, random_stream(rng, 12, true, 12)), // the link, forever
            _ => {
                let last = rng.below(12);
                let blackout = rng.one_in(3);
                (last, random_stream(rng, 12, blackout, last))
            }
        };
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
        // Every shape the plateau rule and the pre-checks exist for.
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

    /// Any non-decreasing curve from the origin — plateaus anywhere, not
    /// only where a stream's integral can put them — as both types.
    fn random_curve(rng: &mut SplitMix64) -> (PiecewiseLinear, reference::PiecewiseLinear) {
        let n = 1 + rng.below(6) as usize;
        let slopes: Vec<Ratio> = (0..n)
            .map(|_| match rng.below(6) {
                0 | 1 => Ratio::ZERO,
                k => ratio(1 + rng.below(4) as i128, k as i128),
            })
            .collect();
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
        let (mut bounded, mut unbounded) = (0, 0);
        for case in 0..8_000 {
            let (a, a_ref) = random_curve(&mut rng);
            let (c, c_ref) = random_curve(&mut rng);
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
        }
        assert!(bounded >= 1_000 && unbounded >= 1_000);
    }
}
