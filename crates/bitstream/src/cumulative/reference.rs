//! Algorithm 4.1 as it stood before the cursor sweep: the reference the
//! sweep is tested against.
//!
//! Every candidate re-locates itself from scratch — a binary search for
//! `value_at` / `slope_at`, a scan from the first piece for each
//! pseudo-inverse — which is slow and obviously right. The file names
//! everything through `super::`, so `rtcac-cac`'s parity test can
//! include it by path and price a whole `Switch::check` with it.

use super::{BitStream, Cells, Rate, Ratio, Time};

/// Algorithm 4.1 end to end: `None` where the deviation is unbounded.
pub(crate) fn delay_bound(arrival: &BitStream, higher: &BitStream) -> Option<Time> {
    horizontal_deviation(
        &PiecewiseLinear::arrival(arrival),
        &PiecewiseLinear::leftover_service(higher),
    )
}

/// A non-decreasing piecewise-linear curve starting at `(0, 0)`.
///
/// `knots[i]` is the curve value at the start of linear piece `i`;
/// `slopes[i]` applies on `[knots[i].0, knots[i+1].0)`, with the last
/// slope extending to infinity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PiecewiseLinear {
    pub(crate) knots: Vec<(Time, Cells)>,
    pub(crate) slopes: Vec<Ratio>,
}

impl PiecewiseLinear {
    /// The cumulative arrival curve `A(t) = ∫₀ᵗ r(u) du` of a stream.
    pub(crate) fn arrival(stream: &BitStream) -> PiecewiseLinear {
        let segs = stream.segments();
        let mut knots = Vec::with_capacity(segs.len());
        let mut slopes = Vec::with_capacity(segs.len());
        let mut value = Cells::ZERO;
        let mut prev: Option<(Rate, Time)> = None;
        for seg in segs {
            if let Some((rate, start)) = prev {
                value += rate * (seg.start - start);
            }
            knots.push((seg.start, value));
            slopes.push(seg.rate.as_ratio());
            prev = Some((seg.rate, seg.start));
        }
        PiecewiseLinear { knots, slopes }
    }

    /// The leftover service curve `C(t) = ∫₀ᵗ (1 − r₁(u)) du` available
    /// to a priority class under higher-priority interference `r₁`.
    ///
    /// The caller must ensure `r₁ <= 1` everywhere (i.e. the
    /// interference stream has been filtered, Algorithm 3.4).
    pub(crate) fn leftover_service(higher: &BitStream) -> PiecewiseLinear {
        let segs = higher.segments();
        let mut knots = Vec::with_capacity(segs.len());
        let mut slopes = Vec::with_capacity(segs.len());
        let mut value = Cells::ZERO;
        let mut prev: Option<(Ratio, Time)> = None;
        for seg in segs {
            if let Some((slope, start)) = prev {
                value += Rate::new(slope) * (seg.start - start);
            }
            let slope = Ratio::ONE - seg.rate.as_ratio();
            debug_assert!(
                !slope.is_negative(),
                "leftover_service: interference above link rate"
            );
            knots.push((seg.start, value));
            slopes.push(slope);
            prev = Some((slope, seg.start));
        }
        PiecewiseLinear { knots, slopes }
    }

    /// Curve value at time `t >= 0`.
    pub(crate) fn value_at(&self, t: Time) -> Cells {
        debug_assert!(!t.is_negative());
        let idx = match self.knots.binary_search_by(|(kt, _)| kt.cmp(&t)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let (kt, kv) = self.knots[idx];
        kv + Rate::new(self.slopes[idx]) * (t - kt)
    }

    /// The slope of the last (infinite) piece.
    pub(crate) fn final_slope(&self) -> Ratio {
        *self.slopes.last().expect("curve has at least one piece")
    }

    /// The earliest time at which the curve reaches `v`, or `None` if it
    /// never does (curve saturates below `v`).
    pub(crate) fn first_time_reaching(&self, v: Cells) -> Option<Time> {
        if v <= Cells::ZERO {
            return Some(Time::ZERO);
        }
        for (i, &(kt, kv)) in self.knots.iter().enumerate() {
            let slope = Rate::new(self.slopes[i]);
            let end = self.knots.get(i + 1);
            match end {
                Some(&(next_t, next_v)) => {
                    if next_v >= v {
                        // Reached within this piece (slope > 0 because the
                        // value strictly increased).
                        if kv >= v {
                            return Some(kt);
                        }
                        return Some(kt + (v - kv) / slope);
                    }
                    let _ = next_t;
                }
                None => {
                    if kv >= v {
                        return Some(kt);
                    }
                    if slope.as_ratio().is_positive() {
                        return Some(kt + (v - kv) / slope);
                    }
                    return None;
                }
            }
        }
        unreachable!("loop always returns on the last piece")
    }

    /// The slope in effect at time `t` (right-continuous: a knot time
    /// reports the slope of the piece that starts there).
    pub(crate) fn slope_at(&self, t: Time) -> Ratio {
        debug_assert!(!t.is_negative());
        let idx = match self.knots.binary_search_by(|(kt, _)| kt.cmp(&t)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        self.slopes[idx]
    }

    /// The earliest time at which the curve *strictly exceeds* `v` —
    /// the right limit of the pseudo-inverse. Differs from
    /// [`Self::first_time_reaching`] exactly when the curve has a
    /// plateau at value `v`. Returns `None` if the curve saturates at
    /// or below `v`.
    pub(crate) fn first_time_strictly_exceeding(&self, v: Cells) -> Option<Time> {
        let t0 = self.first_time_reaching(v)?;
        if self.value_at(t0) > v {
            return Some(t0);
        }
        // The curve equals v at t0; it strictly exceeds v as soon as a
        // positive slope resumes.
        let idx = match self.knots.binary_search_by(|(kt, _)| kt.cmp(&t0)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        for i in idx..self.slopes.len() {
            if self.slopes[i].is_positive() {
                return Some(t0.max(self.knots[i].0));
            }
        }
        None
    }

    /// Times of all knots.
    pub(crate) fn knot_times(&self) -> impl Iterator<Item = Time> + '_ {
        self.knots.iter().map(|&(t, _)| t)
    }

    /// Knot values.
    pub(crate) fn knot_values(&self) -> impl Iterator<Item = Cells> + '_ {
        self.knots.iter().map(|&(_, v)| v)
    }
}

/// The maximum horizontal deviation `max_t [ C⁻¹(A(t)) − t ]` between an
/// arrival curve `A` and a service curve `C` — the worst-case FIFO
/// queueing delay. Returns `None` when the deviation is unbounded
/// (long-run arrival rate exceeds long-run service rate, or the service
/// saturates below the total arrival volume).
pub(crate) fn horizontal_deviation(a: &PiecewiseLinear, c: &PiecewiseLinear) -> Option<Time> {
    let ra = a.final_slope();
    let rc = c.final_slope();
    if ra > rc {
        return None;
    }
    if ra == rc && rc.is_zero() {
        // Both curves saturate; the service must cover the total volume.
        let a_max = a.knot_values().last().expect("non-empty");
        let c_max = c.knot_values().last().expect("non-empty");
        if a_max > c_max {
            return None;
        }
    }
    // Candidate times: knots of A, plus preimages (under A) of the
    // values C takes at its knots. Between consecutive candidates the
    // deviation is affine, so the maximum is attained at a candidate.
    let mut candidates: Vec<Time> = a.knot_times().collect();
    for v in c.knot_values() {
        if let Some(t) = a.first_time_reaching(v) {
            candidates.push(t);
        }
    }
    let mut best = Time::ZERO;
    for t in candidates {
        let v = a.value_at(t);
        // Departure of the bit arriving exactly at t…
        let g = c.first_time_reaching(v)?;
        // …and of bits arriving immediately after t (the supremum is
        // approached from the right when C has a plateau at value v and
        // traffic is still arriving).
        let g = if a.slope_at(t).is_positive() {
            match c.first_time_strictly_exceeding(v) {
                Some(g_right) => g.max(g_right),
                // Still arriving while the service has saturated at v:
                // unbounded (defensive; the stability pre-check should
                // have caught this).
                None => return None,
            }
        } else {
            g
        };
        let d = g - t;
        if d > best {
            best = d;
        }
    }
    Some(best)
}
