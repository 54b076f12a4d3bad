//! The [`BitStream`] type: the paper's piecewise-constant worst-case
//! arrival envelope (§2, Figure 3).

use core::fmt;

use rtcac_rational::Ratio;

use crate::{Cells, Rate, StreamError, Time};

/// One step of a bit stream: the stream flows at `rate` from `start`
/// until the start of the next segment (or forever, for the last one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Flow rate during this segment, normalized to the link bandwidth.
    pub rate: Rate,
    /// Time at which this segment begins, in cell times.
    pub start: Time,
}

impl Segment {
    /// Creates a segment.
    pub const fn new(rate: Rate, start: Time) -> Segment {
        Segment { rate, start }
    }
}

/// A *bit stream* `S = {(r(k), t(k)); k = 0..m}`: a worst-case traffic
/// arrival envelope expressed as a monotonically non-increasing,
/// piecewise-constant rate function of time (paper §2, Figure 3).
///
/// Invariants (enforced at construction):
///
/// - at least one segment, the first starting at time `0`;
/// - start times strictly increasing;
/// - rates non-negative and monotonically non-increasing;
/// - adjacent segments have distinct rates (normalized form).
///
/// The last segment's rate extends to infinity. A stream whose only
/// segment has rate `0` is the *zero stream* (no traffic).
///
/// The physical meaning: `cumulative(t)` is the maximum amount of
/// traffic the modeled connection (or aggregate) can present during any
/// interval of length `t` aligned at a critical instant. Worst-case
/// envelopes front-load traffic, hence the monotonicity requirement.
///
/// # Examples
///
/// ```
/// use rtcac_bitstream::{BitStream, Cells, Rate, Time};
/// use rtcac_rational::ratio;
///
/// // Full rate for 5 cell times, then 1/10 of the link forever.
/// let s = BitStream::from_rate_breaks([
///     (ratio(1, 1), ratio(0, 1)),
///     (ratio(1, 10), ratio(5, 1)),
/// ])?;
/// assert_eq!(s.cumulative(Time::from_integer(5)), Cells::from_integer(5));
/// assert_eq!(s.long_run_rate(), Rate::new(ratio(1, 10)));
/// # Ok::<(), rtcac_bitstream::StreamError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitStream {
    segments: Vec<Segment>,
}

impl BitStream {
    /// The zero stream: no traffic, ever.
    ///
    /// ```
    /// use rtcac_bitstream::{BitStream, Cells, Time};
    /// assert!(BitStream::zero().is_zero());
    /// assert_eq!(
    ///     BitStream::zero().cumulative(Time::from_integer(100)),
    ///     Cells::ZERO
    /// );
    /// ```
    pub fn zero() -> BitStream {
        BitStream {
            segments: vec![Segment::new(Rate::ZERO, Time::ZERO)],
        }
    }

    /// A stream flowing at a constant rate forever.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NegativeRate`] if `rate < 0`.
    pub fn constant(rate: Rate) -> Result<BitStream, StreamError> {
        if rate.is_negative() {
            return Err(StreamError::NegativeRate { rate });
        }
        Ok(BitStream {
            segments: vec![Segment::new(rate, Time::ZERO)],
        })
    }

    /// Builds a stream from `(rate, start)` segments, validating all
    /// invariants and normalizing (merging equal-rate neighbours).
    ///
    /// # Errors
    ///
    /// - [`StreamError::Empty`] for an empty list;
    /// - [`StreamError::MissingOrigin`] if the first start is not `0`;
    /// - [`StreamError::BadBreakpoints`] if starts are not strictly
    ///   increasing;
    /// - [`StreamError::NegativeRate`] for a negative rate;
    /// - [`StreamError::NotMonotone`] if a rate increases over time.
    pub fn from_segments<I>(segments: I) -> Result<BitStream, StreamError>
    where
        I: IntoIterator<Item = Segment>,
    {
        let raw: Vec<Segment> = segments.into_iter().collect();
        if raw.is_empty() {
            return Err(StreamError::Empty);
        }
        if raw[0].start != Time::ZERO {
            return Err(StreamError::MissingOrigin);
        }
        let mut normalized: Vec<Segment> = Vec::with_capacity(raw.len());
        for seg in raw {
            if seg.rate.is_negative() {
                return Err(StreamError::NegativeRate { rate: seg.rate });
            }
            if let Some(prev) = normalized.last() {
                if seg.start <= prev.start {
                    return Err(StreamError::BadBreakpoints { at: seg.start });
                }
                if seg.rate > prev.rate {
                    return Err(StreamError::NotMonotone { at: seg.start });
                }
                if seg.rate == prev.rate {
                    continue; // merge equal-rate neighbours
                }
            }
            normalized.push(seg);
        }
        Ok(BitStream {
            segments: normalized,
        })
    }

    /// Convenience constructor from raw `(rate, start)` rational pairs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BitStream::from_segments`].
    pub fn from_rate_breaks<I>(pairs: I) -> Result<BitStream, StreamError>
    where
        I: IntoIterator<Item = (Ratio, Ratio)>,
    {
        BitStream::from_segments(
            pairs
                .into_iter()
                .map(|(r, t)| Segment::new(Rate::new(r), Time::new(t))),
        )
    }

    /// Internal constructor for operations that preserve the invariants
    /// by construction; still normalizes merging of equal neighbours.
    pub(crate) fn from_normalized(segments: Vec<Segment>) -> BitStream {
        debug_assert!(!segments.is_empty());
        debug_assert_eq!(segments[0].start, Time::ZERO);
        let mut normalized: Vec<Segment> = Vec::with_capacity(segments.len());
        for seg in segments {
            debug_assert!(!seg.rate.is_negative(), "negative rate {:?}", seg.rate);
            if let Some(prev) = normalized.last() {
                debug_assert!(seg.start > prev.start);
                debug_assert!(
                    seg.rate <= prev.rate,
                    "rates must be non-increasing: {:?} then {:?}",
                    prev,
                    seg
                );
                if seg.rate == prev.rate {
                    continue;
                }
            }
            normalized.push(seg);
        }
        BitStream {
            segments: normalized,
        }
    }

    /// Internal constructor for segments already in canonical form —
    /// from 0, starts strictly increasing, rates strictly falling — kept
    /// in the buffer they came in (its capacity is what
    /// [`BitStream::resident_bytes`] reports).
    pub(crate) fn from_canonical(segments: Vec<Segment>) -> BitStream {
        debug_assert_eq!(segments.first().map(|s| s.start), Some(Time::ZERO));
        debug_assert!(
            segments
                .windows(2)
                .all(|w| w[0].start < w[1].start && w[0].rate > w[1].rate),
            "not canonical: {segments:?}"
        );
        debug_assert!(segments.iter().all(|s| !s.rate.is_negative()));
        BitStream { segments }
    }

    /// The segments of the stream, in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Approximate resident heap bytes of this stream: the segment
    /// buffer it owns (capacity, not length — what the allocator is
    /// actually holding).
    pub fn resident_bytes(&self) -> usize {
        self.segments.capacity() * core::mem::size_of::<Segment>()
    }

    /// Number of segments (the paper's `m + 1`). Never zero: even the
    /// zero stream has one (zero-rate) segment.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Whether this is the zero stream (carries no traffic at all).
    pub fn is_zero(&self) -> bool {
        self.segments.len() == 1 && self.segments[0].rate.is_zero()
    }

    /// The initial (peak) rate `r(0)`.
    pub fn peak_rate(&self) -> Rate {
        self.segments[0].rate
    }

    /// The final rate `r(m)`, which extends to infinity — the long-run
    /// sustained rate of the stream.
    pub fn long_run_rate(&self) -> Rate {
        self.segments[self.segments.len() - 1].rate
    }

    /// The time after which the stream flows at its long-run rate.
    pub fn stabilization_time(&self) -> Time {
        self.segments[self.segments.len() - 1].start
    }

    /// The instantaneous rate at time `t` (`t >= 0`).
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative.
    pub fn rate_at(&self, t: Time) -> Rate {
        assert!(!t.is_negative(), "rate_at: negative time");
        match self.segments.binary_search_by(|seg| seg.start.cmp(&t)) {
            Ok(i) => self.segments[i].rate,
            Err(i) => self.segments[i - 1].rate,
        }
    }

    /// The cumulative traffic `R(t) = ∫₀ᵗ r(u) du` in cells.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative.
    pub fn cumulative(&self, t: Time) -> Cells {
        assert!(!t.is_negative(), "cumulative: negative time");
        let mut total = Cells::ZERO;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.start >= t {
                break;
            }
            let end = match self.segments.get(i + 1) {
                Some(next) => next.start.min(t),
                None => t,
            };
            total += seg.rate * (end - seg.start);
        }
        total
    }

    /// The maximum instantaneous backlog (queue build-up in cells) when
    /// this stream is served by a link of the given capacity — `AREA1`
    /// of the paper's Figure 7.
    ///
    /// Because rates are non-increasing, the backlog peaks exactly when
    /// the arrival rate drops to (or below) the service rate.
    ///
    /// Returns `None` if the backlog grows without bound (long-run rate
    /// exceeds `capacity`).
    pub fn backlog_bound(&self, capacity: Rate) -> Option<Cells> {
        let mut backlog = Cells::ZERO;
        for pair in self.segments.windows(2) {
            let (seg, end) = (pair[0], pair[1].start);
            if seg.rate <= capacity {
                return Some(backlog);
            }
            backlog += (seg.rate - capacity) * (end - seg.start);
        }
        (self.long_run_rate() <= capacity).then_some(backlog)
    }

    /// The time at which the cumulative traffic first reaches `amount`,
    /// or `None` if it never does.
    pub fn time_to_accumulate(&self, amount: Cells) -> Option<Time> {
        if amount <= Cells::ZERO {
            return Some(Time::ZERO);
        }
        let mut acc = Cells::ZERO;
        for pair in self.segments.windows(2) {
            let (seg, end) = (pair[0], pair[1].start);
            let chunk = seg.rate * (end - seg.start);
            if acc + chunk >= amount {
                return Some(seg.start + (amount - acc) / seg.rate);
            }
            acc += chunk;
        }
        let last = self.segments.last()?;
        (!last.rate.is_zero()).then(|| last.start + (amount - acc) / last.rate)
    }

    /// Whether this stream's envelope dominates `other`'s everywhere:
    /// `self.cumulative(t) >= other.cumulative(t)` for all `t >= 0`.
    ///
    /// Dominance is what makes a worst-case envelope *safe*: any bound
    /// computed from a dominating stream also holds for the dominated
    /// one. The check is exact — both cumulatives are piecewise linear,
    /// so comparing at the union of breakpoints plus the tail slopes
    /// decides it.
    ///
    /// ```
    /// use rtcac_bitstream::{BitStream, Time};
    /// use rtcac_rational::ratio;
    ///
    /// let s = BitStream::from_rate_breaks([(ratio(1, 2), ratio(0, 1))])?;
    /// let jittered = s.delay(Time::from_integer(10));
    /// assert!(jittered.dominates(&s));
    /// assert!(!s.dominates(&jittered));
    /// assert!(s.dominates(&s));
    /// # Ok::<(), rtcac_bitstream::StreamError>(())
    /// ```
    pub fn dominates(&self, other: &BitStream) -> bool {
        // Tail: beyond the last breakpoint of either stream both
        // cumulatives are affine; the difference must not decrease.
        if self.long_run_rate() < other.long_run_rate() {
            return false;
        }
        for seg in self.segments.iter().chain(other.segments()) {
            if self.cumulative(seg.start) < other.cumulative(seg.start) {
                return false;
            }
        }
        // Also check the last breakpoint of each explicitly (the loop
        // above covered them) and one point beyond, in case the final
        // breakpoints differ: the difference is affine past
        // max(stabilization times), and non-negative slope plus
        // non-negative value there settles it.
        let horizon = self.stabilization_time().max(other.stabilization_time());
        self.cumulative(horizon) >= other.cumulative(horizon)
    }

    /// Scales every rate by a non-negative factor (e.g. converting a
    /// per-terminal stream into an aggregate of identical terminals).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NegativeRate`] if `factor < 0`.
    pub fn scale(&self, factor: Ratio) -> Result<BitStream, StreamError> {
        if factor.is_negative() {
            return Err(StreamError::NegativeRate {
                rate: Rate::new(factor),
            });
        }
        if factor.is_zero() {
            return Ok(BitStream::zero());
        }
        Ok(BitStream::from_normalized(
            self.segments
                .iter()
                .map(|seg| Segment::new(seg.rate * factor, seg.start))
                .collect(),
        ))
    }
}

impl Default for BitStream {
    /// The zero stream.
    fn default() -> Self {
        BitStream::zero()
    }
}

impl fmt::Debug for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitStream[")?;
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({}, {})", seg.rate, seg.start)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({}, {})", seg.rate, seg.start)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_rational::ratio;

    fn rt(r: (i128, i128), t: (i128, i128)) -> (Ratio, Ratio) {
        (ratio(r.0, r.1), ratio(t.0, t.1))
    }

    #[test]
    fn zero_stream() {
        let z = BitStream::zero();
        assert!(z.is_zero());
        assert_eq!(z.segment_count(), 1);
        assert_eq!(z.peak_rate(), Rate::ZERO);
        assert_eq!(z.long_run_rate(), Rate::ZERO);
        assert_eq!(z.cumulative(Time::from_integer(10)), Cells::ZERO);
    }

    #[test]
    fn constant_stream() {
        let s = BitStream::constant(Rate::new(ratio(1, 2))).unwrap();
        assert_eq!(s.cumulative(Time::from_integer(10)), Cells::from_integer(5));
        assert_eq!(s.rate_at(Time::from_integer(1_000)), Rate::new(ratio(1, 2)));
    }

    #[test]
    fn constant_rejects_negative() {
        assert!(matches!(
            BitStream::constant(Rate::new(ratio(-1, 2))),
            Err(StreamError::NegativeRate { .. })
        ));
    }

    #[test]
    fn from_segments_validates_origin() {
        let r = BitStream::from_rate_breaks([rt((1, 1), (1, 1))]);
        assert_eq!(r.unwrap_err(), StreamError::MissingOrigin);
    }

    #[test]
    fn from_segments_validates_empty() {
        let r = BitStream::from_segments(core::iter::empty());
        assert_eq!(r.unwrap_err(), StreamError::Empty);
    }

    #[test]
    fn from_segments_validates_order() {
        let r = BitStream::from_rate_breaks([
            rt((1, 1), (0, 1)),
            rt((1, 2), (5, 1)),
            rt((1, 4), (5, 1)),
        ]);
        assert!(matches!(r, Err(StreamError::BadBreakpoints { .. })));
    }

    #[test]
    fn from_segments_validates_monotonicity() {
        let r = BitStream::from_rate_breaks([rt((1, 2), (0, 1)), rt((1, 1), (5, 1))]);
        assert!(matches!(r, Err(StreamError::NotMonotone { .. })));
    }

    #[test]
    fn from_segments_merges_equal_rates() {
        let s = BitStream::from_rate_breaks([
            rt((1, 1), (0, 1)),
            rt((1, 1), (2, 1)),
            rt((1, 2), (4, 1)),
        ])
        .unwrap();
        assert_eq!(s.segment_count(), 2);
    }

    #[test]
    fn rate_at_boundaries() {
        let s = BitStream::from_rate_breaks([rt((1, 1), (0, 1)), rt((1, 4), (3, 1))]).unwrap();
        assert_eq!(s.rate_at(Time::ZERO), Rate::FULL);
        assert_eq!(s.rate_at(Time::new(ratio(5, 2))), Rate::FULL);
        // Segment start belongs to the new segment (right-continuous).
        assert_eq!(s.rate_at(Time::from_integer(3)), Rate::new(ratio(1, 4)));
        assert_eq!(s.rate_at(Time::from_integer(100)), Rate::new(ratio(1, 4)));
    }

    #[test]
    fn cumulative_across_segments() {
        let s = BitStream::from_rate_breaks([rt((1, 1), (0, 1)), rt((1, 4), (4, 1))]).unwrap();
        assert_eq!(s.cumulative(Time::ZERO), Cells::ZERO);
        assert_eq!(s.cumulative(Time::from_integer(2)), Cells::from_integer(2));
        assert_eq!(s.cumulative(Time::from_integer(4)), Cells::from_integer(4));
        assert_eq!(s.cumulative(Time::from_integer(8)), Cells::from_integer(5));
    }

    #[test]
    fn backlog_bound_simple() {
        // Rate 2 for 3 cell times, then 1/2: backlog peaks at (2-1)*3 = 3.
        let s = BitStream::from_rate_breaks([rt((2, 1), (0, 1)), rt((1, 2), (3, 1))]).unwrap();
        assert_eq!(s.backlog_bound(Rate::FULL), Some(Cells::from_integer(3)));
    }

    #[test]
    fn backlog_bound_overload() {
        let s = BitStream::constant(Rate::new(ratio(3, 2))).unwrap();
        assert_eq!(s.backlog_bound(Rate::FULL), None);
    }

    #[test]
    fn backlog_bound_no_excess() {
        let s = BitStream::constant(Rate::new(ratio(1, 2))).unwrap();
        assert_eq!(s.backlog_bound(Rate::FULL), Some(Cells::ZERO));
    }

    #[test]
    fn time_to_accumulate() {
        let s = BitStream::from_rate_breaks([rt((1, 1), (0, 1)), rt((1, 4), (4, 1))]).unwrap();
        assert_eq!(
            s.time_to_accumulate(Cells::from_integer(2)),
            Some(Time::from_integer(2))
        );
        // 4 cells by t=4, then 1/4 rate: 6 cells at t = 4 + 8 = 12.
        assert_eq!(
            s.time_to_accumulate(Cells::from_integer(6)),
            Some(Time::from_integer(12))
        );
        assert_eq!(s.time_to_accumulate(Cells::ZERO), Some(Time::ZERO));
    }

    #[test]
    fn time_to_accumulate_never() {
        let s = BitStream::from_rate_breaks([rt((1, 1), (0, 1)), rt((0, 1), (4, 1))]).unwrap();
        assert_eq!(s.time_to_accumulate(Cells::from_integer(5)), None);
        assert_eq!(
            s.time_to_accumulate(Cells::from_integer(4)),
            Some(Time::from_integer(4))
        );
    }

    #[test]
    fn scale() {
        let s = BitStream::from_rate_breaks([rt((1, 2), (0, 1)), rt((1, 8), (4, 1))]).unwrap();
        let doubled = s.scale(ratio(2, 1)).unwrap();
        assert_eq!(doubled.peak_rate(), Rate::FULL);
        assert_eq!(doubled.long_run_rate(), Rate::new(ratio(1, 4)));
        assert!(s.scale(ratio(0, 1)).unwrap().is_zero());
        assert!(s.scale(ratio(-1, 1)).is_err());
    }

    #[test]
    fn display_and_debug() {
        let s = BitStream::from_rate_breaks([rt((1, 1), (0, 1)), rt((1, 4), (3, 1))]).unwrap();
        assert_eq!(s.to_string(), "{(1, 0), (1/4, 3)}");
        assert!(format!("{s:?}").starts_with("BitStream["));
    }

    #[test]
    fn equality_is_structural_after_normalization() {
        let a = BitStream::from_rate_breaks([
            rt((1, 1), (0, 1)),
            rt((1, 1), (1, 1)),
            rt((1, 4), (3, 1)),
        ])
        .unwrap();
        let b = BitStream::from_rate_breaks([rt((1, 1), (0, 1)), rt((1, 4), (3, 1))]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "negative time")]
    fn rate_at_negative_panics() {
        BitStream::zero().rate_at(Time::from_integer(-1));
    }
}
