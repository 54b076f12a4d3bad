//! Link filtering of bit streams (Algorithm 3.4) and the shared
//! "clamp by a service line" smoothing primitive also used by
//! Algorithm 3.1 (delay).

use core::num::NonZeroU64;

use crate::{BitStream, Cells, Rate, Segment, Segments, StreamError, Time};

impl BitStream {
    /// **Algorithm 3.4**: the stream that exits a transmission link of
    /// full (normalized) bandwidth 1 when this stream enters it.
    ///
    /// While the arrival rate exceeds the link rate a queue builds up
    /// and the output is clamped to rate 1; once the queue drains the
    /// output follows the input. Formally the output envelope is
    /// `min(t, R(t))`. Filtering *smooths* aggregates and is what makes
    /// the paper's delay bounds tighter than \[9\]'s (§3.4).
    ///
    /// If the long-run input rate exceeds the link rate the queue never
    /// drains and the output is a constant full-rate stream.
    ///
    /// ```
    /// use rtcac_bitstream::{BitStream, Rate};
    /// use rtcac_rational::ratio;
    ///
    /// // Aggregate bursting at 2x the link rate for 3 cell times.
    /// let s = BitStream::from_rate_breaks([
    ///     (ratio(2, 1), ratio(0, 1)),
    ///     (ratio(1, 4), ratio(3, 1)),
    /// ])?;
    /// let f = s.filter();
    /// assert_eq!(f.peak_rate(), Rate::FULL);
    /// // 3 excess cells drain at rate 1 - 1/4 = 3/4: t' = 3 + 4 = 7.
    /// assert_eq!(f.segments().get(1).map(|seg| seg.start.as_ratio()), Some(ratio(7, 1)));
    /// # Ok::<(), rtcac_bitstream::StreamError>(())
    /// ```
    pub fn filter(&self) -> BitStream {
        self.clamp(Rate::FULL)
    }

    /// [`BitStream::filter`] generalized to an arbitrary positive link
    /// capacity (useful for modeling sub-rate links or shaped trunks).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NegativeRate`] if `capacity <= 0`.
    pub fn filter_at(&self, capacity: Rate) -> Result<BitStream, StreamError> {
        if !capacity.is_positive() {
            return Err(StreamError::NegativeRate { rate: capacity });
        }
        Ok(self.clamp(capacity))
    }

    /// Algorithm 3.4 at a positive `capacity`: the stream itself when it
    /// never exceeds the capacity, the clamped envelope otherwise.
    fn clamp(&self, capacity: Rate) -> BitStream {
        if self.peak_rate() <= capacity {
            return self.clone();
        }
        View::smooth(Cells::ZERO, self.segments(), capacity).into_stream()
    }

    /// This stream, read segment by segment.
    pub(crate) fn view(&self) -> View<'_> {
        let segs = self.segments();
        View::new(&[], segs, segs.den().map(|den| (den, [0; 2])))
    }

    /// `filter(self)`, read segment by segment without being built.
    pub(crate) fn filtered(&self) -> View<'_> {
        let segs = self.segments();
        let within_link = match (segs.den(), segs.count(0)) {
            (Some(den), Some((peak, _))) => peak.unsigned_abs() <= den.get(),
            _ => self.peak_rate() <= Rate::FULL,
        };
        if within_link {
            return self.view();
        }
        View::smooth(Cells::ZERO, segs, Rate::FULL)
    }
}

/// A canonical stream read segment by segment: at most two leading
/// segments made up on the spot, then a run borrowed from a stored
/// stream. Every output of [`View::smooth`] has that shape — the clamp,
/// the segment the drained queue resumes in, the input's tail — so a
/// merge can read `filter(s)` without it being built.
///
/// Where the run has a shared denominator and the lead runs at the link
/// rate (`den / den`) or at a rate of the run, every rate of the view is
/// a count of `1 / den`, and [`View::count`] reads it without a GCD.
#[derive(Debug, Clone)]
pub(crate) struct View<'a> {
    lead: [Segment; 2],
    lead_len: usize,
    rest: Segments<'a>,
    /// The shared denominator and the lead's numerators over it.
    counts: Option<(NonZeroU64, [i64; 2])>,
}

impl<'a> View<'a> {
    fn new(
        lead: &[Segment],
        rest: Segments<'a>,
        counts: Option<(NonZeroU64, [i64; 2])>,
    ) -> View<'a> {
        let mut view = View {
            lead: [Segment::new(Rate::ZERO, Time::ZERO); 2],
            lead_len: lead.len(),
            rest,
            counts,
        };
        view.lead[..lead.len()].copy_from_slice(lead);
        view
    }

    /// The envelope `min(capacity · t, backlog + ∫₀ᵗ r(u) du)` as a
    /// view: the traffic that exits a `capacity`-rate server that starts
    /// with `backlog` queued cells and then receives `segments`.
    ///
    /// This is the common core of Algorithm 3.4 (`backlog = 0`) and
    /// Algorithm 3.1 (`backlog` = bits clumped by jitter, `segments` = the
    /// time-shifted remainder). `segments` must be a canonical stream's.
    pub(crate) fn smooth(backlog: Cells, segments: Segments<'a>, capacity: Rate) -> View<'a> {
        debug_assert!(capacity.is_positive() && !backlog.is_negative());
        // Walk the segments tracking the queue until it drains; past
        // the last breakpoint it drains iff the last rate is below the
        // capacity.
        let mut queue = backlog;
        let mut i = 0;
        while let (Some(start), Some(drain_rate)) =
            (segments.start(i), segments.headroom(i, capacity))
        {
            let end = segments.start(i + 1);
            // Positive when draining.
            if drain_rate.is_positive() {
                let t_drain = start + queue / drain_rate;
                if end.is_none_or(|end| t_drain <= end) {
                    return View::resumed(segments, i, capacity - drain_rate, t_drain, capacity);
                }
            }
            if let Some(end) = end {
                queue -= drain_rate * (end - start);
            }
            i += 1;
        }
        // Last rate >= capacity with a backlog: never drains.
        let counts = (capacity == Rate::FULL).then_some((NonZeroU64::MIN, [1, 0]));
        View::new(
            &[Segment::new(capacity, Time::ZERO)],
            Segments::EMPTY,
            counts,
        )
    }

    /// `capacity` on `[0, t_drain)`, then the input from segment `i`
    /// (which flows at `rate`) onward — unless the queue empties
    /// exactly where segment `i + 1` starts, which leaves nothing of
    /// segment `i`.
    fn resumed(
        segments: Segments<'a>,
        i: usize,
        rate: Rate,
        t_drain: Time,
        capacity: Rate,
    ) -> View<'a> {
        let rest = segments.suffix(i + 1);
        let clamp = Segment::new(capacity, Time::ZERO);
        let resume = Segment::new(rate, t_drain);
        // The clamp at the link rate counts `den` of `1 / den`; the
        // resumed segment keeps segment `i`'s numerator.
        let counts = segments
            .den()
            .filter(|_| capacity == Rate::FULL)
            .zip(segments.count(i))
            .map(|(den, (num, _))| (den, den.get() as i64, num)); // `den` is at most `i64::MAX`
        match (
            t_drain.is_positive(),
            rest.first().map(|next| next.start) != Some(t_drain),
        ) {
            (true, true) => View::new(&[clamp, resume], rest, counts.map(|(d, c, r)| (d, [c, r]))),
            (true, false) => View::new(&[clamp], rest, counts.map(|(d, c, _)| (d, [c, 0]))),
            (false, _) => View::new(&[resume], rest, counts.map(|(d, _, r)| (d, [r, 0]))),
        }
    }

    /// Number of segments.
    pub(crate) fn len(&self) -> usize {
        self.lead_len + self.rest.len()
    }

    /// Segment `n`, if the stream has that many.
    pub(crate) fn get(&self, n: usize) -> Option<Segment> {
        match n.checked_sub(self.lead_len) {
            None => self.lead.get(n).copied(),
            Some(k) => self.rest.get(k),
        }
    }

    /// The last segment.
    pub(crate) fn last(&self) -> Option<Segment> {
        self.get(self.len().checked_sub(1)?)
    }

    /// The denominator every rate of the view is a count of, if any.
    pub(crate) fn den(&self) -> Option<NonZeroU64> {
        self.counts.map(|(den, _)| den)
    }

    /// Segment `n`'s rate as a numerator over [`View::den`], and its
    /// start: `None` past the end or where the view has no denominator.
    #[inline]
    pub(crate) fn count(&self, n: usize) -> Option<(i64, Time)> {
        let (_, lead) = self.counts?;
        match n.checked_sub(self.lead_len) {
            None => Some((*lead.get(n)?, self.lead.get(n)?.start)),
            Some(k) => self.rest.count(k),
        }
    }

    /// The stream this view reads.
    pub(crate) fn into_stream(self) -> BitStream {
        let lead = self.lead.into_iter().take(self.lead_len);
        match (self.counts, self.rest.counts(1)) {
            (Some((den, nums)), Some(rest)) => {
                let lead = nums
                    .into_iter()
                    .zip(lead)
                    .map(|(num, seg)| (num, seg.start));
                BitStream::from_counts(den, lead.chain(rest))
            }
            _ => BitStream::from_canonical(lead.chain(self.rest)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_rational::{ratio, Ratio};

    fn stream(pairs: &[(Ratio, Ratio)]) -> BitStream {
        BitStream::from_rate_breaks(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn filter_passthrough_when_under_capacity() {
        let s = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(5, 1))]);
        assert_eq!(s.filter(), s);
        assert_eq!(BitStream::zero().filter(), BitStream::zero());
    }

    #[test]
    fn filter_clamps_burst_paper_figure7() {
        // Figure 7 shape: burst above link rate, then drain.
        // Rate 3 on [0,2): queue grows to 4. Then rate 1/2: drains at
        // 1/2 per cell time -> empty at t = 2 + 8 = 10.
        let s = stream(&[(ratio(3, 1), ratio(0, 1)), (ratio(1, 2), ratio(2, 1))]);
        let f = s.filter();
        assert_eq!(
            f,
            stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 2), ratio(10, 1))])
        );
    }

    #[test]
    fn filter_conserves_cumulative_after_drain() {
        let s = stream(&[(ratio(3, 1), ratio(0, 1)), (ratio(1, 2), ratio(2, 1))]);
        let f = s.filter();
        // After the queue drains the same total volume has passed.
        for t in 10..15 {
            let t = Time::from_integer(t);
            assert_eq!(f.cumulative(t), s.cumulative(t));
        }
        // While clamped the output is exactly the line t.
        for t in 1..10 {
            let t = Time::from_integer(t);
            assert_eq!(f.cumulative(t), Cells::new(t.as_ratio()));
        }
    }

    #[test]
    fn filter_output_never_exceeds_input_envelope() {
        let s = stream(&[
            (ratio(5, 2), ratio(0, 1)),
            (ratio(3, 2), ratio(4, 1)),
            (ratio(1, 4), ratio(8, 1)),
        ]);
        let f = s.filter();
        for t in 0..30 {
            let t = Time::from_integer(t);
            assert!(f.cumulative(t) <= s.cumulative(t));
            assert!(f.rate_at(t) <= Rate::FULL);
        }
    }

    #[test]
    fn filter_drain_spanning_multiple_segments() {
        // Queue of 2 after [0,2) at rate 2; rate 3/4 on [2,4) drains
        // 1/2; rate 1/2 after drains the rest at t = 4 + 3 = 7.
        let s = stream(&[
            (ratio(2, 1), ratio(0, 1)),
            (ratio(3, 4), ratio(2, 1)),
            (ratio(1, 2), ratio(4, 1)),
        ]);
        let f = s.filter();
        assert_eq!(
            f,
            stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 2), ratio(7, 1))])
        );
    }

    #[test]
    fn filter_exact_drain_at_breakpoint() {
        // Queue of 1 after [0,1) at rate 2; drains exactly during [1,2)
        // at rate 0: t' = 2 == next breakpoint.
        let s = stream(&[(ratio(2, 1), ratio(0, 1)), (ratio(0, 1), ratio(1, 1))]);
        let f = s.filter();
        assert_eq!(
            f,
            stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(0, 1), ratio(2, 1))])
        );
    }

    #[test]
    fn filter_overloaded_saturates() {
        let s = stream(&[(ratio(3, 2), ratio(0, 1))]);
        assert_eq!(s.filter(), stream(&[(ratio(1, 1), ratio(0, 1))]));
    }

    #[test]
    fn filter_at_custom_capacity() {
        let s = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 8), ratio(2, 1))]);
        let f = s.filter_at(Rate::new(ratio(1, 2))).unwrap();
        // Queue of 1 builds over [0,2); drains at 3/8 -> t' = 2 + 8/3.
        assert_eq!(
            f,
            stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(1, 8), ratio(14, 3))])
        );
    }

    #[test]
    fn filter_at_rejects_nonpositive_capacity() {
        let s = stream(&[(ratio(1, 2), ratio(0, 1))]);
        assert!(s.filter_at(Rate::ZERO).is_err());
        assert!(s.filter_at(Rate::new(ratio(-1, 2))).is_err());
    }

    #[test]
    fn filter_is_idempotent() {
        let s = stream(&[
            (ratio(4, 1), ratio(0, 1)),
            (ratio(2, 1), ratio(1, 1)),
            (ratio(1, 8), ratio(3, 1)),
        ]);
        let once = s.filter();
        assert_eq!(once.filter(), once);
    }

    #[test]
    fn smooth_with_initial_backlog() {
        // Pure backlog of 3 cells, zero-rate input afterwards: the
        // output is rate 1 for 3 cell times.
        let out = View::smooth(
            Cells::from_integer(3),
            Segments::wide(&[Segment::new(Rate::ZERO, Time::ZERO)]),
            Rate::FULL,
        )
        .into_stream();
        assert_eq!(
            out,
            stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(0, 1), ratio(3, 1))])
        );
    }
}
