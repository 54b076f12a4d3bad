//! Worst-case jitter distortion of a bit stream (Algorithm 3.1).

use crate::filter::View;
use crate::{BitStream, Rate, Segment, Segments, StreamError, Time};

impl BitStream {
    /// **Algorithm 3.1**: the worst-case arrival stream after the
    /// connection has crossed queueing points with an accumulated cell
    /// delay variation of `cdv`.
    ///
    /// In the worst case every bit generated during `[0, cdv]` is held
    /// back until time `cdv` and then released at the full link rate,
    /// *clumping* the stream: the resulting envelope is
    /// `min(t, R(t + cdv))` where `R` is the original cumulative
    /// function. The output therefore starts at the full link rate
    /// until the clump drains and then follows the original stream
    /// shifted `cdv` earlier.
    ///
    /// A zero `cdv` (or a zero stream) returns the stream unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `cdv` is negative; use [`BitStream::try_delay`] for a
    /// fallible version.
    ///
    /// ```
    /// use rtcac_bitstream::{BitStream, Rate, Time};
    /// use rtcac_rational::ratio;
    ///
    /// // A CBR worst case: one cell then rate 1/4.
    /// let s = BitStream::from_rate_breaks([
    ///     (ratio(1, 1), ratio(0, 1)),
    ///     (ratio(1, 4), ratio(1, 1)),
    /// ])?;
    /// // After 8 cell times of jitter, 1 + 7/4 cells may clump together.
    /// let d = s.delay(Time::from_integer(8));
    /// assert_eq!(d.peak_rate(), Rate::FULL);
    /// assert!(d.cumulative(Time::ONE) >= s.cumulative(Time::ONE));
    /// # Ok::<(), rtcac_bitstream::StreamError>(())
    /// ```
    pub fn delay(&self, cdv: Time) -> BitStream {
        self.try_delay(cdv).expect("delay: negative cdv")
    }

    /// Fallible form of [`BitStream::delay`].
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NegativeTime`] if `cdv < 0`.
    pub fn try_delay(&self, cdv: Time) -> Result<BitStream, StreamError> {
        if cdv.is_negative() {
            return Err(StreamError::NegativeTime { value: cdv });
        }
        if cdv.is_zero() || self.is_zero() {
            return Ok(self.clone());
        }
        // AREA1 of the paper: bits clumped during [0, cdv].
        let clumped = self.cumulative(cdv);
        // The remainder of the stream, shifted cdv earlier.
        let shifted = self.shift_left(cdv);
        // Release the clump at full link rate ahead of the shifted
        // stream: envelope min(t, R(t + cdv)).
        Ok(View::smooth(clumped, Segments::wide(&shifted), Rate::FULL).into_stream())
    }

    /// The segments of `r(t + cdv)` for `t >= 0` (always starting at 0).
    fn shift_left(&self, cdv: Time) -> Vec<Segment> {
        let segs = self.segments();
        // From the segment containing time `cdv` (right-continuous).
        let from = segs.partition_point(|start| start <= cdv).saturating_sub(1);
        let shift = |(k, seg): (usize, Segment)| match k {
            0 => Segment::new(seg.rate, Time::ZERO),
            _ => Segment::new(seg.rate, seg.start - cdv),
        };
        segs.suffix(from).iter().enumerate().map(shift).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cells;
    use rtcac_rational::{ratio, Ratio};

    fn stream(pairs: &[(Ratio, Ratio)]) -> BitStream {
        BitStream::from_rate_breaks(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn zero_cdv_is_identity() {
        let s = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(1, 1))]);
        assert_eq!(s.delay(Time::ZERO), s);
    }

    #[test]
    fn zero_stream_unaffected() {
        assert_eq!(
            BitStream::zero().delay(Time::from_integer(50)),
            BitStream::zero()
        );
    }

    #[test]
    fn negative_cdv_rejected() {
        let s = stream(&[(ratio(1, 2), ratio(0, 1))]);
        assert!(matches!(
            s.try_delay(Time::from_integer(-1)),
            Err(StreamError::NegativeTime { .. })
        ));
    }

    #[test]
    fn delay_matches_paper_envelope() {
        // The delayed envelope must equal min(t, R(t + cdv)) everywhere.
        let s = stream(&[
            (ratio(1, 1), ratio(0, 1)),
            (ratio(1, 2), ratio(1, 1)),
            (ratio(1, 8), ratio(5, 1)),
        ]);
        let cdv = Time::from_integer(3);
        let d = s.delay(cdv);
        for k in 0..40 {
            let t = Time::new(ratio(k, 2));
            let line = Cells::new(t.as_ratio());
            let shifted = s.cumulative(t + cdv);
            assert_eq!(d.cumulative(t), line.min(shifted), "at t = {t}");
        }
    }

    #[test]
    fn delay_of_cbr_clumps_burst() {
        // CBR at 1/4 with worst case {(1,0),(1/4,1)}; cdv = 8.
        // Clump = R(8) = 1 + 7/4 = 11/4 cells released at rate 1; the
        // shifted stream continues at 1/4, so the clump drains at
        // t = (11/4 - 0)/(1 - 1/4)... starting rate after shift is 1/4:
        // deficit 11/4 drains at 3/4 -> t' = 11/3.
        let s = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(1, 1))]);
        let d = s.delay(Time::from_integer(8));
        assert_eq!(
            d,
            stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(11, 3))])
        );
    }

    #[test]
    fn delay_preserves_long_run_rate() {
        let s = stream(&[
            (ratio(1, 1), ratio(0, 1)),
            (ratio(1, 2), ratio(2, 1)),
            (ratio(1, 16), ratio(9, 1)),
        ]);
        for cdv in [1, 5, 20, 100] {
            let d = s.delay(Time::from_integer(cdv));
            assert_eq!(d.long_run_rate(), s.long_run_rate(), "cdv = {cdv}");
        }
    }

    #[test]
    fn delay_dominates_original() {
        // The delayed envelope is never below the original envelope
        // (jitter can only make worst-case arrivals earlier/clumpier),
        // as long as the original is link-feasible (rate <= 1).
        let s = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 3), ratio(4, 1))]);
        let d = s.delay(Time::from_integer(6));
        for k in 0..60 {
            let t = Time::new(ratio(k, 3));
            assert!(d.cumulative(t) >= s.cumulative(t), "at t = {t}");
        }
    }

    #[test]
    fn delay_is_monotone_in_cdv() {
        let s = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 5), ratio(2, 1))]);
        let d1 = s.delay(Time::from_integer(4));
        let d2 = s.delay(Time::from_integer(9));
        for k in 0..40 {
            let t = Time::new(ratio(k, 2));
            assert!(d2.cumulative(t) >= d1.cumulative(t), "at t = {t}");
        }
    }

    #[test]
    fn delay_cdv_beyond_stabilization() {
        // cdv far past the last breakpoint: clump of R(cdv), then the
        // long-run rate.
        let s = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(2, 1))]);
        let cdv = Time::from_integer(10);
        let d = s.delay(cdv);
        // R(10) = 2 + 2 = 4; drains against 1 - 1/4 = 3/4 -> t' = 16/3.
        assert_eq!(
            d,
            stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(16, 3))])
        );
    }

    #[test]
    fn delay_saturated_stream_stays_full_rate() {
        let s = stream(&[(ratio(1, 1), ratio(0, 1))]);
        let d = s.delay(Time::from_integer(5));
        assert_eq!(d, s);
    }

    #[test]
    fn delay_composes_conservatively() {
        // Applying delay(c1) then delay(c2) must dominate delay(c1+c2):
        // clumping twice is at least as pessimistic as clumping once.
        let s = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 6), ratio(1, 1))]);
        let once = s.delay(Time::from_integer(12));
        let twice = s.delay(Time::from_integer(5)).delay(Time::from_integer(7));
        for k in 0..80 {
            let t = Time::new(ratio(k, 2));
            assert!(twice.cumulative(t) >= once.cumulative(t), "at t = {t}");
        }
    }
}
