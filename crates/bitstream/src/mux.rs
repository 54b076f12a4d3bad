//! Multiplexing and demultiplexing of bit streams (Algorithms 3.2 and
//! 3.3); many-stream sums are one lazy k-way merge, read to its end or,
//! by Algorithm 4.1, to the deviation's peak.

use core::ops::Add;

use crate::filter::View;
use crate::{BitStream, Rate, Segment, StreamError, Time};

impl BitStream {
    /// **Algorithm 3.2**: the worst-case multiplex of two streams
    /// arriving at the same queueing point — the pointwise sum of rates.
    ///
    /// ```
    /// use rtcac_bitstream::{BitStream, Rate};
    /// use rtcac_rational::ratio;
    ///
    /// let a = BitStream::from_rate_breaks([(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(2, 1))])?;
    /// let b = BitStream::from_rate_breaks([(ratio(1, 2), ratio(0, 1)), (ratio(1, 4), ratio(3, 1))])?;
    /// let s = a.multiplex(&b);
    /// assert_eq!(s.peak_rate(), Rate::new(ratio(3, 2)));
    /// assert_eq!(s.long_run_rate(), Rate::new(ratio(1, 2)));
    /// # Ok::<(), rtcac_bitstream::StreamError>(())
    /// ```
    pub fn multiplex(&self, other: &BitStream) -> BitStream {
        let merged = merge_rates(self, other, |a, b| a + b);
        BitStream::from_normalized(merged)
    }

    /// Multiplexes an arbitrary collection of streams.
    ///
    /// Returns the zero stream for an empty collection.
    pub fn multiplex_all<'a, I>(streams: I) -> BitStream
    where
        I: IntoIterator<Item = &'a BitStream>,
    {
        BitStream::from_canonical(Merge::new(streams.into_iter().map(BitStream::view)))
    }

    /// Multiplexes the link-filtered form of every stream:
    /// `Σₖ filter(sₖ)`, the paper's `Soa(j,p) = Σᵢ Sif(i,j,p)`.
    ///
    /// Equal to multiplexing the [`BitStream::filter`]s one by one, but
    /// built in one pass: each input is read as rate 1 until its queue
    /// drains and then as its own remaining segments, and one merge over
    /// all of them keeps a running rate sum.
    ///
    /// ```
    /// use rtcac_bitstream::BitStream;
    /// use rtcac_rational::ratio;
    ///
    /// let burst = BitStream::from_rate_breaks([(ratio(2, 1), ratio(0, 1)), (ratio(1, 4), ratio(3, 1))])?;
    /// let light = BitStream::from_rate_breaks([(ratio(1, 2), ratio(0, 1))])?;
    /// assert_eq!(
    ///     BitStream::multiplex_filtered([&burst, &light]),
    ///     burst.filter().multiplex(&light.filter())
    /// );
    /// # Ok::<(), rtcac_bitstream::StreamError>(())
    /// ```
    pub fn multiplex_filtered<'a, I>(streams: I) -> BitStream
    where
        I: IntoIterator<Item = &'a BitStream>,
    {
        BitStream::from_canonical(Merge::new(streams.into_iter().map(BitStream::filtered)))
    }

    /// **Algorithm 3.3**: removes a component stream from an aggregate —
    /// the pointwise difference of rates.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NotASubStream`] if the difference would go
    /// negative and [`StreamError::NotMonotone`] if it would violate the
    /// bit-stream model; both indicate that `other` is not actually a
    /// component of `self`.
    ///
    /// ```
    /// use rtcac_bitstream::BitStream;
    /// use rtcac_rational::ratio;
    ///
    /// let a = BitStream::from_rate_breaks([(ratio(1, 2), ratio(0, 1))])?;
    /// let b = BitStream::from_rate_breaks([(ratio(1, 4), ratio(0, 1))])?;
    /// let sum = a.multiplex(&b);
    /// assert_eq!(sum.demultiplex(&b)?, a);
    /// # Ok::<(), rtcac_bitstream::StreamError>(())
    /// ```
    pub fn demultiplex(&self, other: &BitStream) -> Result<BitStream, StreamError> {
        let merged = merge_rates(self, other, |a, b| a - b);
        // Validate before normalizing: the subtraction may produce
        // negative or increasing rates when `other` is not a component.
        let mut prev: Option<Segment> = None;
        for seg in &merged {
            if seg.rate.is_negative() {
                return Err(StreamError::NotASubStream { at: seg.start });
            }
            if let Some(p) = prev {
                if seg.rate > p.rate {
                    return Err(StreamError::NotMonotone { at: seg.start });
                }
            }
            prev = Some(*seg);
        }
        Ok(BitStream::from_normalized(merged))
    }
}

/// Merge-walk two streams, combining rates at every breakpoint of
/// either (the paper's two-pointer loop in Algorithms 3.2/3.3).
fn merge_rates(a: &BitStream, b: &BitStream, combine: impl Fn(Rate, Rate) -> Rate) -> Vec<Segment> {
    let (mut sa, mut sb) = (
        a.segments().iter().peekable(),
        b.segments().iter().peekable(),
    );
    let mut out = Vec::with_capacity(sa.len() + sb.len());
    // Both streams start at time 0, so the first step reads both, and
    // the combined stream starts there too.
    let (mut ra, mut rb) = (Rate::ZERO, Rate::ZERO);
    loop {
        let t = match (sa.peek(), sb.peek()) {
            (Some(x), Some(y)) => x.start.min(y.start),
            (Some(x), None) | (None, Some(x)) => x.start,
            (None, None) => break,
        };
        if let Some(seg) = sa.next_if(|seg| seg.start == t) {
            ra = seg.rate;
        }
        if let Some(seg) = sb.next_if(|seg| seg.start == t) {
            rb = seg.rate;
        }
        out.push(Segment::new(combine(ra, rb), t));
    }
    out
}

/// `Σₖ vₖ` over canonical views: one k-way merge of their breakpoints
/// with a running rate sum, run only as far as it is read. Every view's
/// rates fall strictly at each of its breakpoints, so the sum falls at
/// each breakpoint of the union and comes out canonical — the same
/// `(rate, start)` list, by uniqueness of reduced fractions, as any order
/// of pairwise multiplexes.
pub(crate) struct Merge<'a> {
    heads: Vec<Head<'a>>,
    /// The sum's rate, and whether its segment at time 0 is still to come.
    rate: Rate,
    fresh: bool,
}

struct Head<'a> {
    view: View<'a>,
    /// The index of the next segment to read, that segment (read once,
    /// when the head reaches it), and the rate of the one before it.
    at: usize,
    next: Option<Segment>,
    rate: Rate,
}

impl<'a> Merge<'a> {
    pub(crate) fn new(views: impl Iterator<Item = View<'a>>) -> Merge<'a> {
        // Every view starts at time 0.
        let head = |view: View<'a>| {
            let rate = view.get(0)?.rate;
            let next = view.get(1);
            Some(Head {
                view,
                at: 1,
                next,
                rate,
            })
        };
        let heads: Vec<Head<'a>> = views.filter_map(head).collect();
        let rate = heads.iter().map(|head| head.rate).sum();
        let fresh = true;
        Merge { heads, rate, fresh }
    }

    /// The sum's last rate: each view's last rate, summed without merging.
    pub(crate) fn long_run_rate(&self) -> Rate {
        let last = |head: &Head| head.view.last().map(|seg| seg.rate);
        self.heads.iter().filter_map(last).sum()
    }
}

impl Iterator for Merge<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if std::mem::take(&mut self.fresh) {
            return Some(Segment::new(self.rate, Time::ZERO));
        }
        let next = self.heads.iter().filter_map(|head| head.next.as_ref());
        let t = next.map(|seg| &seg.start).min().copied()?;
        for head in &mut self.heads {
            if let Some(seg) = head.next.filter(|seg| seg.start == t) {
                self.rate += seg.rate - head.rate;
                head.rate = seg.rate;
                head.at += 1;
                head.next = head.view.get(head.at);
            }
        }
        Some(Segment::new(self.rate, t))
    }

    /// At most the segments still unread, plus the one at time 0.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let unread = self.heads.iter().map(|head| head.view.len() - head.at);
        (
            usize::from(self.fresh),
            Some(usize::from(self.fresh) + unread.sum::<usize>()),
        )
    }
}

impl Add<&BitStream> for &BitStream {
    type Output = BitStream;

    /// Multiplexes two streams (Algorithm 3.2).
    fn add(self, rhs: &BitStream) -> BitStream {
        self.multiplex(rhs)
    }
}

impl Add for BitStream {
    type Output = BitStream;

    /// Multiplexes two streams (Algorithm 3.2).
    fn add(self, rhs: BitStream) -> BitStream {
        self.multiplex(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cells, Time};
    use rtcac_rational::{ratio, Ratio};

    fn stream(pairs: &[(Ratio, Ratio)]) -> BitStream {
        BitStream::from_rate_breaks(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn multiplex_distinct_breakpoints() {
        let a = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(2, 1))]);
        let b = stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(1, 8), ratio(5, 1))]);
        let s = a.multiplex(&b);
        let rates: Vec<_> = s.segments().iter().map(|x| x.rate.as_ratio()).collect();
        let starts: Vec<_> = s.segments().iter().map(|x| x.start.as_ratio()).collect();
        assert_eq!(rates, vec![ratio(3, 2), ratio(3, 4), ratio(3, 8)]);
        assert_eq!(starts, vec![ratio(0, 1), ratio(2, 1), ratio(5, 1)]);
    }

    #[test]
    fn multiplex_shared_breakpoint() {
        let a = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(3, 1))]);
        let b = stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(1, 4), ratio(3, 1))]);
        let s = a.multiplex(&b);
        assert_eq!(s.segments().len(), 2);
        assert_eq!(
            s.segments().get(1).map(|seg| seg.rate.as_ratio()),
            Some(ratio(1, 2))
        );
        assert_eq!(
            s.segments().get(1).map(|seg| seg.start.as_ratio()),
            Some(ratio(3, 1))
        );
    }

    #[test]
    fn multiplex_with_zero_is_identity() {
        let a = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(2, 1))]);
        assert_eq!(a.multiplex(&BitStream::zero()), a);
        assert_eq!(BitStream::zero().multiplex(&a), a);
    }

    #[test]
    fn multiplex_cumulative_is_additive() {
        let a = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(2, 1))]);
        let b = stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(1, 8), ratio(5, 1))]);
        let s = a.multiplex(&b);
        for t in 0..12 {
            let t = Time::from_integer(t);
            assert_eq!(s.cumulative(t), a.cumulative(t) + b.cumulative(t));
        }
    }

    #[test]
    fn multiplex_all_collection() {
        let parts: Vec<BitStream> = (1..=4)
            .map(|k| stream(&[(ratio(1, 4 * k), ratio(0, 1))]))
            .collect();
        let total = BitStream::multiplex_all(&parts);
        // 1/4 + 1/8 + 1/12 + 1/16 = 25/48.
        assert_eq!(total.peak_rate().as_ratio(), ratio(25, 48));
        assert!(BitStream::multiplex_all(core::iter::empty()).is_zero());
    }

    #[test]
    fn demultiplex_inverts_multiplex() {
        let a = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(2, 1))]);
        let b = stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(1, 8), ratio(5, 1))]);
        let sum = a.multiplex(&b);
        assert_eq!(sum.demultiplex(&b).unwrap(), a);
        assert_eq!(sum.demultiplex(&a).unwrap(), b);
    }

    #[test]
    fn demultiplex_detects_negative() {
        let small = stream(&[(ratio(1, 4), ratio(0, 1))]);
        let big = stream(&[(ratio(1, 2), ratio(0, 1))]);
        assert!(matches!(
            small.demultiplex(&big),
            Err(StreamError::NotASubStream { .. })
        ));
    }

    #[test]
    fn demultiplex_detects_non_monotone() {
        // a: 1/2 forever; b: 1/2 for 5 then 0. a-b = 0 then 1/2: increases.
        let a = stream(&[(ratio(1, 2), ratio(0, 1))]);
        let b = stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(0, 1), ratio(5, 1))]);
        assert!(matches!(
            a.demultiplex(&b),
            Err(StreamError::NotMonotone { .. })
        ));
    }

    #[test]
    fn demultiplex_zero_is_identity() {
        let a = stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(1, 4), ratio(3, 1))]);
        assert_eq!(a.demultiplex(&BitStream::zero()).unwrap(), a);
        assert!(a.demultiplex(&a).unwrap().is_zero());
    }

    #[test]
    fn add_operators() {
        let a = stream(&[(ratio(1, 4), ratio(0, 1))]);
        let b = stream(&[(ratio(1, 4), ratio(0, 1))]);
        assert_eq!((&a + &b).peak_rate().as_ratio(), ratio(1, 2));
        assert_eq!((a + b).peak_rate().as_ratio(), ratio(1, 2));
    }

    #[test]
    fn multiplex_many_identical_equals_scale() {
        let unit = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 100), ratio(1, 1))]);
        let n = 16;
        let muxed = BitStream::multiplex_all(std::iter::repeat_n(&unit, n));
        let scaled = unit.scale(ratio(n as i128, 1)).unwrap();
        assert_eq!(muxed, scaled);
        assert_eq!(
            muxed.cumulative(Time::from_integer(50)),
            Cells::from_integer(16) + Cells::new(ratio(16 * 49, 100))
        );
    }
}
