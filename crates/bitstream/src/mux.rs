//! Multiplexing and demultiplexing of bit streams (Algorithms 3.2 and
//! 3.3); many-stream sums are one lazy k-way merge, read to its end or,
//! by Algorithm 4.1, to the deviation's peak.

use core::iter::Peekable;
use core::num::NonZeroU64;
use core::ops::{Add, Sub};

use rtcac_rational::Ratio;

use crate::filter::View;
use crate::stream::lcm;
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
        // Both canonical, so the sum falls at every breakpoint of either.
        match common_counts(self, other) {
            Some((den, a, b)) => {
                BitStream::from_counts(den, MergeRates::new(a, b, 0, |x, y| x + y))
            }
            None => {
                let merged = MergeRates::new(rates(self), rates(other), Rate::ZERO, |x, y| x + y);
                BitStream::from_canonical(merged.map(|(rate, start)| Segment::new(rate, start)))
            }
        }
    }

    /// Multiplexes an arbitrary collection of streams.
    ///
    /// Returns the zero stream for an empty collection.
    pub fn multiplex_all<'a, I>(streams: I) -> BitStream
    where
        I: IntoIterator<Item = &'a BitStream>,
    {
        Merge::new(streams.into_iter().map(BitStream::view)).into_stream()
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
        Merge::new(streams.into_iter().map(BitStream::filtered)).into_stream()
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
        match common_counts(self, other) {
            Some((den, a, b)) => {
                let merged = difference(MergeRates::new(a, b, 0, |x, y| x - y), 0)?;
                Ok(BitStream::from_counts(den, merged.into_iter()))
            }
            None => {
                let merged = MergeRates::new(rates(self), rates(other), Rate::ZERO, |x, y| x - y);
                let merged = difference(merged, Rate::ZERO)?;
                let segments = merged
                    .into_iter()
                    .map(|(rate, start)| Segment::new(rate, start));
                Ok(BitStream::from_canonical(segments))
            }
        }
    }
}

/// A stream's segments as `(rate, start)` pairs.
fn rates(s: &BitStream) -> impl ExactSizeIterator<Item = (Rate, Time)> + '_ {
    s.segments().iter().map(|seg| (seg.rate, seg.start))
}

/// Both streams' rates as counts of `1 / D`, with `D` the lcm of their
/// shared denominators: `None` unless both have one, `D` is at most
/// `i64::MAX` and the sum of their peaks fits `i64`. Rates never rise,
/// so every sum or difference of two of them then fits too.
#[allow(clippy::type_complexity)]
fn common_counts<'a>(
    a: &'a BitStream,
    b: &'a BitStream,
) -> Option<(
    NonZeroU64,
    impl ExactSizeIterator<Item = (i64, Time)> + 'a,
    impl ExactSizeIterator<Item = (i64, Time)> + 'a,
)> {
    let (a, b) = (a.segments(), b.segments());
    let den = lcm(a.den()?, b.den()?)?;
    let scale = |own: NonZeroU64| {
        if own == den {
            Some(1)
        } else {
            i64::try_from(den.get() / own.get()).ok()
        }
    };
    let (scale_a, scale_b) = (scale(a.den()?)?, scale(b.den()?)?);
    let peak_a = a.count(0)?.0.checked_mul(scale_a)?;
    peak_a.checked_add(b.count(0)?.0.checked_mul(scale_b)?)?;
    Some((den, a.counts(scale_a)?, b.counts(scale_b)?))
}

/// The rates of a difference, checked to be a bit stream's and with
/// equal-rate neighbours merged.
fn difference<L: Copy + PartialOrd>(
    merged: impl Iterator<Item = (L, Time)>,
    zero: L,
) -> Result<Vec<(L, Time)>, StreamError> {
    let (least, most) = merged.size_hint();
    let mut out = Vec::with_capacity(most.unwrap_or(least));
    for (rate, at) in merged {
        // Negative or increasing rates mean `other` is not a component.
        if rate < zero {
            return Err(StreamError::NotASubStream { at });
        }
        if out.last().is_some_and(|&(prev, _)| rate > prev) {
            return Err(StreamError::NotMonotone { at });
        }
        out.push((rate, at));
    }
    out.dedup_by(|seg, prev| seg.0 == prev.0);
    Ok(out)
}

/// Two canonical runs merged at every breakpoint of either, their
/// current rates combined: the paper's two-pointer loop in Algorithms
/// 3.2/3.3. Both runs start at time 0, so the first step reads both.
struct MergeRates<A: Iterator, B: Iterator, L, F> {
    a: Peekable<A>,
    b: Peekable<B>,
    rates: (L, L),
    combine: F,
}

impl<A, B, L, F> MergeRates<A, B, L, F>
where
    A: Iterator<Item = (L, Time)>,
    B: Iterator<Item = (L, Time)>,
    L: Copy,
    F: Fn(L, L) -> L,
{
    fn new(a: A, b: B, zero: L, combine: F) -> Self {
        MergeRates {
            a: a.peekable(),
            b: b.peekable(),
            rates: (zero, zero),
            combine,
        }
    }
}

impl<A, B, L, F> Iterator for MergeRates<A, B, L, F>
where
    A: Iterator<Item = (L, Time)>,
    B: Iterator<Item = (L, Time)>,
    L: Copy,
    F: Fn(L, L) -> L,
{
    type Item = (L, Time);

    fn next(&mut self) -> Option<(L, Time)> {
        let t = match (self.a.peek(), self.b.peek()) {
            (Some(x), Some(y)) => x.1.min(y.1),
            (Some(x), None) | (None, Some(x)) => x.1,
            (None, None) => return None,
        };
        if let Some((rate, _)) = self.a.next_if(|seg| seg.1 == t) {
            self.rates.0 = rate;
        }
        if let Some((rate, _)) = self.b.next_if(|seg| seg.1 == t) {
            self.rates.1 = rate;
        }
        Some(((self.combine)(self.rates.0, self.rates.1), t))
    }

    /// At most one step per segment of either run.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let (a, b) = (self.a.size_hint(), self.b.size_hint());
        (a.0.max(b.0), a.1.zip(b.1).map(|(a, b)| a + b))
    }
}

/// `Σₖ vₖ` over canonical views: one k-way merge of their breakpoints
/// with a running rate sum, run only as far as it is read. Every view's
/// rates fall strictly at each of its breakpoints, so the sum falls at
/// each breakpoint of the union and comes out canonical — the same
/// `(rate, start)` list, by uniqueness of reduced fractions, as any order
/// of pairwise multiplexes.
///
/// The sum runs on integers where it can: every rate as a count of
/// `1 / D`, with `D` the lcm of the views' denominators, scaled once per
/// view and added without a GCD. That needs every view to have a
/// denominator, `D` at most `i64::MAX` and the sum of the peaks within
/// `i64`; otherwise the rates are summed as exact [`Rate`]s.
pub(crate) enum Merge<'a> {
    Counts(Sum<'a, i64>, NonZeroU64),
    Exact(Sum<'a, Rate>),
}

/// A k-way merge of views with a running sum of their rates, in `L`.
pub(crate) struct Sum<'a, L> {
    heads: Vec<Head<'a, L>>,
    /// The sum's rate, and whether its segment at time 0 is still to come.
    rate: L,
    fresh: bool,
}

struct Head<'a, L> {
    view: View<'a>,
    /// `D` over the view's own denominator (1 for exact rates).
    scale: i64,
    /// The index of the next segment to read, that segment (read once,
    /// when the head reaches it), and the rate of the one before it.
    at: usize,
    next: Option<(L, Time)>,
    rate: L,
}

/// A rate the merge sums: a count of `1 / D`, or an exact [`Rate`].
trait Level: Copy + Add<Output = Self> + Sub<Output = Self> {
    /// Segment `k` of `view`, its rate scaled onto the merge's `D`.
    fn read(view: &View<'_>, scale: i64, k: usize) -> Option<(Self, Time)>;
}

impl Level for i64 {
    #[inline]
    fn read(view: &View<'_>, scale: i64, k: usize) -> Option<(i64, Time)> {
        // No rate of the view exceeds its peak, whose scaled value fits.
        view.count(k).map(|(num, start)| (num * scale, start))
    }
}

impl Level for Rate {
    #[inline]
    fn read(view: &View<'_>, _: i64, k: usize) -> Option<(Rate, Time)> {
        view.get(k).map(|seg| (seg.rate, seg.start))
    }
}

impl<'a> Merge<'a> {
    pub(crate) fn new(views: impl Iterator<Item = View<'a>>) -> Merge<'a> {
        // Every view starts at time 0. Read each as counts of its own
        // denominator, then scale them onto `D` once all are in.
        let mut den = Some(NonZeroU64::MIN);
        let mut heads: Vec<Head<'a, i64>> = views
            .filter(|view| view.len() > 0)
            .map(|view| {
                den = den.zip(view.den()).and_then(|(d, own)| lcm(d, own));
                let rate = view.count(0).map_or(0, |(num, _)| num);
                let next = view.count(1);
                Head {
                    view,
                    scale: 1,
                    at: 1,
                    next,
                    rate,
                }
            })
            .collect();
        match den.and_then(|den| Some((den, scale_onto(&mut heads, den)?))) {
            Some((den, rate)) => Merge::Counts(
                Sum {
                    heads,
                    rate,
                    fresh: true,
                },
                den,
            ),
            None => Merge::Exact(Sum::exact(heads.into_iter().map(|head| head.view))),
        }
    }

    /// The sum's last rate: each view's last rate, summed without merging.
    pub(crate) fn long_run_rate(&self) -> Rate {
        match self {
            Merge::Counts(sum, _) => sum.long_run_rate(),
            Merge::Exact(sum) => sum.long_run_rate(),
        }
    }

    /// The sum, built.
    pub(crate) fn into_stream(self) -> BitStream {
        match self {
            Merge::Counts(sum, den) => BitStream::from_counts(den, sum),
            Merge::Exact(sum) => {
                BitStream::from_canonical(sum.map(|(rate, start)| Segment::new(rate, start)))
            }
        }
    }
}

/// Scales every head's rates from its view's denominator onto `den`,
/// returning the sum of their peaks: `None` if a view has no
/// denominator or the sum leaves `i64`.
fn scale_onto(heads: &mut [Head<'_, i64>], den: NonZeroU64) -> Option<i64> {
    let mut sum: i64 = 0;
    for head in heads {
        let own = head.view.den()?;
        if own != den {
            head.scale = i64::try_from(den.get() / own.get()).ok()?;
            head.rate = head.rate.checked_mul(head.scale)?;
            if let Some((next, _)) = &mut head.next {
                *next *= head.scale; // below the peak, which fits
            }
        }
        sum = sum.checked_add(head.rate)?;
    }
    Some(sum)
}

impl<'a> Sum<'a, Rate> {
    /// The merge on exact rates.
    fn exact(views: impl Iterator<Item = View<'a>>) -> Sum<'a, Rate> {
        let head = |view: View<'a>| {
            let (rate, _) = Rate::read(&view, 1, 0)?;
            let next = Rate::read(&view, 1, 1);
            Some(Head {
                view,
                scale: 1,
                at: 1,
                next,
                rate,
            })
        };
        let heads: Vec<Head<'a, Rate>> = views.filter_map(head).collect();
        let rate = heads.iter().map(|head| head.rate).sum();
        Sum {
            heads,
            rate,
            fresh: true,
        }
    }
}

impl<L> Sum<'_, L> {
    fn long_run_rate(&self) -> Rate {
        let last = |head: &Head<'_, L>| head.view.last().map(|seg| seg.rate);
        self.heads.iter().filter_map(last).sum()
    }
}

impl<L: Level> Iterator for Sum<'_, L> {
    type Item = (L, Time);

    fn next(&mut self) -> Option<(L, Time)> {
        if std::mem::take(&mut self.fresh) {
            return Some((self.rate, Time::ZERO));
        }
        let next = self.heads.iter().filter_map(|head| head.next.as_ref());
        let t = next.map(|(_, start)| start).min().copied()?;
        for head in &mut self.heads {
            if let Some((rate, _)) = head.next.filter(|(_, start)| *start == t) {
                self.rate = self.rate + (rate - head.rate);
                head.rate = rate;
                head.at += 1;
                head.next = L::read(&head.view, head.scale, head.at);
            }
        }
        Some((self.rate, t))
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

impl Iterator for Merge<'_> {
    type Item = Segment;

    /// The next segment of the sum, its rate reduced only now.
    #[inline]
    fn next(&mut self) -> Option<Segment> {
        let (rate, start) = match self {
            Merge::Counts(sum, den) => {
                let (num, start) = sum.next()?;
                (Rate::new(Ratio::from_words(num, *den)), start)
            }
            Merge::Exact(sum) => sum.next()?,
        };
        Some(Segment::new(rate, start))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Merge::Counts(sum, _) => sum.size_hint(),
            Merge::Exact(sum) => sum.size_hint(),
        }
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
mod differential;

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
