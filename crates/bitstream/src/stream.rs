//! The [`BitStream`] type: the paper's piecewise-constant worst-case
//! arrival envelope (§2, Figure 3).

use core::fmt;
use core::num::NonZeroU64;
use core::slice;

use rtcac_rational::{gcd, NarrowRatio, Ratio};

use crate::{Cells, Rate, StreamError, Time};

/// One step of a bit stream: the stream flows at `rate` from `start`
/// until the start of the next segment (or forever, for the last one).
///
/// This is the form every segment is read and computed in: two exact
/// [`Ratio`]s, 64 bytes. A stream stores its segments in 24 bytes each
/// whenever its rates share a word-sized denominator and every start
/// fits machine words (see [`BitStream::segments`]), and hands each one
/// out as a `Segment`.
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

/// The largest denominator a stream's rates share in the stored form:
/// `i64::MAX`, so that a numerator's complement `den − num` and every
/// rate rebuilt from its numerator stay machine words.
pub(crate) const DEN_MAX: u64 = i64::MAX as u64;

/// `lcm(a, b)`, if it is at most [`DEN_MAX`].
pub(crate) fn lcm(a: NonZeroU64, b: NonZeroU64) -> Option<NonZeroU64> {
    if a == b || b == NonZeroU64::MIN {
        return Some(a);
    }
    if a == NonZeroU64::MIN {
        return Some(b).filter(|b| b.get() <= DEN_MAX);
    }
    let lcm = (a.get() / gcd(a.get(), b.get())).checked_mul(b.get())?;
    NonZeroU64::new(lcm).filter(|lcm| lcm.get() <= DEN_MAX)
}

/// A stored segment of a stream whose rates share one denominator: the
/// rate as a numerator over it and the start in machine words, 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SharedSegment {
    num: i64,
    start: NarrowRatio,
}

impl SharedSegment {
    #[inline]
    fn start(self) -> Time {
        Time::new(Ratio::from(self.start))
    }

    #[inline]
    fn unpack(self, den: NonZeroU64) -> Segment {
        SharedSegment::unpack_at(self.num, self.start(), den)
    }

    /// A segment read as a numerator over `den`, as a [`Segment`].
    #[inline]
    fn unpack_at(num: i64, start: Time, den: NonZeroU64) -> Segment {
        Segment::new(Rate::new(Ratio::from_words(num, den)), start)
    }
}

/// A stream's stored segments. `Shared` holds every rate as a numerator
/// over `den`, the lcm of the reduced rate denominators, whenever that
/// lcm is at most [`DEN_MAX`], every numerator fits `i64` and every
/// start fits `i64` over `i64`; `Wide` holds the 64-byte arithmetic form
/// otherwise. The form and `den` are functions of the values alone, so
/// equal streams always share them and the derived `Eq` and `Hash`
/// compare values.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Store {
    Shared {
        den: NonZeroU64,
        segs: Box<[SharedSegment]>,
    },
    Wide(Box<[Segment]>),
}

impl Store {
    /// Stores segments in the smallest form that holds all of them.
    fn pack(segments: impl IntoIterator<Item = Segment>) -> Store {
        let mut segments = segments.into_iter();
        let (least, most) = segments.size_hint();
        let mut packer = Packer {
            den: NonZeroU64::MIN,
            segs: Vec::with_capacity(most.unwrap_or(least)),
        };
        for seg in segments.by_ref() {
            if !packer.push(seg) {
                let packed = packer.segs.into_iter().map(|word| word.unpack(packer.den));
                return Store::Wide(packed.chain([seg]).chain(segments).collect());
            }
        }
        Store::Shared {
            den: packer.den,
            segs: packer.segs.into_boxed_slice(),
        }
    }

    /// [`Store::pack`] for segments whose rates are already numerators
    /// over `den` (at most [`DEN_MAX`]): no rate is reduced on the way
    /// in, and one GCD pass at the end takes `den` down to the lcm of the
    /// reduced rate denominators.
    fn pack_counts(den: NonZeroU64, mut counts: impl Iterator<Item = (i64, Time)>) -> Store {
        debug_assert!(den.get() <= DEN_MAX);
        let (least, most) = counts.size_hint();
        let mut segs = Vec::with_capacity(most.unwrap_or(least));
        for (num, start) in counts.by_ref() {
            match start.as_ratio().to_narrow() {
                Some(start) => segs.push(SharedSegment { num, start }),
                None => {
                    let unpack = |(num, start)| SharedSegment::unpack_at(num, start, den);
                    let packed = segs.into_iter().map(|word| word.unpack(den));
                    let rest = [(num, start)].into_iter().chain(counts).map(unpack);
                    return Store::pack(packed.chain(rest));
                }
            }
        }
        // Every reduced denominator is `den / gcd(den, num)`, so their
        // lcm is `den` over the gcd of `den` and every numerator.
        let mut common = den.get();
        for seg in &segs {
            if common == 1 {
                break;
            }
            common = gcd(common, seg.num.unsigned_abs());
        }
        let den = match NonZeroU64::new(den.get() / common) {
            Some(reduced) if common > 1 => {
                let common = common as i64; // divides `den`, so at most `DEN_MAX`
                segs.iter_mut().for_each(|seg| seg.num /= common);
                reduced
            }
            _ => den,
        };
        Store::Shared {
            den,
            segs: segs.into_boxed_slice(),
        }
    }
}

/// Segments being packed over the lcm of the rate denominators seen so
/// far: a new denominator rescales what is packed, once.
struct Packer {
    den: NonZeroU64,
    segs: Vec<SharedSegment>,
}

impl Packer {
    /// Packs one more segment; `false` if the stream cannot be stored
    /// shared, with what is packed still reading back the same.
    fn push(&mut self, seg: Segment) -> bool {
        let (rate, start) = (seg.rate.as_ratio(), seg.start.as_ratio());
        let (Ok(num), Some(rate_den), Some(start)) = (
            i64::try_from(rate.numer()),
            u64::try_from(rate.denom()).ok().and_then(NonZeroU64::new),
            start.to_narrow(),
        ) else {
            return false;
        };
        let (den, own) = (self.den.get(), rate_den.get());
        let scale = if own == den {
            1
        } else if den % own == 0 {
            den / own
        } else {
            let Some(lcm) = lcm(self.den, rate_den) else {
                return false;
            };
            // Both at most `DEN_MAX`, so both fit `i64`.
            let factor = if den == 1 { lcm.get() } else { lcm.get() / den } as i64;
            if self
                .segs
                .iter()
                .any(|seg| seg.num.checked_mul(factor).is_none())
            {
                return false;
            }
            self.segs.iter_mut().for_each(|seg| seg.num *= factor);
            self.den = lcm;
            lcm.get() / own
        };
        let Some(num) = num.checked_mul(scale as i64) else {
            return false;
        };
        self.segs.push(SharedSegment { num, start });
        true
    }
}

/// The segments of a [`BitStream`], in time order: a borrowed, `Copy`
/// view that yields each [`Segment`] by value, whichever form the
/// stream stores them in.
///
/// ```
/// use rtcac_bitstream::{BitStream, Rate, Segment, Time};
/// use rtcac_rational::ratio;
///
/// let s = BitStream::from_rate_breaks([
///     (ratio(1, 1), ratio(0, 1)),
///     (ratio(1, 4), ratio(3, 1)),
/// ])?;
/// let segs = s.segments();
/// assert_eq!(segs.len(), 2);
/// assert_eq!(segs.get(1), Some(Segment::new(Rate::new(ratio(1, 4)), Time::from_integer(3))));
/// assert_eq!(segs.last(), segs.get(1));
/// let starts: Vec<Time> = segs.iter().map(|seg| seg.start).collect();
/// assert_eq!(starts, [Time::ZERO, Time::from_integer(3)]);
/// # Ok::<(), rtcac_bitstream::StreamError>(())
/// ```
#[derive(Clone, Copy)]
pub struct Segments<'a>(Run<'a>);

#[derive(Clone, Copy)]
enum Run<'a> {
    Shared(&'a [SharedSegment], NonZeroU64),
    Wide(&'a [Segment]),
}

impl<'a> Segments<'a> {
    /// A view of no segments (over the denominator 1).
    pub(crate) const EMPTY: Segments<'static> = Segments(Run::Shared(&[], NonZeroU64::MIN));

    /// A view of segments that no stream stores (yet).
    pub(crate) fn wide(segments: &'a [Segment]) -> Segments<'a> {
        Segments(Run::Wide(segments))
    }

    /// Number of segments.
    #[inline]
    pub fn len(self) -> usize {
        match self.0 {
            Run::Shared(segs, _) => segs.len(),
            Run::Wide(segs) => segs.len(),
        }
    }

    /// Whether there are no segments (never, for a stream's own).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Segment `k`, if there are that many.
    #[inline]
    pub fn get(self, k: usize) -> Option<Segment> {
        match self.0 {
            Run::Shared(segs, den) => segs.get(k).map(|seg| seg.unpack(den)),
            Run::Wide(segs) => segs.get(k).copied(),
        }
    }

    /// The first segment (the one starting at time 0).
    #[inline]
    pub fn first(self) -> Option<Segment> {
        self.get(0)
    }

    /// The last segment, whose rate extends forever.
    #[inline]
    pub fn last(self) -> Option<Segment> {
        self.get(self.len().checked_sub(1)?)
    }

    /// The segments one by one.
    #[inline]
    pub fn iter(self) -> SegmentIter<'a> {
        SegmentIter(match self.0 {
            Run::Shared(segs, den) => IterRun::Shared(segs.iter(), den),
            Run::Wide(segs) => IterRun::Wide(segs.iter()),
        })
    }

    /// The denominator every rate is a count of, in the shared form.
    #[inline]
    pub(crate) fn den(self) -> Option<NonZeroU64> {
        match self.0 {
            Run::Shared(_, den) => Some(den),
            Run::Wide(_) => None,
        }
    }

    /// Segment `k`'s rate as a numerator over [`Segments::den`], and its
    /// start: `None` past the end or in the wide form.
    #[inline]
    pub(crate) fn count(self, k: usize) -> Option<(i64, Time)> {
        match self.0 {
            Run::Shared(segs, _) => segs.get(k).map(|seg| (seg.num, seg.start())),
            Run::Wide(_) => None,
        }
    }

    /// Every segment as [`Segments::count`] reads it, each numerator
    /// multiplied by `scale`: `None` in the wide form. The caller makes
    /// sure the largest product, the first, fits.
    pub(crate) fn counts(
        self,
        scale: i64,
    ) -> Option<impl ExactSizeIterator<Item = (i64, Time)> + 'a> {
        match self.0 {
            Run::Shared(segs, _) => {
                Some(segs.iter().map(move |seg| (seg.num * scale, seg.start())))
            }
            Run::Wide(_) => None,
        }
    }

    /// The start of segment `k`, read without its rate.
    #[inline]
    pub(crate) fn start(self, k: usize) -> Option<Time> {
        match self.0 {
            Run::Shared(segs, _) => segs.get(k).map(|seg| seg.start()),
            Run::Wide(segs) => segs.get(k).map(|seg| seg.start),
        }
    }

    /// `capacity − rate` of segment `k`: the rate at which a queue served
    /// at `capacity` drains during it. At the link rate the shared form
    /// reads it from the numerator, `(den − num) / den`, with one GCD.
    #[inline]
    pub(crate) fn headroom(self, k: usize, capacity: Rate) -> Option<Rate> {
        match self.0 {
            Run::Shared(segs, den) if capacity == Rate::FULL => {
                let seg = segs.get(k)?;
                let left = den.get() as i64 - seg.num; // `den` is at most `DEN_MAX`
                Some(Rate::new(Ratio::from_words(left, den)))
            }
            _ => self.get(k).map(|seg| capacity - seg.rate),
        }
    }

    /// The segments from `k` on (none if there are fewer).
    #[inline]
    pub(crate) fn suffix(self, k: usize) -> Segments<'a> {
        Segments(match self.0 {
            Run::Shared(segs, den) => Run::Shared(segs.get(k..).unwrap_or_default(), den),
            Run::Wide(segs) => Run::Wide(segs.get(k..).unwrap_or_default()),
        })
    }

    /// The number of leading segments whose start satisfies `pred`,
    /// which must hold on a prefix and fail on the rest (a binary search).
    pub(crate) fn partition_point(self, mut pred: impl FnMut(Time) -> bool) -> usize {
        match self.0 {
            Run::Shared(segs, _) => segs.partition_point(|seg| pred(seg.start())),
            Run::Wide(segs) => segs.partition_point(|seg| pred(seg.start)),
        }
    }
}

impl<'a> IntoIterator for Segments<'a> {
    type Item = Segment;
    type IntoIter = SegmentIter<'a>;

    #[inline]
    fn into_iter(self) -> SegmentIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Segments<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Segments`] view, yielding [`Segment`]s by value.
#[derive(Debug, Clone)]
pub struct SegmentIter<'a>(IterRun<'a>);

#[derive(Debug, Clone)]
enum IterRun<'a> {
    Shared(slice::Iter<'a, SharedSegment>, NonZeroU64),
    Wide(slice::Iter<'a, Segment>),
}

impl Iterator for SegmentIter<'_> {
    type Item = Segment;

    #[inline]
    fn next(&mut self) -> Option<Segment> {
        match &mut self.0 {
            IterRun::Shared(segs, den) => segs.next().map(|seg| seg.unpack(*den)),
            IterRun::Wide(segs) => segs.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterRun::Shared(segs, _) => segs.size_hint(),
            IterRun::Wide(segs) => segs.size_hint(),
        }
    }
}

impl ExactSizeIterator for SegmentIter<'_> {}

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
    store: Store,
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
        BitStream::from_canonical([Segment::new(Rate::ZERO, Time::ZERO)])
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
        Ok(BitStream::from_canonical([Segment::new(rate, Time::ZERO)]))
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
        let segments = segments.into_iter();
        let mut normalized: Vec<Segment> = Vec::with_capacity(segments.size_hint().0);
        for seg in segments {
            if normalized.is_empty() && seg.start != Time::ZERO {
                return Err(StreamError::MissingOrigin);
            }
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
        if normalized.is_empty() {
            return Err(StreamError::Empty);
        }
        Ok(BitStream::from_canonical(normalized))
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
    pub(crate) fn from_normalized(mut segments: Vec<Segment>) -> BitStream {
        debug_assert!(
            segments
                .windows(2)
                .all(|w| w[0].start < w[1].start && w[0].rate >= w[1].rate),
            "not a bit stream: {segments:?}"
        );
        segments.dedup_by(|seg, prev| seg.rate == prev.rate);
        BitStream::from_canonical(segments)
    }

    /// Internal constructor for segments already in canonical form —
    /// from 0, starts strictly increasing, rates non-negative and
    /// strictly falling — packed once into the stream's store.
    pub(crate) fn from_canonical(segments: impl IntoIterator<Item = Segment>) -> BitStream {
        BitStream::from_store(Store::pack(segments))
    }

    /// [`BitStream::from_canonical`] for segments whose rates are
    /// numerators over `den`, at most `i64::MAX`.
    pub(crate) fn from_counts(
        den: NonZeroU64,
        counts: impl Iterator<Item = (i64, Time)>,
    ) -> BitStream {
        BitStream::from_store(Store::pack_counts(den, counts))
    }

    fn from_store(store: Store) -> BitStream {
        let stream = BitStream { store };
        debug_assert!(stream.is_canonical(), "not canonical: {stream:?}");
        stream
    }

    /// The invariants every constructor establishes.
    fn is_canonical(&self) -> bool {
        let segs = self.segments();
        let mut steps = segs.iter().zip(segs.iter().skip(1));
        segs.first().is_some_and(|first| first.start == Time::ZERO)
            && segs.iter().all(|seg| !seg.rate.is_negative())
            && steps.all(|(a, b)| a.start < b.start && a.rate > b.rate)
    }

    /// The segments of the stream, in time order, read by value through
    /// a borrowed view (see [`Segments`]). The stream stores its rates as
    /// `i64` numerators over one shared denominator, the lcm of the
    /// rates' own, and its starts as `i64` over `i64`, whenever all of
    /// them fit (the denominator at most `i64::MAX`); it stores
    /// [`Segment`]s otherwise. The view reads either.
    pub fn segments(&self) -> Segments<'_> {
        Segments(match &self.store {
            Store::Shared { den, segs } => Run::Shared(segs, *den),
            Store::Wide(segs) => Run::Wide(segs),
        })
    }

    /// Resident heap bytes of this stream: its segment buffer, 24 bytes
    /// a segment in the shared-denominator form and 64 (a [`Segment`])
    /// otherwise. The denominator lives in the stream itself, and the
    /// buffer is exactly as long as the stream.
    pub fn resident_bytes(&self) -> usize {
        match &self.store {
            Store::Shared { segs, .. } => core::mem::size_of_val::<[SharedSegment]>(segs),
            Store::Wide(segs) => core::mem::size_of_val::<[Segment]>(segs),
        }
    }

    /// Number of segments (the paper's `m + 1`). Never zero: even the
    /// zero stream has one (zero-rate) segment.
    pub fn segment_count(&self) -> usize {
        self.segments().len()
    }

    /// Whether this is the zero stream (carries no traffic at all).
    pub fn is_zero(&self) -> bool {
        self.segment_count() == 1 && self.peak_rate().is_zero()
    }

    /// The initial (peak) rate `r(0)`.
    pub fn peak_rate(&self) -> Rate {
        self.segments().first().map_or(Rate::ZERO, |seg| seg.rate)
    }

    /// The final rate `r(m)`, which extends to infinity — the long-run
    /// sustained rate of the stream.
    pub fn long_run_rate(&self) -> Rate {
        self.segments().last().map_or(Rate::ZERO, |seg| seg.rate)
    }

    /// The time after which the stream flows at its long-run rate.
    pub fn stabilization_time(&self) -> Time {
        let segs = self.segments();
        segs.len()
            .checked_sub(1)
            .and_then(|last| segs.start(last))
            .unwrap_or(Time::ZERO)
    }

    /// The instantaneous rate at time `t` (`t >= 0`).
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative.
    pub fn rate_at(&self, t: Time) -> Rate {
        assert!(!t.is_negative(), "rate_at: negative time");
        let segs = self.segments();
        let at = segs.partition_point(|start| start <= t);
        segs.get(at.saturating_sub(1))
            .map_or(Rate::ZERO, |seg| seg.rate)
    }

    /// The cumulative traffic `R(t) = ∫₀ᵗ r(u) du` in cells.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative.
    pub fn cumulative(&self, t: Time) -> Cells {
        assert!(!t.is_negative(), "cumulative: negative time");
        let mut total = Cells::ZERO;
        for (seg, end) in self.steps() {
            if seg.start >= t {
                break;
            }
            let end = end.map_or(t, |end| end.min(t));
            total += seg.rate * (end - seg.start);
        }
        total
    }

    /// Each segment with the start of the one after it (`None` for the
    /// last), every segment read once.
    fn steps(&self) -> impl Iterator<Item = (Segment, Option<Time>)> + '_ {
        let mut segs = self.segments().iter().peekable();
        core::iter::from_fn(move || {
            let seg = segs.next()?;
            Some((seg, segs.peek().map(|next| next.start)))
        })
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
        for (seg, end) in self.steps() {
            let Some(end) = end else { break };
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
        for (seg, end) in self.steps() {
            let Some(end) = end else { break };
            let chunk = seg.rate * (end - seg.start);
            if acc + chunk >= amount {
                return Some(seg.start + (amount - acc) / seg.rate);
            }
            acc += chunk;
        }
        let last = self.segments().last()?;
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
        for seg in self.segments().iter().chain(other.segments()) {
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
        // A positive factor keeps the rates strictly falling.
        Ok(BitStream::from_canonical(
            self.segments()
                .iter()
                .map(|seg| Segment::new(seg.rate * factor, seg.start)),
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
        for (i, seg) in self.segments().iter().enumerate() {
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
        for (i, seg) in self.segments().iter().enumerate() {
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

    /// Every stored stream is one of these; growth in any of them is
    /// resident bytes per connection.
    #[test]
    fn layout_pins() {
        use core::mem::size_of;
        assert_eq!(size_of::<BitStream>(), 24);
        assert_eq!(size_of::<SharedSegment>(), 24);
        assert_eq!(size_of::<Segment>(), 64);
        assert_eq!(size_of::<Segments<'_>>(), 24);
    }

    fn shared_den(s: &BitStream) -> Option<u64> {
        match &s.store {
            Store::Shared { den, .. } => Some(den.get()),
            Store::Wide(_) => None,
        }
    }

    #[test]
    fn shared_form_exactly_when_the_denominator_and_every_component_fit() {
        const MAX: i128 = i64::MAX as i128;
        let narrow =
            BitStream::from_rate_breaks([rt((1, 1), (0, 1)), rt((1, MAX), (MAX, 3))]).unwrap();
        assert_eq!(shared_den(&narrow), Some(i64::MAX as u64));
        assert_eq!(narrow.resident_bytes(), 2 * 24);
        // The denominator is the lcm of the reduced ones, not the largest.
        let thirds = BitStream::from_rate_breaks([rt((3, 4), (0, 1)), rt((1, 6), (5, 2))]).unwrap();
        assert_eq!(shared_den(&thirds), Some(12));
        // Too wide: a denominator past `i64::MAX`, a start past machine
        // words, a numerator past `i64` over a large denominator, and two
        // word-sized denominators whose lcm is not.
        for pairs in [
            [rt((1, 1), (0, 1)), rt((1, 1 << 63), (5, 1))],
            [rt((1, 1), (0, 1)), rt((1, 4), (1 << 63, 1))],
            [rt((2, 1), (0, 1)), rt((1, MAX), (5, 1))],
            [
                rt((1, 9_223_372_036_854_775_643), (0, 1)),
                rt((1, 9_223_372_036_854_775_783), (5, 1)),
            ],
        ] {
            let wide = BitStream::from_rate_breaks(pairs).unwrap();
            assert_eq!(shared_den(&wide), None, "{wide}");
            assert_eq!(wide.resident_bytes(), 2 * 64);
            assert_eq!(
                wide.segments()
                    .iter()
                    .map(|seg| (seg.rate.as_ratio(), seg.start.as_ratio()))
                    .collect::<Vec<_>>(),
                pairs
            );
            assert_eq!(BitStream::from_segments(wide.segments()).unwrap(), wide);
        }
    }

    /// Every way of building the same values packs the same store: the
    /// numerator path reduces onto the same denominator as the `Ratio`
    /// path.
    #[test]
    fn every_build_path_packs_the_same_store() {
        let a = BitStream::from_rate_breaks([rt((1, 2), (0, 1)), rt((1, 8), (3, 1))]).unwrap();
        let b = BitStream::from_rate_breaks([rt((1, 2), (0, 1)), rt((3, 8), (3, 1))]).unwrap();
        let sum = a.multiplex(&b);
        assert_eq!(shared_den(&sum), Some(2));
        let by_ratios =
            BitStream::from_rate_breaks([rt((1, 1), (0, 1)), rt((1, 2), (3, 1))]).unwrap();
        assert_eq!(sum, by_ratios);
        assert_eq!(sum.demultiplex(&b).unwrap(), a);
        assert_eq!(shared_den(&sum.demultiplex(&a).unwrap()), Some(8));
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
