//! Randomized property tests for the bit-stream algebra.
//!
//! These check the mathematical laws the paper's CAC bookkeeping relies
//! on: multiplexing is a commutative monoid, demultiplexing inverts it,
//! filtering is an idempotent contraction, delaying only inflates
//! envelopes, and the delay bound is monotone and conservative.
//!
//! The registry is offline, so instead of proptest these run seeded
//! loops over a local SplitMix64 generator. Each test salts the seed
//! `RTCAC_TEST_SEED` (0 if unset) with its own number, and a failing
//! test names the seed that replays it.

use rtcac_bitstream::{BitStream, Cells, Rate, Segment, Time, TrafficContract, VbrParams};
use rtcac_rational::{ratio, Ratio};

const CASES: u64 = 96;

struct Rng {
    state: u64,
    seed: u64,
}

impl Rng {
    /// The generator for the test salted `salt`.
    fn salted(salt: u64) -> Rng {
        let seed = match std::env::var("RTCAC_TEST_SEED") {
            Ok(s) => s
                .parse()
                .unwrap_or_else(|_| panic!("RTCAC_TEST_SEED={s:?} is not a u64")),
            Err(_) => 0,
        };
        Rng {
            state: seed ^ salt,
            seed,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        let span = (hi - lo + 1) as u128;
        lo + (u128::from(self.next()) % span) as i128
    }
}

impl Drop for Rng {
    /// A test's generator lives as long as the test, so a failing one
    /// names the seed as it unwinds.
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("RTCAC_TEST_SEED={}", self.seed);
        }
    }
}

/// An arbitrary valid bit stream with small rational breakpoints (rates
/// non-increasing, possibly exceeding the link rate to model
/// aggregates).
fn arb_stream(rng: &mut Rng) -> BitStream {
    let n_drops = rng.range(1, 5) as usize;
    let n_gaps = rng.range(0, 4) as usize;
    let drops: Vec<(i128, i128)> = (0..n_drops)
        .map(|_| (rng.range(1, 8), rng.range(1, 4)))
        .collect();
    let gaps: Vec<(i128, i128)> = (0..n_gaps)
        .map(|_| (rng.range(1, 12), rng.range(1, 3)))
        .collect();
    let base = rng.range(0, 3);

    // Rates: partial sums of drops from the top, descending.
    let mut rates: Vec<Ratio> = Vec::new();
    let mut acc = ratio(base, 1);
    for &(n, d) in drops.iter().rev() {
        acc += ratio(n, d * 4);
        rates.push(acc);
    }
    rates.reverse(); // now non-increasing
    let mut t = ratio(0, 1);
    let mut pairs = Vec::new();
    for (i, r) in rates.iter().enumerate() {
        pairs.push((*r, t));
        if let Some(&(n, d)) = gaps.get(i) {
            t += ratio(n, d);
        } else {
            t += ratio(2, 1);
        }
    }
    BitStream::from_rate_breaks(pairs).expect("constructed valid")
}

/// A link-feasible stream (peak <= 1), like a real source.
fn arb_source(rng: &mut Rng) -> BitStream {
    let p = rng.range(1, 16);
    let s = rng.range(1, 16);
    let mbs = rng.range(1, 32) as u64;
    let pcr = ratio(1, p);
    let scr = ratio(1, s.max(p)); // scr <= pcr
    TrafficContract::vbr(VbrParams::new(Rate::new(pcr), Rate::new(scr), mbs).expect("valid"))
        .worst_case_stream()
}

/// [`arb_stream`]'s shape, often with components past 64 bits: every
/// breakpoint after the first pushed `2^62`–`2^66` cell times later, or
/// the peak rate of a stream with more than one segment raised by as
/// much (a third of the draws stay as they are). The huge values are
/// integers and a huge rate lasts a few cell times at most, so the
/// algebra on them stays far inside `i128`.
fn arb_wide_stream(rng: &mut Rng) -> BitStream {
    let base = arb_stream(rng);
    let big = ratio((1 << rng.range(62, 66)) + rng.range(0, 1 << 20), 1);
    let mode = rng.range(0, 2).min(base.segment_count() as i128);
    let widen = |k: usize, seg: Segment| match (mode, k) {
        (1, 1..) => Segment::new(seg.rate, Time::new(seg.start.as_ratio() + big)),
        (2, 0) => Segment::new(Rate::new(seg.rate.as_ratio() + big), seg.start),
        _ => seg,
    };
    BitStream::from_segments(
        base.segments()
            .iter()
            .enumerate()
            .map(|(k, seg)| widen(k, seg)),
    )
    .expect("widening keeps a bit stream")
}

/// Whether a value fits the 64-bit word form.
fn fits_words(r: Ratio) -> bool {
    i64::try_from(r.numer()).is_ok() && i64::try_from(r.denom()).is_ok()
}

/// Checks the storage form of `s` against its values: 32-byte words
/// exactly when every rate and start fits, a 64-byte [`Segment`] per
/// segment otherwise, and a round trip through the segment view.
/// Returns whether `s` is stored wide.
fn assert_storage(s: &BitStream) -> bool {
    let words = s
        .segments()
        .iter()
        .all(|seg| fits_words(seg.rate.as_ratio()) && fits_words(seg.start.as_ratio()));
    for seg in s.segments() {
        let r = seg.rate.as_ratio();
        assert_eq!(r.to_narrow().map(Ratio::from), fits_words(r).then_some(r));
    }
    let per_segment = if words { 32 } else { 64 };
    assert_eq!(s.resident_bytes(), s.segment_count() * per_segment, "{s}");
    assert_eq!(BitStream::from_segments(s.segments()).as_ref(), Ok(s));
    !words
}

fn sample_times() -> Vec<Time> {
    (0..60).map(|k| Time::new(ratio(k, 3))).collect()
}

#[test]
fn multiplex_commutative_associative_with_zero_identity() {
    let mut rng = Rng::salted(101);
    for _ in 0..CASES {
        let (a, b, c) = (
            arb_stream(&mut rng),
            arb_stream(&mut rng),
            arb_stream(&mut rng),
        );
        assert_eq!(a.multiplex(&b), b.multiplex(&a));
        assert_eq!(a.multiplex(&b).multiplex(&c), a.multiplex(&b.multiplex(&c)));
        assert_eq!(a.multiplex(&BitStream::zero()), a);
    }
}

#[test]
fn multiplex_cumulative_additive() {
    let mut rng = Rng::salted(102);
    for _ in 0..CASES {
        let (a, b) = (arb_stream(&mut rng), arb_stream(&mut rng));
        let s = a.multiplex(&b);
        for t in sample_times() {
            assert_eq!(s.cumulative(t), a.cumulative(t) + b.cumulative(t));
        }
    }
}

#[test]
fn one_pass_sums_equal_pairwise_chains() {
    // The k-way merges behind `multiplex_all` and `multiplex_filtered`
    // against chains of two-way multiplexes (Algorithm 3.2) of the same
    // streams, filtered one by one (Algorithm 3.4) for the latter.
    let mut rng = Rng::salted(118);
    for _ in 0..CASES {
        let n = rng.range(0, 6);
        let parts: Vec<BitStream> = (0..n).map(|_| arb_stream(&mut rng)).collect();
        let chain = |f: fn(&BitStream) -> BitStream| {
            parts
                .iter()
                .fold(BitStream::zero(), |acc, s| acc.multiplex(&f(s)))
        };
        let all = BitStream::multiplex_all(&parts);
        assert_eq!(all, chain(BitStream::clone));
        // A stored aggregate is counted by its buffer, as long as the
        // chain leaves it.
        assert_eq!(
            all.resident_bytes(),
            chain(BitStream::clone).resident_bytes()
        );
        assert_eq!(
            BitStream::multiplex_filtered(&parts),
            chain(BitStream::filter)
        );
    }
}

#[test]
fn demultiplex_inverts_multiplex() {
    let mut rng = Rng::salted(103);
    for _ in 0..CASES {
        let (a, b) = (arb_stream(&mut rng), arb_stream(&mut rng));
        let sum = a.multiplex(&b);
        assert_eq!(sum.demultiplex(&b).unwrap(), a.clone());
        assert_eq!(sum.demultiplex(&a).unwrap(), b);
    }
}

#[test]
fn filter_never_exceeds_capacity_or_input() {
    let mut rng = Rng::salted(104);
    for _ in 0..CASES {
        let a = arb_stream(&mut rng);
        let f = a.filter();
        assert!(f.peak_rate() <= Rate::FULL);
        for t in sample_times() {
            assert!(f.cumulative(t) <= a.cumulative(t));
            assert!(f.cumulative(t) <= Cells::new(t.as_ratio()));
        }
    }
}

#[test]
fn filter_idempotent() {
    let mut rng = Rng::salted(105);
    for _ in 0..CASES {
        let once = arb_stream(&mut rng).filter();
        assert_eq!(once.filter(), once);
    }
}

#[test]
fn filter_envelope_is_exact_min() {
    // filter(S) must equal min(t, R(t)) pointwise, not merely bound it.
    let mut rng = Rng::salted(106);
    for _ in 0..CASES {
        let a = arb_stream(&mut rng);
        let f = a.filter();
        for t in sample_times() {
            let expect = a.cumulative(t).min(Cells::new(t.as_ratio()));
            assert_eq!(f.cumulative(t), expect);
        }
    }
}

#[test]
fn filter_long_run_rate_is_min_with_capacity() {
    // Stable inputs keep their long-run rate; overloaded inputs
    // saturate at the link rate forever.
    let mut rng = Rng::salted(107);
    for _ in 0..CASES {
        let a = arb_stream(&mut rng);
        let expect = a.long_run_rate().min(Rate::FULL);
        assert_eq!(a.filter().long_run_rate(), expect);
    }
}

#[test]
fn coarsen_dominates_with_bounded_denominators() {
    let mut rng = Rng::salted(108);
    for _ in 0..CASES {
        let a = arb_stream(&mut rng);
        let grid = rng.range(1, 128);
        let c = a.coarsen(grid).unwrap();
        assert!(c.dominates(&a));
        for seg in c.segments() {
            assert!(seg.rate.as_ratio().denom() <= grid);
            assert!(seg.start.as_ratio().denom() <= grid);
        }
        // Long-run rate inflates by at most one grid step.
        assert!(c.long_run_rate().as_ratio() - a.long_run_rate().as_ratio() <= ratio(1, grid));
    }
}

#[test]
fn delay_envelope_is_exact_min() {
    let mut rng = Rng::salted(109);
    for _ in 0..CASES {
        let a = arb_source(&mut rng);
        let cdv = Time::from_integer(rng.range(0, 40));
        let d = a.delay(cdv);
        for t in sample_times() {
            let expect = a.cumulative(t + cdv).min(Cells::new(t.as_ratio()));
            assert_eq!(d.cumulative(t), expect, "at t = {t}");
        }
    }
}

#[test]
fn delay_monotone_in_cdv() {
    let mut rng = Rng::salted(110);
    for _ in 0..CASES {
        let a = arb_source(&mut rng);
        let (c1, c2) = (rng.range(0, 20), rng.range(0, 20));
        let (lo, hi) = (c1.min(c2), c1.max(c2));
        let dl = a.delay(Time::from_integer(lo));
        let dh = a.delay(Time::from_integer(hi));
        for t in sample_times() {
            assert!(dh.cumulative(t) >= dl.cumulative(t));
        }
    }
}

#[test]
fn delay_additive_composition() {
    // delay(c1) then delay(c2) equals delay(c1 + c2) exactly:
    // min(t, min(t + c2, R(t + c1 + c2))) = min(t, R(t + c1 + c2)).
    let mut rng = Rng::salted(111);
    for _ in 0..CASES {
        let a = arb_source(&mut rng);
        let (c1, c2) = (rng.range(1, 15), rng.range(1, 15));
        let split = a
            .delay(Time::from_integer(c1))
            .delay(Time::from_integer(c2));
        let joint = a.delay(Time::from_integer(c1 + c2));
        assert_eq!(split, joint);
    }
}

#[test]
fn delay_bound_conservative_vs_backlog() {
    // At top priority the delay bound equals the max backlog.
    let mut rng = Rng::salted(112);
    for _ in 0..CASES {
        let a = arb_stream(&mut rng);
        match (
            a.delay_bound(&BitStream::zero()),
            a.backlog_bound(Rate::FULL),
        ) {
            (Ok(d), Some(b)) => assert_eq!(d.as_ratio(), b.as_ratio()),
            (Err(_), None) => {} // both agree: overload
            (d, b) => panic!("disagree: {d:?} vs {b:?}"),
        }
    }
}

#[test]
fn delay_bound_monotone_in_interference() {
    let mut rng = Rng::salted(113);
    for _ in 0..CASES {
        let a = arb_source(&mut rng);
        let h = arb_source(&mut rng);
        let agg = BitStream::multiplex_all([&a, &a, &a]);
        let none = agg.delay_bound(&BitStream::zero());
        let some = agg.delay_bound(&h.filter());
        if let (Ok(d0), Ok(d1)) = (none, some) {
            assert!(d1 >= d0);
        }
    }
}

#[test]
fn delay_bound_superadditive_under_mux() {
    // Adding traffic never shrinks the bound.
    let mut rng = Rng::salted(114);
    for _ in 0..CASES {
        let a = arb_source(&mut rng);
        let b = arb_source(&mut rng);
        let big = a.multiplex(&b);
        let small = a;
        if let (Ok(ds), Ok(db)) = (
            small.delay_bound(&BitStream::zero()),
            big.delay_bound(&BitStream::zero()),
        ) {
            assert!(db >= ds);
        }
    }
}

#[test]
fn source_streams_are_link_feasible() {
    let mut rng = Rng::salted(115);
    for _ in 0..CASES {
        let s = arb_source(&mut rng);
        assert!(s.peak_rate() <= Rate::FULL);
        assert_eq!(s.delay_bound(&BitStream::zero()).unwrap(), Time::ZERO);
    }
}

#[test]
fn scale_matches_repeated_multiplex() {
    let mut rng = Rng::salted(116);
    for _ in 0..CASES {
        let s = arb_source(&mut rng);
        let n = rng.range(1, 8) as usize;
        let muxed = BitStream::multiplex_all(std::iter::repeat_n(&s, n));
        let scaled = s.scale(ratio(n as i128, 1)).unwrap();
        assert_eq!(muxed, scaled);
    }
}

/// Brute-force cross-check of Algorithm 4.1 on random streams: the
/// analytic horizontal deviation must match a fine-grid scan within
/// one grid step (the scan rounds its inverse upward).
#[test]
fn delay_bound_matches_brute_force_scan() {
    let mut rng = Rng::salted(117);
    for _ in 0..40 {
        let arrival = arb_stream(&mut rng);
        let interference = arb_source(&mut rng).filter();
        let Ok(analytic) = arrival.delay_bound(&interference) else {
            continue; // overloaded: nothing to compare
        };
        // Fine-grid scan of D(t) = C^{-1}(A(t)) - t. Past both streams'
        // last breakpoints D is linear with slope rho_A / (1 - rho_I) - 1,
        // which is not positive when a bound exists, so D peaks at or
        // before the later last breakpoint: scan t over [0, 120] and on to
        // one cell past that breakpoint.
        let last_start = |s: &BitStream| s.segments().last().map_or(Time::ZERO, |seg| seg.start);
        let horizon = Time::from_integer(120)
            .max(last_start(&arrival).max(last_start(&interference)) + Time::from_integer(1));
        let step = ratio(1, 8);
        let mut best = Time::ZERO;
        let mut g = Time::ZERO;
        for k in 0.. {
            let t = Time::new(ratio(k, 8));
            if t >= horizon {
                break;
            }
            let a = arrival.cumulative(t);
            // Advance g until C(g) >= a (C and A are non-decreasing, so
            // g only moves forward).
            loop {
                let c = Cells::new(g.as_ratio()) - interference.cumulative(g);
                if c >= a {
                    break;
                }
                g = Time::new(g.as_ratio() + step);
            }
            if g - t > best {
                best = g - t;
            }
        }
        let slack = Time::new(ratio(1, 4));
        assert!(
            analytic >= best - slack,
            "analytic {analytic} far below scan {best} for {arrival} / {interference}"
        );
        assert!(
            best >= analytic - slack,
            "scan {best} far below analytic {analytic} for {arrival} / {interference}"
        );
    }
}

/// The algebra's laws on both storage forms: streams with components
/// past 64 bits (stored as 64-byte segments) beside word-sized ones,
/// with every result checked for the form its values call for.
#[test]
fn both_storage_forms_keep_the_algebra() {
    assert_eq!(std::mem::size_of::<Segment>(), 64);
    let mut rng = Rng::salted(118);
    let mut wide = 0;
    for _ in 0..CASES {
        let (a, b, c) = (
            arb_wide_stream(&mut rng),
            arb_wide_stream(&mut rng),
            arb_wide_stream(&mut rng),
        );
        for s in [&a, &b, &c] {
            wide += usize::from(assert_storage(s));
        }
        let ab = a.multiplex(&b);
        assert_storage(&ab);
        assert_eq!(ab, b.multiplex(&a));
        assert_eq!(ab.multiplex(&c), a.multiplex(&b.multiplex(&c)));
        assert_eq!(BitStream::multiplex_all([&a, &b, &c]), ab.multiplex(&c));
        assert_eq!(a.multiplex(&BitStream::zero()), a);
        assert_eq!(ab.demultiplex(&b).as_ref(), Ok(&a));
        let horizon = a.stabilization_time().max(b.stabilization_time());
        for t in sample_times().into_iter().chain([horizon]) {
            assert_eq!(ab.cumulative(t), a.cumulative(t) + b.cumulative(t));
        }

        let f = a.filter();
        assert_storage(&f);
        assert!(f.peak_rate() <= Rate::FULL);
        assert_eq!(f.filter(), f);
        assert!(a.dominates(&f));
        assert_eq!(
            BitStream::multiplex_filtered([&a, &b]),
            f.multiplex(&b.filter())
        );

        // Jitter clumps at the link rate, so it inflates a link-feasible
        // stream such as `f`.
        let d = f.delay(Time::from_integer(rng.range(1, 20)));
        assert_storage(&d);
        assert!(d.dominates(&f));

        match (
            a.delay_bound(&BitStream::zero()),
            a.backlog_bound(Rate::FULL),
        ) {
            (Ok(d), Some(b)) => assert_eq!(d.as_ratio(), b.as_ratio()),
            (Err(_), None) => {}
            (d, b) => panic!("disagree: {d:?} vs {b:?}"),
        }
        let c16 = c.coarsen(16).expect("positive grid");
        assert_storage(&c16);
        assert!(c16.dominates(&c));
    }
    // Both forms, each in a good share of the draws.
    let drawn = 3 * CASES as usize;
    assert!(
        wide > drawn / 4 && wide < drawn * 3 / 4,
        "{wide} of {drawn} wide"
    );
}
