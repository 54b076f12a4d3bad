//! Narrow path against wide path, operand by operand.
//!
//! The machine-word bodies in `ratio.rs` must be invisible: for every
//! input the public operation and the `i128` body it replaced return the
//! same `Option`/`Result` shape and the same `(numer, denom)` pair. The
//! wide bodies call only each other (`gcd_wide`, `new_wide`), so they
//! are the parent commit's arithmetic unchanged and serve as the
//! reference here.
//!
//! Seeded and std-only; `RTCAC_TEST_SEED=<u64>` replays a failure, and
//! every assertion message carries the seed.

use super::*;

/// Operand quadruples per run (the acceptance floor is 200k).
const QUADRUPLES: u64 = 240_000;

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

    /// A value of exactly `bits` significant bits (`1..=127`).
    fn bits(&mut self, bits: u32) -> i128 {
        let raw = (u128::from(self.next()) << 64) | u128::from(self.next());
        ((raw >> (128 - bits)) | (1 << (bits - 1))) as i128
    }

    fn signed(&mut self, magnitude: i128) -> i128 {
        if self.next() & 1 == 0 {
            magnitude
        } else {
            -magnitude
        }
    }
}

fn seed() -> u64 {
    const DEFAULT: u64 = 0x05EE_D0FA;
    let Ok(s) = std::env::var("RTCAC_TEST_SEED") else {
        return DEFAULT;
    };
    let parsed = s.parse();
    assert!(parsed.is_ok(), "RTCAC_TEST_SEED={s:?} is not a u64");
    parsed.unwrap_or(DEFAULT)
}

/// The edges of the narrow/wide decision and of `i128` itself.
const BOUNDARY: [i128; 16] = [
    0,
    1,
    -1,
    (1 << 63) - 1,
    -((1 << 63) - 1),
    1 << 63,
    i64::MIN as i128,
    i64::MIN as i128 - 1,
    (1 << 64) - 1,
    1 << 64,
    -(1 << 64),
    i128::MAX,
    i128::MAX - 1,
    i128::MIN + 1,
    i128::MIN,
    1 << 126,
];

#[derive(Clone, Copy)]
enum Class {
    /// The benchmark's operands: small numerators over powers of two.
    Dyadic,
    /// Any width the narrow path accepts.
    Word,
    /// The narrow/wide boundary and the `i128` limits.
    Boundary,
    /// 65–127 bits: always the wide path, often an overflow.
    Wide,
}

/// A `(num, den)` pair of the given class; `den` may be zero or
/// negative only for `Boundary`, where `new` must refuse or normalise.
fn pair(rng: &mut SplitMix64, class: Class) -> (i128, i128) {
    match class {
        Class::Dyadic => {
            let num = if rng.below(8) == 0 {
                0
            } else {
                let bits = 1 + rng.below(30) as u32;
                let magnitude = rng.bits(bits);
                rng.signed(magnitude)
            };
            (num, 1 << rng.below(28))
        }
        Class::Word => {
            let (nb, db) = (1 + rng.below(63) as u32, 1 + rng.below(63) as u32);
            let num = rng.bits(nb);
            (rng.signed(num), rng.bits(db))
        }
        Class::Boundary => (
            BOUNDARY[rng.below(16) as usize],
            BOUNDARY[rng.below(16) as usize],
        ),
        Class::Wide => {
            let (nb, db) = (65 + rng.below(63) as u32, 1 + rng.below(127) as u32);
            let num = rng.bits(nb);
            (rng.signed(num), rng.bits(db))
        }
    }
}

fn class(rng: &mut SplitMix64) -> Class {
    match rng.below(8) {
        0..=2 => Class::Dyadic,
        3..=5 => Class::Word,
        6 => Class::Boundary,
        _ => Class::Wide,
    }
}

fn fields(r: Option<Ratio>) -> Option<(i128, i128)> {
    r.map(|r| (r.numer(), r.denom()))
}

/// Lowest terms with a positive denominator — what makes field equality
/// value equality, and what both bodies must therefore produce.
fn assert_canonical(r: Option<Ratio>, what: &str) {
    if let Some(r) = r {
        assert!(r.denom() > 0, "{what}: denominator {}", r.denom());
        let g = gcd_wide(r.numer().abs(), r.denom());
        assert_eq!(g, 1, "{what}: {}/{} not reduced", r.numer(), r.denom());
    }
}

#[test]
fn narrow_paths_match_wide_paths() {
    let seed = seed();
    let mut rng = SplitMix64(seed);
    let (mut narrow_ops, mut wide_none) = (0u64, 0u64);
    for case in 0..QUADRUPLES {
        // Independent classes per operand, so narrow meets wide.
        let (ca, cb) = (class(&mut rng), class(&mut rng));
        let ((a, b), (c, d)) = (pair(&mut rng, ca), pair(&mut rng, cb));
        let ctx = format!("RTCAC_TEST_SEED={seed} case {case}: {a}/{b} ? {c}/{d}");

        let x = Ratio::new(a, b);
        assert_eq!(
            x.map(|r| (r.numer(), r.denom())),
            Ratio::new_wide(a, b).map(|r| (r.numer(), r.denom())),
            "new, {ctx}"
        );
        assert_canonical(x.ok(), &ctx);
        let (Ok(x), Ok(y)) = (x, Ratio::new(c, d)) else {
            continue;
        };
        if narrow(x).is_some() && narrow(y).is_some() {
            narrow_ops += 1;
        }

        let results = [
            ("add", x.checked_add(y), x.checked_add_wide(y)),
            ("sub", x.checked_sub(y), x.checked_add_wide(y.negated())),
            ("mul", x.checked_mul(y), x.checked_mul_wide(y)),
            (
                "div",
                x.checked_div(y),
                Ratio::new_wide(y.den, y.num)
                    .ok()
                    .and_then(|r| x.checked_mul_wide(r)),
            ),
        ];
        for (op, got, want) in results {
            assert_eq!(fields(got), fields(want), "{op}, {ctx}");
            assert_canonical(got, &ctx);
            if want.is_none() {
                wide_none += 1;
            }
        }
    }
    // The draw must exercise both sides of the width decision and the
    // overflow shape, or the equalities above say nothing.
    assert!(narrow_ops > QUADRUPLES / 4, "narrow pairs: {narrow_ops}");
    assert!(wide_none > QUADRUPLES / 100, "wide-path Nones: {wide_none}");
}

#[test]
fn binary_gcd_matches_euclid() {
    let seed = seed();
    let mut rng = SplitMix64(seed ^ 0x6CD);
    let edges = [0, 1, 2, 3, 1 << 63, u64::MAX, u64::MAX - 1, (1 << 63) - 1];
    for &a in &edges {
        for &b in &edges {
            assert_eq!(
                i128::from(gcd_u64(a, b)),
                gcd_wide(i128::from(a), i128::from(b)),
                "gcd({a}, {b})"
            );
        }
    }
    for case in 0..50_000 {
        // Shared factors of every shape: odd, even, and powers of two.
        let common = rng.next() >> rng.below(64);
        let a = (rng.next() >> rng.below(64)).wrapping_mul(common);
        let b = (rng.next() >> rng.below(64)).wrapping_mul(common);
        assert_eq!(
            i128::from(gcd_u64(a, b)),
            gcd_wide(i128::from(a), i128::from(b)),
            "RTCAC_TEST_SEED={seed} case {case}: gcd({a}, {b})"
        );
    }
}

#[test]
fn from_words_matches_new_wide() {
    let seed = seed();
    let mut rng = SplitMix64(seed ^ 0xF0_4D5);
    let edges = [
        0,
        1,
        -1,
        i64::MAX,
        i64::MIN,
        i64::MIN + 1,
        1 << 62,
        -(1 << 62),
    ];
    let dens = [1, 2, 4096, (1 << 63) - 1, 1 << 63, u64::MAX];
    let pairs = edges
        .iter()
        .flat_map(|&n| dens.iter().map(move |&d| (n, d)))
        .chain((0..50_000).map(|_| {
            let common = rng.next() >> rng.below(64);
            let num = (rng.next() >> rng.below(64)).wrapping_mul(common) as i64;
            let den = (rng.next() >> rng.below(64)).wrapping_mul(common);
            (num, den.max(1))
        }));
    for (num, den) in pairs {
        let Some(nonzero) = NonZeroU64::new(den) else {
            continue;
        };
        let got = Ratio::from_words(num, nonzero);
        let want = Ratio::new_wide(i128::from(num), i128::from(den)).ok();
        assert_eq!(
            fields(Some(got)),
            fields(want),
            "RTCAC_TEST_SEED={seed}: {num}/{den}"
        );
    }
}

#[test]
fn width_decides_the_path() {
    // The largest narrow operands: every product must still fit.
    let lo = crate::ratio(i64::MIN as i128, i64::MAX as i128);
    let hi = crate::ratio(i64::MAX as i128, i64::MAX as i128 - 1);
    assert!(narrow(lo).is_some() && narrow(hi).is_some());
    for (x, y) in [(lo, lo), (lo, hi), (hi, lo), (hi, hi)] {
        assert_eq!(fields(x.checked_add(y)), fields(x.checked_add_wide(y)));
        assert_eq!(fields(x.checked_mul(y)), fields(x.checked_mul_wide(y)));
        assert!(x.checked_add(y).is_some() && x.checked_mul(y).is_some());
    }
    // One bit more on either component is wide.
    assert!(narrow(crate::ratio(1 << 63, 1)).is_none());
    assert!(narrow(crate::ratio(1, 1 << 63)).is_none());
    assert!(narrow(crate::ratio(i64::MIN as i128 - 1, 1)).is_none());
}

/// `to_narrow` is the arithmetic's own width test, made visible: `Some`
/// exactly when the word-sized bodies would run, and a value that comes
/// back unchanged.
fn assert_word_form(r: Ratio, ctx: &str) -> Option<NarrowRatio> {
    let word = r.to_narrow();
    assert_eq!(word.is_some(), narrow(r).is_some(), "to_narrow, {ctx}");
    if let Some(word) = word {
        let back = Ratio::from(word);
        assert_eq!(fields(Some(back)), fields(Some(r)), "round trip, {ctx}");
    }
    word
}

#[test]
fn to_narrow_agrees_with_the_width_test() {
    let max = i128::from(i64::MAX);
    let min = i128::from(i64::MIN);
    // The corners of the word form, and one bit past each.
    for (num, den, fits) in [
        (min, 1, true),
        (max, 1, true),
        (min, max, true),
        (max, max - 1, true),
        (-max, max - 1, true),
        (1, 1 << 63, false),
        (-1, 1 << 63, false),
        (min, 1 << 63, true), // reduces to -1
        (min - 1, 1, false),
        (max + 1, 1, false),
        (1 << 63, 3, false),
    ] {
        let ctx = format!("{num}/{den}");
        assert_eq!(
            assert_word_form(crate::ratio(num, den), &ctx).is_some(),
            fits,
            "{ctx}"
        );
    }
    let seed = seed();
    let mut rng = SplitMix64(seed ^ 0x0057_04D5);
    let (mut words, mut wide) = (0u64, 0u64);
    let mut prev: Option<(Ratio, NarrowRatio)> = None;
    for case in 0..QUADRUPLES / 4 {
        let class = class(&mut rng);
        let (a, b) = pair(&mut rng, class);
        let Ok(r) = Ratio::new(a, b) else {
            continue;
        };
        let ctx = format!("RTCAC_TEST_SEED={seed} case {case}: {a}/{b}");
        let Some(word) = assert_word_form(r, &ctx) else {
            wide += 1;
            continue;
        };
        words += 1;
        // Words order as their values do.
        if let Some((p, p_word)) = prev {
            assert_eq!(p_word.cmp(&word), p.cmp(&r), "order vs {p}, {ctx}");
        }
        prev = Some((r, word));
    }
    assert!(words > QUADRUPLES / 16, "word-sized values: {words}");
    assert!(wide > QUADRUPLES / 100, "wide values: {wide}");
}
