//! The [`Ratio`] type: a reduced fraction over `i128`.

use core::cmp::Ordering;
use core::hash::{Hash, Hasher};

/// Error produced by fallible [`Ratio`] constructors and operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RatioError {
    /// The denominator was zero.
    ZeroDenominator,
    /// An intermediate value exceeded the `i128` range.
    Overflow,
    /// Division by a zero-valued ratio.
    DivisionByZero,
    /// A string could not be parsed as a ratio.
    Parse,
}

impl core::fmt::Display for RatioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RatioError::ZeroDenominator => write!(f, "zero denominator"),
            RatioError::Overflow => write!(f, "arithmetic overflow in rational operation"),
            RatioError::DivisionByZero => write!(f, "division by zero-valued ratio"),
            RatioError::Parse => write!(f, "invalid rational literal"),
        }
    }
}

impl std::error::Error for RatioError {}

/// An exact rational number: a reduced fraction `num / den` with
/// `den > 0` and `gcd(|num|, den) == 1`.
///
/// `Ratio` is the numeric workhorse of the CAC algebra: stream rates
/// (cells per cell time, normalized to link bandwidth) and times
/// (cell times) are all `Ratio` values.
///
/// # Examples
///
/// ```
/// use rtcac_rational::Ratio;
///
/// let r = Ratio::new(6, 4)?;
/// assert_eq!(r.numer(), 3);
/// assert_eq!(r.denom(), 2);
/// assert_eq!(r.to_f64(), 1.5);
/// # Ok::<(), rtcac_rational::RatioError>(())
/// ```
#[derive(Clone, Copy)]
pub struct Ratio {
    num: i128,
    den: i128,
}

/// A [`Ratio`] whose reduced numerator and denominator both fit `i64`:
/// the 16-byte storage form of a value, half the size of a `Ratio`.
///
/// Only [`Ratio::to_narrow`] makes one, so its fields are always a
/// reduced fraction with a positive denominator, and converting back
/// with [`From`] needs no GCD. Field equality is value equality, and
/// the order is the values' order.
///
/// ```
/// use rtcac_rational::{ratio, Ratio};
///
/// let word = ratio(3, 4).to_narrow().ok_or("wide")?;
/// assert_eq!(Ratio::from(word), ratio(3, 4));
/// assert!(word < ratio(4, 5).to_narrow().ok_or("wide")?);
/// assert_eq!(ratio(1, 1 << 63).to_narrow(), None);
/// # Ok::<(), &str>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NarrowRatio {
    num: i64,
    den: i64,
}

impl Ord for NarrowRatio {
    /// Compares values by their cross products, which fit `i128`
    /// unchecked for word-sized components.
    #[inline]
    fn cmp(&self, other: &NarrowRatio) -> Ordering {
        let lhs = i128::from(self.num) * i128::from(other.den);
        lhs.cmp(&(i128::from(other.num) * i128::from(self.den)))
    }
}

impl PartialOrd for NarrowRatio {
    #[inline]
    fn partial_cmp(&self, other: &NarrowRatio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<NarrowRatio> for Ratio {
    #[inline]
    fn from(word: NarrowRatio) -> Ratio {
        Ratio {
            num: i128::from(word.num),
            den: i128::from(word.den),
        }
    }
}

// Narrow and wide arithmetic.
//
// Every operation below has two bodies. The *wide* one is plain `i128`
// code: Euclid's loop, checked products, `None` on overflow. The
// *narrow* one runs when every component of every operand fits 64 bits
// — the only case the admission workloads produce — and works in
// machine words: binary GCD, hardware `u64` division, and `i128`
// products of 64-bit factors, which cannot overflow. Which body runs is
// decided by operand width alone, and because a reduced fraction with a
// positive denominator is unique, both return the same `(num, den)`
// pair; the `differential` test module checks exactly that.

/// Euclid's algorithm on non-negative `i128`s (a software remainder
/// per step).
fn gcd_wide(mut a: i128, mut b: i128) -> i128 {
    debug_assert!(a >= 0 && b >= 0);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Binary (Stein) GCD: shifts and subtractions only.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `(num, den)` as machine words when both fit `i64` — the width at
/// which every product on the narrow paths fits `i128` unchecked:
/// `|num| <= 2^63` and `0 < den < 2^63`.
#[inline]
fn narrow(r: Ratio) -> Option<(i64, i64)> {
    match (i64::try_from(r.num), i64::try_from(r.den)) {
        (Ok(num), Ok(den)) => Some((num, den)),
        _ => None,
    }
}

/// `num/den` in lowest terms, `den != 0`.
fn new_narrow(num: i64, den: i64) -> Ratio {
    let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
    let g = gcd_u64(n, d);
    let n = i128::from(n / g);
    Ratio {
        num: if (num < 0) ^ (den < 0) { -n } else { n },
        den: i128::from(d / g),
    }
}

/// `a/b + c/d` for reduced word-sized operands. Never overflows: both
/// cross products are below `2^126`.
fn add_narrow((a, b): (i64, i64), (c, d): (i64, i64)) -> Ratio {
    let g = gcd_u64(b.unsigned_abs(), d.unsigned_abs()) as i64;
    let (b_g, d_g) = (b / g, d / g);
    let t = i128::from(a) * i128::from(d_g) + i128::from(c) * i128::from(b_g);
    // With b = g·b', d = g·d' and both operands reduced, t is coprime
    // to b' and to d', so gcd(t, g·b'·d') = gcd(t, g): the result is
    // reduced by one more word-sized GCD (Knuth, TAOCP 4.5.1).
    if g == 1 {
        return Ratio {
            num: t,
            den: i128::from(b) * i128::from(d),
        };
    }
    let (t_abs, g_u) = (t.unsigned_abs(), g.unsigned_abs());
    let rem = match u64::try_from(t_abs) {
        Ok(t) => t % g_u,
        Err(_) => (t_abs % u128::from(g_u)) as u64,
    };
    let g2 = gcd_u64(rem, g_u) as i64;
    let num = match i64::try_from(t) {
        Ok(t) => i128::from(t / g2),
        Err(_) => t / i128::from(g2),
    };
    Ratio {
        num,
        den: i128::from(b_g) * i128::from(d / g2),
    }
}

/// `a/b · c/d` for reduced word-sized operands. Cross-reducing two
/// reduced fractions leaves a reduced product, so no final GCD.
fn mul_narrow((a, b): (i64, i64), (c, d): (i64, i64)) -> Ratio {
    let g1 = gcd_u64(a.unsigned_abs(), d.unsigned_abs()) as i64;
    let g2 = gcd_u64(c.unsigned_abs(), b.unsigned_abs()) as i64;
    Ratio {
        num: i128::from(a / g1) * i128::from(c / g2),
        den: i128::from(b / g2) * i128::from(d / g1),
    }
}

impl Ratio {
    /// The value `0`.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The value `1`.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };
    /// The value `2`.
    pub const TWO: Ratio = Ratio { num: 2, den: 1 };

    /// Creates a reduced ratio `num / den`.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::ZeroDenominator`] if `den == 0`, and
    /// [`RatioError::Overflow`] if `num` or `den` is `i128::MIN`
    /// (whose absolute value is unrepresentable).
    ///
    /// ```
    /// use rtcac_rational::Ratio;
    /// assert_eq!(Ratio::new(-4, -8)?, Ratio::new(1, 2)?);
    /// assert!(Ratio::new(1, 0).is_err());
    /// # Ok::<(), rtcac_rational::RatioError>(())
    /// ```
    pub fn new(num: i128, den: i128) -> Result<Ratio, RatioError> {
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(num), Ok(den)) if den != 0 => Ok(new_narrow(num, den)),
            _ => Ratio::new_wide(num, den),
        }
    }

    fn new_wide(num: i128, den: i128) -> Result<Ratio, RatioError> {
        if den == 0 {
            return Err(RatioError::ZeroDenominator);
        }
        if num == i128::MIN || den == i128::MIN {
            return Err(RatioError::Overflow);
        }
        let sign = if (num < 0) ^ (den < 0) { -1 } else { 1 };
        let (num, den) = (num.abs(), den.abs());
        let g = gcd_wide(num, den);
        Ok(Ratio {
            num: sign * (num / g),
            den: den / g,
        })
    }

    /// The value in machine words, if both reduced components fit
    /// `i64` — the same width test that picks the word-sized arithmetic.
    #[inline]
    pub fn to_narrow(self) -> Option<NarrowRatio> {
        narrow(self).map(|(num, den)| NarrowRatio { num, den })
    }

    /// Creates a ratio from an integer value.
    ///
    /// ```
    /// use rtcac_rational::Ratio;
    /// assert_eq!(Ratio::from_integer(7).to_f64(), 7.0);
    /// ```
    pub const fn from_integer(value: i128) -> Ratio {
        Ratio { num: value, den: 1 }
    }

    /// The reduced numerator (carries the sign).
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// The reduced denominator (always positive).
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// Whether the value is exactly zero.
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether the value is strictly positive.
    pub const fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Whether the value is strictly negative.
    pub const fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Whether the value is an integer (denominator 1).
    pub const fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Absolute value.
    ///
    /// ```
    /// use rtcac_rational::ratio;
    /// assert_eq!(ratio(-3, 4).abs(), ratio(3, 4));
    /// ```
    pub fn abs(self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::DivisionByZero`] if the value is zero.
    pub fn recip(self) -> Result<Ratio, RatioError> {
        if self.num == 0 {
            return Err(RatioError::DivisionByZero);
        }
        Ok(Ratio {
            num: self.num.signum() * self.den,
            den: self.num.abs(),
        })
    }

    /// Largest integer `<= self`.
    ///
    /// ```
    /// use rtcac_rational::ratio;
    /// assert_eq!(ratio(7, 2).floor(), 3);
    /// assert_eq!(ratio(-7, 2).floor(), -4);
    /// ```
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    ///
    /// ```
    /// use rtcac_rational::ratio;
    /// assert_eq!(ratio(7, 2).ceil(), 4);
    /// assert_eq!(ratio(-7, 2).ceil(), -3);
    /// ```
    pub fn ceil(self) -> i128 {
        -(-self.num).div_euclid(self.den)
    }

    /// Converts to `f64` (inexact; for reporting and plotting only).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Creates the closest exact ratio to an `f64` with denominator
    /// bounded by `max_den` using continued-fraction expansion.
    ///
    /// Intended for configuration entry points (e.g. "0.35 load");
    /// internal computation never round-trips through floats.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::Parse`] if `value` is not finite or
    /// `max_den == 0`.
    ///
    /// ```
    /// use rtcac_rational::{ratio, Ratio};
    /// assert_eq!(Ratio::approx_f64(0.25, 1_000)?, ratio(1, 4));
    /// assert_eq!(Ratio::approx_f64(1.0 / 3.0, 1_000)?, ratio(1, 3));
    /// # Ok::<(), rtcac_rational::RatioError>(())
    /// ```
    pub fn approx_f64(value: f64, max_den: i128) -> Result<Ratio, RatioError> {
        if !value.is_finite() || max_den <= 0 {
            return Err(RatioError::Parse);
        }
        let negative = value < 0.0;
        let mut x = value.abs();
        // Continued fraction convergents h/k.
        let (mut h0, mut k0, mut h1, mut k1) = (0i128, 1i128, 1i128, 0i128);
        for _ in 0..64 {
            let a = x.floor();
            if a > i128::MAX as f64 {
                return Err(RatioError::Overflow);
            }
            let a = a as i128;
            let h2 = match a.checked_mul(h1).and_then(|v| v.checked_add(h0)) {
                Some(v) => v,
                None => break,
            };
            let k2 = match a.checked_mul(k1).and_then(|v| v.checked_add(k0)) {
                Some(v) => v,
                None => break,
            };
            if k2 > max_den {
                break;
            }
            h0 = h1;
            k0 = k1;
            h1 = h2;
            k1 = k2;
            let frac = x - a as f64;
            if frac < 1e-15 {
                break;
            }
            x = 1.0 / frac;
        }
        if k1 == 0 {
            return Err(RatioError::Parse);
        }
        Ratio::new(if negative { -h1 } else { h1 }, k1)
    }

    /// Checked addition.
    ///
    /// Returns `None` on `i128` overflow.
    pub fn checked_add(self, rhs: Ratio) -> Option<Ratio> {
        match (narrow(self), narrow(rhs)) {
            (Some(lhs), Some(rhs)) => Some(add_narrow(lhs, rhs)),
            _ => self.checked_add_wide(rhs),
        }
    }

    fn checked_add_wide(self, rhs: Ratio) -> Option<Ratio> {
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b/g*d) with g = gcd(b, d).
        let g = gcd_wide(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Ratio::new_wide(num, den).ok()
    }

    /// The additive inverse. Total: [`Ratio::new`] never admits
    /// `i128::MIN` as a numerator.
    pub(crate) const fn negated(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }

    /// Checked subtraction.
    ///
    /// Returns `None` on `i128` overflow.
    pub fn checked_sub(self, rhs: Ratio) -> Option<Ratio> {
        self.checked_add(rhs.negated())
    }

    /// Checked multiplication.
    ///
    /// Returns `None` on `i128` overflow.
    pub fn checked_mul(self, rhs: Ratio) -> Option<Ratio> {
        match (narrow(self), narrow(rhs)) {
            (Some(lhs), Some(rhs)) => Some(mul_narrow(lhs, rhs)),
            _ => self.checked_mul_wide(rhs),
        }
    }

    fn checked_mul_wide(self, rhs: Ratio) -> Option<Ratio> {
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd_wide(self.num.abs(), rhs.den);
        let g2 = gcd_wide(rhs.num.abs(), self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Ratio::new_wide(num, den).ok()
    }

    /// Checked division.
    ///
    /// Returns `None` on overflow or if `rhs` is zero.
    pub fn checked_div(self, rhs: Ratio) -> Option<Ratio> {
        self.checked_mul(rhs.recip().ok()?)
    }

    /// Returns the smaller of two ratios.
    #[inline]
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two ratios.
    #[inline]
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamps the value into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Ratio, hi: Ratio) -> Ratio {
        assert!(lo <= hi, "Ratio::clamp: lo > hi");
        self.max(lo).min(hi)
    }

    /// Exact comparison that never overflows, using continued-fraction
    /// style descent when the cross products exceed `i128`.
    #[inline]
    fn cmp_exact(&self, other: &Ratio) -> Ordering {
        // Fast path: checked cross-multiplication.
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => self.cmp_descent(other),
        }
    }

    /// [`Ratio::cmp_exact`] where a cross product leaves `i128`.
    fn cmp_descent(&self, other: &Ratio) -> Ordering {
        // Compare signs, then integer parts, then recurse on the
        // reciprocal of the fractional parts (Stern–Brocot descent).
        match (self.num.signum(), other.num.signum()) {
            (a, b) if a != b => return a.cmp(&b),
            (-1, -1) => {
                return Ratio {
                    num: -other.num,
                    den: other.den,
                }
                .cmp_exact(&Ratio {
                    num: -self.num,
                    den: self.den,
                })
            }
            _ => {}
        }
        let (q1, r1) = (self.num / self.den, self.num % self.den);
        let (q2, r2) = (other.num / other.den, other.num % other.den);
        if q1 != q2 {
            return q1.cmp(&q2);
        }
        match (r1 == 0, r2 == 0) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => {
                // self - q = r1/den1, other - q = r2/den2; comparing
                // r1/d1 vs r2/d2 is the reverse of d1/r1 vs d2/r2.
                Ratio {
                    num: other.den,
                    den: r2,
                }
                .cmp_exact(&Ratio {
                    num: self.den,
                    den: r1,
                })
            }
        }
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl PartialEq for Ratio {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Both are reduced with positive denominators, so field equality
        // is value equality.
        self.num == other.num && self.den == other.den
    }
}

impl Eq for Ratio {}

impl PartialOrd for Ratio {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_exact(other)
    }
}

impl Hash for Ratio {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl From<i128> for Ratio {
    fn from(value: i128) -> Self {
        Ratio::from_integer(value)
    }
}

impl From<i64> for Ratio {
    fn from(value: i64) -> Self {
        Ratio::from_integer(value as i128)
    }
}

impl From<u64> for Ratio {
    fn from(value: u64) -> Self {
        Ratio::from_integer(value as i128)
    }
}

impl From<u32> for Ratio {
    fn from(value: u32) -> Self {
        Ratio::from_integer(value as i128)
    }
}

impl From<i32> for Ratio {
    fn from(value: i32) -> Self {
        Ratio::from_integer(value as i128)
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio;

    #[test]
    fn new_reduces() {
        let r = Ratio::new(6, 8).unwrap();
        assert_eq!((r.numer(), r.denom()), (3, 4));
    }

    #[test]
    fn new_normalizes_sign() {
        assert_eq!(Ratio::new(1, -2).unwrap(), Ratio::new(-1, 2).unwrap());
        assert_eq!(Ratio::new(-1, -2).unwrap(), Ratio::new(1, 2).unwrap());
        assert!(Ratio::new(-1, 2).unwrap().is_negative());
    }

    #[test]
    fn new_rejects_zero_denominator() {
        assert_eq!(Ratio::new(1, 0), Err(RatioError::ZeroDenominator));
    }

    #[test]
    fn new_rejects_i128_min() {
        assert_eq!(Ratio::new(i128::MIN, 1), Err(RatioError::Overflow));
        assert_eq!(Ratio::new(1, i128::MIN), Err(RatioError::Overflow));
    }

    #[test]
    fn zero_one_constants() {
        assert!(Ratio::ZERO.is_zero());
        assert!(Ratio::ONE.is_integer());
        assert_eq!(Ratio::ONE.numer(), 1);
        assert_eq!(Ratio::TWO, Ratio::from_integer(2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(ratio(5, 2).floor(), 2);
        assert_eq!(ratio(5, 2).ceil(), 3);
        assert_eq!(ratio(-5, 2).floor(), -3);
        assert_eq!(ratio(-5, 2).ceil(), -2);
        assert_eq!(ratio(4, 2).floor(), 2);
        assert_eq!(ratio(4, 2).ceil(), 2);
    }

    #[test]
    fn recip() {
        assert_eq!(ratio(3, 4).recip().unwrap(), ratio(4, 3));
        assert_eq!(ratio(-3, 4).recip().unwrap(), ratio(-4, 3));
        assert_eq!(Ratio::ZERO.recip(), Err(RatioError::DivisionByZero));
    }

    #[test]
    fn ordering_basic() {
        assert!(ratio(1, 3) < ratio(1, 2));
        assert!(ratio(-1, 2) < ratio(1, 3));
        assert!(ratio(2, 4) == ratio(1, 2));
        assert!(ratio(7, 3) > ratio(2, 1));
    }

    #[test]
    fn ordering_huge_values_no_overflow() {
        // Cross products overflow i128; exact descent must still work.
        let big = i128::MAX / 2;
        let a = Ratio::new(big, big - 1).unwrap();
        let b = Ratio::new(big - 1, big - 2).unwrap();
        // (x)/(x-1) is decreasing in x, so a < b.
        assert!(a < b);
        assert!(b > a);
        let na = Ratio::new(-big, big - 1).unwrap();
        let nb = Ratio::new(-(big - 1), big - 2).unwrap();
        assert!(na > nb);
    }

    #[test]
    fn min_max_clamp() {
        assert_eq!(ratio(1, 2).min(ratio(1, 3)), ratio(1, 3));
        assert_eq!(ratio(1, 2).max(ratio(1, 3)), ratio(1, 2));
        assert_eq!(ratio(5, 1).clamp(Ratio::ZERO, Ratio::ONE), Ratio::ONE);
        assert_eq!(ratio(-5, 1).clamp(Ratio::ZERO, Ratio::ONE), Ratio::ZERO);
    }

    #[test]
    fn approx_f64_simple() {
        assert_eq!(Ratio::approx_f64(0.5, 100).unwrap(), ratio(1, 2));
        assert_eq!(Ratio::approx_f64(0.75, 100).unwrap(), ratio(3, 4));
        assert_eq!(Ratio::approx_f64(-0.2, 100).unwrap(), ratio(-1, 5));
        assert_eq!(Ratio::approx_f64(3.0, 100).unwrap(), ratio(3, 1));
    }

    #[test]
    fn approx_f64_rejects_non_finite() {
        assert!(Ratio::approx_f64(f64::NAN, 100).is_err());
        assert!(Ratio::approx_f64(f64::INFINITY, 100).is_err());
        assert!(Ratio::approx_f64(1.0, 0).is_err());
    }

    #[test]
    fn to_f64_roundtrip() {
        assert_eq!(ratio(1, 4).to_f64(), 0.25);
        assert_eq!(ratio(-7, 2).to_f64(), -3.5);
    }

    #[test]
    fn checked_ops_overflow_detected() {
        let big = Ratio::from_integer(i128::MAX / 2);
        assert!(big.checked_mul(big).is_none());
        assert!(big.checked_add(big).is_some()); // fits: i128::MAX - 1
        let max = Ratio::from_integer(i128::MAX);
        assert!(max.checked_add(Ratio::ONE).is_none());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Ratio::default(), Ratio::ZERO);
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Ratio::from(5i64), ratio(5, 1));
        assert_eq!(Ratio::from(5u32), ratio(5, 1));
        assert_eq!(Ratio::from(-5i32), ratio(-5, 1));
    }

    #[test]
    fn ratio_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Ratio>();
    }
}
