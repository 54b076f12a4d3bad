//! Operator implementations for [`Ratio`].
//!
//! All operators are checked and panic on `i128` overflow; use the
//! `checked_*` inherent methods for fallible arithmetic.

use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::Ratio;

impl Add for Ratio {
    type Output = Ratio;

    /// # Panics
    ///
    /// Panics on `i128` overflow.
    fn add(self, rhs: Ratio) -> Ratio {
        self.checked_add(rhs).expect("Ratio addition overflow")
    }
}

impl Sub for Ratio {
    type Output = Ratio;

    /// # Panics
    ///
    /// Panics on `i128` overflow.
    fn sub(self, rhs: Ratio) -> Ratio {
        self.checked_sub(rhs).expect("Ratio subtraction overflow")
    }
}

impl Mul for Ratio {
    type Output = Ratio;

    /// # Panics
    ///
    /// Panics on `i128` overflow.
    fn mul(self, rhs: Ratio) -> Ratio {
        self.checked_mul(rhs)
            .expect("Ratio multiplication overflow")
    }
}

impl Div for Ratio {
    type Output = Ratio;

    /// # Panics
    ///
    /// Panics on `i128` overflow or division by zero.
    fn div(self, rhs: Ratio) -> Ratio {
        self.checked_div(rhs)
            .expect("Ratio division overflow or division by zero")
    }
}

impl Neg for Ratio {
    type Output = Ratio;

    fn neg(self) -> Ratio {
        self.negated()
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, rhs: Ratio) {
        *self = *self - rhs;
    }
}

impl MulAssign for Ratio {
    fn mul_assign(&mut self, rhs: Ratio) {
        *self = *self * rhs;
    }
}

impl DivAssign for Ratio {
    fn div_assign(&mut self, rhs: Ratio) {
        *self = *self / rhs;
    }
}

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::{ratio, Ratio};

    #[test]
    fn add_sub() {
        assert_eq!(ratio(1, 2) + ratio(1, 3), ratio(5, 6));
        assert_eq!(ratio(1, 2) - ratio(1, 3), ratio(1, 6));
        assert_eq!(ratio(1, 2) - ratio(1, 2), Ratio::ZERO);
    }

    #[test]
    fn mul_div() {
        assert_eq!(ratio(2, 3) * ratio(3, 4), ratio(1, 2));
        assert_eq!(ratio(1, 2) / ratio(1, 4), ratio(2, 1));
    }

    #[test]
    fn neg() {
        assert_eq!(-ratio(1, 2), ratio(-1, 2));
        assert_eq!(-Ratio::ZERO, Ratio::ZERO);
    }

    #[test]
    fn assign_ops() {
        let mut r = ratio(1, 2);
        r += ratio(1, 2);
        assert_eq!(r, Ratio::ONE);
        r -= ratio(1, 4);
        assert_eq!(r, ratio(3, 4));
        r *= ratio(4, 3);
        assert_eq!(r, Ratio::ONE);
        r /= ratio(1, 2);
        assert_eq!(r, Ratio::TWO);
    }

    #[test]
    fn sum_iterator() {
        let parts = [ratio(1, 4); 4];
        let total: Ratio = parts.iter().sum();
        assert_eq!(total, Ratio::ONE);
        let owned: Ratio = parts.into_iter().sum();
        assert_eq!(owned, Ratio::ONE);
        let empty: Ratio = core::iter::empty::<Ratio>().sum();
        assert_eq!(empty, Ratio::ZERO);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Ratio::ONE / Ratio::ZERO;
    }

    #[test]
    fn large_chain_stays_reduced() {
        // A long alternating sum that would drift under f64 stays exact.
        let mut acc = Ratio::ZERO;
        for k in 1..=200i128 {
            let term = ratio(1, k);
            acc += term;
            acc -= term;
        }
        assert_eq!(acc, Ratio::ZERO);
    }
}
