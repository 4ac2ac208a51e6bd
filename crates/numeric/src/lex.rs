//! Lexicographic two-component weights.
//!
//! The parametric (Lagrangian) phase-1 backend needs, at a multiplier value
//! `λ = p/q`, the minimum-delay flow among all flows minimizing the
//! scalarized weight `q·c + p·d`; the bicameral search needs negative
//! cycles under `w = ΔC·d − ΔD·c` refined by `d`. Instead of floats and
//! fragile tie-breaking, both compare `(primary, secondary)` pairs exactly,
//! lexicographically. [`Lex2`] is that pair at any magnitude, with checked
//! `i128` arithmetic. The hot searches run on one packed `i64` key per edge
//! wherever a bound proves that exact (`krsp_flow::weight::pack_lex_keys`).
//! `Lex2` is their fallback where it does not, the weight of the layered
//! passes, and the oracle the packed runs are tested against.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// A pair `(primary, secondary)` compared and added lexicographically
/// (component-wise addition, lexicographic ordering).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Lex2 {
    /// Primary component — dominates comparisons.
    pub primary: i128,
    /// Secondary component — breaks ties.
    pub secondary: i128,
}

impl Lex2 {
    /// The additive identity.
    pub const ZERO: Lex2 = Lex2 {
        primary: 0,
        secondary: 0,
    };

    /// Builds a weight from its two components.
    #[must_use]
    pub const fn new(primary: i128, secondary: i128) -> Self {
        Lex2 { primary, secondary }
    }

    /// True iff strictly less than zero (lexicographically).
    #[must_use]
    pub fn is_negative(self) -> bool {
        self < Lex2::ZERO
    }
}

impl Add for Lex2 {
    type Output = Lex2;
    fn add(self, rhs: Lex2) -> Lex2 {
        Lex2 {
            primary: self
                .primary
                .checked_add(rhs.primary)
                .expect("Lex2 add overflow"),
            secondary: self
                .secondary
                .checked_add(rhs.secondary)
                .expect("Lex2 add overflow"),
        }
    }
}

impl Sub for Lex2 {
    type Output = Lex2;
    fn sub(self, rhs: Lex2) -> Lex2 {
        self + (-rhs)
    }
}

impl Neg for Lex2 {
    type Output = Lex2;
    fn neg(self) -> Lex2 {
        Lex2 {
            primary: -self.primary,
            secondary: -self.secondary,
        }
    }
}

impl AddAssign for Lex2 {
    fn add_assign(&mut self, rhs: Lex2) {
        *self = *self + rhs;
    }
}

impl SubAssign for Lex2 {
    fn sub_assign(&mut self, rhs: Lex2) {
        *self = *self - rhs;
    }
}

impl PartialOrd for Lex2 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Lex2 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.primary
            .cmp(&other.primary)
            .then(self.secondary.cmp(&other.secondary))
    }
}

impl fmt::Debug for Lex2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.primary, self.secondary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Lex2::new(1, 100) < Lex2::new(2, 0));
        assert!(Lex2::new(1, 1) < Lex2::new(1, 2));
        assert!(Lex2::new(-1, 100) < Lex2::ZERO);
        assert!(!Lex2::new(0, 0).is_negative());
        assert!(Lex2::new(0, -1).is_negative());
    }

    #[test]
    fn arithmetic() {
        let a = Lex2::new(1, 2);
        let b = Lex2::new(3, -5);
        assert_eq!(a + b, Lex2::new(4, -3));
        assert_eq!(a - b, Lex2::new(-2, 7));
        assert_eq!(-(a - b), b - a);
    }

    proptest! {
        #[test]
        fn prop_add_is_componentwise(
            a in (-1000i128..1000, -1000i128..1000),
            b in (-1000i128..1000, -1000i128..1000),
        ) {
            let x = Lex2::new(a.0, a.1);
            let y = Lex2::new(b.0, b.1);
            prop_assert_eq!(x + y, Lex2::new(a.0 + b.0, a.1 + b.1));
        }

        #[test]
        fn prop_total_order_consistent(
            a in (-10i128..10, -10i128..10),
            b in (-10i128..10, -10i128..10),
        ) {
            let x = Lex2::new(a.0, a.1);
            let y = Lex2::new(b.0, b.1);
            // Exactly one of <, ==, > holds and matches tuple ordering.
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        }
    }
}
