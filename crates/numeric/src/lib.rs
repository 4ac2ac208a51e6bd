//! Exact arithmetic substrate for the `krsp` suite.
//!
//! Everything in the paper's analysis is stated over integers and rationals
//! (edge weights are integral; Lagrange multipliers, ratio thresholds
//! `ΔD/ΔC`, and simplex tableaux are rationals). This crate provides:
//!
//! * [`Rat`] — an exact, always-reduced rational over `i128` with
//!   overflow-checked arithmetic (panics with a descriptive message rather
//!   than silently wrapping; the magnitudes arising from the paper's
//!   algorithms on the workloads in this repository stay far below the
//!   `i128` range, and the checks make any violation loud).
//! * [`Lex2`] — a lexicographic two-component weight used to break ties
//!   exactly (primary scalarized weight, then delay), which is how the
//!   parametric phase-1 backend picks the minimum-delay optimal flow at a
//!   Lagrangian breakpoint without floats. The searches run on packed
//!   `i64` keys where that is provably exact; `Lex2` is their fallback and
//!   test oracle.
//! * [`gcd`]/[`lcm`] helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lex;
pub mod rat;

pub use lex::Lex2;
pub use rat::Rat;

/// Greatest common divisor of two non-negative `i128`s.
///
/// `gcd(0, 0) == 0` by convention.
#[must_use]
pub fn gcd(mut a: i128, mut b: i128) -> i128 {
    debug_assert!(a >= 0 && b >= 0, "gcd expects non-negative inputs");
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple; panics on overflow.
#[must_use]
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a.abs(), b.abs());
    (a / g).checked_mul(b).expect("lcm overflow").abs()
}

/// Exact integer square root: the largest `r` with `r·r ≤ n`.
///
/// Newton's method seeded from the bit length, so the iterate starts at or
/// above `√n` and decreases monotonically — no floating-point round trip,
/// which matters because `f64` has only 53 mantissa bits and misrounds
/// square roots of products like `lb·ub` near `i64::MAX²`.
#[must_use]
pub fn isqrt(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    // 2^⌈bits/2⌉ ≥ √n, the required starting point for monotone descent.
    let bits = 128 - n.leading_zeros();
    let mut x = 1u128 << bits.div_ceil(2);
    loop {
        let y = (x + n / x) / 2;
        if y >= x {
            debug_assert!(x * x <= n && (x + 1).checked_mul(x + 1).is_none_or(|s| s > n));
            return x;
        }
        x = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(100, 100), 100);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(-4, 6), 12);
        assert_eq!(lcm(7, 13), 91);
    }

    #[test]
    fn isqrt_small_values() {
        for n in 0u128..=10_000 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
    }

    #[test]
    fn isqrt_perfect_squares_and_neighbors() {
        for r in [1u128, 2, 1 << 20, 1 << 40, (1 << 63) - 1, u64::MAX as u128] {
            let sq = r * r;
            assert_eq!(isqrt(sq), r);
            assert_eq!(isqrt(sq - 1), r - 1);
            assert_eq!(isqrt(sq + 1), r);
        }
    }

    #[test]
    fn isqrt_extreme_magnitudes_where_f64_misrounds() {
        // i64::MAX² has 126 bits; f64's 53-bit mantissa rounds its square
        // root up to 2^63, one past the true floor. The exact routine must
        // not.
        let m = i64::MAX as u128;
        assert_eq!(isqrt(m * m), m);
        assert_eq!(isqrt(m * m - 1), m - 1);
        assert_eq!(isqrt(u128::MAX), (1u128 << 64) - 1);
    }

    proptest::proptest! {
        #[test]
        fn prop_isqrt_is_exact_floor(hi in 0u64..=u64::MAX, lo in 0u64..=u64::MAX) {
            let n = (u128::from(hi) << 64) | u128::from(lo);
            let r = isqrt(n);
            proptest::prop_assert!(r.checked_mul(r).is_some_and(|s| s <= n));
            proptest::prop_assert!((r + 1).checked_mul(r + 1).is_none_or(|s| s > n));
        }
    }
}
