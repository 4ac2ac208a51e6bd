//! The weight abstraction shared by the path/flow algorithms, and the
//! packing that runs lexicographic searches on one `i64` key per edge.
//!
//! Phase 1's min-cost flows and the bicameral search's pass 1 compare
//! weights lexicographically: a primary component, then a secondary one
//! that breaks its ties. [`Lex2`] does that with two `i128`s and two checked
//! adds per operation. [`pack_lex_keys`] maps each edge's pair to the single
//! integer `primary·B + secondary` instead. When an up-front bound proves
//! that no value the search holds can tell the two apart, the generic
//! search runs on those keys and makes every decision the `Lex2` run makes.
//! Otherwise the caller runs the `Lex2` instantiation of the same code,
//! which stays as that fallback and as the tests' oracle.

use krsp_graph::EdgeId;
use krsp_numeric::Lex2;
use std::ops::{Add, Neg};

/// An additive, totally ordered, negatable weight.
///
/// Implemented for `i64` (plain instance weights, and the packed
/// lexicographic keys of [`pack_lex_keys`]), `i128` (the scalarized weights
/// `q·c + p·d` and `ΔC·d − ΔD·c` which can exceed `i64`), and [`Lex2`]
/// (exact lexicographic tie-breaking at any magnitude).
pub trait Weight:
    Copy + Ord + Add<Output = Self> + Neg<Output = Self> + std::fmt::Debug + Send + Sync
{
    /// The additive identity.
    const ZERO: Self;

    /// True iff strictly below [`Self::ZERO`].
    fn is_negative(self) -> bool {
        self < Self::ZERO
    }

    /// Checked addition semantics: implementations must panic on overflow
    /// rather than wrap (the default `Add` for primitives wraps only in
    /// release; we add explicitly checked impls below).
    #[must_use]
    fn add_checked(self, rhs: Self) -> Self;
}

impl Weight for i64 {
    const ZERO: Self = 0;
    fn add_checked(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("i64 weight overflow")
    }
}

impl Weight for i128 {
    const ZERO: Self = 0;
    fn add_checked(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("i128 weight overflow")
    }
}

impl Weight for Lex2 {
    const ZERO: Self = Lex2::ZERO;
    fn add_checked(self, rhs: Self) -> Self {
        self + rhs // Lex2's Add is already checked
    }
}

/// Packs the lexicographic weight of each of the `m` edges `0..m` into
/// `keys[e] = primary·B + secondary`, for a search in which every value it
/// holds is a signed sum of at most `terms` edge weights, counted with
/// multiplicity. Returns `false`, leaving `keys` unspecified, when that
/// bound does not prove the packing exact in `i64`; the caller then runs
/// its search on `weight` itself.
///
/// "Held" covers every operand and result of an addition or negation and
/// every operand of a comparison: distances, potentials, partial sums and
/// the zero a sign test compares against. Each search proves its own
/// `terms`: the min-cost flow in [`crate::mcf::flow_terms`], and
/// Bellman–Ford in [`crate::bellman_ford::walk_terms`].
///
/// **Why the packed run is the `Lex2` run.** Let `P` and `S` be the largest
/// `|primary|` and `|secondary|` over the edges. A held value `x` sums at
/// most `terms` of them, so `|x.primary| ≤ terms·P` and
/// `|x.secondary| ≤ terms·S`. Take `B = 2·terms·S + 1` and
/// `φ(x) = x.primary·B + x.secondary`.
///
/// * `φ` is additive, `φ(x + y) = φ(x) + φ(y)` and `φ(−x) = −φ(x)`, so the
///   packed run holds `φ(x)` wherever the `Lex2` run holds `x`, as long as
///   both take the same branches.
/// * `φ` preserves order between held values. If `x.primary < y.primary`,
///   then `φ(y) − φ(x) ≥ B − |y.secondary − x.secondary| ≥ B − 2·terms·S
///   = 1`. If the primaries are equal, `φ(y) − φ(x)` is the secondaries'
///   difference. So every comparison, sign test and heap order comes out
///   the same, and by induction over the run's steps both runs take the
///   same branches.
/// * `|φ(x)| ≤ terms·P·B + terms·S`. The keys are packed only when that
///   is at most `i64::MAX`, so no `i64` addition overflows.
///
/// The packed run therefore returns what the `Lex2` run returns: the same
/// flow, the same cycle, the same predecessors, with each distance mapped
/// by `φ`.
pub fn pack_lex_keys(
    m: usize,
    weight: impl Fn(EdgeId) -> Lex2,
    terms: u64,
    keys: &mut Vec<i64>,
) -> bool {
    let ids = (0..m).map(|i| EdgeId(i as u32));
    let (p, s) = ids.clone().map(&weight).fold((0u128, 0u128), |(p, s), w| {
        (
            p.max(w.primary.unsigned_abs()),
            s.max(w.secondary.unsigned_abs()),
        )
    });
    // Any search holds each edge's own weight, so at least one term.
    let terms = u128::from(terms.max(1));
    let base = terms.checked_mul(s).and_then(|s_bound| {
        let base = s_bound.checked_mul(2)?.checked_add(1)?;
        let held = terms
            .checked_mul(p)?
            .checked_mul(base)?
            .checked_add(s_bound)?;
        (held <= i64::MAX as u128).then_some(base as i64)
    });
    let Some(base) = base else {
        return false;
    };
    // Each key is at most P·B + S ≤ i64::MAX in magnitude.
    keys.clear();
    keys.extend(ids.map(|e| {
        let w = weight(e);
        w.primary as i64 * base + w.secondary as i64
    }));
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_sign() {
        assert_eq!(<i64 as Weight>::ZERO, 0);
        assert!(Weight::is_negative(-1i64));
        assert!(!Weight::is_negative(0i64));
        assert!(Weight::is_negative(Lex2::new(0, -1)));
    }

    #[test]
    fn checked_add() {
        assert_eq!(5i64.add_checked(7), 12);
        assert_eq!(
            Lex2::new(1, 2).add_checked(Lex2::new(3, 4)),
            Lex2::new(4, 6)
        );
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let _ = i64::MAX.add_checked(1);
    }

    #[test]
    fn packs_with_base_twice_the_secondary_reach() {
        let w = [Lex2::new(3, -2), Lex2::new(-1, 5), Lex2::new(0, 0)];
        let mut keys = Vec::new();
        assert!(pack_lex_keys(3, |e| w[e.index()], 4, &mut keys));
        // S = 5 and terms = 4: B = 2·4·5 + 1 = 41.
        assert_eq!(keys, vec![3 * 41 - 2, -41 + 5, 0]);
    }

    #[test]
    fn refuses_when_a_held_value_could_pass_i64() {
        // Costs near 2⁴⁰ summed over a million terms overflow i64 once
        // shifted past the secondary's reach.
        let w = [Lex2::new(1 << 40, 7), Lex2::new(3, 1 << 20)];
        let mut keys = Vec::new();
        assert!(!pack_lex_keys(2, |e| w[e.index()], 1 << 20, &mut keys));
        assert!(pack_lex_keys(2, |e| w[e.index()], 1, &mut keys));
        // Components past i64 refuse at any reach.
        let huge = [Lex2::new(i128::from(i64::MAX) + 1, 0)];
        assert!(!pack_lex_keys(1, |e| huge[e.index()], 1, &mut keys));
    }

    proptest::proptest! {
        /// Sums of at most `terms` keys compare exactly as the `Lex2` sums
        /// they pack.
        #[test]
        fn prop_packed_sums_order_like_lex2(
            w in proptest::collection::vec((-50i128..50, -9i128..9), 1..8),
            picks in proptest::collection::vec((0usize..8, 0usize..8, 0u8..2), 1..6),
        ) {
            let lex: Vec<Lex2> = w.iter().map(|&(p, s)| Lex2::new(p, s)).collect();
            let terms = picks.len() as u64;
            let mut keys = Vec::new();
            proptest::prop_assert!(pack_lex_keys(lex.len(), |e| lex[e.index()], terms, &mut keys));
            let (mut a, mut b) = (Lex2::ZERO, Lex2::ZERO);
            let (mut ka, mut kb) = (0i64, 0i64);
            for &(i, j, neg) in &picks {
                let (i, j) = (i % lex.len(), j % lex.len());
                a += lex[i];
                ka += keys[i];
                let (lj, kj) = if neg == 1 { (-lex[j], -keys[j]) } else { (lex[j], keys[j]) };
                b += lj;
                kb += kj;
            }
            proptest::prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
            proptest::prop_assert_eq!(a.cmp(&Lex2::ZERO), ka.cmp(&0));
        }
    }
}
