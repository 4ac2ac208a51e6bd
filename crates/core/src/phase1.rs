//! Phase 1 — the LP-rounding `(2, 2)` algorithm of Lemma 5 (reference \[9\]).
//!
//! The underlying LP relaxes kRSP to fractional flows:
//!
//! ```text
//!   min Σ c(e)·x(e)
//!   s.t. x is an s→t flow of value k,   Σ d(e)·x(e) ≤ D,   0 ≤ x ≤ 1.
//! ```
//!
//! A basic optimal solution is a convex combination `x* = θ·f₁ + (1−θ)·f₂`
//! of two integral `k`-flows (the optimal vertex lies on an edge of the flow
//! polytope, and flow-polytope edges connect integral flows differing by one
//! cycle). Writing `a_i = d(f_i)/D` and `b_i = c(f_i)/C_LP`, convexity gives
//! `θ(a₁+b₁) + (1−θ)(a₂+b₂) ≤ 2`, so one of the two flows has
//! `a_i + b_i ≤ 2` — i.e. **delay ≤ αD and cost ≤ (2−α)·C_LP ≤ (2−α)·C_OPT**
//! for `α = a_i ∈ [0, 2]`. That is exactly Lemma 5.
//!
//! Two interchangeable backends produce the pair `(f₁, f₂)`:
//!
//! * [`Phase1Backend::Lagrangian`] — discrete Newton (Dinkelbach) on
//!   `L(λ) = min_f c(f) + λ·(d(f) − D)` with exact integer lexicographic
//!   weights; no LP tableau, no floats.
//! * [`Phase1Backend::Simplex`] — build the LP explicitly and solve it with
//!   the exact rational simplex; recover `(f₁, f₂)` from the fractional
//!   cycle of the optimal vertex.
//!
//! Both are cross-checked against each other in the test-suite.

use crate::instance::Instance;
use krsp_flow::{min_cost_k_flow_fast as min_cost_k_flow, McfFlow};
use krsp_graph::{EdgeId, EdgeSet};
use krsp_lp::{LpOutcome, Model, Rat, Relation};
use krsp_numeric::Lex2;
use serde::{Deserialize, Serialize};

/// Which engine computes the phase-1 flow pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase1Backend {
    /// Parametric min-cost flow (discrete Newton); the default.
    #[default]
    Lagrangian,
    /// Explicit LP via the exact rational simplex.
    Simplex,
}

/// Result of phase 1.
#[derive(Clone, Debug)]
pub struct Phase1 {
    /// The rounded integral solution (the better of the two extreme flows).
    pub flow: EdgeSet,
    /// Its total cost.
    pub cost: i64,
    /// Its total delay.
    pub delay: i64,
    /// The LP optimum `C_LP ≤ C_OPT` (exact rational).
    pub lp_bound: Rat,
    /// The delay-feasible extreme flow `f₁` (`d(f₁) ≤ D`).
    pub feasible_flow: EdgeSet,
    /// Cost of `f₁`.
    pub feasible_cost: i64,
    /// Delay of `f₁`.
    pub feasible_delay: i64,
    /// Lagrange multiplier at the breakpoint (0 when the min-cost flow is
    /// already delay-feasible).
    pub lambda: Rat,
}

impl Phase1 {
    /// Lemma 5's `α`: `delay/D` of the rounded solution (`None` if `D = 0`).
    #[must_use]
    pub fn alpha(&self, inst: &Instance) -> Option<Rat> {
        (inst.delay_bound != 0).then(|| Rat::new(self.delay as i128, inst.delay_bound as i128))
    }
}

/// Why phase 1 failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase1Error {
    /// Fewer than `k` edge-disjoint paths exist.
    StructurallyInfeasible,
    /// Even the fractional LP cannot meet the delay budget, hence neither
    /// can any integral solution: the kRSP instance is infeasible.
    DelayInfeasible,
}

impl std::fmt::Display for Phase1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase1Error::StructurallyInfeasible => {
                write!(f, "fewer than k edge-disjoint st-paths exist")
            }
            Phase1Error::DelayInfeasible => {
                write!(f, "no fractional k-flow meets the delay budget")
            }
        }
    }
}

impl std::error::Error for Phase1Error {}

/// Runs phase 1 with the chosen backend.
pub fn run(inst: &Instance, backend: Phase1Backend) -> Result<Phase1, Phase1Error> {
    match backend {
        Phase1Backend::Lagrangian => lagrangian(inst),
        Phase1Backend::Simplex => simplex(inst),
    }
}

fn flow_totals(inst: &Instance, edges: &EdgeSet) -> (i64, i64) {
    (
        edges.total_cost(&inst.graph),
        edges.total_delay(&inst.graph),
    )
}

/// Picks the extreme flow minimizing `a + b` (Lemma 5) and assembles the
/// result. `f_lo` must be delay-feasible.
fn assemble(
    inst: &Instance,
    f_lo: EdgeSet,
    f_hi: Option<EdgeSet>,
    lp_bound: Rat,
    lambda: Rat,
) -> Phase1 {
    let (c_lo, d_lo) = flow_totals(inst, &f_lo);
    debug_assert!(d_lo <= inst.delay_bound);
    let pick_hi = match &f_hi {
        None => false,
        Some(fh) => {
            let (c_hi, d_hi) = flow_totals(inst, fh);
            // a + b comparison with exact rationals; D or C_LP may be zero,
            // so compare D·C_LP-scaled: a_i + b_i = d_i/D + c_i/C_LP.
            // Scale by D·C_LP > 0 when both positive; guard the zero cases.
            let score = |c: i64, d: i64| -> Rat {
                let a = if inst.delay_bound == 0 {
                    if d == 0 {
                        Rat::ZERO
                    } else {
                        Rat::int(i128::MAX / 4)
                    }
                } else {
                    Rat::new(d as i128, inst.delay_bound as i128)
                };
                let b = if lp_bound.is_zero() {
                    if c == 0 {
                        Rat::ZERO
                    } else {
                        Rat::int(i128::MAX / 4)
                    }
                } else {
                    Rat::int(c as i128) / lp_bound
                };
                a + b
            };
            score(c_hi, d_hi) < score(c_lo, d_lo)
        }
    };
    let flow = if pick_hi { f_hi.unwrap() } else { f_lo.clone() };
    let (cost, delay) = flow_totals(inst, &flow);
    Phase1 {
        flow,
        cost,
        delay,
        lp_bound,
        feasible_cost: c_lo,
        feasible_delay: d_lo,
        feasible_flow: f_lo,
        lambda,
    }
}

// ---------------------------------------------------------------------------
// Lagrangian backend
// ---------------------------------------------------------------------------

/// Min-`(q·c + p·d, d)` flow — the minimum-delay flow among all flows
/// minimizing the scalarized weight at `λ = p/q`.
fn scalarized_flow(inst: &Instance, p: i128, q: i128) -> Option<McfFlow<Lex2>> {
    min_cost_k_flow(&inst.graph, inst.s, inst.t, inst.k, |e: EdgeId| {
        let r = inst.graph.edge(e);
        Lex2::new(q * r.cost as i128 + p * r.delay as i128, r.delay as i128)
    })
}

/// Same but maximizing delay among weight-optimal flows (secondary `−d`).
/// Only called with `p > 0`, where zero-weight cycles have zero delay and
/// the lexicographic weighting therefore has no negative cycles.
fn scalarized_flow_maxdelay(inst: &Instance, p: i128, q: i128) -> Option<McfFlow<Lex2>> {
    debug_assert!(p > 0);
    min_cost_k_flow(&inst.graph, inst.s, inst.t, inst.k, |e: EdgeId| {
        let r = inst.graph.edge(e);
        Lex2::new(q * r.cost as i128 + p * r.delay as i128, -(r.delay as i128))
    })
}

fn lagrangian(inst: &Instance) -> Result<Phase1, Phase1Error> {
    let d_bound = inst.delay_bound;
    // f_c: min cost, then min delay.
    let f_c = scalarized_flow(inst, 0, 1).ok_or(Phase1Error::StructurallyInfeasible)?;
    let (c_c, d_c) = flow_totals(inst, &f_c.edges);
    if d_c <= d_bound {
        // The min-cost flow is already delay-feasible: LP optimum = c_c,
        // integral, α ≤ 1, β = 1.
        return Ok(assemble(
            inst,
            f_c.edges,
            None,
            Rat::int(c_c as i128),
            Rat::ZERO,
        ));
    }
    // f_d: min delay, then min cost.
    let f_d = min_cost_k_flow(&inst.graph, inst.s, inst.t, inst.k, |e: EdgeId| {
        let r = inst.graph.edge(e);
        Lex2::new(r.delay as i128, r.cost as i128)
    })
    .expect("structural feasibility already established");
    let (c_d, d_d) = flow_totals(inst, &f_d.edges);
    if d_d > d_bound {
        return Err(Phase1Error::DelayInfeasible);
    }

    // Invariant: the `hi` point is cheap but delay-infeasible; the `lo`
    // point is feasible but pricey. (Only the (cost, delay) coordinates are
    // needed to steer the Newton iteration.)
    let (mut c_hi, mut d_hi) = (c_c, d_c);
    let (mut c_lo, mut d_lo) = (c_d, d_d);

    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(
            guard <= 4 * inst.m() * inst.m() + 64,
            "parametric Newton failed to converge"
        );
        debug_assert!(c_lo > c_hi && d_hi > d_bound && d_lo <= d_bound);
        // λ = Δc/Δd where the two lines cross.
        let p = (c_lo - c_hi) as i128;
        let q = (d_hi - d_lo) as i128;
        debug_assert!(p > 0 && q > 0);
        let w_of = |c: i64, d: i64| q * c as i128 + p * d as i128;
        let w_bracket = w_of(c_lo, d_lo);
        debug_assert_eq!(w_bracket, w_of(c_hi, d_hi));

        let f = scalarized_flow(inst, p, q).expect("feasibility established");
        let (c_f, d_f) = flow_totals(inst, &f.edges);
        let w_f = w_of(c_f, d_f);
        debug_assert!(w_f <= w_bracket);
        if w_f == w_bracket {
            // λ* = p/q is the breakpoint. `f` is the min-delay optimum
            // (d ≤ D); fetch the max-delay optimum for the other extreme.
            let f2 = scalarized_flow_maxdelay(inst, p, q).expect("feasibility established");
            let (c_2, d_2) = flow_totals(inst, &f2.edges);
            debug_assert_eq!(w_of(c_2, d_2), w_bracket);
            debug_assert!(d_f <= d_bound && d_2 >= d_bound);
            let lambda = Rat::new(p, q);
            // LP optimum: L(λ*) = c(f) + λ*(d(f) − D)
            //           = (w(f) − p·D) / q.
            let lp_bound = Rat::new(w_f - p * d_bound as i128, q);
            return Ok(assemble(inst, f.edges, Some(f2.edges), lp_bound, lambda));
        }
        // Strictly better at λ: tighten the bracket on the delay side.
        if d_f > d_bound {
            (c_hi, d_hi) = (c_f, d_f);
        } else {
            (c_lo, d_lo) = (c_f, d_f);
        }
    }
}

// ---------------------------------------------------------------------------
// Simplex backend
// ---------------------------------------------------------------------------

fn simplex(inst: &Instance) -> Result<Phase1, Phase1Error> {
    if !inst.is_structurally_feasible() {
        return Err(Phase1Error::StructurallyInfeasible);
    }
    let g = &inst.graph;
    let mut model = Model::new();
    let vars: Vec<_> = g
        .edges()
        .iter()
        .map(|e| model.add_var_bounded(Rat::int(e.cost as i128), Rat::ZERO, Some(Rat::ONE)))
        .collect();
    // Flow conservation.
    for v in g.node_iter() {
        let mut terms = Vec::new();
        for &e in g.out_edges(v) {
            terms.push((vars[e.index()], Rat::ONE));
        }
        for &e in g.in_edges(v) {
            terms.push((vars[e.index()], -Rat::ONE));
        }
        let rhs = if v == inst.s {
            Rat::int(inst.k as i128)
        } else if v == inst.t {
            -Rat::int(inst.k as i128)
        } else {
            Rat::ZERO
        };
        model.add_constraint(terms, Relation::Eq, rhs);
    }
    // Delay budget.
    model.add_constraint(
        g.edge_iter()
            .map(|(id, e)| (vars[id.index()], Rat::int(e.delay as i128)))
            .collect(),
        Relation::Le,
        Rat::int(inst.delay_bound as i128),
    );

    let sol = match krsp_lp::solve(&model) {
        LpOutcome::Optimal(s) => s,
        LpOutcome::Infeasible => return Err(Phase1Error::DelayInfeasible),
        LpOutcome::Unbounded => unreachable!("bounded 0/1 polytope"),
    };
    let lp_bound = sol.objective;

    // Split the vertex into its two integral endpoint flows.
    let m = g.edge_count();
    let ones: Vec<EdgeId> = (0..m)
        .map(|i| EdgeId(i as u32))
        .filter(|e| sol.values[e.index()] == Rat::ONE)
        .collect();
    let frac: Vec<EdgeId> = (0..m)
        .map(|i| EdgeId(i as u32))
        .filter(|e| {
            let x = sol.values[e.index()];
            x > Rat::ZERO && x < Rat::ONE
        })
        .collect();

    if frac.is_empty() {
        // Integral optimum: feasible and cost-optimal.
        let f = EdgeSet::from_edges(m, &ones);
        debug_assert!(f.is_k_flow(g, inst.s, inst.t, inst.k));
        return Ok(assemble(inst, f, None, lp_bound, Rat::ZERO));
    }

    // The fractional support is a single (undirected) cycle alternating
    // between two direction classes; flipping the classes yields the two
    // integral endpoint flows f₁/f₂ of the polytope edge containing x*.
    // Rather than orienting the cycle explicitly, observe that all
    // fractional variables take one of two values {θ, 1−θ}; the endpoint
    // flows are obtained by rounding one class up and the other down.
    let theta = sol.values[frac[0].index()];
    let class_a: Vec<EdgeId> = frac
        .iter()
        .copied()
        .filter(|e| sol.values[e.index()] == theta)
        .collect();
    let class_b: Vec<EdgeId> = frac
        .iter()
        .copied()
        .filter(|e| sol.values[e.index()] != theta)
        .collect();
    debug_assert!(class_b
        .iter()
        .all(|e| sol.values[e.index()] == Rat::ONE - theta));

    let build = |up: &[EdgeId]| -> Option<EdgeSet> {
        let mut set = EdgeSet::from_edges(m, &ones);
        for &e in up {
            set.insert(e);
        }
        set.is_k_flow(g, inst.s, inst.t, inst.k).then_some(set)
    };
    let (fa, fb) = match (build(&class_a), build(&class_b)) {
        (Some(a), Some(b)) => (a, b),
        // Degenerate vertices (θ = 1−θ = 1/2 merges the classes, or ties in
        // values across classes) can defeat the value-based split; fall back
        // to the Lagrangian pair, which computes the same polytope edge.
        _ => {
            let lag = lagrangian(inst)?;
            debug_assert_eq!(lag.lp_bound, lp_bound);
            return Ok(lag);
        }
    };
    let (_, da) = flow_totals(inst, &fa);
    // Order so that the feasible flow comes first.
    let (f_lo, f_hi) = if da <= inst.delay_bound {
        (fa, fb)
    } else {
        (fb, fa)
    };
    let (_, d_lo) = flow_totals(inst, &f_lo);
    if d_lo > inst.delay_bound {
        // Both endpoints exceed D (possible when the delay row is not tight
        // in the direction we need); fall back to the Lagrangian pairing.
        let lag = lagrangian(inst)?;
        debug_assert_eq!(lag.lp_bound, lp_bound);
        return Ok(lag);
    }
    Ok(assemble(inst, f_lo, Some(f_hi), lp_bound, Rat::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use krsp_graph::{DiGraph, NodeId};

    /// k=2 diamond with a cost/delay trade-off: cheap-slow pair and
    /// fast-pricey pair; D forces a mix.
    fn tradeoff(d_bound: i64) -> Instance {
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1, 1, 10),
                (1, 5, 1, 10), // cheap slow: cost 2, delay 20
                (0, 2, 8, 1),
                (2, 5, 8, 1), // fast pricey: cost 16, delay 2
                (0, 3, 2, 6),
                (3, 5, 2, 6), // middle: cost 4, delay 12
                (0, 4, 9, 2),
                (4, 5, 9, 2), // spare fast: cost 18, delay 4
            ],
        );
        Instance::new(g, NodeId(0), NodeId(5), 2, d_bound).unwrap()
    }

    fn check_lemma5(inst: &Instance, p1: &Phase1) {
        // delay ≤ αD and cost ≤ (2−α)·C_LP with α ∈ [0,2].
        let d = Rat::int(p1.delay as i128);
        let c = Rat::int(p1.cost as i128);
        let bound_d = Rat::int(inst.delay_bound as i128);
        if bound_d.is_zero() {
            assert_eq!(p1.delay, 0);
            assert!(c <= Rat::int(2) * p1.lp_bound);
            return;
        }
        let alpha = d / bound_d;
        assert!(alpha <= Rat::int(2), "alpha = {alpha}");
        assert!(
            c <= (Rat::int(2) - alpha) * p1.lp_bound,
            "cost {c} vs (2-{alpha})·{}",
            p1.lp_bound
        );
        // The feasible extreme must actually be feasible.
        assert!(p1.feasible_delay <= inst.delay_bound);
    }

    #[test]
    fn min_cost_already_feasible() {
        let inst = tradeoff(1000);
        let p1 = run(&inst, Phase1Backend::Lagrangian).unwrap();
        assert_eq!(p1.cost, 6); // cheap pair: 2 + 4
        assert_eq!(p1.lp_bound, Rat::int(6));
        assert_eq!(p1.lambda, Rat::ZERO);
        check_lemma5(&inst, &p1);
    }

    #[test]
    fn infeasible_budget_detected() {
        let inst = tradeoff(3); // min possible delay = 2 + 4 = 6
        assert_eq!(
            run(&inst, Phase1Backend::Lagrangian).unwrap_err(),
            Phase1Error::DelayInfeasible
        );
        assert_eq!(
            run(&inst, Phase1Backend::Simplex).unwrap_err(),
            Phase1Error::DelayInfeasible
        );
    }

    #[test]
    fn structurally_infeasible() {
        let g = DiGraph::from_edges(3, &[(0, 1, 1, 1), (1, 2, 1, 1)]);
        let inst = Instance::new(g, NodeId(0), NodeId(2), 2, 100).unwrap();
        assert_eq!(
            run(&inst, Phase1Backend::Lagrangian).unwrap_err(),
            Phase1Error::StructurallyInfeasible
        );
        assert_eq!(
            run(&inst, Phase1Backend::Simplex).unwrap_err(),
            Phase1Error::StructurallyInfeasible
        );
    }

    #[test]
    fn tight_budget_lemma5_holds_both_backends() {
        for d in [6, 8, 14, 16, 22, 24, 32] {
            let inst = tradeoff(d);
            let lag = run(&inst, Phase1Backend::Lagrangian).unwrap();
            check_lemma5(&inst, &lag);
            let sx = run(&inst, Phase1Backend::Simplex).unwrap();
            check_lemma5(&inst, &sx);
            assert_eq!(
                lag.lp_bound, sx.lp_bound,
                "backends disagree on C_LP at D={d}"
            );
        }
    }

    #[test]
    fn lp_bound_is_a_lower_bound() {
        // Exhaustively verify C_LP ≤ C_OPT on the trade-off family.
        for d in [6, 12, 20, 24] {
            let inst = tradeoff(d);
            let p1 = run(&inst, Phase1Backend::Lagrangian).unwrap();
            let opt = crate::exact::brute_force(&inst).expect("feasible");
            assert!(
                p1.lp_bound <= Rat::int(opt.cost as i128),
                "C_LP {} > C_OPT {} at D={d}",
                p1.lp_bound,
                opt.cost
            );
        }
    }
}
