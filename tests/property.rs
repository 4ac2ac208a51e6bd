//! Repository-level property tests: the paper's structural invariants on
//! randomly generated instances, exercised through the public API.

use krsp_suite::krsp::phase1::{self, Phase1, Phase1Backend};
use krsp_suite::krsp::{baselines, exact, solve, Config, Instance};
use krsp_suite::krsp_graph::{DiGraph, NodeId};
use proptest::prelude::*;

/// Random small instances with guaranteed 2-connectivity between the
/// terminals (two vertex-disjoint backbones are wired in explicitly).
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0u32..8, 0u32..8, 1i64..12, 1i64..12), 0..14),
        1i64..60,
        proptest::sample::select(vec![1usize, 2]),
    )
        .prop_map(|(extra, d, k)| {
            let mut edges = vec![
                // Backbone A: 0→1→7, backbone B: 0→2→7 (distinct middles).
                (0, 1, 3, 6),
                (1, 7, 3, 6),
                (0, 2, 6, 3),
                (2, 7, 6, 3),
            ];
            edges.extend(extra.into_iter().filter(|&(u, v, _, _)| u != v));
            let g = DiGraph::from_edges(8, &edges);
            Instance::new(g, NodeId(0), NodeId(7), k, d).unwrap()
        })
}

/// Random small instances whose edges, backbones included, may cost
/// nothing or take no time: zero-weight ties, zero-cost cycles and
/// `C_LP = 0` all occur. The delay budget is drawn between the min-delay
/// and the min-cost flow's delay (10% past either end), so most instances
/// need the Newton search for the breakpoint and some are infeasible.
fn arb_instance_with_zeros() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0i64..6, 0i64..6), 4..5),
        proptest::collection::vec((0u32..8, 0u32..8, 0i64..8, 0i64..8), 0..16),
        -10i64..111,
        proptest::sample::select(vec![1usize, 2]),
    )
        .prop_map(|(backbone, extra, pct, k)| {
            // Backbones 0→1→7 and 0→2→7, with random weights.
            let ends = [(0, 1), (1, 7), (0, 2), (2, 7)];
            let mut edges: Vec<_> = ends
                .iter()
                .zip(&backbone)
                .map(|(&(u, v), &(c, dl))| (u, v, c, dl))
                .collect();
            edges.extend(extra.into_iter().filter(|&(u, v, _, _)| u != v));
            let g = DiGraph::from_edges(8, &edges);
            let (s, t) = (NodeId(0), NodeId(7));
            let probe = Instance::new(g.clone(), s, t, k, 0).unwrap();
            let fastest = baselines::min_delay(&probe).expect("backbones carry k paths");
            let cheapest = baselines::min_sum(&probe).expect("backbones carry k paths");
            let span = cheapest.delay - fastest.delay;
            let d = (fastest.delay + span * pct / 100).max(0);
            Instance::new(g, s, t, k, d).unwrap()
        })
}

/// Lemma 5's pairing for one phase-1 result: with `α = delay/D`, the
/// rounded flow has `delay ≤ αD` (α ≤ 2) and `cost ≤ (2 − α)·C_LP`, and the
/// feasible extreme meets the budget. Exact integer arithmetic over
/// `C_LP = num/den`, `den > 0`.
fn check_lemma5(inst: &Instance, p1: &Phase1) -> Result<(), TestCaseError> {
    let (num, den) = (p1.lp_bound.num(), p1.lp_bound.den());
    let (c, d, bound) = (
        i128::from(p1.cost),
        i128::from(p1.delay),
        i128::from(inst.delay_bound),
    );
    prop_assert!(den > 0);
    prop_assert!(p1.feasible_delay <= inst.delay_bound);
    if bound == 0 {
        prop_assert_eq!(d, 0);
        prop_assert!(c * den <= 2 * num, "cost {} > 2·C_LP {}", c, p1.lp_bound);
    } else {
        prop_assert!(d <= 2 * bound, "α = {}/{} > 2", d, bound);
        prop_assert!(
            c * bound * den <= (2 * bound - d) * num,
            "cost {} > (2 − {}/{})·C_LP {}",
            c,
            d,
            bound,
            p1.lp_bound
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The two phase-1 backends agree exactly on `C_LP`, or on the error,
    /// and each meets Lemma 5. `perfbench` audits every `krsp_cold` answer
    /// against the Lagrangian backend's `C_LP`, so the simplex LP pins it.
    #[test]
    fn phase1_backends_agree_on_c_lp(inst in arb_instance_with_zeros()) {
        let lag = phase1::run(&inst, Phase1Backend::Lagrangian);
        let sx = phase1::run(&inst, Phase1Backend::Simplex);
        match (&lag, &sx) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.lp_bound, b.lp_bound);
                check_lemma5(&inst, a)?;
                check_lemma5(&inst, b)?;
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(
                false,
                "backends disagree: lagrangian {:?}, simplex {:?}",
                lag.as_ref().map(|p| p.lp_bound),
                sx.as_ref().map(|p| p.lp_bound)
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whenever the solver answers, the answer is a genuine delay-feasible
    /// k-path system within 2× of the exact optimum; whenever it declines,
    /// the instance is genuinely infeasible.
    #[test]
    fn solve_is_sound_and_2_approximate(inst in arb_instance()) {
        match solve(&inst, &Config::default()) {
            Ok(out) => {
                prop_assert!(out.solution.delay <= inst.delay_bound);
                prop_assert!(out.solution.edges.is_k_flow(
                    &inst.graph, inst.s, inst.t, inst.k));
                let opt = exact::brute_force(&inst).expect("solver said feasible");
                prop_assert!(out.solution.cost <= 2 * opt.cost,
                    "cost {} > 2·C_OPT {}", out.solution.cost, opt.cost);
                if let Some(lb) = out.solution.lower_bound {
                    // The LP bound must lower-bound the true optimum.
                    prop_assert!(lb.to_f64() <= opt.cost as f64 + 1e-9,
                        "LP bound {} above C_OPT {}", lb, opt.cost);
                }
            }
            Err(_) => {
                prop_assert!(exact::brute_force(&inst).is_none(),
                    "solver declined a feasible instance");
            }
        }
    }

    /// The exact solvers agree with each other.
    #[test]
    fn exact_solvers_agree(inst in arb_instance()) {
        let bf = exact::brute_force(&inst).map(|e| e.cost);
        let bb = exact::branch_and_bound(&inst).map(|e| e.cost);
        prop_assert_eq!(bf, bb);
    }

    /// Baselines bracket the solution: min_delay.delay ≤ solution.delay and
    /// min_sum.cost ≤ solution.cost.
    #[test]
    fn baselines_bracket(inst in arb_instance()) {
        if let Ok(out) = solve(&inst, &Config::default()) {
            if let Some(fast) = baselines::min_delay(&inst) {
                prop_assert!(fast.delay <= out.solution.delay);
            }
            if let Some(cheap) = baselines::min_sum(&inst) {
                prop_assert!(cheap.cost <= out.solution.cost);
            }
        }
    }
}
