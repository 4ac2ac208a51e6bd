//! Warm-start differential suite: `solve_degraded_seeded` with a
//! previous-epoch seed ≡ guarantees ≡ the cold ladder (DESIGN.md §4.17).
//!
//! A warm solve on epoch `e+1`, seeded with epoch `e`'s solution edge
//! set, generally returns a *different* path than the cold solve on
//! `e+1` — the certificate accept keeps a still-certified seed, and the
//! bisection resume walks a narrower bracket — so the differential
//! asserts guarantees, not bit-identity:
//!
//! * same feasibility verdict as the cold ladder on the new epoch,
//! * `delay ≤ D` under the new weights,
//! * `cost ≤ 2·cost_cold` (sound because `cost_warm ≤ 2·⌈C_LP⌉ ≤ 2·OPT ≤
//!   2·cost_cold` — the warm path only accepts a seed within twice the
//!   bound a concluding floor probe certifies),
//! * the same advertised guarantee whenever both land on the same rung.
//!
//! Bit-identity is asserted exactly where it is owed: when the seed did
//! not participate (`warm == false` — rejected, stale, or phase-1 was
//! already feasible), the answer must equal the cold solve byte for
//! byte. And like the kernels (`tests/kernel_diff.rs`), warm answers
//! must be solver-width-invariant at widths 1 / 2 / 8.

use krsp_service::{solve_degraded_seeded, solve_degraded_with, KernelLadder, LadderPolicy};
use krsp_suite::krsp::{self, CancelToken, Config, Instance};
use krsp_suite::krsp_gen::{self, Family, Regime, Workload};
use krsp_suite::krsp_graph::{DiGraph, NodeId};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const FAMILIES: [Family; 4] = [
    Family::Gnm,
    Family::Grid,
    Family::Layered,
    Family::Geometric,
];

/// The 6-node k = 2 tradeoff shape shared with `tests/chaos.rs`. At
/// `d = 22` the phase-1 rounding is delay-infeasible (four probes run),
/// so a certified seed genuinely short-circuits work — the bound where
/// `warm` is observable rather than vacuous.
fn tradeoff(d_bound: i64) -> Instance {
    let g = DiGraph::from_edges(
        6,
        &[
            (0, 1, 1, 10),
            (1, 5, 1, 10),
            (0, 2, 8, 1),
            (2, 5, 8, 1),
            (0, 3, 2, 6),
            (3, 5, 2, 6),
            (0, 4, 9, 2),
            (4, 5, 9, 2),
        ],
    );
    Instance::new(g, NodeId(0), NodeId(5), 2, d_bound).expect("tradeoff instance is well-formed")
}

/// Applies a non-decreasing cost ramp to `inst`, producing the
/// next-epoch instance exactly the way the service's epoch advance does.
fn next_epoch(inst: &Instance, ramp_edges: usize, seed: u64) -> Instance {
    let changes = krsp_gen::cost_ramp(&inst.graph, ramp_edges, 5, 4, seed);
    let graph = krsp_gen::apply_changes(&inst.graph, &changes);
    Instance::new(graph, inst.s, inst.t, inst.k, inst.delay_bound)
        .expect("a cost-only ramp preserves instance validity")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Epoch `e` cold solve → seed → epoch `e+1` warm solve, against the
    /// epoch `e+1` cold solve, over generated feasible workloads with a
    /// random cost ramp in between.
    #[test]
    fn warm_solve_on_next_epoch_meets_cold_guarantees(
        fam_ix in 0usize..FAMILIES.len(),
        k in 1usize..4,
        seed in 0u64..100_000,
        ramp_edges in 1usize..5,
    ) {
        let w = Workload {
            family: FAMILIES[fam_ix],
            n: 20,
            m: 80,
            regime: Regime::Anticorrelated,
            k,
            tightness: 0.5,
            seed,
        };
        // Infeasible draws are the generator's problem, not this suite's.
        let Some(inst0) = krsp_gen::instantiate_with_retries(w, 50) else {
            return Ok(());
        };
        let inst1 = next_epoch(&inst0, ramp_edges, seed ^ 0xabcd);

        let cfg = Config::default();
        let policy = LadderPolicy::default();
        let kernels = KernelLadder::default();
        let budget = Duration::from_secs(30);
        let never = CancelToken::never();

        let cold0 = solve_degraded_with(&inst0, &cfg, budget, &policy, &kernels, &never)
            .expect("the generator certified epoch 0 feasible");
        let seed_set = cold0.solution.edges.clone();

        let cold1 = solve_degraded_with(&inst1, &cfg, budget, &policy, &kernels, &never);
        let warm1 = solve_degraded_seeded(
            &inst1, &cfg, budget, &policy, &kernels, &never, Some(&seed_set),
        );
        prop_assert_eq!(
            warm1.is_ok(), cold1.is_ok(),
            "feasibility must not depend on the seed (seed {} ramp {})",
            seed, ramp_edges
        );
        let (Ok(warm), Ok(cold)) = (warm1, cold1) else { return Ok(()) };

        prop_assert!(
            warm.solution.delay <= inst1.delay_bound,
            "warm answer violates the delay bound: {} > {}",
            warm.solution.delay, inst1.delay_bound
        );
        prop_assert!(
            i128::from(warm.solution.cost) <= 2 * i128::from(cold.solution.cost),
            "warm cost {} > 2·cold cost {} (seed {} ramp {})",
            warm.solution.cost, cold.solution.cost, seed, ramp_edges
        );
        if warm.rung == cold.rung {
            prop_assert_eq!(
                warm.guarantee, cold.guarantee,
                "same rung must advertise the same guarantee"
            );
        }
        if !warm.warm {
            // The seed did not participate: the answer must be the cold
            // ladder's, bit for bit.
            prop_assert_eq!(
                (warm.solution.cost, warm.solution.delay, warm.rung, warm.kernel),
                (cold.solution.cost, cold.solution.delay, cold.rung, cold.kernel),
                "an unused seed must leave the answer untouched"
            );
        }
    }
}

/// Serializes tests that reprogram the process-wide solver width,
/// restoring the default resolution on drop (same discipline as
/// `tests/kernel_diff.rs`; the copy stays private on purpose).
struct WidthGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl WidthGuard {
    fn lock() -> Self {
        static WIDTH_LOCK: Mutex<()> = Mutex::new(());
        WidthGuard(WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for WidthGuard {
    fn drop(&mut self) {
        krsp::set_solver_width(0);
    }
}

/// Widths 1 / 2 / 8: a warm solve's `(cost, delay, rung, kernel, warm)`
/// tuple must not depend on the cycle-search pool width — the seed
/// verification and certificate accept are sequential arithmetic, and
/// the bisection resume inherits the bicameral search's width
/// invariance.
#[test]
fn warm_answers_are_width_invariant() {
    let _guard = WidthGuard::lock();
    let cfg = Config::default();
    let policy = LadderPolicy::default();
    let kernels = KernelLadder::default();
    let budget = Duration::from_secs(30);
    let never = CancelToken::never();

    let inst0 = tradeoff(22);
    let cold0 = solve_degraded_with(&inst0, &cfg, budget, &policy, &kernels, &never)
        .expect("tradeoff(22) is feasible");
    let seed_set = cold0.solution.edges.clone();
    let inst1 = next_epoch(&inst0, 1, 7);

    let mut seen = None;
    for width in [1usize, 2, 8] {
        krsp::set_solver_width(width);
        let warm = solve_degraded_seeded(
            &inst1,
            &cfg,
            budget,
            &policy,
            &kernels,
            &never,
            Some(&seed_set),
        )
        .expect("ramped tradeoff stays feasible");
        assert!(warm.solution.delay <= inst1.delay_bound);
        let tuple = (
            warm.solution.cost,
            warm.solution.delay,
            warm.rung,
            warm.kernel,
            warm.warm,
        );
        match &seen {
            None => seen = Some(tuple),
            Some(first) => assert_eq!(*first, tuple, "warm answer drifted at width {width}"),
        }
    }
}

/// A seed that is its own instance's certified answer must take the warm
/// fast path (`warm == true`) and reproduce the cold cost exactly —
/// the certificate accept is what turns an epoch advance into saved
/// probes instead of a full re-solve.
#[test]
fn certified_seed_short_circuits_at_the_probing_bound() {
    let cfg = Config::default();
    let policy = LadderPolicy::default();
    let kernels = KernelLadder::default();
    let budget = Duration::from_secs(30);
    let never = CancelToken::never();

    let inst = tradeoff(22);
    let cold = solve_degraded_with(&inst, &cfg, budget, &policy, &kernels, &never)
        .expect("tradeoff(22) is feasible");
    let warm = solve_degraded_seeded(
        &inst,
        &cfg,
        budget,
        &policy,
        &kernels,
        &never,
        Some(&cold.solution.edges.clone()),
    )
    .expect("seeded re-solve is feasible");
    assert!(
        warm.warm,
        "a certified self-seed at the probing bound must register as warm"
    );
    assert_eq!(warm.solution.cost, cold.solution.cost);
    assert_eq!(warm.solution.delay, cold.solution.delay);
    assert_eq!(warm.guarantee, cold.guarantee);
}
