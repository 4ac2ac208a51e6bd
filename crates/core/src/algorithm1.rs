//! Algorithm 1 — cycle cancellation with bicameral cycles — and the outer
//! driver that turns it into the `(1, 2)` guarantee of Lemma 3/11 without
//! knowing `C_OPT`.
//!
//! ## The `Ĉ` bisection
//!
//! Definition 10 references `C_OPT`, which the algorithm cannot know. The
//! driver bisects an estimate `Ĉ` over `[⌈C_LP⌉, UB]` (`C_LP` = phase-1 LP
//! optimum, `UB` = cost of the phase-1 delay-feasible extreme flow):
//!
//! * a probe at `Ĉ` runs Algorithm 1 with Definition-10 thresholds wired to
//!   `Ĉ` and *succeeds* if it returns a delay-feasible solution of cost at
//!   most `2·Ĉ`;
//! * every `Ĉ ≥ C_OPT` succeeds (the paper's Lemma 11/Theorem 16 arguments
//!   go through verbatim with `Ĉ ≥ C_OPT`: the existence cycle has ratio
//!   `≤ ΔD/(C_OPT − C_i) ≤ ΔD/(Ĉ − C_i)` and cost within `C_OPT ≤ Ĉ`);
//! * hence bisection terminates at some successful `Ĉ* ≤ C_OPT`, whose
//!   solution costs at most `2·Ĉ* ≤ 2·C_OPT` — the `(1, 2)` bifactor —
//!   at the price of `O(log Σc)` runs of the inner loop.
//!
//! ## The floor probe
//!
//! A bisection whose probes all succeed ends on the probe at its floor
//! `Ĉ = ⌈C_LP⌉`, and on most instances they all do. So the driver first
//! runs that probe on its own, with every cycle search cut to pass 1 of
//! the layered engine (`bicameral::find_plain_with`, the plain
//! Bellman–Ford search on the residual graph). The full search runs pass 1
//! first and returns its cycle whenever it has one, so a floor probe that
//! ends delay-feasible with cost `≤ 2·Ĉ` is exactly that last probe. It is
//! returned (or the fallback, when cheaper, as after a bisection), and its
//! bound `2·⌈C_LP⌉ ≤ 2·C_OPT` holds because `C_OPT` is an integer.
//! Otherwise — pass 1 stalls, or the cost exceeds `2·Ĉ` — the bisection
//! runs as before over the same `[⌈C_LP⌉, UB]`, one pass-1 probe later.
//! The floor probe leaves the layered passes out because where it fails,
//! the bisection pays for them again. [`Engine::LpRounding`] and
//! `single_probe` keep the plain driver.
//!
//! ## The certified reference
//!
//! The `(1, 2)` bound is `cost ≤ 2·Ĉ*` for some `Ĉ* ≤ C_OPT`, not
//! `cost ≤ 2·C_LP`: where the integrality gap is wide, an optimal answer
//! can cost more than `2·C_LP`. So every solve records the `Ĉ*` it proves
//! in [`Solved::certified`]. It is `⌈C_LP⌉` when phase 1 answers, when the
//! floor probe concludes, or when a warm seed is accepted (`C_OPT` is an
//! integer), and the bisection's final `Ĉ` otherwise, since every failed
//! probe below it proves `C_OPT` above that probe's `Ĉ`. A probe stopped
//! by the iteration guard proves nothing, and neither does `single_probe`;
//! those solves record `None`, and only `C_LP` bounds them.

use crate::bicameral::{self, BSearch, BicameralCycle, Ctx, CycleKind, Engine};
use crate::instance::Instance;
use crate::phase1::{self, Phase1, Phase1Backend, Phase1Error};
use crate::solution::Solution;
use krsp_graph::ResidualGraph;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Solver configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Config {
    /// Phase-1 backend.
    pub phase1_backend: Phase1Backend,
    /// Bicameral-cycle engine.
    pub engine: Engine,
    /// Cost-bound exploration strategy.
    pub b_search: BSearch,
    /// Enforce Definition 10's `|c(O)| ≤ Ĉ` cap (Figure-1 ablation switch).
    pub enforce_cost_cap: bool,
    /// Restrict layered bicameral searches to cyclic SCCs of the residual
    /// graph (sound — cycles never cross SCCs; ablation A4).
    pub scc_pruning: bool,
    /// Hard cap on cycle-cancellation iterations per probe.
    pub max_iterations: usize,
    /// Skip the `Ĉ` bisection and run a single probe at `Ĉ = UB`
    /// (cheaper; keeps delay feasibility but weakens the cost factor).
    pub single_probe: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            phase1_backend: Phase1Backend::Lagrangian,
            engine: Engine::Layered,
            b_search: BSearch::Doubling,
            enforce_cost_cap: true,
            scc_pruning: true,
            max_iterations: 100_000,
            single_probe: false,
        }
    }
}

/// One cycle-cancellation step, for the experiment harness.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IterationStats {
    /// Cycle classification.
    pub kind: CycleKind,
    /// `c(O)`.
    pub cycle_cost: i64,
    /// `d(O)`.
    pub cycle_delay: i64,
    /// Solution cost after applying the cycle.
    pub cost_after: i64,
    /// Solution delay after applying the cycle.
    pub delay_after: i64,
    /// Whether the plain (unlayered) pass found the cycle.
    pub fast_pass: bool,
    /// Layered bound used, when applicable.
    pub bound_used: Option<i64>,
}

/// Aggregate run statistics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Phase-1 rounded solution cost.
    pub phase1_cost: i64,
    /// Phase-1 rounded solution delay.
    pub phase1_delay: i64,
    /// `C_LP` as a float (exact value kept on the solution).
    pub lp_bound: f64,
    /// Iterations across all probes, in order.
    pub iterations: Vec<IterationStats>,
    /// Number of `Ĉ` probes run, the floor probe included.
    pub probes: usize,
    /// Total wall-clock time.
    pub wall: Duration,
    /// Whether a previous-epoch seed participated in this solve (either
    /// accepted outright on its certificate or used to tighten the
    /// bisection). Always `false` for cold solves.
    pub warm_start: bool,
}

/// A solved instance: the solution plus run statistics.
#[derive(Clone, Debug)]
pub struct Solved {
    /// The final solution (delay-feasible; cost ≤ 2·C_OPT under default
    /// configuration).
    pub solution: Solution,
    /// The `Ĉ* ≤ C_OPT` the solve proves `cost ≤ 2·Ĉ*` against, or `None`
    /// where it proves no more than `C_LP` does (module docs, "The
    /// certified reference").
    pub certified: Option<i64>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Solver failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// Fewer than `k` edge-disjoint paths exist.
    StructurallyInfeasible,
    /// No (even fractional) solution meets the delay budget.
    DelayInfeasible,
    /// The iteration guard tripped on every probe (should not happen on
    /// valid inputs; indicates `max_iterations` too small).
    IterationLimit,
    /// The scratch's [`CancelToken`](krsp_flow::CancelToken) tripped
    /// (deadline expiry or shutdown) before a certified answer was reached.
    /// Never wraps a partial path: callers degrade to a cheaper, completed
    /// method instead.
    Cancelled,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::StructurallyInfeasible => {
                write!(f, "fewer than k edge-disjoint st-paths exist")
            }
            SolveError::DelayInfeasible => write!(f, "delay budget unsatisfiable"),
            SolveError::IterationLimit => write!(f, "iteration limit exhausted"),
            SolveError::Cancelled => write!(f, "solve cancelled before completion"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<Phase1Error> for SolveError {
    fn from(e: Phase1Error) -> Self {
        match e {
            Phase1Error::StructurallyInfeasible => SolveError::StructurallyInfeasible,
            Phase1Error::DelayInfeasible => SolveError::DelayInfeasible,
        }
    }
}

/// Outcome of one `Ĉ` probe.
struct Probe {
    solution: Solution,
    iterations: Vec<IterationStats>,
}

/// Why a probe returned no solution.
enum Stall {
    /// No bicameral cycle under this `Ĉ`. A probe at `Ĉ ≥ C_OPT` never
    /// stalls (module docs), so this proves `C_OPT > Ĉ`.
    NoCycle,
    /// The iteration guard or the cancel token stopped the loop, which
    /// proves nothing about `Ĉ`.
    Stopped,
}

/// Runs Algorithm 1's cancellation loop with Definition-10 thresholds wired
/// to the estimate `c_hat`. Returns the resulting (delay-feasible) solution,
/// or why the loop stalled.
///
/// `residual` is the solve's one residual graph, left by an earlier probe
/// at any solution of the instance: it is re-targeted to the phase-1 flow
/// here, and each cancelled cycle reverses only its own edges.
///
/// With `plain_only`, every search is pass 1 of the layered engine alone
/// (`bicameral::find_plain_with`); the probe then stalls where pass 1
/// finds nothing, even if the later passes would have found a cycle.
fn probe(
    inst: &Instance,
    p1: &Phase1,
    c_hat: i64,
    cfg: &Config,
    scratch: &mut bicameral::SearchScratch,
    residual: &mut ResidualGraph,
    plain_only: bool,
) -> Result<Probe, Stall> {
    let mut edges = p1.flow.clone();
    residual.retarget(&edges);
    let mut cost = p1.cost;
    let mut delay = p1.delay;
    let mut iterations = Vec::new();
    // Lemma-12 invariant: r_i = ΔD_i/ΔC_i never decreases (checked in
    // debug builds; both numerator and denominator are tracked exactly).
    let mut last_r: Option<krsp_numeric::Rat> = None;

    while delay > inst.delay_bound {
        if iterations.len() >= cfg.max_iterations || scratch.cancel().is_cancelled() {
            return Err(Stall::Stopped);
        }
        let ctx = Ctx {
            delta_d: inst.delay_bound - delay,
            delta_c: (c_hat - cost).max(0),
            cost_cap: c_hat,
            enforce_cost_cap: cfg.enforce_cost_cap,
            scc_prune: cfg.scc_pruning,
        };
        let cyc: BicameralCycle = if plain_only {
            bicameral::find_plain_with(residual, &ctx, scratch)
        } else {
            bicameral::find_with(residual, &ctx, cfg.engine, cfg.b_search, scratch)
        }
        .ok_or(Stall::NoCycle)?;
        debug_assert!(residual.is_valid_cycle_set(&cyc.edges));
        if cfg.enforce_cost_cap && ctx.delta_c > 0 {
            let r = krsp_numeric::Rat::new(ctx.delta_d as i128, ctx.delta_c as i128);
            debug_assert!(
                last_r.is_none_or(|prev| r >= prev),
                "Lemma 12 violated: r decreased from {:?} to {r}",
                last_r
            );
            last_r = Some(r);
        }
        residual.apply(&mut edges, &cyc.edges);
        cost += cyc.cost;
        delay += cyc.delay;
        debug_assert_eq!(cost, edges.total_cost(&inst.graph));
        debug_assert_eq!(delay, edges.total_delay(&inst.graph));
        debug_assert!(edges.is_k_flow(&inst.graph, inst.s, inst.t, inst.k));
        iterations.push(IterationStats {
            kind: cyc.kind,
            cycle_cost: cyc.cost,
            cycle_delay: cyc.delay,
            cost_after: cost,
            delay_after: delay,
            fast_pass: cyc.fast_pass,
            bound_used: cyc.bound_used,
        });
    }
    let solution = Solution::from_edge_set(inst, edges).ok_or(Stall::Stopped)?;
    debug_assert!(solution.delay <= inst.delay_bound);
    Ok(Probe {
        solution,
        iterations,
    })
}

/// Full solver: phase 1, then the `Ĉ`-bisected cycle-cancellation loop.
pub fn solve(inst: &Instance, cfg: &Config) -> Result<Solved, SolveError> {
    solve_with(inst, cfg, &mut bicameral::SearchScratch::new())
}

/// [`solve`] over a caller-owned [`bicameral::SearchScratch`], so repeated
/// solves (the service degradation ladder, experiment sweeps) share the
/// cycle-search buffers.
pub fn solve_with(
    inst: &Instance,
    cfg: &Config,
    scratch: &mut bicameral::SearchScratch,
) -> Result<Solved, SolveError> {
    let start = Instant::now();
    inst.validate().map_err(|_| SolveError::DelayInfeasible)?;
    let p1 = phase1::run(inst, cfg.phase1_backend)?;

    let stats = RunStats {
        phase1_cost: p1.cost,
        phase1_delay: p1.delay,
        lp_bound: p1.lp_bound.to_f64(),
        ..RunStats::default()
    };

    // Already feasible after rounding? Done — cost ≤ 2·C_LP by Lemma 5.
    if p1.delay <= inst.delay_bound {
        let solution =
            Solution::from_edge_set(inst, p1.flow.clone()).expect("phase-1 flow is a valid k-flow");
        return Ok(finish(solution, stats, &p1, Some(ceil_lp(&p1)), start));
    }

    // Fallback feasible answer: the phase-1 feasible extreme (cost UB).
    let fallback = Solution::from_edge_set(inst, p1.feasible_flow.clone())
        .expect("feasible extreme is a valid k-flow");
    drive(inst, &p1, cfg, scratch, fallback, stats, start)
}

/// [`solve_with`] seeded with a previous topology epoch's solution.
///
/// The seed is first **re-verified against the current weights** (flow
/// decomposition, cycle stripping, fresh cost/delay — [`Solution::from_edge_set`]).
/// A seed that no longer decomposes or misses the delay budget is discarded
/// and the call degenerates to a plain [`solve_with`] — **bit-identical to a
/// cold solve**, since everything downstream is deterministic. A verified
/// seed participates two ways:
///
/// * **certificate accept** — when the seed's cost is within
///   `2·⌈C_LP⌉ ≤ 2·C_OPT` under the new weights, it already carries the
///   `(1, 2)` guarantee for the *new* epoch, so the whole `Ĉ` bisection is
///   skipped;
/// * **bisection resume** — otherwise the seed is still a feasible solution,
///   hence `cost ≥ C_OPT`, so it soundly tightens the bisection's upper
///   bound and replaces the phase-1 extreme as fallback when cheaper.
///
/// Either way the returned answer satisfies exactly the guarantees of the
/// cold path; `stats.warm_start` records whether the seed was used.
pub fn solve_warm_with(
    inst: &Instance,
    cfg: &Config,
    scratch: &mut bicameral::SearchScratch,
    seed: &krsp_graph::EdgeSet,
) -> Result<Solved, SolveError> {
    let start = Instant::now();
    if inst.validate().is_err() {
        return solve_with(inst, cfg, scratch);
    }
    // A seed sized for a different edge list cannot be from this topology's
    // lineage (weight-only epochs never change the edge count).
    if seed.capacity() != inst.graph.edge_count() {
        return solve_with(inst, cfg, scratch);
    }
    // Re-verify under the current weights; any failure → cold, bit-identical.
    let Some(verified) = Solution::from_edge_set(inst, seed.clone()) else {
        return solve_with(inst, cfg, scratch);
    };
    if verified.delay > inst.delay_bound {
        return solve_with(inst, cfg, scratch);
    }
    let p1 = match phase1::run(inst, cfg.phase1_backend) {
        Ok(p1) => p1,
        Err(_) => return solve_with(inst, cfg, scratch),
    };

    let mut stats = RunStats {
        phase1_cost: p1.cost,
        phase1_delay: p1.delay,
        lp_bound: p1.lp_bound.to_f64(),
        warm_start: true,
        ..RunStats::default()
    };

    // Phase-1 rounding already feasible: the cold path would return it
    // without probing — do exactly that (the seed played no role).
    if p1.delay <= inst.delay_bound {
        stats.warm_start = false;
        let solution =
            Solution::from_edge_set(inst, p1.flow.clone()).expect("phase-1 flow is a valid k-flow");
        return Ok(finish(solution, stats, &p1, Some(ceil_lp(&p1)), start));
    }

    // Certificate accept: the seed is within `2·⌈C_LP⌉ ≤ 2·C_OPT` under
    // the *new* weights, so it is a certified answer as-is.
    let floor = ceil_lp(&p1);
    if verified.cost <= 2 * floor {
        return Ok(finish(verified, stats, &p1, Some(floor), start));
    }

    // Bisection resume: the seed is feasible, so seed.cost ≥ C_OPT makes it
    // a sound (possibly tighter) upper bound and fallback.
    let extreme = Solution::from_edge_set(inst, p1.feasible_flow.clone())
        .expect("feasible extreme is a valid k-flow");
    let fallback = if verified.cost < extreme.cost {
        verified
    } else {
        extreme
    };
    drive(inst, &p1, cfg, scratch, fallback, stats, start)
}

/// `⌈C_LP⌉`, a lower bound on the integer `C_OPT`.
fn ceil_lp(p1: &Phase1) -> i64 {
    p1.lp_bound.ceil().max(0) as i64
}

/// Stamps the LP lower bound, the certified `Ĉ*` and the wall time onto a
/// finished solve.
fn finish(
    mut solution: Solution,
    mut stats: RunStats,
    p1: &Phase1,
    certified: Option<i64>,
    start: Instant,
) -> Solved {
    solution.lower_bound = Some(p1.lp_bound);
    stats.wall = start.elapsed();
    Solved {
        solution,
        certified,
        stats,
    }
}

/// Finishes a solve on the cheaper of a successful probe and the fallback.
fn keep_cheaper(
    pr: Probe,
    fallback: Solution,
    mut stats: RunStats,
    p1: &Phase1,
    certified: Option<i64>,
    start: Instant,
) -> Solved {
    let solution = if fallback.cost < pr.solution.cost {
        fallback
    } else {
        stats.iterations = pr.iterations;
        pr.solution
    };
    finish(solution, stats, p1, certified, start)
}

/// The `Ĉ`-driven cancellation tail shared by [`solve_with`] and
/// [`solve_warm_with`]: `fallback` is a delay-feasible solution whose cost
/// upper-bounds `C_OPT` (the phase-1 extreme on the cold path, possibly a
/// cheaper re-verified seed on the warm path).
fn drive(
    inst: &Instance,
    p1: &Phase1,
    cfg: &Config,
    scratch: &mut bicameral::SearchScratch,
    fallback: Solution,
    mut stats: RunStats,
    start: Instant,
) -> Result<Solved, SolveError> {
    let ub = fallback.cost;
    let lb = ceil_lp(p1);

    // Cancellation contract: a tripped token turns probe stalls into
    // `Err(Cancelled)` instead of shipping the fallback — the fallback's
    // cost certificate is only meaningful when the probes genuinely failed,
    // and the degradation ladder above substitutes a *completed* cheaper
    // method on cancellation.
    let cancel = scratch.cancel().clone();
    // One residual graph per solve; each probe re-targets it in place.
    let mut residual = ResidualGraph::build(&inst.graph, &p1.flow);

    if cfg.single_probe {
        stats.probes = 1;
        return match probe(inst, p1, ub.max(1), cfg, scratch, &mut residual, false) {
            Ok(pr) => {
                stats.iterations = pr.iterations;
                Ok(finish(pr.solution, stats, p1, None, start))
            }
            Err(_) if cancel.is_cancelled() => Err(SolveError::Cancelled),
            Err(_) => Ok(finish(fallback, stats, p1, None, start)),
        };
    }

    let (mut lo, mut hi) = (lb.max(1), ub.max(1));
    // Floor probe (see module docs): a bisection whose probes all succeed
    // ends on the probe at `lo`, so run that probe first, on pass 1 alone.
    if cfg.engine == Engine::Layered {
        stats.probes += 1;
        match probe(inst, p1, lo, cfg, scratch, &mut residual, true) {
            Ok(pr) if pr.solution.cost <= 2 * lo => {
                return Ok(keep_cheaper(pr, fallback, stats, p1, Some(lb), start));
            }
            _ if cancel.is_cancelled() => return Err(SolveError::Cancelled),
            _ => {}
        }
    }

    // Bisection on Ĉ (see module docs). `hi` always holds a success.
    let mut best: Option<Probe> = None;
    let floor_probes = stats.probes;
    // What the probes prove: C_OPT ≥ ⌈C_LP⌉, raised past each failed
    // bisection probe; `None` once a probe stopped without proving anything.
    let mut proven = Some(lb);
    // Establish success at hi = UB: guaranteed since UB ≥ C_OPT.
    loop {
        if cancel.is_cancelled() {
            return Err(SolveError::Cancelled);
        }
        stats.probes += 1;
        match probe(inst, p1, hi, cfg, scratch, &mut residual, false) {
            Ok(pr) if pr.solution.cost <= 2 * hi => {
                best = Some(pr);
                break;
            }
            _ => {
                // UB ≥ C_OPT should always succeed; an iteration-limit trip
                // is the only legitimate reason to land here, and it proves
                // nothing.
                proven = None;
                if stats.probes > floor_probes + 1 {
                    break;
                }
                stats.iterations.clear();
                if hi >= i64::MAX / 4 {
                    break;
                }
                hi *= 2; // pathological; widen once then give up
            }
        }
    }
    let Some(mut best) = best else {
        if cancel.is_cancelled() {
            return Err(SolveError::Cancelled);
        }
        // Fall back to the feasible extreme (valid (1, 2−α·…) anyway).
        return Ok(finish(fallback, stats, p1, None, start));
    };
    while lo < hi {
        if cancel.is_cancelled() {
            return Err(SolveError::Cancelled);
        }
        let mid = lo + (hi - lo) / 2;
        stats.probes += 1;
        match probe(inst, p1, mid, cfg, scratch, &mut residual, false) {
            Ok(pr) if pr.solution.cost <= 2 * mid => {
                hi = mid;
                best = pr;
            }
            // A probe the token stopped proved nothing about `mid`. Moving
            // `lo` past it could end the loop and ship `hi` as if `hi − 1`
            // had failed, which its `2·Ĉ` bound needs.
            _ if cancel.is_cancelled() => return Err(SolveError::Cancelled),
            Err(Stall::Stopped) => {
                lo = mid + 1;
                proven = None;
            }
            _ => {
                lo = mid + 1;
                proven = proven.map(|_| lo);
            }
        }
    }
    Ok(keep_cheaper(best, fallback, stats, p1, proven, start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use krsp_gen::{Family, Regime, Workload};
    use krsp_graph::{DiGraph, NodeId};
    use proptest::prelude::*;

    fn tradeoff(d_bound: i64) -> Instance {
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1, 1, 10),
                (1, 5, 1, 10), // cheap slow: (2, 20)
                (0, 2, 8, 1),
                (2, 5, 8, 1), // fast pricey: (16, 2)
                (0, 3, 2, 6),
                (3, 5, 2, 6), // middle: (4, 12)
                (0, 4, 9, 2),
                (4, 5, 9, 2), // spare fast: (18, 4)
            ],
        );
        Instance::new(g, NodeId(0), NodeId(5), 2, d_bound).unwrap()
    }

    #[test]
    fn guarantee_holds_across_budgets() {
        for d in [6, 8, 14, 16, 22, 24, 32, 40] {
            let inst = tradeoff(d);
            let solved = solve(&inst, &Config::default()).unwrap();
            let opt = crate::exact::brute_force(&inst).unwrap();
            assert!(
                solved.solution.delay <= d,
                "delay violated at D={d}: {}",
                solved.solution.delay
            );
            assert!(
                solved.solution.cost <= 2 * opt.cost,
                "cost {} > 2·C_OPT {} at D={d}",
                solved.solution.cost,
                opt.cost
            );
        }
    }

    #[test]
    fn infeasible_reported() {
        let inst = tradeoff(5);
        assert_eq!(
            solve(&inst, &Config::default()).unwrap_err(),
            SolveError::DelayInfeasible
        );
    }

    #[test]
    fn single_probe_mode_is_feasible() {
        for d in [6, 14, 22, 32] {
            let inst = tradeoff(d);
            let cfg = Config {
                single_probe: true,
                ..Config::default()
            };
            let solved = solve(&inst, &cfg).unwrap();
            assert!(solved.solution.delay <= d);
        }
    }

    #[test]
    fn lp_engine_end_to_end() {
        let inst = tradeoff(22);
        let cfg = Config {
            engine: Engine::LpRounding,
            b_search: BSearch::FullSweep,
            single_probe: true,
            ..Config::default()
        };
        let solved = solve(&inst, &cfg).unwrap();
        assert!(solved.solution.delay <= 22);
        let opt = crate::exact::brute_force(&inst).unwrap();
        assert!(solved.solution.cost <= 2 * opt.cost);
    }

    #[test]
    fn warm_start_accepts_certified_seed_and_matches_guarantee() {
        let cfg = Config::default();
        for d in [6, 14, 22, 32] {
            let inst = tradeoff(d);
            let cold = solve(&inst, &cfg).unwrap();
            // Seed the same instance with its own cold solution: trivially
            // verified and certified, so the warm path must accept it.
            let warm = solve_warm_with(
                &inst,
                &cfg,
                &mut bicameral::SearchScratch::new(),
                &cold.solution.edges,
            )
            .unwrap();
            assert!(warm.solution.delay <= d);
            assert_eq!(warm.solution.cost, cold.solution.cost);
            assert_eq!(warm.solution.lower_bound, cold.solution.lower_bound);
            // When the bisection would have run, the seed skips it.
            if cold.stats.probes > 0 {
                assert!(warm.stats.warm_start);
                assert_eq!(warm.stats.probes, 0);
            }
        }
    }

    #[test]
    fn warm_start_bad_seed_is_bit_identical_to_cold() {
        let cfg = Config::default();
        let inst = tradeoff(14);
        let cold = solve(&inst, &cfg).unwrap();
        // An empty edge set is not a k-flow: verification fails, the call
        // must degenerate to the cold solve exactly.
        let warm = solve_warm_with(
            &inst,
            &cfg,
            &mut bicameral::SearchScratch::new(),
            &krsp_graph::EdgeSet::default(),
        )
        .unwrap();
        assert_eq!(warm.solution.edges, cold.solution.edges);
        assert_eq!(warm.solution.cost, cold.solution.cost);
        assert_eq!(warm.solution.delay, cold.solution.delay);
        assert!(!warm.stats.warm_start);
        assert_eq!(warm.stats.probes, cold.stats.probes);
    }

    #[test]
    fn warm_start_stale_seed_after_weight_bump_stays_sound() {
        // Solve at one epoch, bump the cost of an edge on the solution's
        // cheap leg, re-solve warm on the next epoch: the answer must carry
        // the same guarantee as a cold solve on the new instance.
        let cfg = Config::default();
        let inst = tradeoff(22);
        let cold0 = solve(&inst, &cfg).unwrap();
        let g1 = inst.graph.with_updates(&[(krsp_graph::EdgeId(0), 50, 10)]);
        let inst1 = Instance::new(g1, inst.s, inst.t, inst.k, inst.delay_bound).unwrap();
        let warm = solve_warm_with(
            &inst1,
            &cfg,
            &mut bicameral::SearchScratch::new(),
            &cold0.solution.edges,
        )
        .unwrap();
        let cold1 = solve(&inst1, &cfg).unwrap();
        let opt = crate::exact::brute_force(&inst1).unwrap();
        assert!(warm.solution.delay <= inst1.delay_bound);
        assert!(warm.solution.cost <= 2 * opt.cost);
        assert!(cold1.solution.cost <= 2 * opt.cost);
    }

    #[test]
    fn stats_are_recorded() {
        let inst = tradeoff(14);
        let solved = solve(&inst, &Config::default()).unwrap();
        assert!(solved.stats.lp_bound > 0.0);
        assert!(
            solved.stats.probes >= 1
                || !solved.stats.iterations.is_empty()
                || solved.stats.phase1_delay <= 14
        );
    }

    /// The driver before the floor probe, kept as the oracle: phase 1, then
    /// the `Ĉ` bisection alone over `[⌈C_LP⌉, UB]`. Returns the answer, the
    /// probe count, and whether any probe failed.
    fn bisection_oracle(
        inst: &Instance,
        cfg: &Config,
    ) -> Result<(Solution, usize, bool), SolveError> {
        let p1 = phase1::run(inst, cfg.phase1_backend)?;
        if p1.delay <= inst.delay_bound {
            return Ok((Solution::from_edge_set(inst, p1.flow).unwrap(), 0, false));
        }
        let fallback = Solution::from_edge_set(inst, p1.feasible_flow.clone()).unwrap();
        let scratch = &mut bicameral::SearchScratch::new();
        let residual = &mut ResidualGraph::build(&inst.graph, &p1.flow);
        let lb = p1.lp_bound.ceil().max(0) as i64;
        let (mut lo, mut hi) = (lb.max(1), fallback.cost.max(1));
        let (mut probes, mut failed) = (0, false);
        let mut best = None;
        // Success at UB, else once more at 2·UB.
        for _ in 0..2 {
            probes += 1;
            match probe(inst, &p1, hi, cfg, scratch, residual, false) {
                Ok(pr) if pr.solution.cost <= 2 * hi => {
                    best = Some(pr);
                    break;
                }
                _ => {
                    failed = true;
                    hi *= 2;
                }
            }
        }
        let Some(mut best) = best else {
            return Ok((fallback, probes, failed));
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            match probe(inst, &p1, mid, cfg, scratch, residual, false) {
                Ok(pr) if pr.solution.cost <= 2 * mid => {
                    hi = mid;
                    best = pr;
                }
                _ => {
                    failed = true;
                    lo = mid + 1;
                }
            }
        }
        let solution = if fallback.cost < best.solution.cost {
            fallback
        } else {
            best.solution
        };
        Ok((solution, probes, failed))
    }

    /// Whether the floor probe alone concludes: pass 1 finds every cycle
    /// at `Ĉ = ⌈C_LP⌉` and the result costs at most `2·Ĉ`.
    fn floor_probe_concludes(inst: &Instance, cfg: &Config) -> bool {
        let Ok(p1) = phase1::run(inst, cfg.phase1_backend) else {
            return false;
        };
        if p1.delay <= inst.delay_bound {
            return false;
        }
        let lo = p1.lp_bound.ceil().max(1) as i64;
        let mut residual = ResidualGraph::build(&inst.graph, &p1.flow);
        let scratch = &mut bicameral::SearchScratch::new();
        probe(inst, &p1, lo, cfg, scratch, &mut residual, true)
            .is_ok_and(|pr| pr.solution.cost <= 2 * lo)
    }

    /// Small instances from every generator family and regime, k ≤ 3.
    fn arb_workload() -> impl Strategy<Value = Option<Instance>> {
        let families = vec![
            Family::Gnm,
            Family::Grid,
            Family::Layered,
            Family::Geometric,
            Family::ScaleFree,
        ];
        let regimes = vec![Regime::Uniform, Regime::Correlated, Regime::Anticorrelated];
        (
            proptest::sample::select(families),
            proptest::sample::select(regimes),
            1usize..4,
            10usize..40,
            1u32..=60,
            0u64..1 << 40,
        )
            .prop_map(|(family, regime, k, n, pct, seed)| {
                let w = Workload {
                    family,
                    n,
                    m: 4 * n,
                    regime,
                    k,
                    tightness: f64::from(pct) / 100.0,
                    seed,
                };
                // The generator links its own build of this crate; rebuild
                // the instance from its parts.
                let g = w.instantiate()?;
                Instance::new(g.graph, g.s, g.t, g.k, g.delay_bound).ok()
            })
    }

    /// Which way a solve left its floor probe.
    #[derive(Debug, PartialEq)]
    enum Floor {
        /// Phase 1 answered; no probe ran.
        Unused,
        Concluded,
        FellBack,
    }

    /// Checks [`solve`] against [`bisection_oracle`] on `inst`: where the
    /// oracle's bisection had no failed probe, cost, delay and edges are
    /// identical; elsewhere both answers meet the Full rung's audit bound
    /// (`cost ≤ 2·C_LP`). A floor probe that concludes is the only probe;
    /// one that does not adds one probe to the oracle's count and changes
    /// nothing else.
    fn check_against_oracle(inst: &Instance) -> Result<Floor, TestCaseError> {
        let cfg = Config::default();
        let (got, (want, oracle_probes, failed)) =
            match (solve(inst, &cfg), bisection_oracle(inst, &cfg)) {
                (Ok(g), Ok(w)) => (g, w),
                (g, w) => {
                    prop_assert_eq!(g.err(), w.err());
                    return Ok(Floor::Unused);
                }
            };
        let floor = if oracle_probes == 0 {
            Floor::Unused
        } else if floor_probe_concludes(inst, &cfg) {
            Floor::Concluded
        } else {
            Floor::FellBack
        };
        let probes = match floor {
            Floor::Unused => 0,
            Floor::Concluded => 1,
            Floor::FellBack => oracle_probes + 1,
        };
        prop_assert_eq!(got.stats.probes, probes);
        let got = got.solution;
        if !failed || floor != Floor::Concluded {
            prop_assert_eq!((got.cost, got.delay), (want.cost, want.delay));
            prop_assert_eq!(&got.edges, &want.edges);
        } else {
            let lp = got.lower_bound.expect("Full answers carry C_LP");
            for sol in [&got, &want] {
                let v = crate::verify::audit(inst, sol, Some((lp, 2)));
                prop_assert!(v.is_empty(), "audit failed: {:?}", v);
            }
        }
        Ok(floor)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn floor_probe_matches_the_bisection_oracle(inst in arb_workload()) {
            prop_assume!(inst.is_some());
            check_against_oracle(&inst.unwrap())?;
        }
    }

    /// The generated instances rarely defeat the floor probe; the trade-off
    /// diamond does at mid budgets, where the oracle's bisection also has
    /// failed probes.
    #[test]
    fn floor_probe_falls_back_to_the_bisection() {
        let floors: Vec<Floor> = (6..=40)
            .map(|d| {
                check_against_oracle(&tradeoff(d)).unwrap_or_else(|e| panic!("D = {d}: {e:?}"))
            })
            .collect();
        assert!(floors.contains(&Floor::Concluded));
        assert!(floors.contains(&Floor::FellBack));
    }
}
