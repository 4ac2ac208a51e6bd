//! Deadline-aware degradation ladder.
//!
//! A provisioning request carries a latency deadline. The full solver (the
//! `Ĉ`-bisected Algorithm 1) is the best answer but the slowest; when the
//! remaining budget cannot pay for it, the service walks down a ladder of
//! progressively cheaper algorithms, each with an explicitly advertised
//! (cost, delay) guarantee, so a response is *always* produced and its
//! quality is *always* stated:
//!
//! | rung | algorithm | cost factor | delay factor |
//! |------|-----------|-------------|--------------|
//! | [`Rung::Full`] | Algorithm 1 + `Ĉ` bisection | 2 | 1 |
//! | [`Rung::SingleProbe`] | Algorithm 1, one probe at `Ĉ = UB` | — | 1 |
//! | [`Rung::LpRounding`] | phase-1 LP rounding alone (Lemma 5) | 2 | 2 |
//! | [`Rung::MinDelay`] | min-delay disjoint paths | — | 1 |
//!
//! (Cost factors are relative to `C_OPT`; delay factors to the budget `D`.
//! "—" means feasibility only.) Rung choice is an admission decision: each
//! rung has a per-unit time estimate and is attempted only if the remaining
//! deadline covers it; [`Rung::MinDelay`] is always attempted as the last
//! resort. A rung that *fails* (stalls, iteration limit) falls through to
//! the next; genuine infeasibility short-circuits.
//!
//! ## Kernel assignment
//!
//! Each rung is additionally assigned an RSP-kernel backend
//! ([`KernelKind`], DESIGN.md §4.16) through a [`KernelLadder`]. The kernel
//! is consulted wherever a rung solves a restricted-shortest-path
//! subproblem — today that is the `k = 1` fast path of the
//! [`Rung::Full`]/[`Rung::SingleProbe`] rungs, which answer single-path
//! instances through the configured `(1+ε)` kernel at ε = 1 (certifying the
//! same `cost ≤ 2·C_OPT`, `delay ≤ D` the Full rung advertises) instead of
//! spinning up the k-path cycle-cancellation machinery. Rungs whose
//! algorithms never touch the RSP subproblem ([`Rung::LpRounding`],
//! [`Rung::MinDelay`]) carry their assignment for observability only; the
//! answering rung's kernel is reported on every response either way.
//!
//! The `k = 1` arm solves over a per-worker [`DpScratch`] arena rather than
//! a fresh one per request: each thread keeps one, installs the request's
//! [`CancelToken`] on every borrow, and frees tables a solve leaves above
//! `K1_ARENA_KEEP_BYTES`.

use krsp::{
    baselines, rsp_kernel, solve_warm_with, solve_with, CancelToken, Config, DpScratch, Instance,
    KernelKind, SearchScratch, Solution, SolveError,
};
use krsp_graph::EdgeSet;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::time::Duration;

/// Capacity, in bytes, a worker's `k = 1` DP arena keeps between requests
/// ([`DpScratch::table_bytes`]: labels, the candidate ring, edge buckets,
/// per-node buffers and the threshold search's). At ε = 1 a hundred
/// `n = 240` gnm instances left about 0.3 MB, far below this, while one
/// outsized instance's buffers are freed when its solve returns instead of
/// staying pinned for the daemon's lifetime.
const K1_ARENA_KEEP_BYTES: usize = 16 << 20;

thread_local! {
    /// Per-worker DP arena for the `k = 1` arm — the pattern of
    /// `krsp::batch`'s `WORKER_SCRATCH` and the bicameral seed scan's
    /// `SEED_BF`: a worker allocates its tables once, not once per request.
    /// Scratch reuse is output-invariant, so answers match fresh-scratch
    /// solves bit for bit.
    static K1_DP: RefCell<DpScratch> = RefCell::new(DpScratch::new());
}

/// The ladder rungs, best first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Rung {
    /// Algorithm 1 with the full `Ĉ` bisection: the paper's `(1, 2)`.
    Full,
    /// Algorithm 1 with a single probe at `Ĉ = UB`: delay-feasible, cost
    /// factor not certified.
    SingleProbe,
    /// Phase-1 LP rounding alone: the `(2, 2)` of Lemma 5.
    LpRounding,
    /// Minimum-delay disjoint paths: feasibility fallback.
    MinDelay,
}

/// What a rung promises about its answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Guarantee {
    /// Certified `cost ≤ factor · C_OPT`, when the rung certifies one.
    pub cost_factor: Option<u32>,
    /// Certified `delay ≤ factor · D`.
    pub delay_factor: u32,
}

impl Rung {
    /// All rungs, best first.
    pub const LADDER: [Rung; 4] = [
        Rung::Full,
        Rung::SingleProbe,
        Rung::LpRounding,
        Rung::MinDelay,
    ];

    /// Ladder position, 0 = best.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Rung::Full => 0,
            Rung::SingleProbe => 1,
            Rung::LpRounding => 2,
            Rung::MinDelay => 3,
        }
    }

    /// The advertised approximation guarantee.
    #[must_use]
    pub fn guarantee(self) -> Guarantee {
        match self {
            Rung::Full => Guarantee {
                cost_factor: Some(2),
                delay_factor: 1,
            },
            Rung::SingleProbe => Guarantee {
                cost_factor: None,
                delay_factor: 1,
            },
            Rung::LpRounding => Guarantee {
                cost_factor: Some(2),
                delay_factor: 2,
            },
            Rung::MinDelay => Guarantee {
                cost_factor: None,
                delay_factor: 1,
            },
        }
    }
}

impl std::fmt::Display for Guarantee {
    /// `(cost, delay)` factor pair, `-` when the cost is uncertified:
    /// `(2,1)`, `(-,1)`, `(2,2)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cost_factor {
            Some(c) => write!(f, "({c},{})", self.delay_factor),
            None => write!(f, "(-,{})", self.delay_factor),
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Rung::Full => "full",
            Rung::SingleProbe => "single_probe",
            Rung::LpRounding => "lp_rounding",
            Rung::MinDelay => "min_delay",
        };
        f.write_str(s)
    }
}

/// Admission thresholds for the ladder: estimated microseconds per work
/// unit (`m·k + n`) that a rung must fit inside the remaining deadline to
/// be attempted. [`Rung::MinDelay`] has no threshold — it always runs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LadderPolicy {
    /// Estimate for [`Rung::Full`].
    pub full_us_per_unit: u64,
    /// Estimate for [`Rung::SingleProbe`].
    pub probe_us_per_unit: u64,
    /// Estimate for [`Rung::LpRounding`].
    pub lp_us_per_unit: u64,
}

impl Default for LadderPolicy {
    fn default() -> Self {
        // Calibrated loosely against the krsp-gen families on one core;
        // deliberately pessimistic so a rung that is admitted usually
        // finishes inside the budget.
        LadderPolicy {
            full_us_per_unit: 60,
            probe_us_per_unit: 20,
            lp_us_per_unit: 8,
        }
    }
}

impl LadderPolicy {
    /// The default (single-threaded) calibration rescaled for a solver
    /// `width` threads wide. Only the bicameral per-seed scan (pass 3 of
    /// the layered search) runs on the rayon pool, and only a search whose
    /// passes 1 and 2 found nothing reaches it. On the geometric `k = 2`
    /// instances most requests finish on phase 1 and the floor probe's
    /// pass-1 searches, which are sequential, so there the width buys
    /// little. Where the scan does run it dominates, so the
    /// [`Rung::Full`] and [`Rung::SingleProbe`] estimates still shrink with
    /// width; the [`Rung::LpRounding`] simplex is sequential and keeps its
    /// estimate. A conservative half-efficiency model (`width` threads
    /// count as `(width + 1) / 2`) absorbs the serial passes and pool
    /// overhead.
    #[must_use]
    pub fn for_width(width: usize) -> Self {
        let effective = (width.max(1) as u64).div_ceil(2);
        let base = LadderPolicy::default();
        LadderPolicy {
            full_us_per_unit: (base.full_us_per_unit / effective).max(1),
            probe_us_per_unit: (base.probe_us_per_unit / effective).max(1),
            lp_us_per_unit: base.lp_us_per_unit,
        }
    }

    /// Estimated wall time for `rung` on `inst`; `None` means "always
    /// admitted".
    #[must_use]
    pub fn estimate(&self, rung: Rung, inst: &Instance) -> Option<Duration> {
        let units = (inst.m() * inst.k + inst.n()) as u64;
        let per_unit = match rung {
            Rung::Full => self.full_us_per_unit,
            Rung::SingleProbe => self.probe_us_per_unit,
            Rung::LpRounding => self.lp_us_per_unit,
            Rung::MinDelay => return None,
        };
        Some(Duration::from_micros(per_unit.saturating_mul(units)))
    }

    /// Highest rung whose estimate fits in `remaining`.
    #[must_use]
    pub fn admit(&self, inst: &Instance, remaining: Duration) -> Rung {
        for rung in Rung::LADDER {
            match self.estimate(rung, inst) {
                None => return rung,
                Some(est) if est <= remaining => return rung,
                Some(_) => {}
            }
        }
        Rung::MinDelay
    }
}

/// Per-rung RSP-kernel assignment (module docs, "Kernel assignment").
///
/// Indexed by [`Rung::index`]; defaults to [`KernelKind::Classic`]
/// everywhere, which reproduces the pre-trait service behavior exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelLadder([KernelKind; Rung::LADDER.len()]);

impl Default for KernelLadder {
    fn default() -> Self {
        KernelLadder::uniform(KernelKind::Classic)
    }
}

impl KernelLadder {
    /// The same kernel on every rung (what `--kernel` and the per-request
    /// wire override select).
    #[must_use]
    pub fn uniform(kind: KernelKind) -> Self {
        KernelLadder([kind; Rung::LADDER.len()])
    }

    /// The kernel assigned to `rung`.
    #[must_use]
    pub fn for_rung(&self, rung: Rung) -> KernelKind {
        self.0[rung.index()]
    }

    /// Reassigns one rung's kernel.
    pub fn set(&mut self, rung: Rung, kind: KernelKind) {
        self.0[rung.index()] = kind;
    }
}

/// A ladder answer: the solution plus which rung produced it.
///
/// Serializable so the disk cache tier can persist answers across daemon
/// restarts (DESIGN.md §4.17).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Degraded {
    /// The solution.
    pub solution: Solution,
    /// The rung that produced it.
    pub rung: Rung,
    /// [`Rung::guarantee`] of that rung, recorded at solve time.
    pub guarantee: Guarantee,
    /// The RSP kernel assigned to the answering rung.
    pub kernel: KernelKind,
    /// Whether a previous-epoch seed participated in the answering solve
    /// (see [`krsp::solve_warm_with`]).
    pub warm: bool,
}

/// Why the ladder produced no solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LadderError {
    /// Fewer than `k` disjoint paths exist, or the delay budget is
    /// unsatisfiable even by the min-delay routing.
    Infeasible,
}

impl std::fmt::Display for LadderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("instance is infeasible at every rung")
    }
}

impl std::error::Error for LadderError {}

/// Runs the ladder: starts at the highest rung `policy` admits for
/// `remaining`, falls through on rung failure, and reports the rung that
/// answered. `cfg` seeds the solver configuration for the top two rungs.
pub fn solve_degraded(
    inst: &Instance,
    cfg: &Config,
    remaining: Duration,
    policy: &LadderPolicy,
) -> Result<Degraded, LadderError> {
    solve_degraded_with(
        inst,
        cfg,
        remaining,
        policy,
        &KernelLadder::default(),
        &CancelToken::never(),
    )
}

/// [`solve_degraded`] with a cooperative [`CancelToken`] threaded into the
/// solver kernels. A token that trips mid-rung stops that rung's DP/search
/// loops; the failed rung falls through like any other rung failure, and
/// rungs above [`Rung::MinDelay`] are skipped entirely once the token is
/// cancelled. [`Rung::MinDelay`] always runs to completion (it is the
/// always-answer contract), so a cancelled solve still returns a *complete*
/// path system from a lower rung — never a partial one.
pub fn solve_degraded_with(
    inst: &Instance,
    cfg: &Config,
    remaining: Duration,
    policy: &LadderPolicy,
    kernels: &KernelLadder,
    cancel: &CancelToken,
) -> Result<Degraded, LadderError> {
    solve_degraded_seeded(inst, cfg, remaining, policy, kernels, cancel, None)
}

/// [`solve_degraded_with`] with an optional warm-start seed: a previous
/// topology epoch's solution edge set, threaded into the solver rungs
/// ([`Rung::Full`] / [`Rung::SingleProbe`]) through [`krsp::solve_warm_with`].
/// The seed is re-verified there against the current weights, so a stale or
/// invalid seed degrades to the cold path bit-identically; rungs that never
/// run Algorithm 1 ignore it.
#[allow(clippy::too_many_arguments)]
pub fn solve_degraded_seeded(
    inst: &Instance,
    cfg: &Config,
    remaining: Duration,
    policy: &LadderPolicy,
    kernels: &KernelLadder,
    cancel: &CancelToken,
    seed: Option<&EdgeSet>,
) -> Result<Degraded, LadderError> {
    ladder(inst, cfg, remaining, policy, kernels, cancel, seed).map(|(answer, _)| answer)
}

/// [`solve_degraded_seeded`], also returning the `Ĉ* ≤ C_OPT` the answer's
/// cost factor is certified against when its solve proves one
/// ([`krsp::Solved::certified`]); the service's debug audit checks it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ladder(
    inst: &Instance,
    cfg: &Config,
    remaining: Duration,
    policy: &LadderPolicy,
    kernels: &KernelLadder,
    cancel: &CancelToken,
    seed: Option<&EdgeSet>,
) -> Result<(Degraded, Option<i64>), LadderError> {
    let start = policy.admit(inst, remaining);
    // One cycle-search scratch for every solver rung the ladder attempts.
    let mut scratch = SearchScratch::new();
    scratch.set_cancel(cancel.clone());
    for rung in Rung::LADDER.into_iter().skip(start.index()) {
        if rung != Rung::MinDelay && cancel.is_cancelled() {
            continue;
        }
        let kernel = kernels.for_rung(rung);
        match attempt(inst, cfg, rung, kernel, &mut scratch, cancel, seed) {
            Attempt::Solved(solution, warm, certified) => {
                let answer = Degraded {
                    solution,
                    rung,
                    guarantee: rung.guarantee(),
                    kernel,
                    warm,
                };
                return Ok((answer, certified));
            }
            Attempt::Infeasible => return Err(LadderError::Infeasible),
            Attempt::RungFailed => {}
        }
    }
    Err(LadderError::Infeasible)
}

enum Attempt {
    /// The answer, whether a warm seed took part, and the solve's
    /// certified `Ĉ*`.
    Solved(Solution, bool, Option<i64>),
    Infeasible,
    RungFailed,
}

#[allow(clippy::too_many_arguments)]
fn attempt(
    inst: &Instance,
    cfg: &Config,
    rung: Rung,
    kernel: KernelKind,
    scratch: &mut SearchScratch,
    cancel: &CancelToken,
    seed: Option<&EdgeSet>,
) -> Attempt {
    match rung {
        // k = 1 *is* the restricted-shortest-path subproblem: answer it
        // through the rung's assigned kernel at ε = 1 (cost ≤ 2·OPT, delay
        // ≤ D — exactly the Full rung's advertised guarantee) instead of
        // the k-path cycle-cancellation machinery.
        Rung::Full | Rung::SingleProbe if inst.k == 1 => {
            let solved = K1_DP.with(|dp| {
                let mut dp = dp.borrow_mut();
                // Every borrow installs this request's token, so one left
                // by an earlier (cancelled or panicked) request never
                // reaches this solve.
                dp.set_cancel(cancel.clone());
                let solved = rsp_kernel(kernel)
                    .solve_with(&inst.graph, inst.s, inst.t, inst.delay_bound, 1, 1, &mut dp)
                    .expect("1/1 is a valid epsilon");
                if dp.table_bytes() > K1_ARENA_KEEP_BYTES {
                    *dp = DpScratch::new();
                }
                solved
            });
            match solved {
                Some(p) => {
                    match Solution::from_edge_set(inst, EdgeSet::from_edges(inst.m(), &p.edges)) {
                        Some(sol) => Attempt::Solved(sol, false, None),
                        None => Attempt::RungFailed,
                    }
                }
                // A cancelled kernel proved nothing about feasibility.
                None if cancel.is_cancelled() => Attempt::RungFailed,
                None => Attempt::Infeasible,
            }
        }
        Rung::Full | Rung::SingleProbe => {
            let cfg = Config {
                single_probe: rung == Rung::SingleProbe,
                ..*cfg
            };
            let solved = match seed {
                Some(seed) => solve_warm_with(inst, &cfg, scratch, seed),
                None => solve_with(inst, &cfg, scratch),
            };
            match solved {
                Ok(s) => Attempt::Solved(s.solution, s.stats.warm_start, s.certified),
                // A cancelled rung proved nothing about feasibility — fall
                // through so MinDelay can still answer.
                Err(SolveError::IterationLimit | SolveError::Cancelled) => Attempt::RungFailed,
                Err(_) => Attempt::Infeasible,
            }
        }
        Rung::LpRounding => match baselines::lp_rounding_only(inst) {
            Some(sol) => Attempt::Solved(sol, false, None),
            None => Attempt::RungFailed,
        },
        Rung::MinDelay => match baselines::min_delay(inst) {
            Some(sol) if sol.delay <= inst.delay_bound => Attempt::Solved(sol, false, None),
            // The min-delay routing is the feasibility certificate: if even
            // it busts the budget (or no k disjoint paths exist), the
            // instance is infeasible outright.
            _ => Attempt::Infeasible,
        },
    }
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use krsp::KERNEL_KINDS;
    use krsp_gen::{Family, Regime, Workload};
    use krsp_graph::{DiGraph, NodeId};

    fn tradeoff(d: i64) -> Instance {
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
        Instance::new(g, NodeId(0), NodeId(5), 2, d).unwrap()
    }

    #[test]
    fn ladder_order_is_best_first() {
        let ranked: Vec<usize> = Rung::LADDER.iter().map(|r| r.index()).collect();
        assert_eq!(ranked, vec![0, 1, 2, 3]);
        assert_eq!(Rung::Full.guarantee().delay_factor, 1);
        assert_eq!(Rung::LpRounding.guarantee().cost_factor, Some(2));
    }

    #[test]
    fn generous_deadline_uses_full_rung() {
        let inst = tradeoff(14);
        let out = solve_degraded(
            &inst,
            &Config::default(),
            Duration::from_secs(60),
            &LadderPolicy::default(),
        )
        .unwrap();
        assert_eq!(out.rung, Rung::Full);
        assert_eq!(out.guarantee, Rung::Full.guarantee());
        assert!(out.solution.delay <= 14);
    }

    #[test]
    fn exhausted_deadline_degrades_to_min_delay() {
        let inst = tradeoff(14);
        let out = solve_degraded(
            &inst,
            &Config::default(),
            Duration::ZERO,
            &LadderPolicy::default(),
        )
        .unwrap();
        assert_eq!(out.rung, Rung::MinDelay);
        assert_eq!(
            out.guarantee,
            Guarantee {
                cost_factor: None,
                delay_factor: 1
            }
        );
        // The degraded answer is still delay-feasible.
        assert!(out.solution.delay <= 14);
    }

    #[test]
    fn admission_respects_rung_order() {
        let inst = tradeoff(14);
        let policy = LadderPolicy::default();
        // Budgets between consecutive estimates land on interior rungs.
        let full = policy.estimate(Rung::Full, &inst).unwrap();
        let probe = policy.estimate(Rung::SingleProbe, &inst).unwrap();
        let lp = policy.estimate(Rung::LpRounding, &inst).unwrap();
        assert!(lp < probe && probe < full);
        assert_eq!(policy.admit(&inst, full), Rung::Full);
        assert_eq!(policy.admit(&inst, probe), Rung::SingleProbe);
        assert_eq!(policy.admit(&inst, lp), Rung::LpRounding);
        assert_eq!(policy.admit(&inst, Duration::ZERO), Rung::MinDelay);
    }

    #[test]
    fn width_scaled_policy_shrinks_parallel_rungs_only() {
        let base = LadderPolicy::default();
        let w1 = LadderPolicy::for_width(1);
        assert_eq!(w1.full_us_per_unit, base.full_us_per_unit);
        assert_eq!(w1.probe_us_per_unit, base.probe_us_per_unit);
        assert_eq!(w1.lp_us_per_unit, base.lp_us_per_unit);
        let w8 = LadderPolicy::for_width(8);
        assert!(w8.full_us_per_unit < base.full_us_per_unit);
        assert!(w8.probe_us_per_unit < base.probe_us_per_unit);
        assert_eq!(w8.lp_us_per_unit, base.lp_us_per_unit);
        // A deadline that only covers the width-8 Full estimate admits the
        // Full rung on the wide pool but not under the 1-thread policy.
        let inst = tradeoff(14);
        let tight = w8.estimate(Rung::Full, &inst).unwrap();
        assert_eq!(w8.admit(&inst, tight), Rung::Full);
        assert!(base.estimate(Rung::Full, &inst).unwrap() > tight);
        assert_ne!(base.admit(&inst, tight), Rung::Full);
    }

    #[test]
    fn cancelled_token_degrades_to_min_delay() {
        let inst = tradeoff(14);
        let cancel = CancelToken::cancellable();
        cancel.cancel();
        // A generous deadline admits the Full rung, but the tripped token
        // skips every cancellable rung; MinDelay still answers in full.
        let out = solve_degraded_with(
            &inst,
            &Config::default(),
            Duration::from_secs(60),
            &LadderPolicy::default(),
            &KernelLadder::default(),
            &cancel,
        )
        .unwrap();
        assert_eq!(out.rung, Rung::MinDelay);
        assert_eq!(out.guarantee, Rung::MinDelay.guarantee());
        assert!(out.solution.delay <= 14);
    }

    #[test]
    fn kernel_ladder_assigns_per_rung() {
        let mut kernels = KernelLadder::default();
        for rung in Rung::LADDER {
            assert_eq!(kernels.for_rung(rung), KernelKind::Classic);
        }
        kernels.set(Rung::SingleProbe, KernelKind::Interval);
        assert_eq!(kernels.for_rung(Rung::SingleProbe), KernelKind::Interval);
        assert_eq!(kernels.for_rung(Rung::Full), KernelKind::Classic);
        let uniform = KernelLadder::uniform(KernelKind::Interval);
        for rung in Rung::LADDER {
            assert_eq!(uniform.for_rung(rung), KernelKind::Interval);
        }
    }

    #[test]
    fn k1_instances_answer_through_the_assigned_kernel() {
        // Solves through `csp.dp`, which `k1_arena_survives_a_panicked_solve`
        // arms.
        let _fp = crate::sync_util::fp_lock();
        // k = 1 over the tradeoff graph: OPT = 4 (the (2,6)+(2,6) legs)
        // under budget 12; both kernels certify cost ≤ 2·OPT, delay ≤ D,
        // and the answer reports the rung's kernel.
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1, 1, 10),
                (1, 5, 1, 10),
                (0, 2, 8, 1),
                (2, 5, 8, 1),
                (0, 3, 2, 6),
                (3, 5, 2, 6),
            ],
        );
        let inst = Instance::new(g, NodeId(0), NodeId(5), 1, 12).unwrap();
        for kind in [KernelKind::Classic, KernelKind::Interval] {
            let out = solve_degraded_with(
                &inst,
                &Config::default(),
                Duration::from_secs(60),
                &LadderPolicy::default(),
                &KernelLadder::uniform(kind),
                &CancelToken::never(),
            )
            .unwrap();
            assert_eq!(out.rung, Rung::Full, "{kind}");
            assert_eq!(out.kernel, kind);
            assert!(out.solution.delay <= 12);
            assert!(out.solution.cost <= 8, "cost {} > 2·OPT", out.solution.cost);
        }
        // Infeasible k = 1 budget short-circuits at the kernel.
        let tight = Instance::new(inst.graph.clone(), NodeId(0), NodeId(5), 1, 1).unwrap();
        let err = solve_degraded(
            &tight,
            &Config::default(),
            Duration::from_secs(60),
            &LadderPolicy::default(),
        )
        .unwrap_err();
        assert_eq!(err, LadderError::Infeasible);
    }

    #[test]
    fn k1_full_rung_answers_when_the_bracket_passes_i64() {
        // Solves through `csp.dp`, which `k1_arena_survives_a_panicked_solve`
        // arms.
        let _fp = crate::sync_util::fp_lock();
        // D = 2 leaves one path, 0→1→2 at cost 2⁶² + 1, and puts the
        // FPTAS's n·c* and 4·lb past i64::MAX. Wrapped, the classic kernel
        // answered "infeasible at every rung" and the interval kernel's
        // shrink loop spun until the deadline.
        let g = DiGraph::from_edges(3, &[(0, 1, 1 << 62, 1), (1, 2, 1, 1), (0, 2, 1, 5)]);
        let inst = Instance::new(g, NodeId(0), NodeId(2), 1, 2).unwrap();
        for kind in KERNEL_KINDS {
            let out = solve_degraded_with(
                &inst,
                &Config::default(),
                Duration::from_secs(60),
                &LadderPolicy::default(),
                &KernelLadder::uniform(kind),
                &CancelToken::never(),
            )
            .unwrap();
            assert_eq!(out.rung, Rung::Full, "{kind}");
            let answer = (out.solution.cost, out.solution.delay);
            assert_eq!(answer, ((1 << 62) + 1, 2), "{kind}");
        }
    }

    fn gnm_k1(n: usize, seed: u64) -> Instance {
        krsp_gen::instantiate_with_retries(
            Workload {
                family: Family::Gnm,
                n,
                m: 4 * n,
                regime: Regime::Anticorrelated,
                k: 1,
                tightness: 0.5,
                seed,
            },
            50,
        )
        .unwrap()
    }

    #[test]
    fn k1_arena_survives_a_panicked_solve() {
        // One thread, so every attempt below borrows the same per-worker
        // arena: a larger solve leaves big tables behind, a request with a
        // tripped token must still stop (the arena runs under each
        // request's own token), the next solve panics inside its DP with
        // its token still installed, and that token is tripped afterwards.
        // The request after that must see neither the torn tables nor the
        // stale token. Last, an outsized run's leftovers must be trimmed
        // once the next request has its answer.
        let _fp = crate::sync_util::fp_lock();
        let (big, inst) = (gnm_k1(60, 3), gnm_k1(30, 11));
        let mut scratch = SearchScratch::new();
        for kind in KERNEL_KINDS {
            let mut solve = |inst: &Instance, cancel: &CancelToken| {
                attempt(
                    inst,
                    &Config::default(),
                    Rung::Full,
                    kind,
                    &mut scratch,
                    cancel,
                    None,
                )
            };
            let warm = solve(&big, &CancelToken::never());
            assert!(matches!(warm, Attempt::Solved(..)), "{kind}: warm-up solve");
            let tripped = CancelToken::cancellable();
            tripped.cancel();
            let stopped = solve(&inst, &tripped);
            assert!(
                matches!(stopped, Attempt::RungFailed),
                "{kind}: cancelled solve"
            );

            krsp_failpoint::cfg("csp.dp", "panic").unwrap();
            let stale = CancelToken::cancellable();
            let torn =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solve(&inst, &stale)));
            assert!(torn.is_err(), "{kind}: the armed csp.dp site must panic");
            krsp_failpoint::remove("csp.dp");
            stale.cancel();

            let Attempt::Solved(again, ..) = solve(&inst, &CancelToken::never()) else {
                panic!("{kind}: the request after a panicked solve must answer");
            };
            let fresh = rsp_kernel(kind)
                .solve(&inst.graph, inst.s, inst.t, inst.delay_bound, 1, 1)
                .unwrap()
                .unwrap();
            let fresh = EdgeSet::from_edges(inst.m(), &fresh.edges);
            assert_eq!(again.edges, fresh, "{kind}");

            // One edge of delay 2^20 gives the exact DP a 2^20-bucket
            // candidate ring, past what the arena keeps.
            K1_DP.with(|dp| {
                let mut dp = dp.borrow_mut();
                let wide = DiGraph::from_edges(2, &[(0, 1, 1, 1 << 20)]);
                let p = krsp_flow::constrained_shortest_path_with(
                    &wide,
                    NodeId(0),
                    NodeId(1),
                    1 << 20,
                    &mut dp,
                );
                assert!(p.is_some());
                assert!(dp.table_bytes() > K1_ARENA_KEEP_BYTES);
            });
            let Attempt::Solved(trimmed, ..) = solve(&inst, &CancelToken::never()) else {
                panic!("{kind}: the request on an outsized arena must answer");
            };
            assert_eq!(trimmed.edges, fresh, "{kind}");
            assert_eq!(
                K1_DP.with(|dp| dp.borrow().table_bytes()),
                0,
                "{kind}: the outsized arena must be trimmed"
            );
        }
    }

    #[test]
    fn infeasible_instances_fail_at_every_rung() {
        let inst = tradeoff(3); // below the minimum achievable delay
        for remaining in [Duration::from_secs(10), Duration::ZERO] {
            let err = solve_degraded(
                &inst,
                &Config::default(),
                remaining,
                &LadderPolicy::default(),
            )
            .unwrap_err();
            assert_eq!(err, LadderError::Infeasible);
        }
    }
}
