//! Kernel pinning: the flat budgeted-DP kernel versus the preserved 2-D
//! `Option`-table implementation (`krsp_flow::reference`).
//!
//! The flat rewrite must be *bit-identical* to the original, not merely
//! equal in objective value: the DP's tie-breaking (first-seen minimum in
//! edge-id order, then smallest-value-first zero-budget relaxation) decides
//! which path is recovered, and downstream consumers (greedy RSP, the
//! regression corpus in EXPERIMENTS.md) observe the paths themselves.
//! Every comparison below asserts full `CspPath` equality — edge sequence,
//! cost, and delay.

use krsp_suite::krsp::{self, solve, Config, SolveError, Solved};
use krsp_suite::krsp_flow::{constrained_shortest_path, reference, rsp_fptas};
use krsp_suite::krsp_gen::{instantiate_with_retries, Family, Regime, Workload};
use krsp_suite::krsp_graph::DiGraph;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Mutex;

const FAMILIES: [Family; 5] = [
    Family::Gnm,
    Family::Grid,
    Family::Layered,
    Family::Geometric,
    Family::ScaleFree,
];
const REGIMES: [Regime; 3] = [Regime::Uniform, Regime::Correlated, Regime::Anticorrelated];

/// A generator-family graph, optionally rebuilt with a heavy share of
/// zero-delay edges (`zero_stride > 0` zeroes every `zero_stride`-th edge's
/// delay) — the zero-budget Dijkstra pass is the trickiest part of the DP
/// and barely exercised by generic weights.
fn family_graph(
    family: Family,
    n: usize,
    regime: Regime,
    seed: u64,
    zero_stride: usize,
) -> DiGraph {
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let g = family.sample(n, n * 4, regime, &mut rng);
    if zero_stride == 0 {
        return g;
    }
    let mut rebuilt = DiGraph::new(g.node_count());
    for (id, e) in g.edge_iter() {
        let delay = if id.index() % zero_stride == 0 {
            0
        } else {
            e.delay
        };
        rebuilt.add_edge(e.src, e.dst, e.cost, delay);
    }
    rebuilt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat exact DP ≡ 2-D oracle on random family graphs: same
    /// feasibility verdict, same recovered path, edge for edge.
    #[test]
    fn flat_dp_matches_oracle(
        fam_ix in 0usize..FAMILIES.len(),
        reg_ix in 0usize..REGIMES.len(),
        n in 8usize..28,
        seed in 0u64..1_000_000,
        bound in 0i64..60,
        zero_stride in 0usize..4,
    ) {
        let family = FAMILIES[fam_ix];
        let g = family_graph(family, n, REGIMES[reg_ix], seed, zero_stride);
        let (s, t) = family.terminals(g.node_count());
        let flat = constrained_shortest_path(&g, s, t, bound);
        let oracle = reference::constrained_shortest_path(&g, s, t, bound);
        prop_assert_eq!(flat, oracle, "family {:?} seed {} bound {}", family, seed, bound);
    }

    /// Flat FPTAS ≡ oracle FPTAS: the whole pipeline (threshold search,
    /// geometric bisection, scaled DPs, recovery) must walk the same
    /// trajectory and output the same path.
    #[test]
    fn flat_fptas_matches_oracle(
        fam_ix in 0usize..FAMILIES.len(),
        reg_ix in 0usize..REGIMES.len(),
        n in 8usize..28,
        seed in 0u64..1_000_000,
        bound in 0i64..400,
        zero_stride in 0usize..4,
        eps_ix in 0usize..4,
    ) {
        // (1, 1) is the ε the service's k = 1 ladder arm runs at.
        let (eps_num, eps_den) = [(1, 2), (1, 4), (3, 10), (1, 1)][eps_ix];
        let family = FAMILIES[fam_ix];
        let g = family_graph(family, n, REGIMES[reg_ix], seed, zero_stride);
        let (s, t) = family.terminals(g.node_count());
        let flat = rsp_fptas(&g, s, t, bound, eps_num, eps_den);
        let oracle = reference::rsp_fptas(&g, s, t, bound, eps_num, eps_den);
        prop_assert_eq!(flat, oracle, "family {:?} seed {} bound {}", family, seed, bound);
    }
}

/// Serializes the tests that reprogram the process-wide solver width, and
/// restores the default resolution when dropped (even on assertion
/// failure). Solver output is width-independent by contract, so a leaked
/// override could never corrupt another test's *result* — this guard just
/// keeps each test measuring the width it says it does.
struct WidthGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

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

/// Full-solve fingerprint: every observable of a `solve` run except wall
/// time — the complete solution (edge set, cost, delay, LP bound) plus the
/// entire cycle-cancellation trajectory. Two runs are bit-identical iff
/// their fingerprints match.
fn solved_fingerprint(r: &Result<Solved, SolveError>) -> String {
    match r {
        Err(e) => format!("err:{e:?}"),
        Ok(s) => {
            let iters: Vec<String> = s
                .stats
                .iterations
                .iter()
                .map(|it| {
                    format!(
                        "{:?}/{}/{}/{}/{}/{}/{:?}",
                        it.kind,
                        it.cycle_cost,
                        it.cycle_delay,
                        it.cost_after,
                        it.delay_after,
                        it.fast_pass,
                        it.bound_used
                    )
                })
                .collect();
            format!(
                "cost={} delay={} lb={:?} probes={} edges={:?} iters=[{}]",
                s.solution.cost,
                s.solution.delay,
                s.solution.lower_bound,
                s.stats.probes,
                s.solution.edges,
                iters.join(";")
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The solver is bit-identical at 1, 2, and 8 worker threads: same
    /// solution edge set, same LP bound, same cancellation trajectory.
    /// The width-1 run is the sequential oracle; the parallel seed scan's
    /// `find_first` reduction must select the same cycle at every width.
    #[test]
    fn solver_bit_identical_across_thread_counts(
        fam_ix in 0usize..FAMILIES.len(),
        reg_ix in 0usize..REGIMES.len(),
        seed in 0u64..1_000_000,
        tightness_pct in 25u64..75,
        k in 2usize..4,
    ) {
        let workload = Workload {
            family: FAMILIES[fam_ix],
            n: 18,
            m: 72,
            regime: REGIMES[reg_ix],
            k,
            tightness: tightness_pct as f64 / 100.0,
            seed,
        };
        let Some(inst) = instantiate_with_retries(workload, 40) else {
            return Ok(());
        };
        let guard = WidthGuard::lock();
        krsp::set_solver_width(1);
        let oracle = solved_fingerprint(&solve(&inst, &Config::default()));
        for width in [2usize, 8] {
            krsp::set_solver_width(width);
            let got = solved_fingerprint(&solve(&inst, &Config::default()));
            prop_assert_eq!(
                &got, &oracle,
                "family {:?} regime {:?} seed {} diverges at width {}",
                FAMILIES[fam_ix], REGIMES[reg_ix], seed, width
            );
        }
        drop(guard);
    }
}

/// Cancellation soundness for the pass-3 seed scan: on a residual graph
/// with many independent bicameral cycles (one per gadget, so many seeds
/// match), the scan must always return the lowest-seed-index cycle — a
/// worker holding a match from a *later* seed may never win, no matter how
/// threads interleave. The width-1 scan defines that lowest-index answer;
/// repeated wide scans must reproduce it exactly.
#[test]
fn seed_scan_returns_lowest_seed_match_at_any_width() {
    use krsp_suite::krsp::bicameral::{seed_scan_only, Ctx};
    use krsp_suite::krsp_graph::{EdgeSet, NodeId, ResidualGraph};

    let gadgets = 24usize;
    let mut g = DiGraph::new(gadgets * 4);
    let mut in_solution = Vec::new();
    for j in 0..gadgets {
        let b = (j * 4) as u32;
        // The swap gadget: cheap-slow pair in the solution, pricey-fast
        // detour plus a free bridge, yielding one type-1 residual cycle
        // with (cost, delay) = (3, -8) per gadget.
        in_solution.push(g.add_edge(NodeId(b), NodeId(b + 1), 1, 9));
        in_solution.push(g.add_edge(NodeId(b + 1), NodeId(b + 3), 1, 9));
        g.add_edge(NodeId(b), NodeId(b + 2), 4, 1);
        g.add_edge(NodeId(b + 2), NodeId(b + 3), 4, 1);
        g.add_edge(NodeId(b + 2), NodeId(b + 1), 0, 0);
    }
    let sol = EdgeSet::from_edges(g.edge_count(), &in_solution);
    let res = ResidualGraph::build(&g, &sol);
    let ctx = Ctx {
        delta_d: -8,
        delta_c: 8,
        cost_cap: 10,
        enforce_cost_cap: true,
        scc_prune: true,
    };

    let _guard = WidthGuard::lock();
    krsp::set_solver_width(1);
    let oracle = seed_scan_only(&res, &ctx).expect("every gadget has a cycle");
    for width in [2usize, 8] {
        krsp::set_solver_width(width);
        for rep in 0..10 {
            let got = seed_scan_only(&res, &ctx).expect("every gadget has a cycle");
            assert_eq!(
                got.edges, oracle.edges,
                "width {width} rep {rep} returned a different (later-seed) cycle"
            );
            assert_eq!((got.cost, got.delay), (oracle.cost, oracle.delay));
        }
    }
}

/// Regression on the experiment corpus: the T1–T4 tables all draw from the
/// `Workload` grid, so pin `rsp_fptas` to the reference on those instances
/// — realistic budgets from the tightness machinery, every family × regime.
#[test]
fn fptas_bit_identical_on_workload_instances() {
    let mut compared = 0usize;
    for (fi, &family) in FAMILIES.iter().enumerate() {
        for (ri, &regime) in REGIMES.iter().enumerate() {
            for (ti, tightness) in [0.3, 0.7].into_iter().enumerate() {
                let seed = 1000 * fi as u64 + 100 * ri as u64 + ti as u64;
                let Some(inst) = instantiate_with_retries(
                    Workload {
                        family,
                        n: 24,
                        m: 96,
                        regime,
                        k: 2,
                        tightness,
                        seed,
                    },
                    40,
                ) else {
                    continue;
                };
                // The k = 1 subproblem exactly as greedy RSP poses it.
                let per_path = inst.delay_bound / inst.k as i64;
                for d in [per_path, inst.delay_bound] {
                    let flat = rsp_fptas(&inst.graph, inst.s, inst.t, d, 1, 4);
                    let oracle = reference::rsp_fptas(&inst.graph, inst.s, inst.t, d, 1, 4);
                    assert_eq!(
                        flat, oracle,
                        "family {family:?} regime {regime:?} seed {seed} d {d}"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(
        compared >= 40,
        "workload grid degenerated: {compared} comparisons"
    );
}
