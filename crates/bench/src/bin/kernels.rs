//! Kernel benchmark suite: the tracked numbers behind `BENCH_kernels.json`
//! (EXPERIMENTS.md T8).
//!
//! Usage:
//!   cargo run -p krsp-bench --release --bin kernels              # full run
//!   cargo run -p krsp-bench --release --bin kernels -- --smoke   # CI smoke
//!   cargo run -p krsp-bench --release --bin kernels -- --out X.json
//!
//! Measures the sparse budgeted-DP kernel (`krsp_flow::csp`) against the
//! preserved dense 2-D implementation (`krsp_flow::reference`) on the
//! same instances, pass 1's Bellman–Ford cycle search and the min-cost flow
//! on packed `i64` keys against their `Lex2` runs, the Dijkstra min-cost
//! flow against the Bellman–Ford-per-augmentation one, and the end-to-end
//! solver on the T2/T4 generator families. The batch plane gets its own
//! row families (EXPERIMENTS.md T12): `csp_batch` answers a fixed query set
//! against a shared [`TopoDigest`] at batch sizes 1/8/64 vs the per-query
//! rebuild, and `solve_batch` runs the same end-to-end query set through
//! [`krsp::solve_batch`] windows of 1/8/64 vs unbatched `solve` calls —
//! the amortization curve is `per_iter_ms` falling as the batch size
//! grows. The `rsp_kernel` family (EXPERIMENTS.md T13) races the pluggable
//! RSP kernels — `classic` (Lorenz–Raz FPTAS) vs `interval` (interval-scaling
//! FPTAS) — at ε = 1/16 on the grid and at ε = 1, the service's setting, on
//! a set of `rsp_cold`-shaped instances; their paths may legitimately
//! differ, so instead of checksum equality both variants are
//! cross-validated in-binary against the exact DP (`cost ≤ (1+ε)·OPT`,
//! `delay ≤ D`).
//! Everything is pinned — fixed seeds, fixed workload grid, fixed
//! iteration counts — so two runs on the same machine measure the same
//! work and the JSON can be compared commit to commit. Every row runs
//! [`TRIALS`] timed trials and reports the median per-iteration time with
//! its interquartile range; every axis (an A/B pair, the kernel, threads
//! and batch axes) alternates its variants' trials, so drift in the host's
//! speed lands on all of them, and a speedup is the ratio of the medians. The report records the host (`nproc`, os, arch) so
//! committed numbers carry their context, and emits no threads-axis row
//! wider than `nproc`.
//!
//! The A/B pairs also cross-check their checksums: a variant that got
//! faster by computing something else fails the run. The batch families
//! cross-check every batch size against the unbatched fold the same way.

use krsp::bicameral::{seed_scan_only, Ctx};
use krsp::{baselines, solve, solve_batch, Config, Instance};
use krsp_bench::standard_workload;
use krsp_flow::csp::threshold_search;
use krsp_flow::{
    constrained_shortest_path_with, constrained_shortest_paths_digested, find_negative_cycle_in,
    flow_terms, kernel, min_cost_k_flow, min_cost_k_flow_lex, pack_lex_keys, reference,
    rsp_fptas_with, walk_terms, BfScratch, CspQuery, DpScratch, McfFlow, TopoDigest, KERNEL_KINDS,
};
use krsp_gen::{Family, Regime};
use krsp_graph::{EdgeId, NodeId, ResidualGraph};
use krsp_numeric::Lex2;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Timed trials per row in a full run.
const TRIALS: usize = 5;

/// One row: a variant's trials on one (bench, config).
#[derive(Serialize)]
struct Measurement {
    /// Kernel under test.
    bench: String,
    /// Instance/configuration label.
    config: String,
    /// `sparse` or `flat` (current) vs `reference` (pre-rewrite), `packed`
    /// vs `lex2`, or a point on a kernel, threads or batch axis.
    variant: String,
    /// Iterations per trial.
    iters: u64,
    /// Timed trials.
    trials: usize,
    /// Median per-iteration time over the trials.
    per_iter_ms: f64,
    /// Interquartile range of the per-iteration times over the trials.
    iqr_ms: f64,
    /// Work fingerprint; equal across variants of the same (bench, config).
    checksum: i64,
}

/// Recording host metadata: committed numbers are only comparable across
/// commits measured on the same machine, so the report says which one.
#[derive(Serialize)]
struct Host {
    /// Available hardware parallelism (`nproc`); bounds every threads-axis
    /// and batch-axis row.
    nproc: usize,
    os: String,
    arch: String,
}

impl Host {
    fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

#[derive(Serialize)]
struct Report {
    schema: String,
    mode: String,
    host: Host,
    /// `null` on multi-core recorders. On a single-core host the threads
    /// axis stops at `threads1` and the batch-axis rows cannot show
    /// parallel gains, so the report says so.
    caveat: Option<String>,
    results: Vec<Measurement>,
    speedups: Vec<Speedup>,
}

/// `ratio = "base/cand"`: base's median per-iteration time over cand's.
#[derive(Serialize)]
struct Speedup {
    bench: String,
    config: String,
    ratio: String,
    speedup: f64,
}

/// Runs `f` `iters` times; returns the per-iteration milliseconds and the
/// last checksum.
fn time_per_iter(iters: u64, mut f: impl FnMut() -> i64) -> (f64, i64) {
    let mut checksum = 0i64;
    let start = Instant::now();
    for _ in 0..iters {
        checksum = black_box(f());
    }
    (start.elapsed().as_secs_f64() * 1e3 / iters as f64, checksum)
}

/// Linear-interpolation quantile `q` of an ascending, nonempty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

struct Harness {
    results: Vec<Measurement>,
    speedups: Vec<Speedup>,
    smoke: bool,
}

impl Harness {
    fn trials(&self) -> usize {
        if self.smoke {
            1
        } else {
            TRIALS
        }
    }

    fn iters(&self, iters: u64) -> u64 {
        if self.smoke {
            2
        } else {
            iters
        }
    }

    /// Records one row from its trials; every trial must fingerprint the
    /// same work.
    fn push(&mut self, bench: &str, config: &str, variant: &str, iters: u64, runs: &[(f64, i64)]) {
        let checksum = runs[0].1;
        assert!(
            runs.iter().all(|&(_, c)| c == checksum),
            "{bench}/{config}/{variant}: trials disagree"
        );
        let mut times: Vec<f64> = runs.iter().map(|&(t, _)| t).collect();
        times.sort_by(f64::total_cmp);
        self.results.push(Measurement {
            bench: bench.to_string(),
            config: config.to_string(),
            variant: variant.to_string(),
            iters,
            trials: runs.len(),
            per_iter_ms: quantile(&times, 0.5),
            iqr_ms: quantile(&times, 0.75) - quantile(&times, 0.25),
            checksum,
        });
    }

    /// One variant's row.
    fn record(
        &mut self,
        bench: &str,
        config: &str,
        variant: &str,
        iters: u64,
        mut f: impl FnMut() -> i64,
    ) {
        self.axis(bench, config, iters, &[variant], |_| f());
    }

    /// A variant axis on one (bench, config): `run(i)` runs `variants[i]`
    /// once. The variants' trials alternate round-robin, so drift in the
    /// host's speed lands on every variant, not on whichever ran last.
    fn axis(
        &mut self,
        bench: &str,
        config: &str,
        iters: u64,
        variants: &[&str],
        mut run: impl FnMut(usize) -> i64,
    ) {
        let iters = self.iters(iters);
        let mut runs: Vec<Vec<(f64, i64)>> = vec![Vec::new(); variants.len()];
        for _ in 0..self.trials() {
            for (i, trials) in runs.iter_mut().enumerate() {
                trials.push(time_per_iter(iters, || run(i)));
            }
        }
        for (variant, trials) in variants.iter().zip(&runs) {
            self.push(bench, config, variant, iters, trials);
        }
    }

    /// Asserts that the last `rows` rows, one axis, share one checksum.
    fn agree(&self, bench: &str, config: &str, rows: usize) {
        let axis = &self.results[self.results.len() - rows..];
        for m in axis {
            assert_eq!(
                m.checksum, axis[0].checksum,
                "{bench}/{config}: {} disagrees with {}",
                m.variant, axis[0].variant
            );
        }
    }

    /// A/B pair: a two-variant axis whose checksums must agree; records
    /// the speedup `b/a`.
    fn ab(
        &mut self,
        bench: &str,
        config: &str,
        iters: u64,
        (a, mut fa): (&str, impl FnMut() -> i64),
        (b, mut fb): (&str, impl FnMut() -> i64),
    ) {
        self.axis(bench, config, iters, &[a, b], |i| {
            if i == 0 {
                fa()
            } else {
                fb()
            }
        });
        self.agree(bench, config, 2);
        self.speedup(bench, config, b, a);
    }

    /// Records `median(base) / median(cand)` for two rows already measured.
    fn speedup(&mut self, bench: &str, config: &str, base: &str, cand: &str) {
        let median = |variant: &str| {
            self.results
                .iter()
                .find(|m| m.bench == bench && m.config == config && m.variant == variant)
                .map(|m| m.per_iter_ms)
        };
        if let (Some(b), Some(c)) = (median(base), median(cand)) {
            self.speedups.push(Speedup {
                bench: bench.to_string(),
                config: config.to_string(),
                ratio: format!("{base}/{cand}"),
                speedup: b / c.max(1e-9),
            });
        }
    }
}

/// Path fingerprint: cost, delay, and edge ids folded into one i64.
fn fingerprint(p: Option<&krsp_flow::CspPath>) -> i64 {
    let Some(p) = p else { return -1 };
    let mut h = p.cost.wrapping_mul(31).wrapping_add(p.delay);
    for e in &p.edges {
        h = h.wrapping_mul(131).wrapping_add(e.index() as i64);
    }
    h
}

/// Edge-id fingerprint of a cycle or a flow, in iteration order.
fn fold_ids(ids: impl Iterator<Item = EdgeId>) -> i64 {
    ids.fold(17, |acc, e| {
        acc.wrapping_mul(131).wrapping_add(e.index() as i64)
    })
}

/// The pinned instance grid. `(label, family, n, k, regime, tightness,
/// seed)` — T2-style medium breadth plus T4-style layered fabrics, the
/// scales the acceptance numbers are quoted at.
fn grid(smoke: bool) -> Vec<(String, Instance)> {
    let points: &[(&str, Family, usize, usize, Regime, f64, u64)] = if smoke {
        &[
            (
                "smoke_gnm_n16",
                Family::Gnm,
                16,
                2,
                Regime::Uniform,
                0.5,
                7001,
            ),
            (
                "smoke_layered_n18",
                Family::Layered,
                18,
                2,
                Regime::Anticorrelated,
                0.5,
                7002,
            ),
        ]
    } else {
        &[
            // T2 scale: breadth across families at n = 40, k = 2.
            ("t2_gnm_n40", Family::Gnm, 40, 2, Regime::Uniform, 0.4, 2003),
            (
                "t2_geometric_n40",
                Family::Geometric,
                40,
                2,
                Regime::Correlated,
                0.4,
                2011,
            ),
            // T4 scale: layered fabrics, n ≈ 48, anticorrelated (the
            // adversarial regime the k sweep is quoted on).
            (
                "t4_layered_n48_k2",
                Family::Layered,
                48,
                2,
                Regime::Anticorrelated,
                0.4,
                4002,
            ),
            (
                "t4_layered_n48_k4",
                Family::Layered,
                48,
                4,
                Regime::Anticorrelated,
                0.4,
                4004,
            ),
        ]
    };
    points
        .iter()
        .filter_map(|&(label, family, n, k, regime, tightness, seed)| {
            let inst = standard_workload(family, n, k, regime, tightness, seed)?;
            Some((label.to_string(), inst))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());

    let mut h = Harness {
        results: Vec::new(),
        speedups: Vec::new(),
        smoke,
    };
    let grid = grid(smoke);
    assert!(!grid.is_empty(), "workload grid produced no instances");

    // A set of `rsp_cold`-shaped instances (gnm, n = 240, anticorrelated,
    // tightness 0.5): the service's k = 1 workload.
    let rsp_cold: Vec<Instance> = (0..if smoke { 2 } else { 16 })
        .filter_map(|j| {
            standard_workload(Family::Gnm, 240, 1, Regime::Anticorrelated, 0.5, 23_000 + j)
        })
        .collect();
    assert!(!rsp_cold.is_empty(), "rsp_cold set produced no instances");

    // --- budget_dp (exact DP) and rsp_fptas: sparse vs reference --------
    let mut dp = DpScratch::new();
    for (label, inst) in &grid {
        let g = &inst.graph;
        let (s, t) = (inst.s, inst.t);
        let d = inst.delay_bound;
        h.ab(
            "budget_dp",
            label,
            15,
            ("sparse", || {
                fingerprint(constrained_shortest_path_with(g, s, t, d, &mut dp).as_ref())
            }),
            ("reference", || {
                fingerprint(reference::constrained_shortest_path(g, s, t, d).as_ref())
            }),
        );
        h.ab(
            "rsp_fptas",
            label,
            15,
            ("sparse", || {
                fingerprint(rsp_fptas_with(g, s, t, d, 1, 4, &mut dp).as_ref())
            }),
            ("reference", || {
                fingerprint(reference::rsp_fptas(g, s, t, d, 1, 4).as_ref())
            }),
        );
    }

    // --- threshold_search: the FPTAS's Phase A, scratch vs reference ----
    // The scratch search (one reverse min-delay search, pruned probes, one
    // witness search) against the full-Dijkstra bisection with sentinel
    // weights it replaced, on each grid instance and on the `rsp_cold` set.
    // Both must return the same `c*` and the same witness edge for edge:
    // asserted per instance before timing, and the checksums fold both.
    let threshold_rows = grid
        .iter()
        .map(|(label, inst)| (label.clone(), std::slice::from_ref(inst), 2000))
        .chain([("rsp_cold_gnm_n240".to_string(), &rsp_cold[..], 100)]);
    for (label, insts, iters) in threshold_rows {
        let ck = |r: Option<(i64, krsp_flow::CspPath)>| {
            r.map_or(-1, |(cstar, p)| {
                cstar
                    .wrapping_mul(1_000_003)
                    .wrapping_add(fingerprint(Some(&p)))
            })
        };
        for inst in insts {
            let (g, s, t, d) = (&inst.graph, inst.s, inst.t, inst.delay_bound);
            assert_eq!(
                threshold_search(g, s, t, d, &mut dp),
                reference::threshold_search(g, s, t, d),
                "threshold_search/{label}: c* or the witness differs from the reference"
            );
        }
        let fold = |f: &mut dyn FnMut(&Instance) -> i64| {
            insts
                .iter()
                .fold(0i64, |acc, inst| acc.wrapping_mul(31).wrapping_add(f(inst)))
        };
        h.ab(
            "threshold_search",
            &label,
            iters,
            ("scratch", || {
                fold(&mut |i| ck(threshold_search(&i.graph, i.s, i.t, i.delay_bound, &mut dp)))
            }),
            ("reference", || {
                fold(&mut |i| {
                    ck(reference::threshold_search(
                        &i.graph,
                        i.s,
                        i.t,
                        i.delay_bound,
                    ))
                })
            }),
        );
    }

    // --- rsp_kernel: pluggable FPTAS backends, kernel axis ---------------
    // Both kernels stop every DP at the first delay-feasible level; the
    // classic kernel's final DP scales against a ~4(n+1)/ε budget range,
    // while the interval kernel brackets OPT with cheap coarse-ε tests first
    // and scales against a narrow window. Their paths may legitimately
    // differ (each certifies its own answer), so the variants are NOT
    // checksum-compared; instead every kernel's answer is cross-validated
    // against the exact DP: feasibility must agree, `delay ≤ D`, and
    // `cost ≤ (1+ε)·OPT`. Two regimes: ε = 1/16, the small-ε regime the
    // interval scheme targets, on each grid instance; and ε = 1, what the
    // service's `k = 1` arm runs, on the `rsp_cold` set, each iteration
    // solving the whole set.
    let kernel_rows = grid
        .iter()
        .map(|(label, inst)| (label.clone(), std::slice::from_ref(inst), (1u32, 16u32), 15))
        .chain([(
            "rsp_cold_gnm_n240_eps1".to_string(),
            &rsp_cold[..],
            (1, 1),
            10,
        )]);
    let kinds = KERNEL_KINDS.map(|kind| kind.as_str());
    for (label, insts, (eps_num, eps_den), iters) in kernel_rows {
        let solve_all = |kind, dp: &mut DpScratch| {
            insts
                .iter()
                .map(|inst| {
                    kernel(kind)
                        .solve_with(
                            &inst.graph,
                            inst.s,
                            inst.t,
                            inst.delay_bound,
                            eps_num,
                            eps_den,
                            dp,
                        )
                        .expect("a positive epsilon is valid")
                })
                .collect::<Vec<_>>()
        };
        let exact: Vec<_> = insts
            .iter()
            .map(|inst| {
                constrained_shortest_path_with(
                    &inst.graph,
                    inst.s,
                    inst.t,
                    inst.delay_bound,
                    &mut dp,
                )
            })
            .collect();
        for kind in KERNEL_KINDS {
            for ((inst, opt), got) in insts.iter().zip(&exact).zip(solve_all(kind, &mut dp)) {
                let d = inst.delay_bound;
                match (opt, &got) {
                    (Some(opt), Some(p)) => {
                        assert!(
                            p.delay <= d,
                            "rsp_kernel/{label}/{kind}: delay {} > bound {d}",
                            p.delay
                        );
                        assert!(
                            i128::from(p.cost) * i128::from(eps_den)
                                <= i128::from(opt.cost) * i128::from(eps_den + eps_num),
                            "rsp_kernel/{label}/{kind}: cost {} > (1+ε)·OPT (OPT = {})",
                            p.cost,
                            opt.cost
                        );
                    }
                    (None, None) => {}
                    _ => panic!(
                        "rsp_kernel/{label}/{kind}: feasibility disagrees with the exact DP \
                         (exact = {}, kernel = {})",
                        opt.is_some(),
                        got.is_some()
                    ),
                }
            }
        }
        h.axis("rsp_kernel", &label, iters, &kinds, |i| {
            solve_all(KERNEL_KINDS[i], &mut dp)
                .iter()
                .fold(0i64, |acc, p| {
                    acc.wrapping_mul(1_000_003)
                        .wrapping_add(fingerprint(p.as_ref()))
                })
        });
        // > 1.0 means the interval kernel's narrow final sweep pays.
        h.speedup("rsp_kernel", &label, "classic", "interval");
    }

    // --- bellman_ford(cycle): pass 1 on packed keys vs on Lex2 ----------
    // Pass 1 of the bicameral search: the residual graph of the min-sum
    // (delay-oblivious) flow under the lexicographic (w, d) with ΔD = −1
    // and ΔC above every |c(O)|, so every delay-reducing residual cycle is
    // negative. A cycle must exist (asserted). The packed variant packs
    // the keys inside the timed loop, as the solver does per search. The
    // packed run makes the Lex2 run's every decision, so the checksum
    // folds the returned cycle's edge ids.
    // --- min_cost_flow: Dijkstra SSP vs one Bellman–Ford per augmentation
    // The k-unit min-cost flow phase 1 and the baselines run, on the
    // instance graph under (c, d). Both variants reach the same optimum, so
    // the checksum folds its total weight. `min_cost_flow(packed)` races
    // the same Dijkstra on packed keys against its Lex2 run; those return
    // the same flow, so that checksum folds the flow's edge ids.
    let mut packed: BfScratch<i64> = BfScratch::new();
    let mut lex: BfScratch<Lex2> = BfScratch::new();
    let mut keys = Vec::new();
    for (label, inst) in &grid {
        let min_sum = baselines::min_sum(inst).expect("grid instances are feasible");
        let residual = ResidualGraph::build(&inst.graph, &min_sum.edges);
        let rg = residual.graph();
        let delta_c = 1 + rg.edges().iter().map(|e| e.cost.abs()).sum::<i64>();
        let ctx = Ctx {
            delta_d: -1,
            delta_c,
            cost_cap: delta_c,
            enforce_cost_cap: true,
            scc_prune: true,
        };
        let w = |e: EdgeId| {
            let r = rg.edge(e);
            Lex2::new(ctx.w(r.cost, r.delay), i128::from(r.delay))
        };
        let cycle_ck = |cycle: Option<&[EdgeId]>| cycle.map_or(-1, |c| fold_ids(c.iter().copied()));
        h.ab(
            "bellman_ford(cycle)",
            label,
            4000,
            ("packed", || {
                assert!(pack_lex_keys(rg.edge_count(), w, walk_terms(rg), &mut keys));
                let keys = &keys;
                cycle_ck(find_negative_cycle_in(
                    rg,
                    |e: EdgeId| keys[e.index()],
                    &mut packed,
                ))
            }),
            ("lex2", || cycle_ck(find_negative_cycle_in(rg, w, &mut lex))),
        );
        assert_ne!(
            h.results.last().map(|m| m.checksum),
            Some(-1),
            "bellman_ford(cycle)/{label}: the min-sum residual must hold a negative cycle"
        );

        let g = &inst.graph;
        let cd = |e: EdgeId| {
            let r = g.edge(e);
            Lex2::new(i128::from(r.cost), i128::from(r.delay))
        };
        let total = |f: Option<McfFlow<Lex2>>| -> i64 {
            let w = f.expect("grid instances hold k disjoint paths").weight;
            (w.primary * 1_000_003 + w.secondary) as i64
        };
        h.ab(
            "min_cost_flow",
            label,
            6000,
            ("flat", || {
                total(min_cost_k_flow(g, inst.s, inst.t, inst.k, cd))
            }),
            ("reference", || {
                total(reference::min_cost_k_flow(g, inst.s, inst.t, inst.k, cd))
            }),
        );
        let flow_ck = |f: Option<McfFlow<Lex2>>| {
            fold_ids(
                f.expect("grid instances hold k disjoint paths")
                    .edges
                    .iter(),
            )
        };
        assert!(pack_lex_keys(g.edge_count(), cd, flow_terms(g), &mut keys));
        h.ab(
            "min_cost_flow(packed)",
            label,
            6000,
            ("packed", || {
                flow_ck(min_cost_k_flow_lex(g, inst.s, inst.t, inst.k, cd))
            }),
            ("lex2", || {
                flow_ck(min_cost_k_flow(g, inst.s, inst.t, inst.k, cd))
            }),
        );
    }

    // --- bicameral_search: the pass-3 seed scan, threads axis -----------
    // The parallel hotspot behind `--threads`/`KRSP_THREADS`. The
    // min-delay baseline is lex-(delay, cost) optimal, so its residual
    // graph has no delay-reducing cycle and no free cost-reducing cycle;
    // under `delta_d = -1, delta_c = cap + 1` every candidate within the
    // `|c| ≤ cap` window has weight `(cap+1)·d + c > 0`. The scan
    // therefore finds nothing and every timed iteration is the same full
    // sweep of all seeds — the deterministic worst case the cooperative
    // cancellation must not slow down. Checksums are cross-checked over
    // the widths: all variants must agree the sweep comes up empty. No
    // width past the host's `nproc` runs: it would time oversubscription,
    // not the scan.
    let host = Host::detect();
    let widths: Vec<usize> = [1, 2, 4].into_iter().filter(|&w| w <= host.nproc).collect();
    let width_names: Vec<String> = widths.iter().map(|w| format!("threads{w}")).collect();
    let width_names: Vec<&str> = width_names.iter().map(String::as_str).collect();
    let widest = width_names.last().expect("width 1 always runs").to_string();
    for (label, inst) in &grid {
        let Some(base) = baselines::min_delay(inst) else {
            continue;
        };
        let residual = ResidualGraph::build(&inst.graph, &base.edges);
        let cap = inst
            .graph
            .edge_iter()
            .map(|(_, e)| e.cost)
            .max()
            .unwrap_or(1)
            .max(1);
        let ctx = Ctx {
            delta_d: -1,
            delta_c: cap + 1,
            cost_cap: cap,
            enforce_cost_cap: true,
            scc_prune: true,
        };
        h.axis("bicameral_search", label, 20, &width_names, |i| {
            // A plain store: the scan reads the width when it starts.
            krsp::set_solver_width(widths[i]);
            seed_scan_only(&residual, &ctx).map_or(-1, |cyc| {
                cyc.edges.iter().fold(
                    cyc.cost.wrapping_mul(31).wrapping_add(cyc.delay),
                    |acc, e| acc.wrapping_mul(131).wrapping_add(e.index() as i64),
                )
            })
        });
        krsp::set_solver_width(0);
        h.agree("bicameral_search", label, widths.len());
        // The parallel gain; absent on a single-core host.
        if widths.len() > 1 {
            h.speedup("bicameral_search", label, "threads1", &widest);
        }
    }

    // --- end-to-end solve (no reference variant; tracked over time) -----
    for (label, inst) in &grid {
        h.record("solve", label, "current", 200, || {
            solve(inst, &Config::default())
                .map(|out| {
                    out.solution
                        .cost
                        .wrapping_mul(31)
                        .wrapping_add(out.solution.delay)
                })
                .unwrap_or(-1)
        });
    }

    // --- csp_batch: shared-digest query blocks, batch-size axis ----------
    // A fixed query set per instance (mixed sources so sweep sharing has
    // groups to merge, staggered bounds below the digest bound), answered
    // at batch sizes 1/8/64: each window predigests once and sweeps its
    // block. `unbatched` is the per-query rebuild
    // (`constrained_shortest_path_with`). Checksums fold every query's
    // path fingerprint in order, so all variants must answer every query
    // bit-identically — the amortization must not change a single path.
    let nq = if smoke { 8 } else { 64 };
    let batch_sizes: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 64] };
    // Per-query cost unbatched over the widest batch: > 1.0 means batching
    // pays; the committed full-mode numbers are the T12 acceptance curve.
    let batch_names: Vec<String> = std::iter::once("unbatched".to_string())
        .chain(batch_sizes.iter().map(|b| format!("batch{b}")))
        .collect();
    let batch_names: Vec<&str> = batch_names.iter().map(String::as_str).collect();
    let widest_batch = batch_names.last().expect("batch axis nonempty").to_string();
    for (label, inst) in &grid {
        let g = &inst.graph;
        let d = inst.delay_bound;
        let n = g.node_count() as u32;
        let queries: Vec<CspQuery> = (0..nq)
            .map(|j| CspQuery {
                s: if j % 4 == 0 {
                    inst.s
                } else {
                    NodeId((j as u32).wrapping_mul(7) % n)
                },
                t: inst.t,
                delay_bound: (d - (j as i64 % 5)).max(0),
            })
            .collect();
        h.axis("csp_batch", label, 5, &batch_names, |i| {
            if i == 0 {
                return queries.iter().fold(0i64, |acc, q| {
                    let p = constrained_shortest_path_with(g, q.s, q.t, q.delay_bound, &mut dp);
                    acc.wrapping_mul(1_000_003)
                        .wrapping_add(fingerprint(p.as_ref()))
                });
            }
            queries.chunks(batch_sizes[i - 1]).fold(0i64, |acc, block| {
                let digest = TopoDigest::delay_cost(g, d);
                constrained_shortest_paths_digested(g, &digest, block, &mut dp)
                    .iter()
                    .fold(acc, |acc, p| {
                        acc.wrapping_mul(1_000_003)
                            .wrapping_add(fingerprint(p.as_ref()))
                    })
            })
        });
        h.agree("csp_batch", label, batch_names.len());
        h.speedup("csp_batch", label, "unbatched", &widest_batch);
    }

    // --- solve_batch: end-to-end batched solving, batch-size axis --------
    // The same topology solved at `nq` staggered delay bounds (relaxing a
    // feasible bound keeps the instance valid), pushed through
    // `solve_batch` windows of 1/8/64 vs a plain `solve` loop. Window 1
    // pays the per-call worker-pool setup `nq` times; window 64 pays it
    // once and reuses the per-worker scratch across all queries — the
    // per_iter_ms spread is the batch plane's amortization. Checksums fold
    // each query's (cost, delay) in order: batching must not change any
    // answer.
    for (label, inst) in &grid {
        let d = inst.delay_bound;
        let insts: Vec<Instance> = (0..nq)
            .map(|j| {
                Instance::new(
                    inst.graph.clone(),
                    inst.s,
                    inst.t,
                    inst.k,
                    d + (j as i64 % 7),
                )
                .expect("relaxing a feasible bound keeps the instance valid")
            })
            .collect();
        let cfg = Config::default();
        let fold = |acc: i64, r: Result<(i64, i64), ()>| {
            let v = r.map_or(-1, |(c, dl)| c.wrapping_mul(31).wrapping_add(dl));
            acc.wrapping_mul(1_000_003).wrapping_add(v)
        };
        h.axis("solve_batch", label, 2, &batch_names, |i| {
            if i == 0 {
                return insts.iter().fold(0i64, |acc, inst| {
                    let r = solve(inst, &cfg)
                        .map(|out| (out.solution.cost, out.solution.delay))
                        .map_err(|_| ());
                    fold(acc, r)
                });
            }
            insts.chunks(batch_sizes[i - 1]).fold(0i64, |acc, window| {
                solve_batch(window, &cfg).iter().fold(acc, |acc, r| {
                    let r = r
                        .as_ref()
                        .map(|out| (out.solution.cost, out.solution.delay))
                        .map_err(|_| ());
                    fold(acc, r)
                })
            })
        });
        h.agree("solve_batch", label, batch_names.len());
        h.speedup("solve_batch", label, "unbatched", &widest_batch);
    }

    let caveat = (host.nproc == 1).then(|| {
        "recorded on a single-core host: the threads axis stops at threads1 and the \
         batch-axis rows cannot show parallel gains here; per-iteration A/B and \
         kernel-axis comparisons remain valid"
            .to_string()
    });
    let report = Report {
        schema: "krsp-bench-kernels/v2".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        host,
        caveat,
        results: h.results,
        speedups: h.speedups,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // Self-validate before writing: the emitted text must parse back.
    serde_json::parse_value(&json).expect("emitted JSON must be valid");
    std::fs::write(&out, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out}");
}
