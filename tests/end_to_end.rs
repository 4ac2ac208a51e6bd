//! End-to-end integration tests: exercise the public API exactly as a
//! downstream user would, across all generator families, and verify the
//! paper's guarantees against the exact solver.

use krsp_suite::krsp::{self, baselines, exact, solve, Config, Instance};
use krsp_suite::krsp_gen::{instantiate_with_retries, Family, Regime, Workload};
use krsp_suite::krsp_graph::{DiGraph, NodeId};

fn workload(family: Family, k: usize, tightness: f64, seed: u64) -> Option<Instance> {
    instantiate_with_retries(
        Workload {
            family,
            n: 13,
            m: 30,
            regime: Regime::Anticorrelated,
            k,
            tightness,
            seed,
        },
        30,
    )
}

#[test]
fn bifactor_guarantee_on_random_instances() {
    let mut checked = 0;
    for family in [Family::Gnm, Family::Grid, Family::Layered] {
        for seed in [1, 2, 3] {
            let Some(inst) = workload(family, 2, 0.4, seed) else {
                continue;
            };
            if inst.m() > 34 {
                continue; // keep brute force tractable
            }
            let Ok(out) = solve(&inst, &Config::default()) else {
                // Phase 1 may legitimately report delay-infeasibility even
                // when structurally feasible; confirm with the exact solver.
                assert!(exact::brute_force(&inst).is_none());
                continue;
            };
            let opt = exact::brute_force(&inst).expect("solver said feasible");
            assert!(
                out.solution.delay <= inst.delay_bound,
                "{family:?}/{seed}: delay {} > D {}",
                out.solution.delay,
                inst.delay_bound
            );
            assert!(
                out.solution.cost <= 2 * opt.cost,
                "{family:?}/{seed}: cost {} > 2·C_OPT {}",
                out.solution.cost,
                opt.cost
            );
            checked += 1;
        }
    }
    assert!(checked >= 3, "too few instances exercised ({checked})");
}

#[test]
fn solver_beats_or_matches_lp_rounding_alone() {
    for seed in [5, 6, 7, 8] {
        let Some(inst) = workload(Family::Layered, 2, 0.3, seed) else {
            continue;
        };
        let Ok(ours) = solve(&inst, &Config::default()) else {
            continue;
        };
        // Phase 1 alone may violate the delay budget; the full algorithm
        // never does.
        assert!(ours.solution.delay <= inst.delay_bound);
        if let Some(lp) = baselines::lp_rounding_only(&inst) {
            assert!(lp.delay <= 2 * inst.delay_bound, "Lemma 5 delay bound");
        }
    }
}

#[test]
fn min_delay_feasibility_agreement() {
    // solve() succeeds iff a delay-feasible pair exists (which min_delay
    // certifies), on structurally feasible instances.
    for seed in 10..16 {
        let Some(inst) = workload(Family::Gnm, 2, 0.2, seed) else {
            continue;
        };
        let feasible = baselines::min_delay(&inst)
            .map(|s| s.delay <= inst.delay_bound)
            .unwrap_or(false);
        let solved = solve(&inst, &Config::default()).is_ok();
        assert_eq!(feasible, solved, "seed {seed}");
    }
}

#[test]
fn paths_are_truly_edge_disjoint() {
    for k in [2, 3] {
        let Some(inst) = workload(Family::Layered, k, 0.6, 21) else {
            continue;
        };
        let Ok(out) = solve(&inst, &Config::default()) else {
            continue;
        };
        let paths = out.solution.paths(&inst);
        assert_eq!(paths.len(), k);
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            assert_eq!(p.source(), inst.s);
            assert_eq!(p.target(), inst.t);
            for e in p.edges() {
                assert!(seen.insert(*e), "edge {e:?} reused across paths");
            }
        }
    }
}

#[test]
fn scaling_theorem4_end_to_end() {
    let g = DiGraph::from_edges(
        6,
        &[
            (0, 1, 10, 100),
            (1, 5, 10, 100),
            (0, 2, 80, 10),
            (2, 5, 80, 10),
            (0, 3, 20, 60),
            (3, 5, 20, 60),
            (0, 4, 90, 20),
            (4, 5, 90, 20),
        ],
    );
    let inst = Instance::new(g, NodeId(0), NodeId(5), 2, 140).unwrap();
    let eps = krsp::Eps::new(1, 4);
    let out = krsp::solve_scaled(&inst, eps, eps, &Config::default()).unwrap();
    let opt = exact::brute_force(&inst).unwrap();
    assert!(out.solution.delay as f64 <= 1.25 * 140.0);
    assert!(out.solution.cost as f64 <= 2.25 * opt.cost as f64);
}

#[test]
fn figure1_cost_cap_matters() {
    // With the cap enforced (default), the solution stays within 2·C_OPT;
    // the ablation switch reproduces the paper's Figure-1 blow-up *risk*
    // (the solver may still luck into a good answer, but the guarantee is
    // gone — we only assert the guarded run).
    let inst = krsp_suite::krsp_gen::fig1_instance(12, 3);
    let opt = exact::brute_force(&inst).unwrap();
    let out = solve(&inst, &Config::default()).unwrap();
    assert!(out.solution.delay <= inst.delay_bound);
    assert!(
        out.solution.cost <= 2 * opt.cost,
        "cost {} vs 2·{}",
        out.solution.cost,
        opt.cost
    );
}

/// A k = 2 instance where the optimum costs 1 but `C_LP = 2/5`: the paths
/// 0→1→2→7 (cost 1, delay 5), 0→3→4→7 (cost 0, delay 10) and the direct
/// edge 0→7 (free), with D = 8.
fn integrality_gap_witness() -> Instance {
    let g = DiGraph::from_edges(
        8,
        &[
            (0, 1, 1, 2),
            (1, 2, 0, 2),
            (2, 7, 0, 1),
            (0, 3, 0, 5),
            (3, 4, 0, 5),
            (4, 7, 0, 0),
            (0, 7, 0, 0),
        ],
    );
    Instance::new(g, NodeId(0), NodeId(7), 2, 8).unwrap()
}

/// Seeded 8-node k = 2 instances with zero costs allowed, so that the
/// integrality gap shows: two 3-edge s–t backbones plus up to 13 random
/// edges, costs 0–2, delays 0–5, D < 20.
fn small_gap_instance(seed: u64) -> Instance {
    let mut state = seed;
    let mut below = |n: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    };
    let mut inner: Vec<u32> = (1..7).collect();
    for i in (1..inner.len()).rev() {
        inner.swap(i, below(i as u64 + 1) as usize);
    }
    let mut edges = Vec::new();
    for leg in inner[..4].chunks(2) {
        for (u, v) in [(0, leg[0]), (leg[0], leg[1]), (leg[1], 7)] {
            edges.push((u, v, below(3) as i64, below(6) as i64));
        }
    }
    for _ in 0..below(14) {
        let (u, v) = (below(8) as u32, below(8) as u32);
        if u != v {
            edges.push((u, v, below(3) as i64, below(6) as i64));
        }
    }
    let g = DiGraph::from_edges(8, &edges);
    Instance::new(g, NodeId(0), NodeId(7), 2, below(20) as i64).unwrap()
}

/// Every rung's advertised factor holds against the exact `C_OPT`, and the
/// `Ĉ*` each Full solve certifies lies at or below `C_OPT` with the answer
/// within twice it. Where the integrality gap is wide an optimal Full
/// answer costs more than `2·C_LP`, so the service's debug-build audit must
/// check it against `Ĉ*`: auditing against `C_LP` turns such answers into
/// solver panics and quarantine strikes.
#[test]
fn every_rung_factor_holds_against_c_opt() {
    use krsp_service::{Request, Rung, Service, ServiceConfig};
    let svc = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let witness = integrality_gap_witness();
    let full = solve(&witness, &Config::default()).unwrap();
    let lp = full.solution.lower_bound.expect("Full answers carry C_LP");
    assert_eq!((lp.num(), lp.den()), (2, 5));
    assert_eq!((full.solution.cost, full.certified), (1, Some(1)));

    let (mut solved, mut above_twice_lp) = (0, 0);
    for (seed, inst) in std::iter::once((None, witness))
        .chain((0..20_000).map(|seed| (Some(seed), small_gap_instance(seed))))
    {
        let Some(opt) = exact::brute_force(&inst).map(|e| e.cost) else {
            continue;
        };
        solved += 1;
        let check = |rung: Rung, sol: &krsp::Solution| {
            let g = rung.guarantee();
            let mut relaxed = inst.clone();
            relaxed.delay_bound *= i64::from(g.delay_factor);
            let reference = g.cost_factor.map(|f| (opt.into(), f));
            let violations = krsp::audit(&relaxed, sol, reference);
            assert!(
                violations.is_empty(),
                "{rung} on seed {seed:?}: {violations:?}"
            );
        };

        let full = solve(&inst, &Config::default()).unwrap();
        check(Rung::Full, &full.solution);
        let c = full
            .certified
            .expect("no probe stops on the iteration guard");
        assert!(
            c <= opt,
            "seed {seed:?}: certified Ĉ* = {c} > C_OPT = {opt}"
        );
        assert!(
            full.solution.cost <= 2 * c,
            "seed {seed:?}: cost above 2·Ĉ*"
        );
        let lp = full.solution.lower_bound.expect("Full answers carry C_LP");
        if !krsp::audit(&inst, &full.solution, Some((lp, 2))).is_empty() {
            above_twice_lp += 1;
        }

        let served = svc
            .provision(Request {
                instance: inst.clone(),
                deadline: None,
                kernel: None,
            })
            .unwrap_or_else(|e| panic!("seed {seed:?}: {e}"));
        assert_eq!(served.rung, Rung::Full, "seed {seed:?}");
        assert_eq!(served.solution.cost, full.solution.cost, "seed {seed:?}");

        let probe = Config {
            single_probe: true,
            ..Config::default()
        };
        check(Rung::SingleProbe, &solve(&inst, &probe).unwrap().solution);
        let rounded = baselines::lp_rounding_only(&inst).expect("feasible");
        check(Rung::LpRounding, &rounded);
        let mut relaxed = inst.clone();
        relaxed.delay_bound *= 2;
        assert!(krsp::audit(&relaxed, &rounded, Some((lp, 2))).is_empty());
        check(
            Rung::MinDelay,
            &baselines::min_delay(&inst).expect("feasible"),
        );
    }
    assert!(solved >= 5_000, "too few feasible instances ({solved})");
    assert!(above_twice_lp > 0, "no Full answer above 2·C_LP exercised");
}
