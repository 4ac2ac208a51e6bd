//! Kernel differential suite: `ClassicFptas` ≡ guarantees ≡
//! `IntervalScalingFptas` (DESIGN.md §4.16).
//!
//! The two [`RspKernel`] backends promise the same `(1+ε)` contract but
//! generally recover *different* paths — the interval scheme stops at the
//! first delay-feasible level of a narrower budget window — so the
//! differential here asserts guarantees, not bit-identity:
//!
//! * same feasibility verdict as the exact DP,
//! * `delay ≤ D`,
//! * `cost ≤ (1+ε)·OPT` (exact arithmetic, in `i128`).
//!
//! Bit-identity is asserted only where it is owed: `ClassicFptas` through
//! the trait must equal the raw `rsp_fptas` (and hence the preserved
//! `krsp_flow::reference` oracle, pinned in `tests/kernels.rs`), and each
//! kernel must be solver-width-invariant (widths 1 / 2 / 8 — the kernels
//! are sequential DPs; the width knob belongs to the cycle-search pool and
//! must not leak into their answers).
//!
//! The fault-injection half mirrors `tests/chaos.rs`: a cancellation (or a
//! `csp.interval_test=err` failpoint) mid-interval-test yields `None`, never
//! a wrong certificate, and an injected panic in the interval kernel
//! quarantines only the interval-scoped cache key — classic requests on the
//! byte-identical instance keep answering.

use krsp_service::{KernelLadder, LadderPolicy, Rejection, Request, Service, ServiceConfig};
use krsp_suite::krsp::{
    self, rsp_kernel, CancelToken, Config, DpScratch, Instance, KernelError, KernelKind,
    KERNEL_KINDS,
};
use krsp_suite::krsp_flow::{constrained_shortest_path, rsp_fptas};
use krsp_suite::krsp_gen::{Family, Regime};
use krsp_suite::krsp_graph::{DiGraph, NodeId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const FAMILIES: [Family; 5] = [
    Family::Gnm,
    Family::Grid,
    Family::Layered,
    Family::Geometric,
    Family::ScaleFree,
];
const REGIMES: [Regime; 3] = [Regime::Uniform, Regime::Correlated, Regime::Anticorrelated];
const EPSILONS: [(u32, u32); 3] = [(1, 2), (1, 8), (1, 16)];

fn family_graph(family: Family, n: usize, regime: Regime, seed: u64) -> DiGraph {
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    family.sample(n, n * 4, regime, &mut rng)
}

/// A unit-cost chain: `cstar = 1` but the threshold witness costs the full
/// chain length, so the interval scheme's Phase B bracket opens wide
/// (`ub = 5 > 4·lb`) and at least one interval test always runs — the
/// deterministic trigger for the `csp.interval_test` failpoint and for
/// cancellation polls.
fn chain_graph() -> DiGraph {
    DiGraph::from_edges(
        6,
        &[
            (0, 1, 1, 1),
            (1, 2, 1, 1),
            (2, 3, 1, 1),
            (3, 4, 1, 1),
            (4, 5, 1, 1),
        ],
    )
}

fn chain_instance() -> Instance {
    Instance::new(chain_graph(), NodeId(0), NodeId(5), 1, 10)
        .expect("chain instance is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Both kernels meet the contract on random family graphs: feasibility
    /// agrees with the exact DP, the delay bound holds, and the cost is
    /// within (1+ε)·OPT. The classic kernel is additionally bit-identical
    /// to the raw flat FPTAS it wraps.
    #[test]
    fn kernels_meet_guarantees_on_family_graphs(
        fam_ix in 0usize..FAMILIES.len(),
        reg_ix in 0usize..REGIMES.len(),
        n in 8usize..24,
        seed in 0u64..1_000_000,
        bound in 0i64..400,
        eps_ix in 0usize..EPSILONS.len(),
    ) {
        // Both kernels run here, and the failpoint tests below arm the
        // process-global `csp.interval_test` site.
        let _fp = fp_lock();
        let (eps_num, eps_den) = EPSILONS[eps_ix];
        let family = FAMILIES[fam_ix];
        let g = family_graph(family, n, REGIMES[reg_ix], seed);
        let (s, t) = family.terminals(g.node_count());
        let exact = constrained_shortest_path(&g, s, t, bound);
        for kind in KERNEL_KINDS {
            let got = rsp_kernel(kind)
                .solve(&g, s, t, bound, eps_num, eps_den)
                .expect("valid epsilon");
            prop_assert_eq!(
                got.is_some(), exact.is_some(),
                "{} disagrees with exact DP on feasibility (family {:?} seed {} bound {})",
                kind, family, seed, bound
            );
            let (Some(p), Some(opt)) = (&got, &exact) else { continue };
            prop_assert!(p.delay <= bound, "{}: delay {} > bound {}", kind, p.delay, bound);
            prop_assert!(
                i128::from(p.cost) * i128::from(eps_den)
                    <= i128::from(opt.cost) * i128::from(eps_den + eps_num),
                "{}: cost {} > (1+{}/{})·OPT {} (family {:?} seed {} bound {})",
                kind, p.cost, eps_num, eps_den, opt.cost, family, seed, bound
            );
            if kind == KernelKind::Classic {
                prop_assert_eq!(
                    &got, &rsp_fptas(&g, s, t, bound, eps_num, eps_den),
                    "classic kernel must stay bit-identical to the flat FPTAS"
                );
            }
        }
    }
}

/// Serializes tests that reprogram the process-wide solver width, restoring
/// the default resolution on drop (mirrors the guard in `tests/kernels.rs`;
/// both suites keep theirs private on purpose — a shared helper crate would
/// couple their lock orders).
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

/// A 6-node k = 2 instance with a genuine cost/delay tradeoff (the same
/// shape `tests/chaos.rs` uses): `d = 24` walks the full bicameral search.
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

/// Widths 1 / 2 / 8: the degrade ladder's answer under either kernel must
/// not depend on the solver pool width — the kernels are sequential, and
/// the bicameral search is width-invariant by contract. Each (instance,
/// kernel) pair must produce the same (cost, delay, rung, kernel) tuple at
/// every width, and every answer must respect the instance's delay bound.
#[test]
fn ladder_answers_are_width_invariant_per_kernel() {
    let _guard = WidthGuard::lock();
    let _fp = fp_lock();
    let instances = [chain_instance(), tradeoff(24)];
    let cfg = Config::default();
    let policy = LadderPolicy::default();
    let budget = Duration::from_secs(30);

    for kind in KERNEL_KINDS {
        let kernels = KernelLadder::uniform(kind);
        for (ix, inst) in instances.iter().enumerate() {
            let mut seen: Option<(i64, i64, krsp_service::Rung, KernelKind)> = None;
            for width in [1usize, 2, 8] {
                krsp::set_solver_width(width);
                let d = krsp_service::solve_degraded_with(
                    inst,
                    &cfg,
                    budget,
                    &policy,
                    &kernels,
                    &CancelToken::never(),
                )
                .unwrap_or_else(|e| panic!("instance {ix} kernel {kind} width {width}: {e:?}"));
                assert!(d.solution.delay <= inst.delay_bound);
                assert_eq!(
                    d.kernel, kind,
                    "answering rung must report its assigned kernel"
                );
                let tuple = (d.solution.cost, d.solution.delay, d.rung, d.kernel);
                match &seen {
                    None => seen = Some(tuple),
                    Some(first) => assert_eq!(
                        *first, tuple,
                        "instance {ix} kernel {kind}: answer drifted at width {width}"
                    ),
                }
            }
        }
    }
}

/// ε edge cases through the checked trait surface: a zero numerator or
/// denominator is a structured rejection (never a divide-by-zero panic),
/// and ε > 1 clamps to exactly 1 — bit-identical to an explicit ε = 1 call
/// for both kernels.
#[test]
fn epsilon_edge_cases_reject_or_clamp() {
    let _fp = fp_lock();
    let g = chain_graph();
    let (s, t, d) = (NodeId(0), NodeId(5), 10);
    for kind in KERNEL_KINDS {
        let k = rsp_kernel(kind);
        for (num, den) in [(0u32, 1u32), (1, 0), (0, 0)] {
            assert_eq!(
                k.solve(&g, s, t, d, num, den),
                Err(KernelError::InvalidEpsilon { num, den }),
                "{kind}: ε = {num}/{den} must be rejected"
            );
        }
        let clamped = k
            .solve(&g, s, t, d, 7, 2)
            .expect("clamped epsilon is valid");
        let unit = k.solve(&g, s, t, d, 1, 1).expect("unit epsilon is valid");
        assert_eq!(clamped, unit, "{kind}: ε = 7/2 must clamp to ε = 1 exactly");
    }
}

/// A cancelled token mid-interval-test yields `None` — never a stale or
/// uncertified incumbent — and the same scratch answers again once the
/// token is replaced.
#[test]
fn cancellation_mid_interval_test_returns_none() {
    let _fp = fp_lock();
    let g = chain_graph();
    let (s, t, d) = (NodeId(0), NodeId(5), 10);
    let mut dp = DpScratch::new();

    let token = CancelToken::cancellable();
    token.cancel();
    dp.set_cancel(token);
    for kind in KERNEL_KINDS {
        assert_eq!(
            rsp_kernel(kind).solve_with(&g, s, t, d, 1, 8, &mut dp),
            Ok(None),
            "{kind}: a pre-cancelled solve must report no result"
        );
    }

    // Same scratch, fresh token: both kernels recover and agree with the
    // exact optimum (the chain has a single path, so ε plays no role).
    dp.set_cancel(CancelToken::never());
    let opt = constrained_shortest_path(&g, s, t, d).expect("chain is feasible");
    for kind in KERNEL_KINDS {
        let p = rsp_kernel(kind)
            .solve_with(&g, s, t, d, 1, 8, &mut dp)
            .expect("valid epsilon")
            .expect("chain is feasible");
        assert_eq!((p.cost, p.delay), (opt.cost, opt.delay));
    }
}

static FP_LOCK: Mutex<()> = Mutex::new(());

/// Serializes failpoint use and guarantees a clean registry on entry and
/// exit (the registry is process-global; same discipline as
/// `tests/chaos.rs`, private copy for the same reason as [`WidthGuard`]).
/// Every test that runs the interval kernel holds it too: an armed
/// `csp.interval_test` site would otherwise fire inside its solves.
struct FpGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FpGuard {
    fn drop(&mut self) {
        krsp_failpoint::clear();
    }
}

fn fp_lock() -> FpGuard {
    quiet_injected_panics();
    let guard = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    krsp_failpoint::clear();
    FpGuard(guard)
}

/// Suppresses backtrace spam from panics this suite injects on purpose.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("failpoint") {
                prev(info);
            }
        }));
    });
}

/// `csp.interval_test=err` forces the interval test's sweep to report
/// "cancelled" mid-bracketing: the interval kernel must give up with `None`
/// (a cancelled probe never masquerades as an `OPT > c` certificate), while
/// the classic kernel — which never plants that site — still answers.
#[test]
fn failpoint_cancels_interval_tests_without_touching_classic() {
    let _fp = fp_lock();
    krsp_failpoint::cfg("csp.interval_test", "err").expect("arm csp.interval_test");
    let g = chain_graph();
    let (s, t, d) = (NodeId(0), NodeId(5), 10);
    assert_eq!(
        rsp_kernel(KernelKind::Interval).solve(&g, s, t, d, 1, 8),
        Ok(None),
        "interval kernel must abort when every interval test is cancelled"
    );
    let p = rsp_kernel(KernelKind::Classic)
        .solve(&g, s, t, d, 1, 8)
        .expect("valid epsilon")
        .expect("classic kernel is unaffected by csp.interval_test");
    assert_eq!((p.cost, p.delay), (5, 5));
}

/// An injected panic inside the interval kernel quarantines only the
/// interval-scoped cache key: follow-up interval requests on the instance
/// are rejected with `Quarantined`, while classic-override and
/// default-kernel requests on the *byte-identical* instance keep solving —
/// the per-kernel key scoping (DESIGN.md §4.16) is what keeps the blast
/// radius to one backend.
#[test]
fn interval_panic_quarantines_only_the_interval_kernel() {
    let _fp = fp_lock();
    krsp_failpoint::cfg("csp.interval_test", "panic").expect("arm csp.interval_test");
    let svc = Service::new(ServiceConfig {
        workers: 2,
        quarantine_threshold: 1,
        quarantine_ttl: Duration::from_secs(60),
        ..ServiceConfig::default()
    });
    let request = |kernel: Option<KernelKind>| Request {
        instance: chain_instance(),
        deadline: None,
        kernel,
    };

    let panicked = svc.provision(request(Some(KernelKind::Interval)));
    match panicked {
        Err(Rejection::SolverPanic(msg)) => {
            assert!(
                msg.contains("csp.interval_test"),
                "unexpected payload: {msg}"
            );
        }
        other => panic!("expected a contained solver panic, got {other:?}"),
    }
    assert!(
        matches!(
            svc.provision(request(Some(KernelKind::Interval))),
            Err(Rejection::Quarantined)
        ),
        "the interval-scoped key must be quarantined after the strike"
    );

    // The classic-scoped key is untouched: both an explicit classic
    // override and the default (classic-uniform) ladder still answer.
    for kernel in [Some(KernelKind::Classic), None] {
        let resp = svc
            .provision(request(kernel))
            .unwrap_or_else(|e| panic!("classic-keyed request rejected: {e:?}"));
        assert_eq!(resp.kernel, KernelKind::Classic);
        assert_eq!((resp.solution.cost, resp.solution.delay), (5, 5));
    }

    // And the quarantine really is per-kernel, not consumed: interval stays
    // rejected even after classic succeeded on the same instance bytes.
    assert!(matches!(
        svc.provision(request(Some(KernelKind::Interval))),
        Err(Rejection::Quarantined)
    ));
}
