//! The four workloads and the instance pools they replay.
//!
//! Every workload draws from one instance sequence, a pure function of the
//! workload seed: slot `u` is the generator's output at `base + 1000·u`
//! (the load tool's spacing), kept exactly as the generator emits it —
//! nothing is filtered or re-seeded for being slow. Warm-up instances are
//! the same for every seed and come from slots far past any timed one, so
//! they are never timed.

use krsp::phase1::{self, Phase1Backend};
use krsp::Instance;
use krsp_gen::{Family, Regime, Workload};
use std::time::Duration;

/// One workload: what it generates, how it sends it, and how much.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Topology family of every instance.
    pub family: Family,
    /// Nodes per instance.
    pub n: usize,
    /// Disjoint paths per request.
    pub k: usize,
    /// Deadline carried by every request; `None` leaves the service
    /// default in charge.
    pub deadline: Option<Duration>,
    /// Requests per pass, sized so a pass takes about a second on the host
    /// recorded in the README.
    pub pass_requests: usize,
    /// A hot workload's working set: every pass cycles through these same
    /// instances, sent over the wire. `None` for cold workloads, which call
    /// `Service::provision` in process and whose passes each take the next
    /// `pass_requests` instances of the sequence.
    pub working_set: Option<usize>,
    /// Warm-up instances solved during each cold pass's set-up, outside
    /// the timed sequence (a hot pass's set-up is its cache fill instead).
    pub warmup: usize,
    /// Mixed into the seed so workloads draw disjoint instances.
    pub salt: u64,
}

/// Names accepted by `--workload`, in run order.
pub const NAMES: [&str; 4] = ["rsp_cold", "krsp_cold", "hot_wire", "deadline_tail"];

/// Sequence slot of the first warm-up instance: past any timed slot.
const WARMUP_SLOT: usize = 1 << 20;

impl Spec {
    /// The full-size workload called `name`.
    #[must_use]
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            // k = 1 from the load tool's default generator: the RSP kernel
            // is nearly all of each request.
            "rsp_cold" => Spec {
                name: "rsp_cold",
                family: Family::Gnm,
                n: 240,
                k: 1,
                deadline: None,
                pass_requests: 240,
                working_set: None,
                warmup: 8,
                salt: 0x5253_505f_636f_6c64,
            },
            // k = 2 geometric: phase 1 plus the Ĉ bisection, never the
            // kernel; every instance finishes on the Full rung well inside
            // the default deadline.
            "krsp_cold" => Spec {
                name: "krsp_cold",
                family: Family::Geometric,
                n: 120,
                k: 2,
                deadline: None,
                pass_requests: 110,
                working_set: None,
                warmup: 8,
                salt: 0x4b52_5350_636f_6c64,
            },
            // Repeat requests over a small working set, over the wire: the
            // solver idles and framing, JSON, hashing and the cache probe
            // are the whole cost. Not listed in BENCHMARK.json (README,
            // "Dropped workloads").
            "hot_wire" => Spec {
                name: "hot_wire",
                family: Family::Geometric,
                n: 120,
                k: 2,
                deadline: None,
                pass_requests: 600,
                working_set: Some(32),
                warmup: 0,
                salt: 0x484f_545f_7769_7265,
            },
            // The load tool's default k = 2 generator under a 100 ms
            // deadline: the only workload where the degrade ladder cancels
            // and answers from a lower rung. Not listed in BENCHMARK.json:
            // its throughput is not steady (README, "Dropped workloads").
            "deadline_tail" => Spec {
                name: "deadline_tail",
                family: Family::Gnm,
                n: 120,
                k: 2,
                deadline: Some(Duration::from_millis(100)),
                pass_requests: 150,
                working_set: None,
                warmup: 8,
                salt: 0x4445_4144_5f74_6169,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// A tiny version of the same workload for the self-tests: small
    /// graphs, a handful of requests.
    #[cfg(test)]
    #[must_use]
    pub fn smoke(mut self) -> Spec {
        self.n = 24;
        self.pass_requests = 6;
        self.working_set = self.working_set.map(|_| 3);
        self.warmup = self.warmup.min(2);
        self
    }

    /// Sequence slots pass `pass` sends (a hot pass cycles through them).
    #[must_use]
    pub fn pass_slots(&self, pass: usize) -> std::ops::Range<usize> {
        match self.working_set {
            Some(size) => 0..size,
            None => pass * self.pass_requests..(pass + 1) * self.pass_requests,
        }
    }

    /// The warm-up instances. They are the same for every seed, so set-up
    /// time measures the service rather than one seed's draw, and they sit
    /// in slots no timed pass reaches.
    #[must_use]
    pub fn warmup_cases(&self, threads: usize) -> Vec<Case> {
        self.cases(0, WARMUP_SLOT..WARMUP_SLOT + self.warmup, threads)
    }

    /// The generator input for pool slot `u` at `seed`.
    fn generator(&self, seed: u64, u: usize) -> Workload {
        Workload {
            family: self.family,
            n: self.n,
            m: self.n * 4,
            regime: Regime::Anticorrelated,
            k: self.k,
            tightness: 0.5,
            seed: (seed ^ self.salt).wrapping_add(1000 * u as u64),
        }
    }

    /// Generates slots `range` of the instance sequence at `seed`, with
    /// their audit references, on `threads` threads.
    #[must_use]
    pub fn cases(&self, seed: u64, range: std::ops::Range<usize>, threads: usize) -> Vec<Case> {
        let slots: Vec<usize> = range.collect();
        let chunk = slots.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = slots
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .filter_map(|&u| {
                                krsp_gen::instantiate_with_retries(self.generator(seed, u), 50)
                            })
                            .map(Case::new)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("instance generation panicked"))
                .collect()
        })
    }
}

/// One generated instance with everything its answers are audited against.
#[derive(Clone, Debug)]
pub struct Case {
    /// The instance.
    pub inst: Instance,
    /// `C_LP`, the benchmark's own phase-1 LP bound, as `(num, den)`.
    pub lp_bound: (i128, i128),
    /// The reference a certified cost factor multiplies: the exact RSP
    /// optimum for `k = 1` (the service attaches no bound to those), the
    /// LP bound otherwise; `(num, den)`.
    pub cost_reference: (i128, i128),
}

impl Case {
    fn new(inst: Instance) -> Case {
        let p1 = phase1::run(&inst, Phase1Backend::Lagrangian)
            .expect("generated instances are feasible");
        let lp_bound = (p1.lp_bound.num(), p1.lp_bound.den());
        let cost_reference = if inst.k == 1 {
            let opt =
                krsp_flow::constrained_shortest_path(&inst.graph, inst.s, inst.t, inst.delay_bound)
                    .expect("generated instances are feasible");
            (i128::from(opt.cost), 1)
        } else {
            lp_bound
        };
        Case {
            inst,
            lp_bound,
            cost_reference,
        }
    }

    /// The id-less `Solve` request line for this instance, carrying
    /// `deadline` (absent: the service default).
    #[must_use]
    pub fn request_line(&self, deadline: Option<Duration>) -> String {
        let request = krsp_service::WireRequest::Solve(krsp_service::SolveRequest {
            instance: self.inst.clone(),
            deadline_ms: deadline.map(|d| d.as_millis() as u64),
            kernel: None,
        });
        serde_json::to_string(&request).expect("a request serializes")
    }

    /// `cost / C_LP`.
    #[must_use]
    pub fn cost_over_lp(&self, cost: i64) -> f64 {
        cost as f64 * self.lp_bound.1 as f64 / self.lp_bound.0 as f64
    }
}
