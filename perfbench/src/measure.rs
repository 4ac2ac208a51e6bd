//! The untraced run: one short pass over the workload's instance sequence
//! per second of the time box, every answer audited, every timing metric
//! reported as the median pass — the 99th percentile as the median block
//! of at least a thousand requests.
//!
//! A pass takes about a second. The recorded host runs the same work up to
//! a third slower for seconds at a time (README, "Steadiness"), so one long
//! pass per run would carry that swing into every metric, while the median
//! of many short passes steps over it. A cold pass takes the next segment
//! of the sequence, so a run still covers thousands of distinct instances
//! and one seed's draw weighs little.

use crate::audit::audit;
use crate::drive::{inproc_pass, wire_pass, Pass, Reply};
use crate::workload::{Case, Spec};
use crate::{host, stats, Metric, Report};
use krsp_service::{Rung, ServiceConfig};
use std::time::{Duration, Instant};

/// The fewest passes a run makes, however short its time box.
const MIN_PASSES: usize = 5;

/// How many passes a run of `seconds` makes: one per second, so two builds
/// measured with the same seed and time box send the same requests.
#[must_use]
pub fn passes(seconds: Duration) -> usize {
    (seconds.as_secs_f64().round() as usize).max(MIN_PASSES)
}

/// A run starts no pass once this multiple of its time box has gone by and
/// it holds enough requests for a 99th percentile, so a host in a slow
/// stretch still finishes in bounded time.
const TIME_BOX_CAP: f64 = 1.25;

/// Timing figures of one pass.
struct PassFigures {
    throughput_rps: f64,
    p50_ms: f64,
    cpu_ms_per_request: f64,
    setup_s: f64,
}

/// Audit tallies over the whole run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    missed: usize,
    full: usize,
    cache_hits: usize,
    cost_ratios: Vec<f64>,
    latencies_ms: Vec<f64>,
}

impl Tally {
    /// Audits every reply of `pass` against `pool`; returns how many were
    /// answered and passed.
    fn audit_pass(&mut self, spec: &Spec, pass: &Pass, pool: &[Case], deadline: Duration) -> usize {
        let mut answered = 0;
        for sample in &pass.samples {
            self.attempted += 1;
            self.latencies_ms.push(ms(sample.latency));
            let case = &pool[sample.case];
            let verdict = match &sample.reply {
                Reply::Failed(why) => Err(why.clone()),
                Reply::Answer { answer, .. } => audit(case, answer).and_then(|()| {
                    // A hot reply must be the set-up answer, edge for edge.
                    match pass.fill.get(sample.case) {
                        Some(Reply::Answer { answer: set_up, .. }) if set_up != answer => {
                            Err("differs from the set-up answer".to_string())
                        }
                        Some(Reply::Failed(why)) => Err(format!("set-up failed: {why}")),
                        _ => Ok(()),
                    }
                }),
            };
            match (&sample.reply, verdict) {
                (
                    Reply::Answer {
                        answer,
                        rung,
                        deadline_missed,
                        cache_hit,
                    },
                    Ok(()),
                ) => {
                    answered += 1;
                    self.cache_hits += usize::from(*cache_hit);
                    if sample.latency > deadline || *deadline_missed {
                        self.missed += 1;
                    }
                    if *rung == Rung::Full {
                        self.full += 1;
                    }
                    self.cost_ratios.push(case.cost_over_lp(answer.cost));
                }
                (_, Err(why)) => {
                    self.failed += 1;
                    self.missed += 1;
                    eprintln!("{}: FAILED request: {why}", spec.name);
                }
                (Reply::Failed(_), Ok(())) => unreachable!("a failed reply never audits"),
            }
        }
        answered
    }
}

/// Runs the workload untraced and reports every end-to-end metric.
///
/// # Errors
/// When the generator emits no instance for a pass or the frontend cannot
/// start.
pub fn run(
    spec: &Spec,
    cfg: &ServiceConfig,
    seed: u64,
    seconds: Duration,
    clients: usize,
) -> Result<Report, String> {
    let deadline = spec.deadline.unwrap_or(cfg.default_deadline);
    let warm = spec.warmup_cases(clients);
    let hot_pool = spec
        .working_set
        .map(|_| spec.cases(seed, spec.pass_slots(0), clients));
    let planned = passes(seconds);
    let cap = seconds.mul_f64(TIME_BOX_CAP);
    let started = Instant::now();
    let mut generating = Duration::ZERO;
    let mut tally = Tally::default();
    let mut figures = Vec::new();
    let mut nodelay = None;
    for p in 0..planned {
        let p99_ready = tally.attempted >= stats::P99_MIN_SAMPLES;
        if p >= MIN_PASSES && p99_ready && started.elapsed() > cap {
            eprintln!(
                "{}: time box spent after {p} of {planned} passes",
                spec.name
            );
            break;
        }
        // Generation and the audit's references stay outside the timed loop.
        let generated = Instant::now();
        let fresh;
        let pool = match &hot_pool {
            Some(pool) => pool,
            None => {
                fresh = spec.cases(seed, spec.pass_slots(p), clients);
                &fresh
            }
        };
        generating += generated.elapsed();
        if pool.is_empty() {
            return Err(format!(
                "{}: the generator emitted no instance for pass {p}",
                spec.name
            ));
        }
        let pass = match spec.working_set {
            None => inproc_pass(cfg, spec, pool, pool.len(), &warm, clients),
            Some(_) => wire_pass(cfg, spec, pool, spec.pass_requests, clients)
                .map_err(|e| format!("wire pass: {e}"))?,
        };
        nodelay = nodelay.or(pass.nodelay);
        let answered = tally.audit_pass(spec, &pass, pool, deadline);
        figures.push(PassFigures {
            throughput_rps: answered as f64 / pass.wall.as_secs_f64(),
            p50_ms: stats::median(
                &pass
                    .samples
                    .iter()
                    .map(|s| ms(s.latency))
                    .collect::<Vec<_>>(),
            ),
            cpu_ms_per_request: ms(pass.cpu) / answered.max(1) as f64,
            setup_s: pass.setup.as_secs_f64(),
        });
    }
    let med =
        |f: &dyn Fn(&PassFigures) -> f64| stats::median(&figures.iter().map(f).collect::<Vec<_>>());
    let share = |count: usize| count as f64 / tally.attempted.max(1) as f64;
    let failed_share = share(tally.failed);
    let deadline_miss_share = share(tally.missed);
    let metric = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        metric("throughput_rps", "1/s", Some(med(&|f| f.throughput_rps))),
        metric("latency_p50_ms", "ms", Some(med(&|f| f.p50_ms))),
        metric("latency_p99_ms", "ms", block_p99(&tally.latencies_ms)),
        metric("ok_share", "ratio", Some(1.0 - failed_share)),
        metric(
            "deadline_met_share",
            "ratio",
            Some(1.0 - deadline_miss_share),
        ),
        metric("full_guarantee_share", "ratio", Some(share(tally.full))),
        metric(
            "cost_over_lp",
            "ratio",
            (!tally.cost_ratios.is_empty()).then(|| stats::mean(&tally.cost_ratios)),
        ),
        metric(
            "cpu_ms_per_request",
            "ms",
            Some(med(&|f| f.cpu_ms_per_request)),
        ),
        metric("peak_rss_mb", "MB", Some(host::peak_rss_mb())),
        metric("setup_s", "s", Some(med(&|f| f.setup_s))),
    ];

    eprintln!(
        "{}: {} passes, {} requests, {} failed, {} cache hits; instances generated and referenced in {:.2}s{}",
        spec.name,
        figures.len(),
        tally.attempted,
        tally.failed,
        tally.cache_hits,
        generating.as_secs_f64(),
        nodelay.map_or(String::new(), |nd| format!("; client TCP_NODELAY={nd}"))
    );
    eprintln!(
        "{}: end-to-end metrics (timings: median pass; p99: median block):",
        spec.name
    );
    let row = |name: &str, unit: &str, value: Option<f64>| match value {
        Some(v) => eprintln!("  {name:<22} {v:>12.4} {unit}"),
        None => eprintln!(
            "  {name:<22} {:>12} {unit} ({} samples, fewer than {})",
            "refused",
            tally.latencies_ms.len(),
            stats::P99_MIN_SAMPLES
        ),
    };
    for m in &metrics[..3] {
        row(m.name, m.unit, m.value);
    }
    row("failed_share", "ratio", Some(failed_share));
    row("deadline_miss_share", "ratio", Some(deadline_miss_share));
    for m in &metrics[5..] {
        row(m.name, m.unit, m.value);
    }
    eprintln!(
        "  per pass throughput (1/s): {:?}",
        figures
            .iter()
            .map(|f| f.throughput_rps.round())
            .collect::<Vec<_>>()
    );
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// The 99th percentile as the median over consecutive blocks of at least
/// [`stats::P99_MIN_SAMPLES`] requests, in sequence order: a pass too short
/// to give a 99th percentile of its own joins its neighbours, and a stall
/// that hits one block does not set the figure. `None` below one block.
fn block_p99(latencies_ms: &[f64]) -> Option<f64> {
    let blocks = latencies_ms.len() / stats::P99_MIN_SAMPLES;
    if blocks == 0 {
        return None;
    }
    let size = latencies_ms.len() / blocks;
    let p99s: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                latencies_ms.len()
            } else {
                (b + 1) * size
            };
            stats::p99(&stats::sorted(&latencies_ms[b * size..end]))
                .expect("every block holds at least the minimum")
        })
        .collect();
    Some(stats::median(&p99s))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
