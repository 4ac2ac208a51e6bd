//! End-to-end and per-layer benchmark of the krsp path-provisioning
//! service. See `README.md` beside this package for the workloads, the
//! metrics and what each layer should move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Prints a human report on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.

mod audit;
mod drive;
mod host;
mod measure;
mod stats;
mod trace;
mod workload;

use krsp_service::ServiceConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Spec, NAMES};

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value; `None` when it cannot be reported honestly.
    pub value: Option<f64>,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Requests timed (all passes).
    pub attempted: usize,
    /// Requests that failed: rejections, error or missing replies, audit
    /// failures.
    pub failed: usize,
    /// Metrics for the JSON line.
    pub metrics: Vec<Metric>,
}

/// The service configuration every run uses: one worker per CPU and a
/// solver width of 1, set before the config is built because the default
/// ladder calibrates from the width. With `nproc` requests in flight every
/// CPU already has a solve; a wider solver only oversubscribes them, which
/// made runs noisier (README, "Steadiness"). Everything else is the
/// service's own default, so the server's default kernel ladder decides
/// every request.
#[must_use]
pub fn service_config(nproc: usize) -> ServiceConfig {
    krsp::set_solver_width(1);
    ServiceConfig {
        workers: nproc,
        ..ServiceConfig::default()
    }
}

fn json_line(report: &Report) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in &report.metrics {
        let v = m
            .value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{} cannot be reported from this run", m.name))?;
        parts.push(format!(
            "{:?}: {{\"value\": {v:?}, \"unit\": {:?}}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        parts.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let nproc = host::nproc();
    let cfg = service_config(nproc);
    eprintln!(
        "host: nproc={nproc} cpu={:?} solver_width={} clients={nproc}",
        host::cpu_model(),
        krsp::solver_width()
    );
    eprintln!("service config: {cfg:?}");
    let before = host::CpuTimes::now();
    let result = if args.trace {
        trace::run(
            &spec,
            &cfg,
            args.seed,
            args.seconds,
            args.out_dir.as_deref(),
        )
    } else {
        measure::run(&spec, &cfg, args.seed, args.seconds, nproc)
    };
    let steal = host::CpuTimes::now().steal_share_since(&before);
    eprintln!("host: steal_share={steal:.4} over the run");
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match json_line(&report) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_metric_prints_no_result() {
        let report = Report {
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "latency_p99_ms",
                unit: "ms",
                value: None,
            }],
        };
        assert!(json_line(&report).is_err());
    }

    #[test]
    fn smoke_runs_every_workload_untraced_and_traced() {
        let cfg = service_config(2);
        for name in NAMES {
            let spec = Spec::named(name).expect("known workload").smoke();
            let report = measure::run(&spec, &cfg, 11, Duration::from_millis(1), 2)
                .expect("smoke run completes");
            assert!(report.attempted > 0, "{name}");
            assert_eq!(report.failed, 0, "{name}");
            // Too few samples for a 99th percentile: the run refuses it.
            let p99 = report
                .metrics
                .iter()
                .find(|m| m.name == "latency_p99_ms")
                .expect("p99 is listed");
            assert_eq!(p99.value, None, "{name}");
            let traced = trace::run(&spec, &cfg, 11, Duration::from_millis(1), None)
                .expect("smoke trace completes");
            assert_eq!(traced.failed, 0, "{name}");
            assert!(
                traced.metrics.iter().all(|m| m.value.is_some()),
                "{name}: {:?}",
                traced.metrics
            );
        }
    }
}
