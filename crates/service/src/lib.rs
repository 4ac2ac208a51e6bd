//! # krsp-service — production path-provisioning over the kRSP solvers
//!
//! The algorithmic crates answer one instance at a time; this crate wraps
//! them in the shape a network controller actually deploys: a long-running
//! service with **admission control**, a **solution cache**, and
//! **deadline-aware degradation**, fronted by an in-process API
//! ([`Service`]), a newline-delimited-JSON TCP listener ([`proto`]), a
//! consistent-hash replica router ([`router`]), and a load generator
//! ([`load`], the `krsp-load` binary). The replica server and the router
//! run the same connection loop, a reactor that exists on unix only, so
//! serving over TCP is unix-only too.
//!
//! * [`service`] — bounded admission queue with backpressure, worker pool
//!   on the shared [`krsp::Executor`], per-request deadlines, debug-build
//!   response auditing.
//! * [`hash`] — canonical 128-bit instance digests (edge-order
//!   insensitive) keying the cache.
//! * [`cache`] — LRU memoization of full ladder answers, sharded across
//!   independently-locked segments, with per-shard hit/miss/eviction
//!   counters.
//! * [`singleflight`] — coalesces concurrent misses for the same key onto
//!   one solver run; duplicates wait on their own threads and share the
//!   leader's answer.
//! * [`degrade`] — the ladder `full → single_probe → lp_rounding →
//!   min_delay`, each rung with an advertised `(cost, delay)` guarantee
//!   recorded on every response.
//! * [`metrics`] — serializable counters and a log-linear latency
//!   histogram.
//!
//! ## Quick start
//!
//! ```
//! use krsp_service::{Request, Service, ServiceConfig};
//! use krsp::Instance;
//! use krsp_graph::{DiGraph, NodeId};
//!
//! let g = DiGraph::from_edges(4, &[
//!     (0, 1, 1, 5), (1, 3, 1, 5), (0, 2, 4, 1), (2, 3, 4, 1),
//! ]);
//! let inst = Instance::new(g, NodeId(0), NodeId(3), 2, 20).unwrap();
//! let svc = Service::new(ServiceConfig::default());
//! let first = svc.provision(Request { instance: inst.clone(), deadline: None, kernel: None }).unwrap();
//! let second = svc.provision(Request { instance: inst, deadline: None, kernel: None }).unwrap();
//! assert!(!first.cache_hit && second.cache_hit);
//! assert_eq!(first.solution.cost, second.solution.cost);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A stray `unwrap()` on shared state is how one contained panic becomes a
// poison cascade; require the justified forms (`expect` with an invariant,
// or `sync_util`'s poison recovery).
#![warn(clippy::unwrap_used)]

pub mod cache;
pub mod degrade;
pub mod disk;
pub mod epoch;
#[cfg(unix)]
mod frontend;
pub mod hash;
pub mod load;
pub mod metrics;
pub mod proto;
pub mod quarantine;
pub mod router;
pub mod service;
pub mod singleflight;
mod sync_util;

pub use cache::{CacheStats, ShardedCache, SolutionCache};
pub use degrade::{
    solve_degraded, solve_degraded_seeded, solve_degraded_with, Degraded, Guarantee, KernelLadder,
    LadderError, LadderPolicy, Rung,
};
pub use disk::{DiskCache, DiskStats};
pub use epoch::{EpochError, EpochRegistry, EpochReport, EpochScope};
pub use hash::{canonical_key, scope_key, structural_key, CacheKey};
pub use load::{
    run_remote, run_rolling, LoadReport, LoadSpec, RemoteSpec, RollingReport, RollingSpec,
    WindowReport,
};
pub use metrics::{FrontendSnapshot, LatencyHistogram, MetricsSnapshot};
pub use proto::{
    decode_response_line, encode_request_with_id, health_reply, EpochReply, EpochRequest,
    ErrorKind, HealthReply, HealthStatus, RegisterRequest, RegisteredReply, ReplicaStatus,
    RingReply, RungKernel, ServeOptions, SolveRequest, SolvedReply, WireChange, WireError,
    WireRequest, WireResponse, MAX_LINE_BYTES,
};
#[cfg(unix)]
pub use proto::{serve_on, serve_with_shutdown};
pub use quarantine::Quarantine;
#[cfg(unix)]
pub use router::serve_ring_with_shutdown;
pub use router::{resolve_seed, RingState, Router, RouterOptions, DEFAULT_SEED, SEED_ENV_VAR};
pub use service::{Rejection, Request, Response, Service, ServiceConfig};
pub use singleflight::{Join, Leader, Singleflight};
