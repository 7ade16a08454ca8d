//! Scheduling-as-a-service: a long-running compile server over the
//! pipeline.
//!
//! The one-shot CLI pays the whole warm-up cost — process boot, cache
//! load, first-compilation misses — on every invocation. Real fleets are
//! duplicate-heavy (the benchmark's `suite-dup` suite,
//! `SuiteConfig::duplicate_heavy(5, 0.01)`: `Suite::duplicate_stats()`
//! finds 71 content-distinct regions of 146, so about half of all lookups
//! repeat), so the "millions of users" shape is a daemon that keeps **one warm
//! [`pipeline::ScheduleCache`] shared across all clients**: preloaded on
//! boot, consulted by every request, persisted atomically on shutdown and
//! on demand. This crate is that daemon, deliberately built as a
//! *transport layer, not a new semantics*:
//!
//! * [`proto`] — the line-delimited request/response framing spoken over
//!   stdio or a Unix socket, and [`proto::ScheduleOpts`], the one options
//!   model of a single-region request that `gpu-aco-cli schedule` and
//!   `verify` parse their flags into too. A `schedule` response body is
//!   **byte identical** to what `gpu-aco-cli schedule <region>` prints for
//!   the same options and any of `amd|cp|seq|par`, cached or not, because
//!   both sides compile under [`proto::ScheduleOpts::config`] through the
//!   pipeline's one region path and call [`render::schedule_report`]; a
//!   `suite` response pins the run with the same suite fingerprint the
//!   golden tests use.
//! * [`planner`] — admission control and backpressure: a bounded
//!   priority queue of one item per request, a typed `overloaded`
//!   rejection when full, per-request deadlines with a typed `expired`
//!   response, and smallest-first service by instruction count so small
//!   regions jump the queue.
//! * [`server`] — the engine: per-connection request parsing and
//!   admission (a `schedule` request the cache already holds is answered
//!   on the connection thread; only compiles are queued), worker threads
//!   draining the planner through the shared cache — a `suite` through
//!   the pipeline's own driver, [`pipeline::compile_suite_with_stores`] —
//!   graceful drain on SIGTERM/EOF, and the `stats` surface exposing cache
//!   counters and the per-phase latencies [`pipeline::SuiteWallclock`]
//!   measures.
//! * [`render`] — the one-shot CLI's report rendering, factored out so
//!   daemon and CLI cannot drift apart byte-wise.
//! * [`signal`] — a dependency-free SIGTERM/SIGINT flag for the drain.

pub mod planner;
pub mod proto;
pub mod render;
pub mod server;
pub mod signal;
pub mod stats;

pub use planner::{Overloaded, Planner};
pub use proto::{parse_request_line, read_response, render_response, Parsed, Response};
#[cfg(unix)]
pub use server::serve_unix;
pub use server::{handle_connection, serve_stdio, Engine, ServeConfig, Server};
pub use stats::ServeStats;
