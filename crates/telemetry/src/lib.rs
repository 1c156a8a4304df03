//! # spotweb-telemetry
//!
//! Deterministic observability for the SpotWeb stack: structured
//! tracing, streaming metrics, and decision-explain records.
//!
//! Three layers, all dependency-free (std only) so the crate can be
//! threaded through every other crate in the workspace, including the
//! otherwise dependency-free load balancer:
//!
//! 1. **Tracing** ([`trace`]) — spans and typed events stamped with
//!    the *simulation* clock, kept in a bounded ring buffer and
//!    exported as byte-stable JSONL. Same seed + same fault plan ⇒
//!    byte-identical trace (the determinism contract; see DESIGN.md).
//! 2. **Metrics** ([`metrics`], [`hist`]) — counters, gauges, and a
//!    log-bucketed mergeable streaming histogram (HDR-style, ~0.5%
//!    relative error, `O(buckets)` memory) with Prometheus-style text
//!    exposition.
//! 3. **Decision-explain records** ([`records`]) — why the MPO chose
//!    the markets it chose ([`DecisionRecord`]), what the predictor
//!    forecast vs. what happened ([`ForecastRecord`]), and how a
//!    revocation drain migrated sessions ([`DrainRecord`]).
//!
//! The entry point is [`TelemetrySink`]: a cheap cloneable handle,
//! disabled by default (every call a no-op), that all subsystems
//! share when enabled.
//!
//! Wall-clock durations (solver timing) go through
//! [`TelemetrySink::time`] into a separate store exported only as
//! `BENCH_telemetry.json` — they never enter the deterministic trace.

// The workspace forbids unsafe code. The one exception is the opt-in
// `prof-alloc` counting global allocator (`prof::alloc`), whose
// `GlobalAlloc` impl necessarily carries `unsafe`: with that feature on
// we drop to `deny` and the impl carries a single scoped, documented
// `allow`. Every other configuration stays at `forbid`.
#![cfg_attr(not(feature = "prof-alloc"), forbid(unsafe_code))]
#![cfg_attr(feature = "prof-alloc", deny(unsafe_code))]
#![deny(missing_docs)]

pub mod hist;
pub mod json;
pub mod metrics;
pub mod names;
pub mod prof;
pub mod records;
pub mod sink;
pub mod trace;

pub use hist::StreamingHistogram;
pub use metrics::MetricsRegistry;
pub use records::{DecisionRecord, DrainRecord, ForecastRecord, MarketEval};
pub use sink::{CounterHandle, Telemetry, TelemetrySink, TimingStat};
pub use trace::{StampedEvent, TraceEvent, Tracer};
