//! Cycle-accurate trace & observability subsystem for the sentinel
//! simulator.
//!
//! The paper's evaluation (§5) reduces every run to one number —
//! cycles. This crate opens that number up: the simulator emits a
//! stream of per-cycle pipeline [`Event`]s (issue, stall-with-reason,
//! exception-tag traffic, store-buffer protocol steps, traps and
//! recovery) into a pluggable [`TraceSink`], and charges every
//! non-issuing cycle to a [`StallReason`] so `cycles` always
//! decomposes exactly into issuing cycles plus attributed stalls.
//!
//! Three sinks ship with the crate, all with hand-rolled serialization
//! so the workspace stays offline-buildable:
//!
//! * [`JsonlSink`] — one JSON object per event, one per line; byte
//!   deterministic across identical runs.
//! * [`ChromeTraceSink`] — the Chrome `trace_event` format; load the
//!   output in `chrome://tracing` or <https://ui.perfetto.dev> (one
//!   track per issue slot, a stall track, a store-buffer occupancy
//!   counter).
//! * [`TimelineSink`] — a fixed-width ASCII chart, one row per cycle.
//!
//! Tracing is zero-cost when disabled: the simulator keeps an
//! `Option<Box<dyn TraceSink>>` and builds events inside closures that
//! never run without an attached sink, so the disabled path is a single
//! branch per instrumentation site.
//!
//! The [`compile`] module is the shared vocabulary of the *compiler*
//! side: the [`IrDelta`] each stage run of `sentinel-core`'s compile
//! session records in its pass log, and the pass-run metric name.
//!
//! [`Metrics`] adds a deterministic counter/histogram registry for
//! aggregate observability (issue-slot utilization, store-buffer
//! occupancy distribution, stall totals); [`SharedMetrics`] is its
//! clonable, thread-safe handle for aggregation from worker threads
//! (sinks are `Send` for the same reason: measurement cells ride
//! worker threads in the evaluation grid engine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod compile;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod serve;
pub mod sim;
pub mod sink;
pub mod stall;
pub mod store;
pub mod timeline;

pub use chrome::ChromeTraceSink;
pub use compile::IrDelta;
pub use event::{Event, EventKind, StallReason};
pub use jsonl::JsonlSink;
pub use metrics::{Histogram, Metrics, SharedMetrics};
pub use sink::{CollectSink, NullSink, TraceSink};
pub use stall::StallCounts;
pub use timeline::TimelineSink;
