//! Sentinel scheduling for VLIW and superscalar processors.
//!
//! This crate is the facade of a full reproduction of *Sentinel Scheduling
//! for VLIW and Superscalar Processors* (Mahlke, Chen, Hwu, Rau,
//! Schlansker — ASPLOS 1992): compiler-controlled speculative execution
//! with precise exception detection.
//!
//! It re-exports the workspace crates:
//!
//! * [`isa`] — the RISC instruction set and machine description (Table 3).
//! * [`prog`] — program representation: CFG, superblocks, liveness, assembler.
//! * [`sched`] — the paper's contribution: dependence-graph reduction,
//!   sentinel list scheduling, speculative stores, recovery constraints.
//! * [`sim`] — execution-driven simulator implementing the paper's
//!   exception-tag semantics (Table 1) and probationary store buffer
//!   (Table 2).
//! * [`trace`] — cycle-accurate observability: pipeline event sinks
//!   (JSONL, Chrome `trace_event`, ASCII timeline) and stall accounting.
//! * [`workloads`] — the 17-program synthetic benchmark suite.
//! * [`fuzz`] — the seeded differential fuzzer: generated programs run on
//!   both engines, asserting byte-identical observations;
//!   `sentinel fuzz` is its CLI.
//! * [`mod@bench`] — the evaluation grid engine (cached, parallel,
//!   fault-isolated measurement) and the figure/ablation generators it
//!   feeds; `sentinel reproduce` is its CLI.
//! * [`serve`] — the networked compile-and-simulate service (std-only
//!   HTTP/1.1, worker pool with backpressure, content-hash result
//!   cache, Prometheus `/metrics`); `sentinel serve` is its CLI.
//! * [`spec`] — the canonical [`JobSpec`](spec::JobSpec) job
//!   description, its stable content hash, the shared
//!   content-addressed [`Store`](spec::Store) every layer caches in, and
//!   the job pipeline every layer compiles and runs jobs through
//!   ([`Prepared`](spec::Prepared)).
//!
//! # Quickstart
//!
//! ```
//! use sentinel::prelude::*;
//!
//! // Build the paper's Figure 1 code fragment, schedule it with the
//! // sentinel model on an unbounded-issue machine, and simulate it.
//! let program = sentinel::prog::examples::figure1();
//! let mdes = MachineDesc::builder()
//!     .issue_width(8)
//!     .latencies(LatencyTable::unit())
//!     .build();
//! let scheduled = schedule_program(&program, &mdes, SchedulingModel::Sentinel)?;
//! # Ok::<(), sentinel::sched::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;

pub use sentinel_bench as bench;
pub use sentinel_core as sched;
pub use sentinel_isa as isa;
pub use sentinel_prog as prog;
pub use sentinel_serve as serve;
pub use sentinel_sim as sim;
pub use sentinel_spec as spec;
pub use sentinel_trace as trace;
pub use sentinel_workloads as workloads;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use sentinel_core::{schedule_program, ScheduleError, SchedulingModel};
    pub use sentinel_isa::{Insn, LatencyTable, MachineDesc, Opcode, Reg};
    pub use sentinel_prog::{Function, ProgramBuilder};
    pub use sentinel_sim::{Engine, RunOutcome, SimConfig, SimSession};
    pub use sentinel_trace::{ChromeTraceSink, JsonlSink, TimelineSink, TraceSink};
}
