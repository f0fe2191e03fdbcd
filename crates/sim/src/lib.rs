//! Execution-driven simulator for the sentinel scheduling reproduction.
//!
//! This crate implements the architecture the paper proposes plus the
//! evaluation machinery it is measured on:
//!
//! * [`regfile`] — the exception-tagged register file (paper §3.2),
//! * [`exec`] — functional instruction semantics with the paper's trap
//!   model (loads, stores, integer divide, all fp instructions),
//! * [`SimSession`] — the session API: pick an [`Engine`], configure,
//!   run. Two loops over one machine state sit behind three labels:
//!   [`Engine::Interpreter`] walks the block graph and is the timing
//!   reference; [`Engine::Fast`] (the default) and [`Engine::Turbo`] run
//!   the compiled loop over an owned decode ([`TurboProgram`]) with
//!   chained traces — `Turbo` is the label
//!   whose decode callers share across sessions through a
//!   [`ProgramCache`]. Traced sessions run on the interpreter whatever
//!   their label. Both loops route every architectural rule through
//!   [`sem`],
//! * [`sem`] — the single-source-of-truth semantics layer: **Table 1**
//!   (exception detection with sentinel scheduling), **Table 2**
//!   (store-buffer insertion with probationary entries), boosting
//!   commit/squash, and the store buffer itself
//!   ([`sem::storebuf`], §4.1),
//! * [`mod@reference`] — an independent sequential interpreter used as the
//!   correctness oracle, and
//! * [`verify`] — run-outcome comparison helpers.
//!
//! # Example: detecting a deferred speculative exception
//!
//! ```
//! use sentinel_isa::{Insn, MachineDesc, Reg};
//! use sentinel_prog::ProgramBuilder;
//! use sentinel_sim::{RunOutcome, SimSession};
//!
//! // ld.s from an unmapped address, then a sentinel check.
//! let mut b = ProgramBuilder::new("demo");
//! b.block("entry");
//! b.push(Insn::li(Reg::int(1), 0xdead0));
//! b.push(Insn::ld_w(Reg::int(2), Reg::int(1), 0).speculated());
//! b.push(Insn::check_exception(Reg::int(2)));
//! b.push(Insn::halt());
//! let f = b.finish();
//!
//! let mut m = SimSession::for_function(&f).build();
//! match m.run().unwrap() {
//!     RunOutcome::Trapped(trap) => {
//!         // The sentinel reports the *load* as the excepting instruction.
//!         assert_eq!(trap.excepting_pc, f.block(f.entry()).insns[1].id);
//!     }
//!     other => panic!("expected a trap, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod except;
pub mod exec;
pub mod memory;
pub mod reference;
pub mod regfile;
pub mod sem;
pub mod stats;
pub mod verify;

mod machine;
mod progcache;
mod session;
mod state;
mod turbo;

#[cfg(test)]
mod engine_tests;
#[cfg(test)]
mod testutil;

pub use except::{ExceptionKind, PcHistoryQueue, Trap};
pub use machine::{Recovery, RunOutcome, SimConfig, SimError, TraceEvent};
pub use memory::{Memory, Width};
pub use progcache::ProgramCache;
pub use regfile::{RegEvent, RegFile, TaggedValue};
pub use sem::storebuf::{ConfirmOutcome, Entry, EntryState, SbError, SbEvent, StoreBuffer};
pub use sem::{SpeculationSemantics, GARBAGE, INT_NAN};
pub use sentinel_prog::hash;
pub use session::{Engine, SimSession, SimSessionBuilder};
pub use stats::Stats;
pub use turbo::TurboProgram;
