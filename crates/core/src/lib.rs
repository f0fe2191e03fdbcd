//! Sentinel scheduling — the paper's primary contribution.
//!
//! This crate implements the compile-time half of *Sentinel Scheduling for
//! VLIW and Superscalar Processors* (Mahlke et al., ASPLOS 1992):
//!
//! * [`depgraph`] — superblock dependence graphs: register and memory
//!   edges, plus two bounds per instruction (the branches or barriers
//!   around it) standing for control and ordering dependences,
//! * [`reduction`] — the Appendix algorithm: control-dependence removal
//!   per scheduling model, by lowering each instruction's bound past the
//!   branches it may be speculated above, plus protected/unprotected
//!   marking,
//! * [`list`] — the modified list scheduler that sets speculative
//!   modifiers and inserts `check_exception` / `confirm_store` sentinels
//!   into home blocks (§3.3, §4.2),
//! * [`recovery`] — the §3.7 renaming transformation and restartable
//!   sequence support,
//! * [`uninit`] — §3.5 `clear_tag` insertion, and
//! * [`schedule_function`] / [`schedule_program`] — the end-to-end
//!   pipeline.
//!
//! [`CompileSession`] runs the pipeline as straight-line code, recording
//! each stage run in one [`PassLog`] (wall time, IR delta, diagnostics)
//! and checking the [`verify_ir`](verify_ir::verify_ir) inter-pass
//! invariants after every stage that rewrites the IR (always in debug
//! builds, and under [`SchedOptions::verify_passes`] in release).
//! [`schedule_function`] is the thin one-call wrapper over it.
//!
//! # Example
//!
//! ```
//! use sentinel_core::{schedule_program, SchedulingModel};
//! use sentinel_isa::MachineDesc;
//! use sentinel_prog::examples::figure1;
//!
//! let scheduled = schedule_program(
//!     &figure1(),
//!     &MachineDesc::paper_issue(8),
//!     SchedulingModel::Sentinel,
//! )?;
//! // Speculated loads now carry the speculative modifier.
//! let main = scheduled.entry();
//! assert!(scheduled.block(main).insns.iter().any(|i| i.speculative));
//! # Ok::<(), sentinel_core::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod depgraph;
pub mod list;
pub mod modulo;
pub mod pass;
pub mod recovery;
pub mod reduction;
pub mod regalloc;
pub mod uninit;
pub mod verify_ir;

mod models;
mod pipeline;
mod session;

pub use list::{BlockSchedStats, BlockSchedule};
pub use models::{SchedOptions, SchedulingModel};
pub use pass::{PassLog, PassReport, PASS_NAMES};
pub use pipeline::{
    schedule_function, schedule_program, SchedStats, ScheduleError, ScheduledProgram,
};
pub use session::{CompileSession, CompileSessionBuilder, MutationHook};
