//! The end-to-end scheduling pipeline: errors, statistics, results, and
//! thin convenience wrappers.
//!
//! The pipeline itself lives in [`CompileSession`](crate::CompileSession)
//! — one straight-line driver that times, diffs, and verifies every
//! stage. [`schedule_function`] and [`schedule_program`] are the
//! one-call wrappers over it for callers that do not need the pass log.

use std::collections::HashMap;

use sentinel_isa::{BlockId, InsnId, MachineDesc};
use sentinel_prog::{Function, ValidateError};

use crate::list::{BlockSchedStats, BlockSchedule};
use crate::models::{SchedOptions, SchedulingModel};
use crate::session::CompileSession;

/// Errors from [`schedule_function`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The input function is structurally invalid.
    InvalidInput(Vec<ValidateError>),
    /// The input already contains speculative modifiers or sentinel
    /// opcodes; the scheduler requires clean sequential code.
    NotSequentialInput(InsnId),
    /// A speculative store could not be kept within `N − 1` stores of its
    /// confirm (paper §4.2). Internal to the pipeline's retry loop; only
    /// surfaces if pinning fails to converge.
    StoreSeparation(Vec<InsnId>),
    /// The inter-pass IR verifier found violations after the named pass
    /// (see [`verify_ir`](crate::verify_ir::verify_ir)).
    Verify {
        /// The pass after which the violations were detected.
        after: &'static str,
        /// The violations, in check order.
        violations: Vec<String>,
    },
    /// Scheduler invariant violation (a bug).
    Internal(String),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::InvalidInput(errs) => {
                write!(f, "invalid input function ({} error(s)", errs.len())?;
                for e in errs.iter().take(3) {
                    write!(f, "; {e}")?;
                }
                if errs.len() > 3 {
                    write!(f, "; …")?;
                }
                write!(f, ")")
            }
            ScheduleError::NotSequentialInput(id) => {
                write!(f, "input is not sequential code at {id}")
            }
            ScheduleError::StoreSeparation(ids) => {
                write!(f, "store separation constraint unsatisfiable for {ids:?}")
            }
            ScheduleError::Verify { after, violations } => {
                write!(
                    f,
                    "IR verification failed after pass '{after}' ({} violation(s)",
                    violations.len()
                )?;
                for v in violations.iter().take(3) {
                    write!(f, "; {v}")?;
                }
                if violations.len() > 3 {
                    write!(f, "; …")?;
                }
                write!(f, ")")
            }
            ScheduleError::Internal(msg) => write!(f, "internal scheduler error: {msg}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Aggregate statistics over a scheduled function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Blocks scheduled.
    pub blocks: usize,
    /// Instructions marked speculative.
    pub speculated: usize,
    /// `check_exception` sentinels inserted.
    pub checks_inserted: usize,
    /// `confirm_store` sentinels inserted.
    pub confirms_inserted: usize,
    /// Stores pinned non-speculative by the §4.2 separation constraint.
    pub pinned_stores: usize,
    /// Self-overwrites split by the §3.7 renaming transformation.
    pub renames: usize,
    /// `clear_tag` instructions inserted (§3.5).
    pub clear_tags: usize,
    /// Virtual registers assigned to architectural registers (§3.7
    /// allocator support; only with [`SchedOptions::allocate`]).
    pub regs_assigned: usize,
    /// Virtual registers spilled via tag-preserving instructions.
    pub regs_spilled: usize,
}

/// A scheduled program: the rewritten function plus per-block schedules.
///
/// `ScheduledProgram` is `Send + Sync` (asserted below): the evaluation
/// grid engine schedules and simulates cells on worker threads, and a
/// scheduled program may cross or be shared between them.
#[derive(Debug, Clone)]
pub struct ScheduledProgram {
    /// The scheduled function (same block ids/labels/layout as the input;
    /// block contents reordered, sentinels inserted).
    pub func: Function,
    /// Per-block schedule details (issue cycles, per-block stats).
    pub blocks: HashMap<BlockId, BlockSchedule>,
    /// Aggregate statistics.
    pub stats: SchedStats,
}

// Compile-time guarantee that scheduled programs can cross threads
// (measurement inputs of the parallel evaluation grid).
const _: () = {
    const fn thread_safe<T: Send + Sync>() {}
    thread_safe::<ScheduledProgram>();
    thread_safe::<SchedStats>();
};

/// Schedules every layout block of `func` as a superblock under the given
/// machine description and options.
///
/// This is the one-call wrapper over
/// [`CompileSession`](crate::CompileSession); build a session directly to
/// observe per-pass timing, IR deltas, and diagnostics.
///
/// # Errors
///
/// See [`ScheduleError`].
///
/// # Examples
///
/// ```
/// use sentinel_core::{schedule_function, SchedOptions, SchedulingModel};
/// use sentinel_isa::MachineDesc;
/// use sentinel_prog::examples::figure1;
///
/// let f = figure1();
/// let mdes = MachineDesc::paper_issue(8);
/// let s = schedule_function(&f, &mdes, &SchedOptions::new(SchedulingModel::Sentinel))?;
/// assert!(s.stats.speculated > 0);
/// # Ok::<(), sentinel_core::ScheduleError>(())
/// ```
pub fn schedule_function(
    func: &Function,
    mdes: &MachineDesc,
    opts: &SchedOptions,
) -> Result<ScheduledProgram, ScheduleError> {
    CompileSession::for_function(func)
        .mdes(mdes)
        .options(opts.clone())
        .build()
        .run()
}

pub(crate) fn accumulate(total: &mut SchedStats, b: &BlockSchedStats) {
    total.blocks += 1;
    total.speculated += b.speculated;
    total.checks_inserted += b.checks_inserted;
    total.confirms_inserted += b.confirms_inserted;
}

/// Convenience wrapper: schedules with default options for a model and
/// returns just the rewritten function.
///
/// # Errors
///
/// See [`ScheduleError`].
pub fn schedule_program(
    func: &Function,
    mdes: &MachineDesc,
    model: SchedulingModel,
) -> Result<Function, ScheduleError> {
    schedule_function(func, mdes, &SchedOptions::new(model)).map(|s| s.func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_isa::{Insn, LatencyTable, Opcode, Reg};
    use sentinel_prog::examples::{figure1, figure3};
    use sentinel_prog::{validate, ProgramBuilder};
    use std::collections::HashSet;

    fn unit(width: usize) -> MachineDesc {
        MachineDesc::builder()
            .issue_width(width)
            .latencies(LatencyTable::unit())
            .build()
    }

    #[test]
    fn schedules_all_models_on_figure1() {
        let f = figure1();
        for model in SchedulingModel::all() {
            let s = schedule_function(&f, &unit(8), &SchedOptions::new(model))
                .unwrap_or_else(|e| panic!("{model}: {e}"));
            assert!(validate(&s.func).is_empty());
            assert_eq!(s.stats.blocks, 3);
        }
    }

    #[test]
    fn sentinel_beats_restricted_on_loaded_branch() {
        // A branch gated by a load: the canonical shape where restricted
        // percolation loses (it cannot start the dependent load early).
        let mut b = ProgramBuilder::new("lb");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::ld_w(Reg::int(5), Reg::int(3), 0));
        b.push(Insn::branch(Opcode::Beq, Reg::int(5), Reg::ZERO, t));
        b.push(Insn::ld_w(Reg::int(1), Reg::int(2), 0));
        b.push(Insn::addi(Reg::int(4), Reg::int(1), 1));
        b.push(Insn::st_w(Reg::int(4), Reg::int(2), 8));
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        let f = b.finish();
        let mdes = MachineDesc::paper_issue(8);
        let r = schedule_function(
            &f,
            &mdes,
            &SchedOptions::new(SchedulingModel::RestrictedPercolation),
        )
        .unwrap();
        let s =
            schedule_function(&f, &mdes, &SchedOptions::new(SchedulingModel::Sentinel)).unwrap();
        let main = f.entry();
        assert!(
            s.blocks[&main].stats.cycles < r.blocks[&main].stats.cycles,
            "sentinel {} vs restricted {}",
            s.blocks[&main].stats.cycles,
            r.blocks[&main].stats.cycles
        );
    }

    #[test]
    fn figure3_recovery_constraints() {
        let f = figure3();
        let s = schedule_function(
            &f,
            &unit(8),
            &SchedOptions::new(SchedulingModel::Sentinel).with_recovery(),
        )
        .unwrap();
        assert!(validate(&s.func).is_empty());
        // The self-increment E was renamed.
        assert_eq!(s.stats.renames, 1);
        let main = f.entry();
        let insns = &s.func.block(main).insns;
        // A restore move exists and comes after the store F (the paper's
        // final schedule places I after F… our constraint only requires it
        // after the sentinels; check presence and that the jsr stayed first).
        assert!(insns.iter().any(|i| i.op == Opcode::Mov));
        assert_eq!(insns[0].op, Opcode::Jsr, "nothing crosses the jsr barrier");
        // D (ld r1) may not move above the jsr but may move above the branch.
        let d = insns
            .iter()
            .position(|i| i.op == Opcode::LdW && i.dest == Some(Reg::int(1)))
            .unwrap();
        let c = insns.iter().position(|i| i.op == Opcode::Beq).unwrap();
        assert!(d > 0);
        assert!(d < c, "D speculated above C");
        assert!(insns[d].speculative);
    }

    #[test]
    fn rejects_invalid_input() {
        let f = Function::new("empty");
        assert!(matches!(
            schedule_function(&f, &unit(2), &SchedOptions::new(SchedulingModel::Sentinel)),
            Err(ScheduleError::InvalidInput(_))
        ));
    }

    #[test]
    fn rejects_prescheduled_input() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::li(Reg::int(1), 1).speculated());
        b.push(Insn::halt());
        let f = b.finish();
        assert!(matches!(
            schedule_function(&f, &unit(2), &SchedOptions::new(SchedulingModel::Sentinel)),
            Err(ScheduleError::NotSequentialInput(_))
        ));
    }

    #[test]
    fn rejects_input_with_sentinel_opcodes() {
        // A sentinel opcode (not just a speculative modifier) also makes
        // the input non-sequential — and the error names the instruction.
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::li(Reg::int(1), 1));
        b.push(Insn::check_exception(Reg::int(1)));
        b.push(Insn::halt());
        let f = b.finish();
        let check_id = f.block(f.entry()).insns[1].id;
        match schedule_function(&f, &unit(2), &SchedOptions::new(SchedulingModel::Sentinel)) {
            Err(ScheduleError::NotSequentialInput(id)) => assert_eq!(id, check_id),
            other => panic!("expected NotSequentialInput, got {other:?}"),
        }
    }

    #[test]
    fn invalid_input_display_names_the_errors() {
        let f = Function::new("empty");
        let err = schedule_function(&f, &unit(2), &SchedOptions::new(SchedulingModel::Sentinel))
            .unwrap_err();
        let msg = err.to_string();
        // Not just a count: the first validation errors are spelled out.
        assert!(msg.contains("1 error(s)"), "{msg}");
        assert!(msg.contains("no blocks"), "{msg}");
    }

    #[test]
    fn invalid_input_display_truncates_long_error_lists() {
        let errs = vec![ValidateError::Empty; 5];
        let msg = ScheduleError::InvalidInput(errs).to_string();
        assert!(msg.contains("5 error(s)"), "{msg}");
        assert!(msg.contains("…"), "{msg}");
        // Only the first three are spelled out.
        assert_eq!(msg.matches("no blocks").count(), 3, "{msg}");
    }

    #[test]
    fn clear_uninitialized_inserts_tags() {
        let f = figure1(); // r2, r4 live-in
        let s = schedule_function(
            &f,
            &unit(8),
            &SchedOptions::new(SchedulingModel::Sentinel).with_clear_uninitialized(),
        )
        .unwrap();
        assert!(s.stats.clear_tags >= 2);
        assert!(s
            .func
            .block(s.func.entry())
            .insns
            .iter()
            .any(|i| i.op == Opcode::ClearTag));
    }

    #[test]
    fn store_separation_pinning_converges() {
        // Many stores above a branch with a tiny buffer: the pipeline pins
        // as needed and still produces a valid schedule.
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, t));
        for k in 0..6 {
            b.push(Insn::st_w(Reg::int(2), Reg::int(3), 8 * k));
        }
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        let f = b.finish();
        let mdes = MachineDesc::builder()
            .issue_width(8)
            .store_buffer_size(2)
            .latencies(LatencyTable::unit())
            .build();
        let s = schedule_function(
            &f,
            &mdes,
            &SchedOptions::new(SchedulingModel::SentinelStores),
        )
        .unwrap();
        assert!(validate(&s.func).is_empty());
        // Every confirm index respects N-1 = 1.
        for insn in &s.func.block(f.entry()).insns {
            if insn.op == Opcode::ConfirmStore {
                assert!(insn.imm <= 1, "confirm index {} too large", insn.imm);
            }
        }
    }

    #[test]
    fn ids_remain_unique_after_scheduling() {
        let f = figure1();
        let s = schedule_function(
            &f,
            &unit(8),
            &SchedOptions::new(SchedulingModel::SentinelStores),
        )
        .unwrap();
        let mut seen = std::collections::HashSet::new();
        for b in s.func.blocks() {
            for i in &b.insns {
                assert!(seen.insert(i.id), "duplicate id {}", i.id);
            }
        }
    }

    #[test]
    fn original_ids_preserved() {
        // The simulator compares trap PCs against reference ids, so the
        // scheduler must not renumber original instructions.
        let f = figure1();
        let orig_ids: HashSet<_> = f
            .blocks()
            .flat_map(|b| b.insns.iter().map(|i| i.id))
            .collect();
        let s =
            schedule_function(&f, &unit(8), &SchedOptions::new(SchedulingModel::Sentinel)).unwrap();
        let new_ids: HashSet<_> = s
            .func
            .blocks()
            .flat_map(|b| b.insns.iter().map(|i| i.id))
            .collect();
        assert!(orig_ids.is_subset(&new_ids));
    }
}
