//! The compile-session API: the scheduling pipeline as one
//! straight-line driver with one record.
//!
//! [`CompileSession`] is the compiler-side mirror of the simulator's
//! `SimSession`: one builder that names every choice up front, then
//! [`CompileSession::run`], which executes the paper's fixed sequence
//! of stages in order. Each stage run is timed and recorded in the
//! session's [`PassLog`] with the IR delta it made and the diagnostics
//! it raised, and the inter-pass IR invariants are checked after every
//! stage that rewrites the IR (always in debug builds, and under
//! [`SchedOptions::verify_passes`] in release).
//!
//! ```
//! use sentinel_core::{CompileSession, SchedOptions, SchedulingModel};
//! use sentinel_isa::MachineDesc;
//! use sentinel_prog::examples::figure1;
//!
//! let f = figure1();
//! let mdes = MachineDesc::paper_issue(8);
//! let mut session = CompileSession::for_function(&f)
//!     .mdes(&mdes)
//!     .options(SchedOptions::new(SchedulingModel::Sentinel))
//!     .build();
//! let scheduled = session.run()?;
//! assert!(scheduled.stats.speculated > 0);
//! // The pass log names every stage with wall time and IR deltas.
//! assert!(session.log().report("list-schedule").is_some());
//! # Ok::<(), sentinel_core::ScheduleError>(())
//! ```
//!
//! The pipeline stages, in order: `validate` → `superblock-prep` →
//! `clear-tags` (§3.5) → `recovery-rename` (§3.7) → `liveness` → per
//! block: `depgraph` → `reduction` → `list-schedule` (with the §4.2
//! `store-separation-retry` loop re-running the block-level stages
//! after pinning) → `regalloc` (§3.7 allocator support).

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use sentinel_isa::{MachineDesc, Opcode};
use sentinel_prog::cfg::Cfg;
use sentinel_prog::liveness::{Liveness, RegSet};
use sentinel_prog::{validate, Function};
use sentinel_trace::IrDelta;

use crate::depgraph::DepGraph;
use crate::list::schedule_block;
use crate::models::SchedOptions;
use crate::pass::{IrSnapshot, PassLog};
use crate::pipeline::{accumulate, SchedStats, ScheduleError, ScheduledProgram};
use crate::recovery::{apply_recovery_renaming, FreshRegs};
use crate::reduction::reduce_with_pins;
use crate::regalloc::{allocate_registers, AllocOptions};
use crate::uninit::insert_clear_tags;
use crate::verify_ir::verify_ir;

/// Test-support hook: corrupts the working IR after a named pass.
pub type MutationHook = Box<dyn Fn(&mut Function) + Send>;

fn default_mdes() -> &'static MachineDesc {
    static DEFAULT: OnceLock<MachineDesc> = OnceLock::new();
    DEFAULT.get_or_init(|| MachineDesc::paper_issue(8))
}

/// Builder for a [`CompileSession`]; see [`CompileSession::for_function`].
pub struct CompileSessionBuilder<'a> {
    func: &'a Function,
    mdes: Option<&'a MachineDesc>,
    opts: SchedOptions,
    mutation: Option<(&'static str, MutationHook)>,
}

impl<'a> CompileSessionBuilder<'a> {
    /// Sets the machine description to schedule for (default: the
    /// paper's issue-8 machine).
    #[must_use]
    pub fn mdes(mut self, mdes: &'a MachineDesc) -> Self {
        self.mdes = Some(mdes);
        self
    }

    /// Sets the scheduling options (default:
    /// [`SchedOptions::new`]([`SchedulingModel::Sentinel`])).
    ///
    /// [`SchedulingModel::Sentinel`]: crate::SchedulingModel::Sentinel
    #[must_use]
    pub fn options(mut self, opts: SchedOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Mutation-testing hook: applies `f` to the working function after
    /// every run of the pass named `after`, so the inter-pass verifier
    /// can be shown to catch a deliberately broken pass at its own
    /// boundary. Forces verification on regardless of build profile.
    #[must_use]
    pub fn mutate_after(mut self, after: &'static str, f: MutationHook) -> Self {
        self.mutation = Some((after, f));
        self
    }

    /// Constructs the session.
    pub fn build(self) -> CompileSession<'a> {
        let mdes = match self.mdes {
            Some(m) => m,
            None => default_mdes(),
        };
        let verify = cfg!(debug_assertions) || self.opts.verify_passes || self.mutation.is_some();
        CompileSession {
            func: self.func,
            mdes,
            opts: self.opts,
            mutation: self.mutation,
            verify,
            entry_live_in: None,
            log: PassLog::default(),
            ran: false,
        }
    }
}

/// A configured compilation of one function.
pub struct CompileSession<'a> {
    func: &'a Function,
    mdes: &'a MachineDesc,
    opts: SchedOptions,
    mutation: Option<(&'static str, MutationHook)>,
    verify: bool,
    /// Registers live into the input's entry block: the baseline of the
    /// verifier's def-before-use check. Computed at the first check, so
    /// an unverified compile builds no CFG or liveness of its input.
    entry_live_in: Option<RegSet>,
    log: PassLog,
    ran: bool,
}

impl<'a> CompileSession<'a> {
    /// Starts building a session for `func`.
    pub fn for_function(func: &'a Function) -> CompileSessionBuilder<'a> {
        CompileSessionBuilder {
            func,
            mdes: None,
            opts: SchedOptions::new(crate::models::SchedulingModel::Sentinel),
            mutation: None,
        }
    }

    /// Whether the inter-pass verifier runs between stages in this
    /// session (always in debug builds; via
    /// [`SchedOptions::verify_passes`] or a mutation hook otherwise).
    pub fn verifies(&self) -> bool {
        self.verify
    }

    /// The pass log so far: per-pass runs, wall time, IR deltas, and
    /// diagnostics. Populated by [`CompileSession::run`], including the
    /// passes that ran before a failure.
    pub fn log(&self) -> &PassLog {
        &self.log
    }

    /// Runs the full pipeline, returning the scheduled program.
    ///
    /// # Errors
    ///
    /// See [`ScheduleError`]. The pass log ([`CompileSession::log`])
    /// remains available after a failure and names the failing stage.
    pub fn run(&mut self) -> Result<ScheduledProgram, ScheduleError> {
        if self.ran {
            return Err(ScheduleError::Internal(
                "CompileSession::run called twice".into(),
            ));
        }
        self.ran = true;
        let (input, mdes, opts) = (self.func, self.mdes, &self.opts.clone());
        // The working copy is made by `superblock-prep`, so its cost is
        // attributed there.
        let mut func = Function::new(input.name());
        let mut stats = SchedStats::default();
        // Instructions kept non-speculative: recovery restore moves,
        // unrenamable self-overwrites, and §4.2-pinned stores.
        let mut pinned = HashSet::new();

        self.stage("validate", &mut func, false, |_, _| {
            let errs = validate(input);
            if !errs.is_empty() {
                return Err(ScheduleError::InvalidInput(errs));
            }
            let scheduled = input.blocks().flat_map(|b| &b.insns).find(|i| {
                i.speculative || matches!(i.op, Opcode::CheckExcept | Opcode::ConfirmStore)
            });
            scheduled.map_or(Ok(()), |i| Err(ScheduleError::NotSequentialInput(i.id)))
        })?;

        self.stage("superblock-prep", &mut func, true, |func, diags| {
            *func = input.clone();
            let side_exits: usize = func.blocks().map(|b| b.side_exit_count()).sum();
            diags.push(format!(
                "{} superblocks, {} instructions, {} side exits",
                func.block_count(),
                func.insn_count(),
                side_exits
            ));
            Ok(())
        })?;

        // §3.5: `clear_tag` for registers live into the entry block.
        self.stage("clear-tags", &mut func, true, |func, diags| {
            if opts.clear_uninitialized {
                stats.clear_tags = insert_clear_tags(func);
                diags.push(format!(
                    "cleared {} potentially stale tag(s)",
                    stats.clear_tags
                ));
            }
            Ok(())
        })?;

        // §3.7: split self-overwrites so excepting speculative code can be
        // re-executed, pinning what cannot be renamed.
        let unrenamable = self.stage("recovery-rename", &mut func, true, |func, diags| {
            if !opts.recovery {
                return Ok(HashSet::new());
            }
            let mut fresh = FreshRegs::for_function(func, mdes.int_regs(), mdes.fp_regs());
            let rn = apply_recovery_renaming(func, &mut fresh);
            stats.renames = rn.renamed;
            pinned.extend(&rn.pinned_moves);
            pinned.extend(&rn.unrenamable);
            if !rn.unrenamable.is_empty() {
                diags.push(format!(
                    "{} unrenamable self-overwrite(s) act as scheduling barriers",
                    rn.unrenamable.len()
                ));
            }
            diags.push(format!("renamed {} self-overwrite(s)", rn.renamed));
            Ok(rn.unrenamable)
        })?;

        // Restriction (1) of §2.1 asks reduction what is live at each
        // branch target.
        let liveness = self.stage("liveness", &mut func, false, |func, _| {
            Ok(Liveness::compute(func, &Cfg::build(func)))
        })?;

        // Every block is built in this one graph, reusing its allocations.
        let mut graph = DepGraph::default();
        let mut blocks = HashMap::new();
        for bid in func.layout().to_vec() {
            let mut attempts = 0usize;
            let sched = loop {
                attempts += 1;
                self.stage("depgraph", &mut func, false, |func, _| {
                    graph.rebuild_with_aliasing(func.block(bid), mdes, func.noalias_bases());
                    // Restriction 3 (conservative form): nothing moves
                    // across an unrenamable self-overwrite.
                    graph.fence(|insn| unrenamable.contains(&insn.id));
                    Ok(())
                })?;
                // The Appendix reduction: drop the control dependences the
                // model permits and mark unprotected instructions.
                let red = self.stage("reduction", &mut func, false, |_, _| {
                    Ok(reduce_with_pins(&mut graph, &liveness, opts, &pinned))
                })?;
                // §3.3: issue the reduced graph, setting speculative
                // modifiers and inserting sentinels.
                let scheduled = self.stage("list-schedule", &mut func, true, |func, _| {
                    let sched =
                        schedule_block(&mut graph, &red, mdes, opts, &mut || func.fresh_insn_id())?;
                    func.block_mut(bid).insns = sched.insns.clone();
                    Ok(sched)
                });
                match scheduled {
                    Ok(sched) => break sched,
                    // §4.2: pin the violating stores non-speculative and
                    // re-run the block-level stages.
                    Err(ScheduleError::StoreSeparation(ids))
                        if attempts <= func.block(bid).insns.len() + 2 =>
                    {
                        stats.pinned_stores += ids.len();
                        let note = format!(
                            "block {}: pinned {} store(s) to satisfy the N-1 bound: {ids:?}",
                            func.block(bid).label,
                            ids.len(),
                        );
                        pinned.extend(ids);
                        self.log.record(
                            "store-separation-retry",
                            Duration::ZERO,
                            IrDelta::default(),
                            vec![note],
                        );
                    }
                    Err(e) => return Err(e),
                }
            };
            accumulate(&mut stats, &sched.stats);
            blocks.insert(bid, sched);
        }

        // §3.7 allocator support: map renaming-introduced virtual
        // registers back to architectural ones, spilling with
        // tag-preserving loads and stores when needed.
        self.stage("regalloc", &mut func, true, |func, diags| {
            if opts.allocate {
                let ar = allocate_registers(func, &AllocOptions::for_mdes(mdes, opts.recovery))
                    .map_err(|e| ScheduleError::Internal(format!("register allocation: {e}")))?;
                stats.regs_assigned = ar.assigned;
                stats.regs_spilled = ar.spilled;
                diags.push(format!(
                    "assigned {} virtual register(s), spilled {}",
                    ar.assigned, ar.spilled
                ));
            }
            Ok(())
        })?;

        Ok(ScheduledProgram {
            func,
            blocks,
            stats,
        })
    }

    /// Runs one stage and records it in the log: its wall time, the IR
    /// delta it made (a stage that only analyses takes no snapshot) and
    /// the diagnostics it raised. Then applies the mutation hook and, if
    /// the IR may have changed, checks the inter-pass invariants.
    fn stage<T>(
        &mut self,
        name: &'static str,
        func: &mut Function,
        rewrites: bool,
        body: impl FnOnce(&mut Function, &mut Vec<String>) -> Result<T, ScheduleError>,
    ) -> Result<T, ScheduleError> {
        let before = rewrites.then(|| IrSnapshot::of(func));
        let mut diagnostics = Vec::new();
        let t0 = Instant::now();
        let result = body(func, &mut diagnostics);
        let wall = t0.elapsed();
        let delta = before.map_or_else(IrDelta::default, |b| b.delta_to(IrSnapshot::of(func)));
        self.log.record(name, wall, delta, diagnostics);
        let product = result?;

        let mut changed = rewrites;
        if let Some((after, hook)) = &self.mutation {
            if *after == name {
                hook(func);
                changed = true;
            }
        }
        if self.verify && changed && func.block_count() > 0 {
            let input = self.func;
            let entry_live_in = self.entry_live_in.get_or_insert_with(|| {
                Liveness::compute(input, &Cfg::build(input))
                    .live_in(input.entry())
                    .clone()
            });
            let violations = verify_ir(func, self.mdes, &self.opts, entry_live_in);
            if !violations.is_empty() {
                return Err(ScheduleError::Verify {
                    after: name,
                    violations,
                });
            }
        }
        Ok(product)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SchedulingModel;
    use crate::pass::PASS_NAMES;
    use crate::pipeline::schedule_function;
    use sentinel_isa::{Insn, Reg};
    use sentinel_prog::examples::figure1;

    #[test]
    fn session_matches_schedule_function_on_every_model() {
        let f = figure1();
        let mdes = MachineDesc::paper_issue(8);
        for model in SchedulingModel::all() {
            let opts = SchedOptions::new(model);
            let direct = schedule_function(&f, &mdes, &opts).unwrap();
            let mut session = CompileSession::for_function(&f)
                .mdes(&mdes)
                .options(opts)
                .build();
            let via_session = session.run().unwrap();
            assert_eq!(direct.stats, via_session.stats, "{model}");
            for (a, b) in direct
                .func
                .blocks()
                .flat_map(|b| b.insns.iter())
                .zip(via_session.func.blocks().flat_map(|b| b.insns.iter()))
            {
                assert_eq!(a, b, "{model}");
            }
        }
    }

    #[test]
    fn log_names_every_stage_with_block_level_run_counts() {
        let f = figure1();
        let mdes = MachineDesc::paper_issue(8);
        let mut session = CompileSession::for_function(&f)
            .mdes(&mdes)
            .options(SchedOptions::new(SchedulingModel::Sentinel).with_clear_uninitialized())
            .build();
        session.run().unwrap();
        let log = session.log();
        for name in ["validate", "superblock-prep", "liveness", "regalloc"] {
            assert_eq!(log.report(name).unwrap().runs, 1, "{name}");
        }
        // Block-level passes run once per block (3 blocks in figure1).
        for name in ["depgraph", "reduction", "list-schedule"] {
            assert_eq!(log.report(name).unwrap().runs, 3, "{name}");
        }
        // Every logged pass name is canonical.
        for r in log.reports() {
            assert!(PASS_NAMES.contains(&r.name), "unknown pass {}", r.name);
        }
        // IR deltas land on the passes that produced them: clear-tags
        // inserted instructions, the scheduler marked speculation.
        assert!(log.report("clear-tags").unwrap().delta.insns_added >= 2);
        assert!(
            log.report("list-schedule")
                .unwrap()
                .delta
                .marked_speculative
                > 0
        );
    }

    #[test]
    fn mutation_after_a_pass_is_caught_at_that_boundary() {
        let f = figure1();
        let mdes = MachineDesc::paper_issue(8);
        let mut session = CompileSession::for_function(&f)
            .mdes(&mdes)
            .options(SchedOptions::new(SchedulingModel::Sentinel))
            .mutate_after(
                "list-schedule",
                Box::new(|func: &mut Function| {
                    // A broken pass marks a store speculative under
                    // model S (which forbids speculative stores).
                    let entry = func.entry();
                    func.push_insn(entry, Insn::st_w(Reg::int(1), Reg::int(2), 0).speculated());
                }),
            )
            .build();
        let err = session.run().unwrap_err();
        match err {
            ScheduleError::Verify { after, violations } => {
                assert_eq!(after, "list-schedule");
                assert!(
                    violations.iter().any(|v| v.contains("forbids")),
                    "{violations:?}"
                );
            }
            other => panic!("expected Verify, got {other}"),
        }
    }

    #[test]
    fn run_twice_is_an_error() {
        let f = figure1();
        let mut session = CompileSession::for_function(&f).build();
        session.run().unwrap();
        assert!(matches!(session.run(), Err(ScheduleError::Internal(_))));
    }

    #[test]
    fn failed_validation_still_logs_the_validate_pass() {
        let f = Function::new("empty");
        let mut session = CompileSession::for_function(&f).build();
        let err = session.run().unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidInput(_)));
        assert_eq!(session.log().report("validate").unwrap().runs, 1);
        assert!(session.log().report("list-schedule").is_none());
    }
}
