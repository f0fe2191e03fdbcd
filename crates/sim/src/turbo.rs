//! The compiled execution engine: owned decode and chained traces.
//!
//! [`TurboMachine`] is the throughput engine behind
//! [`SimSession`](crate::SimSession); the `fast` and `turbo` engine
//! labels both run it. It executes a [`TurboProgram`] — a one-time,
//! *owned* lowering of the block graph — over the machine state it
//! shares with the interpreter ([`crate::state`]), and routes every
//! architectural rule through [`crate::sem`]; only dispatch and the
//! (deliberately identical) timing model are local:
//!
//! * **Decode once** — the interpreter walks the block graph as it
//!   executes: every fallthrough re-scans the layout, every operand
//!   maps its register to a scoreboard slot, and every issue re-derives
//!   the opcode's latency and class. [`TurboProgram::new`] pays those
//!   costs once: a flat instruction array in layout order with
//!   precomputed scoreboard slots (the interpreter's numbering),
//!   pre-looked-up latencies, and pre-computed branch/sentinel
//!   classification.
//! * **Superblock trace chaining** — control transfers are pre-resolved
//!   at decode time to flat indices plus the exact block-entry chains
//!   the interpreter's profile would record, so the hot loop never
//!   re-looks-up a block entry; straight-line superblocks run on a
//!   `pc + 1` increment.
//!
//! Because [`TurboProgram`] owns its instructions (no borrow of the
//! scheduled [`Function`]), it can live in a
//! [`ProgramCache`](crate::ProgramCache) and be shared across sessions,
//! threads, and requests: decode once per (function, machine) pair per
//! grid run or serve batch, not once per run.
//!
//! The engine carries no instrumentation: `run_bare` is its only loop.
//! A session with a trace sink or [`SimConfig::collect_trace`] runs on
//! the interpreter instead (see [`SimSession`](crate::SimSession)). The
//! differential suite and the seeded fuzzer hold this loop to the
//! interpreter's outcome, statistics, architectural state, profile,
//! and PC history.

use std::sync::Arc;

use sentinel_isa::{BlockId, Insn, InsnId, MachineDesc, OpClass, Opcode, Reg};
use sentinel_prog::Function;
use sentinel_trace::StallReason;

use crate::except::{PcHistoryQueue, Trap};
use crate::exec::branch_taken;
use crate::hash::FastMap;
use crate::memory::Memory;
use crate::regfile::RegBanks;
use crate::sem;
use crate::state::MachineState;
use crate::{Recovery, RunOutcome, SimConfig, SimError};

/// Sentinel index meaning "no register / no resolution".
const NONE: u32 = u32::MAX;

/// Where control ends up after following a block-entry chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResEnd {
    /// Execution continues at this flat instruction index.
    At(u32),
    /// Control fell off the end of the layout inside this block.
    FellOff(BlockId),
}

/// A pre-resolved control transfer: the blocks entered (in the order the
/// interpreter's profile would record them, following empty-block
/// fallthrough chains) and the final destination.
#[derive(Debug, Clone)]
struct Resolution {
    /// Blocks entered from the top, in order.
    enters: Vec<BlockId>,
    /// Final destination.
    end: ResEnd,
}

/// Dense dispatch class, precomputed from the opcode at decode time so
/// the hot loop switches on a handful of handler kinds instead of the
/// full opcode space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Halt,
    Jump,
    ClearTag,
    Confirm,
    Nop,
    Branch,
    Load,
    Store,
    LdTag,
    StTag,
    Check,
    Compute,
}

impl Kind {
    fn of(op: Opcode) -> Kind {
        use Opcode::*;
        match op {
            Halt => Kind::Halt,
            Jump => Kind::Jump,
            ClearTag => Kind::ClearTag,
            ConfirmStore => Kind::Confirm,
            Jsr | Io => Kind::Nop,
            Beq | Bne | Blt | Bge => Kind::Branch,
            LdW | LdB | FLd => Kind::Load,
            StW | StB | FSt => Kind::Store,
            LdTag => Kind::LdTag,
            StTag => Kind::StTag,
            CheckExcept => Kind::Check,
            _ => Kind::Compute,
        }
    }
}

/// Decode-time metadata for one instruction, aligned with
/// [`TurboProgram::insns`].
#[derive(Debug, Clone)]
struct Meta {
    /// Operation latency from the machine description.
    lat: u64,
    /// Scoreboard slot of `src1` ([`NONE`] if absent).
    src1: u32,
    /// Scoreboard slot of `src2` ([`NONE`] if absent).
    src2: u32,
    /// Scoreboard slot of the architectural def ([`NONE`] if the
    /// instruction defines nothing — including writes to `r0`).
    dest: u32,
    /// Scoreboard slot of the raw `dest` operand, `r0` included (the
    /// load paths score the destination without the `def()` filter,
    /// exactly as the interpreter does).
    raw_dest: u32,
    /// Resolution index of the branch/jump target ([`NONE`] if none).
    target: u32,
    /// Resolution index to follow when execution advances past this
    /// instruction and it is the last of its block ([`NONE`] mid-block,
    /// where the successor is simply the next flat index).
    fall: u32,
    /// Branchless `dyn_speculative` increment (1 iff speculative).
    spec_inc: u64,
    /// Branchless `dyn_boosted` increment (1 iff boosted).
    boost_inc: u64,
    /// `true` if the opcode occupies the per-cycle branch slot.
    is_branch: bool,
    /// Stall reason charged while waiting for this instruction's sources.
    wait: StallReason,
    kind: Kind,
}

/// A function lowered into the engine's owned, shareable form.
///
/// A `TurboProgram` owns a copy of every instruction, so it has no
/// lifetime tie to the scheduled function and can be kept in a
/// [`ProgramCache`] (`Arc`-shared across threads and sessions). Decode
/// once, run many.
///
/// [`ProgramCache`]: crate::ProgramCache
#[derive(Debug, Clone)]
pub struct TurboProgram {
    /// Flat instruction array: layout blocks first (first occurrence
    /// order), then any non-layout blocks (reachable only by jump).
    /// Indices here are the engine's program counter.
    insns: Vec<Insn>,
    /// Per-instruction decode metadata, aligned with `insns`.
    meta: Vec<Meta>,
    /// Block-entry chains, indexed by [`Meta::target`], [`Meta::fall`],
    /// and `entry`.
    resolutions: Vec<Resolution>,
    /// Resolution for entering the function at its entry block.
    entry: u32,
    /// Register-file shape and scoreboard numbering.
    banks: RegBanks,
    /// Flat index of every instruction id (recovery resume targets).
    flat_of: FastMap<InsnId, u32>,
}

impl TurboProgram {
    /// Lowers `func` for execution on `mdes`: flattens the layout and
    /// chains control transfers.
    pub fn new(func: &Function, mdes: &MachineDesc) -> TurboProgram {
        let banks = RegBanks::new(func, mdes);
        let reg_index = |r: Reg| banks.slot(r) as u32;

        // Flatten: layout blocks (first occurrence), then non-layout
        // blocks, recording each block's first flat instruction index.
        let block_count = func
            .blocks()
            .map(|b| b.id.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut first_flat: Vec<u32> = vec![NONE; block_count];
        let mut order: Vec<BlockId> = Vec::with_capacity(block_count);
        let mut seen = vec![false; block_count];
        for b in func
            .layout()
            .iter()
            .copied()
            .chain(func.blocks().map(|b| b.id))
        {
            if !seen[b.0 as usize] {
                seen[b.0 as usize] = true;
                order.push(b);
            }
        }
        let mut insns: Vec<Insn> = Vec::with_capacity(func.insn_count());
        let mut last_of_block: Vec<Option<BlockId>> = Vec::with_capacity(func.insn_count());
        for &b in &order {
            let block = &func.block(b).insns;
            if block.is_empty() {
                continue;
            }
            first_flat[b.0 as usize] = insns.len() as u32;
            insns.extend(block.iter().cloned());
            last_of_block.resize(insns.len() - 1, None);
            last_of_block.push(Some(b));
        }

        // Resolutions: one per block for "enter this block" (jump targets
        // and fallthrough chains), plus one per block for "fell off the
        // end here" (last instruction of a block with no layout
        // successor).
        let mut resolutions: Vec<Resolution> = Vec::new();
        let mut enter_res: Vec<u32> = vec![NONE; block_count];
        for &b in &order {
            let mut enters = vec![b];
            let mut cur = b;
            let end = loop {
                if !func.block(cur).insns.is_empty() {
                    break ResEnd::At(first_flat[cur.0 as usize]);
                }
                match func.fallthrough_of(cur) {
                    Some(next) => {
                        enters.push(next);
                        cur = next;
                    }
                    None => break ResEnd::FellOff(cur),
                }
            };
            enter_res[b.0 as usize] = resolutions.len() as u32;
            resolutions.push(Resolution { enters, end });
        }
        let mut fell_res: Vec<u32> = vec![NONE; block_count];
        let mut fall_for = |b: BlockId, resolutions: &mut Vec<Resolution>| -> u32 {
            match func.fallthrough_of(b) {
                Some(ft) => enter_res[ft.0 as usize],
                None => {
                    if fell_res[b.0 as usize] == NONE {
                        fell_res[b.0 as usize] = resolutions.len() as u32;
                        resolutions.push(Resolution {
                            enters: Vec::new(),
                            end: ResEnd::FellOff(b),
                        });
                    }
                    fell_res[b.0 as usize]
                }
            }
        };

        let mut meta: Vec<Meta> = Vec::with_capacity(insns.len());
        let mut flat_of = FastMap::default();
        for (idx, insn) in insns.iter().enumerate() {
            flat_of.insert(insn.id, idx as u32);
            meta.push(Meta {
                lat: mdes.latency(insn.op) as u64,
                src1: insn.src1.map_or(NONE, reg_index),
                src2: insn.src2.map_or(NONE, reg_index),
                dest: insn.def().map_or(NONE, reg_index),
                raw_dest: insn.dest.map_or(NONE, reg_index),
                target: insn.target.map_or(NONE, |t| enter_res[t.0 as usize]),
                fall: match last_of_block[idx] {
                    Some(b) => fall_for(b, &mut resolutions),
                    None => NONE,
                },
                spec_inc: u64::from(insn.speculative),
                boost_inc: u64::from(insn.boost > 0),
                is_branch: insn.op.class() == OpClass::Branch,
                wait: match insn.op {
                    Opcode::CheckExcept | Opcode::ConfirmStore => StallReason::SentinelOverhead,
                    _ => StallReason::RawInterlock,
                },
                kind: Kind::of(insn.op),
            });
        }
        TurboProgram {
            insns,
            meta,
            resolutions,
            entry: enter_res[func.entry().0 as usize],
            banks,
            flat_of,
        }
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// `true` if the program decodes to no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

/// How a `run_bare` call ended (errors travel in the `Result`).
enum Step {
    Halt,
    Trap(Trap),
}

/// The turbo engine: execute an owned [`TurboProgram`] over the shared
/// [`MachineState`].
///
/// Construct through [`SimSession`](crate::SimSession) with
/// [`Engine::Fast`](crate::Engine::Fast) or
/// [`Engine::Turbo`](crate::Engine::Turbo) and no instrumentation.
pub(crate) struct TurboMachine {
    prog: Arc<TurboProgram>,
    /// The machine state both loops share.
    pub(crate) st: MachineState,
    // --- dense profile / PC-history accumulators ---
    // The shared `Profile` hashes on every block entry and branch; the
    // hot loop instead bumps one array slot (indexed by resolution or
    // flat pc) and `flush_observables` folds the counts into the
    // canonical forms on every run exit, so the session's profile and
    // PC history read back exactly what the interpreter produces.
    /// Entry count per resolution index.
    res_counts: Vec<u64>,
    /// Execution count per flat index (control-transfer instructions).
    br_exec: Vec<u64>,
    /// Taken count per flat index.
    br_taken: Vec<u64>,
    /// Fixed-size PC ring (the last `pc_history_depth` issued PCs,
    /// oldest at `pc_head` once full).
    pc_ring: Vec<InsnId>,
    pc_head: usize,
}

impl TurboMachine {
    /// Creates an engine over a (possibly cache-shared) decoded program.
    pub fn new(prog: Arc<TurboProgram>, config: SimConfig) -> TurboMachine {
        TurboMachine {
            res_counts: vec![0; prog.resolutions.len()],
            br_exec: vec![0; prog.insns.len()],
            br_taken: vec![0; prog.insns.len()],
            pc_ring: Vec::with_capacity(config.pc_history_depth),
            pc_head: 0,
            st: MachineState::new(prog.banks, config),
            prog,
        }
    }

    /// Applies a pre-resolved control transfer: bumps the resolution's
    /// dense entry counter (expanded into per-block profile counts at
    /// flush time) and returns the destination flat index.
    fn enter(&mut self, prog: &TurboProgram, res: u32) -> Result<u32, SimError> {
        self.res_counts[res as usize] += 1;
        match prog.resolutions[res as usize].end {
            ResEnd::At(idx) => Ok(idx),
            ResEnd::FellOff(b) => Err(SimError::FellOffEnd(b)),
        }
    }

    /// Folds the dense accumulators into the canonical observable forms
    /// — the shared [`Profile`](sentinel_prog::profile::Profile) and
    /// [`PcHistoryQueue`] — and resets the
    /// run-scoped counters. Called on every exit path of a run, so the
    /// session's profile and PC history match the interpreter's whenever
    /// a caller can reach them.
    fn flush_observables(&mut self) {
        let prog = Arc::clone(&self.prog);
        let profile = &mut self.st.profile;
        for (idx, c) in self.res_counts.iter_mut().enumerate() {
            if *c > 0 {
                for &b in &prog.resolutions[idx].enters {
                    *profile.block_entries.entry(b).or_insert(0) += *c;
                }
                *c = 0;
            }
        }
        for (i, c) in self.br_exec.iter_mut().enumerate() {
            if *c > 0 {
                *profile.branch_executed.entry(prog.insns[i].id).or_insert(0) += *c;
                *c = 0;
            }
        }
        for (i, c) in self.br_taken.iter_mut().enumerate() {
            if *c > 0 {
                *profile.branch_taken.entry(prog.insns[i].id).or_insert(0) += *c;
                *c = 0;
            }
        }
        let depth = self.st.config.pc_history_depth;
        let mut q = PcHistoryQueue::new(depth);
        let full = self.pc_ring.len() == depth;
        for k in 0..self.pc_ring.len() {
            let idx = if full { (self.pc_head + k) % depth } else { k };
            q.record(self.pc_ring[idx]);
        }
        self.st.pcq = q;
    }

    /// Runs with an exception-recovery handler (paper §3.7); see
    /// [`SimSession::run_with_recovery`](crate::SimSession::run_with_recovery).
    pub fn run_with_recovery<H>(&mut self, handler: H) -> Result<RunOutcome, SimError>
    where
        H: FnMut(&Trap, &mut Memory) -> Recovery,
    {
        let r = self.run_loop(handler);
        self.flush_observables();
        r
    }

    /// The run loop proper; every exit flows back through
    /// [`TurboMachine::run_with_recovery`]'s observable flush.
    fn run_loop<H>(&mut self, mut handler: H) -> Result<RunOutcome, SimError>
    where
        H: FnMut(&Trap, &mut Memory) -> Recovery,
    {
        let prog = Arc::clone(&self.prog);
        let mut pc = self.enter(&prog, prog.entry)?;
        loop {
            let trap = match self.run_bare(&prog, &mut pc)? {
                Step::Halt => return self.st.halt(),
                Step::Trap(trap) => trap,
            };
            match handler(&trap, &mut self.st.mem) {
                Recovery::Resume => {
                    self.st.count_recovery()?;
                    let Some(&rpc) = prog.flat_of.get(&trap.excepting_pc) else {
                        return Err(SimError::UnknownRecoveryPc(trap.excepting_pc));
                    };
                    let at = self.st.cycle;
                    self.st.sb.cancel_probationary(at);
                    let penalty = self.st.config.recovery_penalty;
                    self.st
                        .advance_cycle(at + 1 + penalty, StallReason::Recovery);
                    pc = rpc;
                }
                Recovery::Abort => return Ok(self.st.abort(trap)),
            }
        }
    }

    /// The hot loop: runs until a halt or trap, advancing `pc` through
    /// fallthroughs and chained transfers internally.
    ///
    /// One long-lived [`sem::ArchState`] serves the whole run (instead of a
    /// bundle rebuilt per instruction), and the timing front end —
    /// readiness, issue arbitration, stall attribution, PC history — is
    /// the interpreter's timing model, written over locals the compiler
    /// can keep in registers. The issue cursor, the scoreboard and the
    /// counters move into locals here and back at the single exit; `sem`
    /// never reads them mid-run.
    fn run_bare(&mut self, prog: &TurboProgram, pc: &mut u32) -> Result<Step, SimError> {
        let TurboMachine {
            st,
            res_counts,
            br_exec,
            br_taken,
            pc_ring,
            pc_head,
            ..
        } = self;
        let fuel = st.config.fuel;
        let issue_width = st.config.mdes.issue_width();
        let branches_per_cycle = st.config.mdes.branches_per_cycle();
        let pc_depth = st.config.pc_history_depth;
        let mut ready = std::mem::take(&mut st.ready);
        let (mut cycle, mut slots, mut branches) = (st.cycle, st.slots_used, st.branches_used);
        let mut arch = st.arch();
        let mut dyn_insns = arch.stats.dyn_insns;
        let (mut spec, mut boost, mut checks, mut issuing) = (0u64, 0u64, 0u64, 0u64);

        /// [`MachineState::advance_cycle`] over the locals.
        macro_rules! advance {
            ($to:expr, $reason:expr) => {{
                let to = $to;
                if to > cycle {
                    let stalled = (to - cycle - 1) + u64::from(slots == 0);
                    if stalled > 0 {
                        arch.stats.stalls.add($reason, stalled);
                    }
                    cycle = to;
                    slots = 0;
                    branches = 0;
                }
            }};
        }
        /// Issue-slot arbitration with stall attribution.
        macro_rules! issue {
            ($min:expr, $is_branch:expr, $wait:expr) => {{
                let min_cycle = $min;
                if min_cycle <= cycle
                    && slots < issue_width
                    && (!$is_branch || branches < branches_per_cycle)
                {
                    slots += 1;
                    issuing += u64::from(slots == 1);
                    if $is_branch {
                        branches += 1;
                    }
                    cycle
                } else {
                    advance!(min_cycle, $wait);
                    loop {
                        let width_ok = slots < issue_width;
                        let branch_ok = !$is_branch || branches < branches_per_cycle;
                        if width_ok && branch_ok {
                            slots += 1;
                            issuing += u64::from(slots == 1);
                            if $is_branch {
                                branches += 1;
                            }
                            break cycle;
                        }
                        let structural = if width_ok {
                            StallReason::BranchLimit
                        } else {
                            StallReason::FuConflict
                        };
                        advance!(cycle + 1, structural);
                    }
                }
            }};
        }
        /// Marks a scoreboard slot ready (no-op for [`NONE`]).
        macro_rules! mark_ready {
            ($slot:expr, $at:expr) => {{
                let s = $slot;
                if s != NONE {
                    ready[s as usize] = $at;
                }
            }};
        }
        /// [`TurboMachine::enter`]: evaluates to the destination flat
        /// index, or breaks the run on a fell-off-end resolution.
        macro_rules! enter {
            ($l:lifetime, $res:expr) => {{
                let r = $res as usize;
                res_counts[r] += 1;
                match prog.resolutions[r].end {
                    ResEnd::At(idx) => idx,
                    ResEnd::FellOff(b) => break $l Err(SimError::FellOffEnd(b)),
                }
            }};
        }
        /// Applies a [`sem::mem::LoadStep`] to the scoreboard.
        macro_rules! apply_load {
            ($l:lifetime, $m:expr, $step:expr) => {{
                match $step {
                    sem::mem::LoadStep::Done { ready_at, raw } => {
                        mark_ready!(if raw { $m.raw_dest } else { $m.dest }, ready_at);
                    }
                    sem::mem::LoadStep::Trap(trap) => break $l Ok(Step::Trap(trap)),
                }
            }};
        }

        // One dispatch per instruction: timing here, semantics in
        // `crate::sem`.
        let res = 'run: loop {
            if dyn_insns >= fuel {
                break 'run Err(SimError::OutOfFuel);
            }
            let i = *pc as usize;
            let (m, insn) = (&prog.meta[i], &prog.insns[i]);
            // An absent source (`NONE`) is past the scoreboard's end, so
            // it reads as ready at once.
            let src_ready = |s: u32| ready.get(s as usize).copied().unwrap_or(0);
            let ready_at = src_ready(m.src1).max(src_ready(m.src2));
            dyn_insns += 1;
            spec += m.spec_inc;
            boost += m.boost_inc;
            // Record the issued PC into the dense ring.
            if pc_ring.len() < pc_depth {
                pc_ring.push(insn.id);
            } else {
                pc_ring[*pc_head] = insn.id;
                *pc_head += 1;
                if *pc_head == pc_depth {
                    *pc_head = 0;
                }
            }
            let issue = issue!(ready_at, m.is_branch, m.wait);
            match m.kind {
                Kind::Halt => {
                    if !arch.shadow.is_empty() {
                        break 'run Err(SimError::ShadowAtHalt(arch.shadow.len()));
                    }
                    break 'run Ok(Step::Halt);
                }
                Kind::Jump => {
                    br_exec[i] += 1;
                    br_taken[i] += 1;
                    advance!(issue + 1, StallReason::BranchRedirect);
                    debug_assert_ne!(m.target, NONE, "jump target");
                    *pc = enter!('run, m.target);
                    continue 'run;
                }
                Kind::ClearTag => {
                    sem::tag::exec_clear_tag(&mut arch, insn);
                    mark_ready!(m.dest, issue + m.lat);
                }
                Kind::Confirm => match sem::mem::exec_confirm(&mut arch, insn, issue) {
                    Ok(None) => {}
                    Ok(Some(trap)) => break 'run Ok(Step::Trap(trap)),
                    Err(e) => break 'run Err(e),
                },
                Kind::Nop => {}
                Kind::Branch => {
                    arch.stats.branches += 1;
                    let (va, vb) = match sem::tag::branch_sources(&arch, insn) {
                        Ok(v) => v,
                        Err(trap) => break 'run Ok(Step::Trap(trap)),
                    };
                    let taken = branch_taken(insn.op, va, vb);
                    br_exec[i] += 1;
                    if taken {
                        br_taken[i] += 1;
                        arch.stats.branches_taken += 1;
                        sem::on_taken_branch(&mut arch, issue);
                        advance!(issue + 1, StallReason::BranchRedirect);
                        debug_assert_ne!(m.target, NONE, "branch target");
                        *pc = enter!('run, m.target);
                        continue 'run;
                    }
                    let (trap, stall_to) = match sem::boost::commit(&mut arch, insn.id, issue) {
                        Ok(v) => v,
                        Err(e) => break 'run Err(e),
                    };
                    if let Some(eff) = stall_to {
                        advance!(eff.max(cycle), StallReason::StoreBufferFull);
                    }
                    if let Some(t) = trap {
                        break 'run Ok(Step::Trap(t));
                    }
                }
                Kind::Load => match sem::mem::exec_load(&mut arch, insn, issue, m.lat) {
                    Ok(step) => apply_load!('run, m, step),
                    Err(e) => break 'run Err(e),
                },
                Kind::Store => match sem::mem::exec_store(&mut arch, insn, issue) {
                    Ok(sem::mem::StoreStep::Done { stall_to }) => {
                        if let Some(eff) = stall_to {
                            advance!(eff.max(cycle), StallReason::StoreBufferFull);
                        }
                    }
                    Ok(sem::mem::StoreStep::Trap(trap)) => break 'run Ok(Step::Trap(trap)),
                    Err(e) => break 'run Err(e),
                },
                Kind::LdTag => {
                    let step = sem::mem::exec_ld_tag(&mut arch, insn, issue, m.lat);
                    apply_load!('run, m, step);
                }
                Kind::StTag => {
                    if let Some(trap) = sem::mem::exec_st_tag(&mut arch, insn) {
                        break 'run Ok(Step::Trap(trap));
                    }
                }
                Kind::Check | Kind::Compute => {
                    checks += u64::from(m.kind == Kind::Check);
                    match sem::tag::exec_compute(&mut arch, insn) {
                        Ok(None) => mark_ready!(m.dest, issue + m.lat),
                        Ok(Some(trap)) => break 'run Ok(Step::Trap(trap)),
                        Err(e) => break 'run Err(e),
                    }
                }
            }
            *pc = if m.fall == NONE {
                i as u32 + 1
            } else {
                enter!('run, m.fall)
            };
        };
        arch.stats.dyn_insns = dyn_insns;
        arch.stats.dyn_speculative += spec;
        arch.stats.dyn_boosted += boost;
        arch.stats.dyn_checks += checks;
        arch.stats.issuing_cycles += issuing;
        st.ready = ready;
        (st.cycle, st.slots_used, st.branches_used) = (cycle, slots, branches);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_isa::LatencyTable;
    use sentinel_prog::ProgramBuilder;

    fn mdes() -> MachineDesc {
        MachineDesc::builder()
            .issue_width(2)
            .latencies(LatencyTable::paper())
            .build()
    }

    #[test]
    fn flat_order_and_falls() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::li(Reg::int(1), 1));
        b.push(Insn::li(Reg::int(2), 2));
        let tail = b.block("tail");
        b.switch_to(tail);
        b.push(Insn::halt());
        let f = b.finish();
        let p = TurboProgram::new(&f, &mdes());
        assert_eq!(p.len(), 3);
        // Mid-block instruction: successor is just idx + 1.
        assert_eq!(p.meta[0].fall, NONE);
        // Last of entry block: fallthrough resolution entering `tail`.
        let fall = p.meta[1].fall;
        assert_ne!(fall, NONE);
        assert_eq!(p.resolutions[fall as usize].enters, vec![tail]);
        assert_eq!(p.resolutions[fall as usize].end, ResEnd::At(2));
        // Last instruction of the last block: falling off reports it.
        let off = p.meta[2].fall;
        assert_eq!(p.resolutions[off as usize].end, ResEnd::FellOff(tail));
    }

    #[test]
    fn empty_block_chains_collapse() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::li(Reg::int(1), 1));
        let e1 = b.block("empty1");
        let e2 = b.block("empty2");
        let end = b.block("end");
        b.switch_to(end);
        b.push(Insn::halt());
        let f = b.finish();
        let p = TurboProgram::new(&f, &mdes());
        let fall = p.meta[0].fall;
        let res = &p.resolutions[fall as usize];
        // The chain enters both empty blocks before landing on `halt`.
        assert_eq!(res.enters.len(), 3);
        assert_eq!(res.enters[0], e1);
        assert_eq!(res.enters[1], e2);
        assert_eq!(res.end, ResEnd::At(1));
    }

    #[test]
    fn scoreboard_indices_split_classes() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::alu(
            Opcode::Add,
            Reg::int(3),
            Reg::int(1),
            Reg::int(2),
        ));
        b.push(Insn::alu(Opcode::FAdd, Reg::fp(4), Reg::fp(1), Reg::fp(2)));
        b.push(Insn::alu(Opcode::Add, Reg::ZERO, Reg::int(1), Reg::int(2)));
        b.push(Insn::halt());
        let f = b.finish();
        let p = TurboProgram::new(&f, &mdes());
        // The fp bank follows the whole int bank of the description.
        let ints = mdes().int_regs();
        assert_eq!(p.meta[0].src1, 1);
        assert_eq!(p.meta[0].dest, 3);
        assert_eq!(p.meta[1].src1 as usize, ints + 1);
        assert_eq!(p.meta[1].dest as usize, ints + 4);
        // r0 def is filtered, but the raw dest index survives for the
        // load-path scoreboard writes.
        assert_eq!(p.meta[2].dest, NONE);
        assert_eq!(p.meta[2].raw_dest, 0);
        assert_eq!(p.banks.slots(), ints + mdes().fp_regs());
    }

    #[test]
    fn latency_and_branch_class_precomputed() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        b.push(Insn::alu(Opcode::FMul, Reg::fp(1), Reg::fp(1), Reg::fp(1)));
        b.push(Insn::jump(e));
        let f = b.finish();
        let m = mdes();
        let p = TurboProgram::new(&f, &m);
        assert_eq!(p.meta[0].lat, m.latency(Opcode::FMul) as u64);
        assert!(!p.meta[0].is_branch);
        assert!(p.meta[1].is_branch);
        let t = p.meta[1].target;
        assert_eq!(p.resolutions[t as usize].end, ResEnd::At(0));
        assert_eq!(p.resolutions[t as usize].enters, vec![e]);
    }
}
