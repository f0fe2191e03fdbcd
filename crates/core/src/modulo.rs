//! Modulo scheduling (software pipelining) of counted loops.
//!
//! The paper's §2 situates sentinel scheduling among the cyclic
//! scheduling techniques: "when branch conditions may be determined
//! early, scheduling techniques such as software pipelining are
//! effective", and "modulo scheduling of while loops depends on
//! speculative support" (Tirumalai et al.). This module implements the
//! counted-loop core of that machinery so the reproduction can overlap
//! loop iterations the acyclic superblock scheduler cannot:
//!
//! * **Shape**: a self-looping block of straight-line operations followed
//!   by pointer bumps, a counter decrement, the latch
//!   `bne counter, r0, self`, and `jump exit`.
//! * **Initiation interval**: `II = max(resource bound, recurrence
//!   bounds, max value lifetime)`. Taking the lifetime into the maximum
//!   avoids modulo variable expansion (no rotating register files on this
//!   machine): every value is consumed within one kernel iteration of its
//!   definition.
//! * **Construction**: a trip-count guard falls back to the original loop
//!   for short trips; otherwise `S−1` prologue partials ramp the pipeline
//!   up, a flat kernel runs `n−S+1` times, and an epilogue drains.
//!   Cross-stage pointer references are retargeted by *offset adjustment*
//!   (`imm − stage·step`), the classic substitute for rotating registers.
//!
//! Loops outside the recognized shape are left untouched (the transform
//! returns `false`); in particular while-loops (side exits) require the
//! speculative-load support this counted-loop version does not need —
//! exactly the paper's point.

use std::collections::HashMap;

use sentinel_isa::{BlockId, Insn, MachineDesc, Opcode, Reg};
use sentinel_prog::liveness::RegSet;
use sentinel_prog::Function;

/// The recognized canonical loop.
#[derive(Debug)]
struct LoopShape {
    /// Straight-line body operations (everything before the bumps).
    body: Vec<Insn>,
    /// Trailing self-bumps `addi p, p, step`.
    bumps: Vec<Insn>,
    /// The counter register (decremented by 1 per iteration).
    counter: Reg,
    /// The latch branch (`bne counter, r0, self`).
    latch: Insn,
    /// Where control goes when the loop finishes.
    exit: BlockId,
}

/// Per-op placement.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// ASAP start time within the unrolled iteration.
    sigma: u64,
    /// Pipeline stage (`sigma / II`).
    stage: u64,
    /// Relative cycle within the kernel (`sigma % II`).
    rel: u64,
}

fn is_self_bump(insn: &Insn) -> Option<(Reg, i64)> {
    if insn.op == Opcode::AddI && insn.dest == insn.src1 {
        insn.dest.map(|d| (d, insn.imm))
    } else {
        None
    }
}

/// Recognizes the canonical shape, or returns `None`.
fn recognize(func: &Function, block: BlockId) -> Option<LoopShape> {
    let insns = &func.block(block).insns;
    let n = insns.len();
    if n < 3 {
        return None;
    }
    // The latch is either the last instruction (exit = layout
    // fall-through) or followed by a single `jump exit`.
    let (latch_pos, exit) = if insns[n - 1].op == Opcode::Jump {
        (n - 2, insns[n - 1].target?)
    } else {
        (n - 1, func.fallthrough_of(block)?)
    };
    if latch_pos < 2 {
        return None;
    }
    let latch = insns[latch_pos].clone();
    if !(latch.op == Opcode::Bne && latch.target == Some(block) && latch.src2 == Some(Reg::ZERO)) {
        return None;
    }
    let counter = latch.src1?;
    // Counter decrement immediately before the latch.
    let dec = &insns[latch_pos - 1];
    if !(dec.op == Opcode::AddI
        && dec.dest == Some(counter)
        && dec.src1 == Some(counter)
        && dec.imm == -1)
    {
        return None;
    }
    // Trailing run of self-bumps before the decrement.
    let mut split = latch_pos - 1;
    while split > 0 {
        let insn = &insns[split - 1];
        match is_self_bump(insn) {
            Some((r, _)) if r != counter => split -= 1,
            _ => break,
        }
    }
    let body = insns[..split].to_vec();
    let bumps = insns[split..latch_pos - 1].to_vec();
    Some(LoopShape {
        body,
        bumps,
        counter,
        latch,
        exit,
    })
}

/// Checks the legality constraints beyond shape; returns the bump map
/// `base → step` when pipelinable.
fn legality(shape: &LoopShape, func: &Function) -> Option<HashMap<Reg, i64>> {
    let bump_of: HashMap<Reg, i64> = shape.bumps.iter().filter_map(is_self_bump).collect();
    if bump_of.len() != shape.bumps.len() {
        return None; // duplicate bump of the same register
    }
    let noalias = func.noalias_bases();

    let mut defined = RegSet::new();
    for insn in &shape.body {
        // No control, irreversible, sentinel, or tag-spill ops.
        if insn.op.is_control()
            || insn.op.is_irreversible()
            || matches!(
                insn.op,
                Opcode::CheckExcept
                    | Opcode::ConfirmStore
                    | Opcode::ClearTag
                    | Opcode::LdTag
                    | Opcode::StTag
            )
            || insn.speculative
            || insn.boost > 0
        {
            return None;
        }
        // Counter untouched by the body.
        if insn.def() == Some(shape.counter) || insn.uses().any(|r| r == shape.counter) {
            return None;
        }
        // Bump registers: only as memory bases.
        if let Some(d) = insn.def() {
            if bump_of.contains_key(&d) {
                return None;
            }
        }
        for r in insn.uses() {
            if bump_of.contains_key(&r) {
                let is_base = insn.op.is_mem() && insn.src2 == Some(r) && insn.src1 != Some(r);
                if !is_base {
                    return None;
                }
            }
        }
        // Register recurrences: a def must either be new this iteration
        // (no use-before-def of it in the body) or a pure self-accumulator
        // `op acc, acc, v` read by nothing else before its update.
        if let Some(d) = insn.def() {
            let self_acc = insn.uses().any(|r| r == d);
            if self_acc {
                // Accumulator: `d` must not be read by any *other* body op
                // before this one, nor defined elsewhere.
                let reads_elsewhere = shape.body.iter().any(|other| {
                    !std::ptr::eq(other, insn)
                        && (other.uses().any(|r| r == d) || other.def() == Some(d))
                });
                if reads_elsewhere {
                    return None;
                }
            } else if defined.contains(&d) {
                // Redefinition is fine (intra-iteration), handled by σ.
            } else {
                // Use-before-def of d anywhere earlier ⇒ carried flow we
                // do not support.
                let use_before = shape
                    .body
                    .iter()
                    .take_while(|other| !std::ptr::eq(*other, insn))
                    .any(|other| other.uses().any(|r| r == d));
                if use_before {
                    return None;
                }
            }
            defined.insert(d);
        }
    }

    // Memory pairs: every (store, mem-op) pair must be on distinct,
    // noalias-declared, bumped-or-stable bases.
    let mems: Vec<&Insn> = shape.body.iter().filter(|i| i.op.is_mem()).collect();
    for (k, a) in mems.iter().enumerate() {
        for b in &mems[k + 1..] {
            if !(a.op.is_store() || b.op.is_store()) {
                continue;
            }
            let (ba, bb) = (a.src2?, b.src2?);
            if ba == bb || !noalias.contains(&ba) || !noalias.contains(&bb) {
                return None;
            }
        }
    }
    Some(bump_of)
}

/// ASAP schedule of the body under intra-iteration register dependences;
/// returns per-op σ and the maximum value lifetime.
fn asap_schedule(body: &[Insn], mdes: &MachineDesc) -> (Vec<u64>, u64) {
    let mut sigma = vec![0u64; body.len()];
    let mut last_def: HashMap<Reg, usize> = HashMap::new();
    let mut readers: HashMap<Reg, Vec<usize>> = HashMap::new();
    for (i, insn) in body.iter().enumerate() {
        let mut earliest = 0u64;
        for r in insn.uses() {
            if let Some(&d) = last_def.get(&r) {
                earliest = earliest.max(sigma[d] + mdes.latency(body[d].op) as u64);
            }
        }
        if let Some(d) = insn.def() {
            // Anti/output: issue no earlier than prior readers/writers.
            if let Some(rs) = readers.get(&d) {
                for &r in rs {
                    earliest = earliest.max(sigma[r]);
                }
            }
            if let Some(&p) = last_def.get(&d) {
                earliest = earliest.max(sigma[p] + 1);
            }
        }
        sigma[i] = earliest;
        for r in insn.uses() {
            readers.entry(r).or_default().push(i);
        }
        if let Some(d) = insn.def() {
            last_def.insert(d, i);
            readers.insert(d, Vec::new());
        }
    }
    // Max lifetime: def → last use distance (self-accumulators excluded:
    // their carried self-edge is covered by the latency bound below).
    let mut lifetime = 0u64;
    let mut def_at: HashMap<Reg, usize> = HashMap::new();
    for (i, insn) in body.iter().enumerate() {
        for r in insn.uses() {
            if let Some(&d) = def_at.get(&r) {
                if d != i {
                    lifetime = lifetime.max(sigma[i].saturating_sub(sigma[d]));
                }
            }
        }
        if let Some(d) = insn.def() {
            def_at.insert(d, i);
        }
    }
    (sigma, lifetime)
}

/// Statistics of one pipelined loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineInfo {
    /// Initiation interval.
    pub ii: u64,
    /// Pipeline stages.
    pub stages: u64,
    /// Body operations overlapped.
    pub body_ops: usize,
}

/// Attempts to software-pipeline the loop at `block`. Returns pipeline
/// statistics on success; leaves the function untouched (returning
/// `None`) when the loop is outside the supported shape or pipelining
/// would not help (`stages < 2`).
///
/// # Examples
///
/// ```
/// use sentinel_core::modulo::pipeline_loop;
/// use sentinel_isa::MachineDesc;
/// use sentinel_workloads::kernels;
///
/// let mut w = kernels::copy_words(64);
/// let body = w.func.block_by_label("loop").unwrap();
/// let info = pipeline_loop(&mut w.func, body, &MachineDesc::paper_issue(8)).unwrap();
/// assert!(info.stages >= 2); // iterations now overlap
/// ```
pub fn pipeline_loop(
    func: &mut Function,
    block: BlockId,
    mdes: &MachineDesc,
) -> Option<PipelineInfo> {
    let shape = recognize(func, block)?;
    let bump_of = legality(&shape, func)?;
    if shape.body.is_empty() {
        return None;
    }
    let (sigma, lifetime) = asap_schedule(&shape.body, mdes);

    // Initiation interval: resources, accumulator recurrences, lifetimes.
    let total_insns = shape.body.len() + shape.bumps.len() + 2;
    let res_mii = total_insns.div_ceil(mdes.issue_width()) as u64;
    let acc_mii = shape
        .body
        .iter()
        .filter(|i| i.def().is_some() && i.uses().any(|r| Some(r) == i.def()))
        .map(|i| mdes.latency(i.op) as u64)
        .max()
        .unwrap_or(1);
    let ii = res_mii.max(acc_mii).max(lifetime).max(1);
    let max_sigma = sigma.iter().copied().max().unwrap_or(0);
    let stages = max_sigma / ii + 1;
    if stages < 2 {
        return None; // nothing to overlap
    }

    let slots: Vec<Slot> = sigma
        .iter()
        .map(|&s| Slot {
            sigma: s,
            stage: s / ii,
            rel: s % ii,
        })
        .collect();

    // An op of stage s, executed in a block where the bumps have already
    // run `j` times for the iteration being *started*, needs its memory
    // offset shifted by −s·step (see module docs).
    let adjust = |insn: &Insn, extra_stages: u64| -> Insn {
        let mut i = insn.clone();
        if i.op.is_mem() {
            if let Some(base) = i.src2 {
                if let Some(&step) = bump_of.get(&base) {
                    i.imm -= extra_stages as i64 * step;
                }
            }
        }
        i.id = sentinel_isa::InsnId::UNASSIGNED;
        i
    };

    /// Ops sorted for one partial/kernel: ascending relative cycle,
    /// higher stage first on ties (older iterations read before younger
    /// iterations overwrite).
    fn emit_order(slots: &[Slot], include: impl Fn(u64) -> bool) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..slots.len())
            .filter(|&i| include(slots[i].stage))
            .collect();
        idx.sort_by_key(|&i| {
            (
                slots[i].rel,
                std::cmp::Reverse(slots[i].stage),
                slots[i].sigma,
                i,
            )
        });
        idx
    }

    // ---- build the new control structure -------------------------------
    let exit = shape.exit;
    let label = func.block(block).label.clone();
    let orig = func.add_block(format!("{label}.orig"));
    let mut prologues = Vec::new();
    for j in 0..stages - 1 {
        prologues.push(func.add_block(format!("{label}.pro{j}")));
    }
    let kernel = func.add_block(format!("{label}.kernel"));
    let epilogue = func.add_block(format!("{label}.epi"));

    // Original loop, preserved for short trips (fresh ids, retargeted).
    let orig_insns = func.block(block).insns.clone();
    for insn in &orig_insns {
        let mut i = insn.clone();
        if i.target == Some(block) {
            i.target = Some(orig);
        }
        i.id = sentinel_isa::InsnId::UNASSIGNED;
        func.push_insn(orig, i);
    }
    // The copy no longer sits where layout fall-through worked.
    if !func.block(orig).ends_in_unconditional() {
        func.push_insn(orig, Insn::jump(exit));
    }

    // Guard (replaces the loop block, so all predecessors keep working):
    //   tmp = S; blt counter, tmp, orig; counter -= S-1; jump pro0
    let (mi, _) = func.max_reg_indices();
    let tmp = Reg::int(mi.map_or(64, |m| m.max(63) + 1));
    func.block_mut(block).insns.clear();
    func.push_insn(block, Insn::li(tmp, stages as i64));
    func.push_insn(block, Insn::branch(Opcode::Blt, shape.counter, tmp, orig));
    func.push_insn(
        block,
        Insn::addi(shape.counter, shape.counter, -((stages - 1) as i64)),
    );
    func.push_insn(block, Insn::jump(prologues[0]));

    // Prologue partials j = 0..S-2: stages ≤ j, then bumps.
    for (j, &pb) in prologues.iter().enumerate() {
        for &i in &emit_order(&slots, |s| s <= j as u64) {
            let insn = adjust(&shape.body[i], slots[i].stage);
            func.push_insn(pb, insn);
        }
        for bump in &shape.bumps {
            let mut b = bump.clone();
            b.id = sentinel_isa::InsnId::UNASSIGNED;
            func.push_insn(pb, b);
        }
        let next = if j + 1 < prologues.len() {
            prologues[j + 1]
        } else {
            kernel
        };
        func.push_insn(pb, Insn::jump(next));
    }

    // Kernel: all stages, bumps, counter decrement, latch, fall to epilogue.
    for &i in &emit_order(&slots, |_| true) {
        let insn = adjust(&shape.body[i], slots[i].stage);
        func.push_insn(kernel, insn);
    }
    for bump in &shape.bumps {
        let mut b = bump.clone();
        b.id = sentinel_isa::InsnId::UNASSIGNED;
        func.push_insn(kernel, b);
    }
    func.push_insn(kernel, Insn::addi(shape.counter, shape.counter, -1));
    let mut latch = shape.latch.clone();
    latch.target = Some(kernel);
    latch.id = sentinel_isa::InsnId::UNASSIGNED;
    func.push_insn(kernel, latch);
    func.push_insn(kernel, Insn::jump(epilogue));

    // Epilogue partials e = 1..S-1 (no bumps: all iterations started).
    for e in 1..stages {
        for &i in &emit_order(&slots, |s| s >= e) {
            // Offsets relative to the final pointer values: the op's
            // source iteration trails the bump count by (stage − e + 1).
            let insn = adjust(&shape.body[i], slots[i].stage - e + 1);
            func.push_insn(epilogue, insn);
        }
    }
    func.push_insn(epilogue, Insn::jump(exit));

    Some(PipelineInfo {
        ii,
        stages,
        body_ops: shape.body.len(),
    })
}

/// Pipelines every recognizable counted loop in the layout. Returns the
/// per-loop statistics.
pub fn pipeline_all_loops(func: &mut Function, mdes: &MachineDesc) -> Vec<PipelineInfo> {
    let blocks: Vec<BlockId> = func.layout().to_vec();
    blocks
        .into_iter()
        .filter_map(|b| pipeline_loop(func, b, mdes))
        .collect()
}

// ---------------------------------------------------------------------
// While-loop pipelining (the paper's §2 dependence on speculation).
// ---------------------------------------------------------------------

/// The recognized while-loop: a self-jumping block whose only exit is one
/// data-dependent test inside the body.
#[derive(Debug)]
struct WhileShape {
    /// Body ops (everything before the bumps), including the exit test.
    body: Vec<Insn>,
    /// Position of the exit test within `body`.
    test_pos: usize,
    /// Trailing self-bumps.
    bumps: Vec<Insn>,
    /// The exit block.
    exit: BlockId,
}

fn recognize_while(func: &Function, block: BlockId) -> Option<WhileShape> {
    let insns = &func.block(block).insns;
    let n = insns.len();
    if n < 3 {
        return None;
    }
    // Tail: `jump self`.
    if !(insns[n - 1].op == Opcode::Jump && insns[n - 1].target == Some(block)) {
        return None;
    }
    // Trailing self-bumps before the jump. Only self-adds of registers
    // actually used as memory bases count as pointer bumps — a trailing
    // self-add of an accumulator must stay in the body (it runs once per
    // *passing* iteration, not per started one).
    let is_base_reg = |r: Reg| insns.iter().any(|i| i.op.is_mem() && i.src2 == Some(r));
    let mut split = n - 1;
    while split > 0 {
        match is_self_bump(&insns[split - 1]) {
            Some((r, _)) if is_base_reg(r) => split -= 1,
            _ => break,
        }
    }
    let body = insns[..split].to_vec();
    let bumps = insns[split..n - 1].to_vec();
    // Exactly one conditional branch in the body, none in the bumps.
    let tests: Vec<usize> = body
        .iter()
        .enumerate()
        .filter(|(_, i)| i.op.is_cond_branch())
        .map(|(k, _)| k)
        .collect();
    if tests.len() != 1 {
        return None;
    }
    let test_pos = tests[0];
    let exit = body[test_pos].target?;
    if exit == block {
        return None;
    }
    Some(WhileShape {
        body,
        test_pos,
        bumps,
        exit,
    })
}

/// Pipelines the *while*-loop at `block` — the case that, as the paper
/// notes (§2, citing Tirumalai et al.), **depends on speculative
/// support**: future iterations' trap-capable operations execute before
/// the current iteration's exit test resolves, so they carry the
/// speculative modifier and defer any fault into an exception tag, which
/// the taken exit then abandons — exactly the sentinel model.
///
/// With `speculate == false` the same code is generated without
/// speculative modifiers: a faithful model of a machine *without*
/// sentinel support, where an overshooting load traps spuriously. It
/// exists to demonstrate the dependence; real use passes `true`.
///
/// Returns `None` (function untouched) when the loop does not fit the
/// shape or no overlap is achievable.
pub fn pipeline_while_loop(
    func: &mut Function,
    block: BlockId,
    mdes: &MachineDesc,
    speculate: bool,
) -> Option<PipelineInfo> {
    let shape = recognize_while(func, block)?;
    // Reuse the counted-loop legality for everything except the counter
    // (there is none) and the test itself.
    let bump_of: HashMap<Reg, i64> = shape.bumps.iter().filter_map(is_self_bump).collect();
    if bump_of.len() != shape.bumps.len() {
        return None;
    }
    let noalias = func.noalias_bases();
    for (k, insn) in shape.body.iter().enumerate() {
        if k == shape.test_pos {
            continue;
        }
        if insn.op.is_control()
            || insn.op.is_irreversible()
            || matches!(
                insn.op,
                Opcode::CheckExcept
                    | Opcode::ConfirmStore
                    | Opcode::ClearTag
                    | Opcode::LdTag
                    | Opcode::StTag
            )
            || insn.speculative
            || insn.boost > 0
        {
            return None;
        }
        if let Some(d) = insn.def() {
            if bump_of.contains_key(&d) {
                return None;
            }
            let self_acc = insn.uses().any(|r| r == d);
            if self_acc {
                let reads_elsewhere = shape.body.iter().enumerate().any(|(j, other)| {
                    j != k && (other.uses().any(|r| r == d) || other.def() == Some(d))
                });
                if reads_elsewhere {
                    return None;
                }
            } else {
                let use_before = shape.body[..k].iter().any(|o| o.uses().any(|r| r == d));
                if use_before {
                    return None;
                }
            }
        }
        for r in insn.uses() {
            if bump_of.contains_key(&r) {
                let is_base = insn.op.is_mem() && insn.src2 == Some(r) && insn.src1 != Some(r);
                if !is_base {
                    return None;
                }
            }
        }
    }
    // Memory pairs as in the counted case.
    let mems: Vec<&Insn> = shape.body.iter().filter(|i| i.op.is_mem()).collect();
    for (k, a) in mems.iter().enumerate() {
        for b in &mems[k + 1..] {
            if !(a.op.is_store() || b.op.is_store()) {
                continue;
            }
            let (ba, bb) = (a.src2?, b.src2?);
            if ba == bb || !noalias.contains(&ba) || !noalias.contains(&bb) {
                return None;
            }
        }
    }

    // σ: ASAP plus a control edge — post-test ops may not start before
    // the test.
    let (mut sigma, lifetime) = asap_schedule(&shape.body, mdes);
    for k in shape.test_pos + 1..shape.body.len() {
        sigma[k] = sigma[k].max(sigma[shape.test_pos]);
    }
    let total_insns = shape.body.len() + shape.bumps.len() + 1;
    let res_mii = total_insns.div_ceil(mdes.issue_width()) as u64;
    let acc_mii = shape
        .body
        .iter()
        .filter(|i| i.def().is_some() && i.uses().any(|r| Some(r) == i.def()))
        .map(|i| mdes.latency(i.op) as u64)
        .max()
        .unwrap_or(1);
    let mut ii = res_mii.max(acc_mii).max(lifetime).max(1);
    // Post-test ops must share the test's stage (a taken exit skips them
    // in linear order, so none of them runs for a failed iteration).
    let sigma_t = sigma[shape.test_pos];
    loop {
        let st = sigma_t / ii;
        let ok = (shape.test_pos + 1..shape.body.len()).all(|k| sigma[k] / ii == st);
        if ok {
            break;
        }
        ii += 1;
    }
    let max_sigma = sigma.iter().copied().max().unwrap_or(0);
    let stages = max_sigma / ii + 1;
    let test_stage = sigma_t / ii;
    if stages < 2 || test_stage == 0 {
        return None; // no overlap achieved
    }

    // Every pre-test-stage op runs ahead of an unresolved exit: it must
    // be speculatable and its result dead at the exit.
    let cfg = sentinel_prog::cfg::Cfg::build(func);
    let lv = sentinel_prog::liveness::Liveness::compute(func, &cfg);
    let exit_live = lv.live_in(shape.exit).clone();
    for (k, insn) in shape.body.iter().enumerate() {
        if sigma[k] / ii >= test_stage {
            continue;
        }
        if insn.op.is_store() || !insn.op.may_be_speculative() {
            return None;
        }
        if let Some(d) = insn.def() {
            if exit_live.contains(&d) {
                return None;
            }
        }
    }
    // Abandoned pointer bumps: the exit sees over-advanced pointers.
    if bump_of.keys().any(|r| exit_live.contains(r)) {
        return None;
    }

    let slots: Vec<Slot> = sigma
        .iter()
        .map(|&s| Slot {
            sigma: s,
            stage: s / ii,
            rel: s % ii,
        })
        .collect();
    let adjust = |insn: &Insn, extra_stages: u64| -> Insn {
        let mut i = insn.clone();
        if i.op.is_mem() {
            if let Some(base) = i.src2 {
                if let Some(&step) = bump_of.get(&base) {
                    i.imm -= extra_stages as i64 * step;
                }
            }
        }
        i.id = sentinel_isa::InsnId::UNASSIGNED;
        i
    };

    fn emit_order(slots: &[Slot], include: impl Fn(u64) -> bool) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..slots.len())
            .filter(|&i| include(slots[i].stage))
            .collect();
        idx.sort_by_key(|&i| {
            (
                slots[i].rel,
                std::cmp::Reverse(slots[i].stage),
                slots[i].sigma,
                i,
            )
        });
        idx
    }

    let label = func.block(block).label.clone();
    let mut prologues = Vec::new();
    for j in 0..stages - 1 {
        prologues.push(func.add_block(format!("{label}.wpro{j}")));
    }
    let kernel = func.add_block(format!("{label}.wkernel"));

    // Rewrite the loop head into a jump to the first prologue partial
    // (predecessors keep entering through `block`).
    func.block_mut(block).insns.clear();
    func.push_insn(block, Insn::jump(prologues[0]));

    let emit_op = |func: &mut Function, target: BlockId, i: usize, slots: &[Slot]| {
        let mut insn = adjust(&shape.body[i], slots[i].stage);
        if speculate && insn.op.can_trap() && slots[i].stage < test_stage {
            insn.speculative = true;
        }
        func.push_insn(target, insn);
    };

    for (j, &pb) in prologues.iter().enumerate() {
        for &i in &emit_order(&slots, |s| s <= j as u64) {
            emit_op(func, pb, i, &slots);
        }
        for bump in &shape.bumps {
            let mut b = bump.clone();
            b.id = sentinel_isa::InsnId::UNASSIGNED;
            func.push_insn(pb, b);
        }
        let next = if j + 1 < prologues.len() {
            prologues[j + 1]
        } else {
            kernel
        };
        func.push_insn(pb, Insn::jump(next));
    }
    for &i in &emit_order(&slots, |_| true) {
        emit_op(func, kernel, i, &slots);
    }
    for bump in &shape.bumps {
        let mut b = bump.clone();
        b.id = sentinel_isa::InsnId::UNASSIGNED;
        func.push_insn(kernel, b);
    }
    func.push_insn(kernel, Insn::jump(kernel));

    Some(PipelineInfo {
        ii,
        stages,
        body_ops: shape.body.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_prog::{validate, ProgramBuilder};
    use sentinel_workloads::kernels;

    fn mdes() -> MachineDesc {
        MachineDesc::paper_issue(8)
    }

    #[test]
    fn recognizes_copy_words_loop() {
        let mut w = kernels::copy_words(16);
        let body = w.func.block_by_label("loop").unwrap();
        let info = pipeline_loop(&mut w.func, body, &mdes()).expect("pipelinable");
        assert!(info.stages >= 2, "{info:?}");
        assert!(info.ii >= 1);
        assert!(validate(&w.func).is_empty(), "{:?}", validate(&w.func));
        // New structure exists.
        assert!(w.func.block_by_label("loop.kernel").is_some());
        assert!(w.func.block_by_label("loop.orig").is_some());
        assert!(w.func.block_by_label("loop.epi").is_some());
    }

    #[test]
    fn rejects_loops_with_side_exits() {
        // The while-loop case the paper says needs speculative support.
        let mut w = kernels::scan_until_zero(32);
        let body = w.func.block_by_label("loop").unwrap();
        assert!(pipeline_loop(&mut w.func, body, &mdes()).is_none());
    }

    #[test]
    fn rejects_unanalyzable_memory() {
        // histogram read-modify-writes through a computed address.
        let mut w = kernels::histogram(16);
        let body = w.func.block_by_label("loop").unwrap();
        assert!(pipeline_loop(&mut w.func, body, &mdes()).is_none());
    }

    #[test]
    fn rejects_non_loops() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        b.push(Insn::nop());
        b.push(Insn::halt());
        let mut f = b.finish();
        assert!(pipeline_loop(&mut f, e, &mdes()).is_none());
    }

    #[test]
    fn dot_product_is_pipelinable() {
        let mut w = kernels::dot_product(24);
        let n = pipeline_all_loops(&mut w.func, &mdes());
        assert_eq!(n.len(), 1);
        assert!(validate(&w.func).is_empty());
    }
}
