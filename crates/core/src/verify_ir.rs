//! Inter-pass IR invariant checking.
//!
//! [`verify_ir`] is run by [`CompileSession`](crate::CompileSession)
//! between compiler passes — always in debug builds, and under
//! [`SchedOptions::verify_passes`] in release — so a pass that silently
//! miscompiles is caught at its own boundary with a named pass and a
//! list of violations, instead of surfacing as a wrong simulation
//! result hundreds of thousands of cycles later.
//!
//! The invariants:
//!
//! 1. **Structural integrity** — everything
//!    [`validate`] checks: blocks and labels,
//!    unique assigned ids, existing branch targets, operand shapes and
//!    register classes, architectural speculation legality.
//! 2. **Model speculation legality** — the speculative modifier only on
//!    opcodes the scheduling model may move above branches (e.g. no
//!    speculative store outside model T), and boost levels within the
//!    boosting model's shadow depth.
//! 3. **Sentinel ownership** — `check_exception` / `confirm_store`
//!    only appear under the sentinel models that insert them.
//! 4. **§4.2 store separation** — every `confirm_store` index lies
//!    within `N − 1` of the machine's probationary store buffer.
//! 5. **Def-before-use under liveness** — rewriting must not introduce
//!    new upward-exposed uses: the set of registers live into the entry
//!    block never grows past the input function's (renamed temporaries
//!    and inserted sentinels must be defined before they are read).

use sentinel_isa::{MachineDesc, Opcode};
use sentinel_prog::cfg::Cfg;
use sentinel_prog::liveness::{Liveness, RegSet};
use sentinel_prog::{validate, Function};

use crate::models::SchedOptions;

/// Checks every inter-pass invariant over `func`, returning the
/// violations found (empty = the IR is sound at this boundary).
///
/// `entry_live_in` is the register set live into the *input* function's
/// entry block, recorded before any pass ran.
pub fn verify_ir(
    func: &Function,
    mdes: &MachineDesc,
    opts: &SchedOptions,
    entry_live_in: &RegSet,
) -> Vec<String> {
    let mut violations: Vec<String> = Vec::new();

    // 1. Structural integrity (delegated to the program-layer validator).
    for e in validate(func) {
        violations.push(format!("structural: {e}"));
    }
    if !violations.is_empty() {
        // Operand-shape errors make the dataflow checks below
        // meaningless; report the structural breakage alone.
        return violations;
    }

    let model = opts.model;
    for b in func.blocks() {
        for insn in &b.insns {
            // 2. Model speculation legality.
            if insn.speculative && !model.may_speculate(insn.op) {
                violations.push(format!(
                    "model: {} ({}) is speculative, which {model} forbids",
                    insn.id, insn.op
                ));
            }
            if insn.boost > 0 {
                match model.boost_levels() {
                    Some(levels) if insn.boost <= levels => {}
                    Some(levels) => violations.push(format!(
                        "model: {} boosted across {} branches but the machine has {} shadow level(s)",
                        insn.id, insn.boost, levels
                    )),
                    None => violations.push(format!(
                        "model: {} carries a boost level under non-boosting {model}",
                        insn.id
                    )),
                }
            }

            // 3. Sentinel ownership.
            if matches!(insn.op, Opcode::CheckExcept | Opcode::ConfirmStore)
                && !model.uses_sentinels()
            {
                violations.push(format!(
                    "model: sentinel {} ({}) under {model}, which inserts none",
                    insn.id, insn.op
                ));
            }

            // 4. §4.2 store separation: a confirm's tail-relative index
            // must fit within the probationary buffer.
            if insn.op == Opcode::ConfirmStore {
                let bound = mdes.store_buffer_size().saturating_sub(1) as i64;
                if insn.imm > bound {
                    violations.push(format!(
                        "store-separation: confirm {} index {} exceeds N-1 = {bound} (block {})",
                        insn.id, insn.imm, b.label
                    ));
                }
            }
        }
    }

    // 5. Def-before-use: entry live-in must not grow.
    let cfg = Cfg::build(func);
    let lv = Liveness::compute(func, &cfg);
    let entry = func.entry();
    for reg in lv.live_in(entry) {
        if !entry_live_in.contains(&reg) {
            violations.push(format!(
                "dataflow: {reg} became upward-exposed at entry (used before any definition)"
            ));
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SchedulingModel;
    use sentinel_isa::{Insn, LatencyTable, Reg};
    use sentinel_prog::ProgramBuilder;

    fn mdes() -> MachineDesc {
        MachineDesc::builder()
            .issue_width(4)
            .store_buffer_size(4)
            .latencies(LatencyTable::unit())
            .build()
    }

    fn entry_live(func: &Function) -> RegSet {
        let cfg = Cfg::build(func);
        let lv = Liveness::compute(func, &cfg);
        lv.live_in(func.entry()).clone()
    }

    fn simple() -> Function {
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        b.push(Insn::ld_w(Reg::int(1), Reg::int(2), 0));
        b.push(Insn::addi(Reg::int(3), Reg::int(1), 1));
        b.push(Insn::halt());
        b.finish()
    }

    #[test]
    fn clean_function_verifies_under_every_model() {
        let f = simple();
        let live = entry_live(&f);
        for model in SchedulingModel::all() {
            let v = verify_ir(&f, &mdes(), &SchedOptions::new(model), &live);
            assert!(v.is_empty(), "{model}: {v:?}");
        }
    }

    #[test]
    fn structural_breakage_is_reported_first() {
        let mut f = simple();
        let e = f.entry();
        f.block_mut(e).insns[0].id = f.block(e).insns[1].id; // duplicate id
        let v = verify_ir(
            &f,
            &mdes(),
            &SchedOptions::new(SchedulingModel::Sentinel),
            &entry_live(&simple()),
        );
        assert!(v.iter().any(|m| m.starts_with("structural:")), "{v:?}");
    }

    #[test]
    fn speculative_store_illegal_outside_model_t() {
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        b.push(Insn::st_w(Reg::int(1), Reg::int(2), 0).speculated());
        b.push(Insn::halt());
        let f = b.finish();
        let live = entry_live(&f);
        let v = verify_ir(
            &f,
            &mdes(),
            &SchedOptions::new(SchedulingModel::Sentinel),
            &live,
        );
        assert!(v.iter().any(|m| m.contains("forbids")), "{v:?}");
        // ...but legal under T.
        let v = verify_ir(
            &f,
            &mdes(),
            &SchedOptions::new(SchedulingModel::SentinelStores),
            &live,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn confirm_index_beyond_buffer_is_flagged() {
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        b.push(Insn::confirm_store(7)); // N = 4 → bound 3
        b.push(Insn::halt());
        let f = b.finish();
        let v = verify_ir(
            &f,
            &mdes(),
            &SchedOptions::new(SchedulingModel::SentinelStores),
            &entry_live(&f),
        );
        assert!(v.iter().any(|m| m.contains("store-separation")), "{v:?}");
    }

    #[test]
    fn sentinel_under_percolation_model_is_flagged() {
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        b.push(Insn::check_exception(Reg::int(1)));
        b.push(Insn::halt());
        let f = b.finish();
        let v = verify_ir(
            &f,
            &mdes(),
            &SchedOptions::new(SchedulingModel::GeneralPercolation),
            &entry_live(&f),
        );
        assert!(v.iter().any(|m| m.contains("inserts none")), "{v:?}");
    }

    #[test]
    fn new_upward_exposed_use_is_flagged() {
        // The "pass" forgot to define the renamed temporary r9 before
        // reading it.
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        b.push(Insn::addi(Reg::int(3), Reg::int(9), 1));
        b.push(Insn::halt());
        let f = b.finish();
        let original = simple();
        let v = verify_ir(
            &f,
            &mdes(),
            &SchedOptions::new(SchedulingModel::Sentinel),
            &entry_live(&original),
        );
        assert!(v.iter().any(|m| m.contains("upward-exposed")), "{v:?}");
    }

    #[test]
    fn boost_levels_bounded_by_model() {
        let mut b = ProgramBuilder::new("f");
        b.block("entry");
        let mut i = Insn::ld_w(Reg::int(1), Reg::int(2), 0);
        i.boost = 3;
        b.push(i);
        b.push(Insn::halt());
        let f = b.finish();
        let live = entry_live(&f);
        let ok = verify_ir(
            &f,
            &mdes(),
            &SchedOptions::new(SchedulingModel::Boosting(4)),
            &live,
        );
        assert!(ok.is_empty(), "{ok:?}");
        let deep = verify_ir(
            &f,
            &mdes(),
            &SchedOptions::new(SchedulingModel::Boosting(2)),
            &live,
        );
        assert!(deep.iter().any(|m| m.contains("shadow level")), "{deep:?}");
        let wrong = verify_ir(
            &f,
            &mdes(),
            &SchedOptions::new(SchedulingModel::Sentinel),
            &live,
        );
        assert!(
            wrong.iter().any(|m| m.contains("non-boosting")),
            "{wrong:?}"
        );
    }
}
