//! Structural validation of functions.

use std::fmt;

use sentinel_isa::{BlockId, Insn, InsnId, Opcode, RegClass};

use crate::hash::FastSet;
use crate::Function;

/// A structural error found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The function has no blocks.
    Empty,
    /// An instruction still carries [`InsnId::UNASSIGNED`].
    UnassignedId(BlockId, usize),
    /// Two instructions share an id.
    DuplicateId(InsnId),
    /// A branch targets a block id that does not exist.
    BadTarget(InsnId, BlockId),
    /// An instruction's operand shape does not match its opcode
    /// (missing/extra operand, wrong register class, missing target).
    BadOperands(InsnId, Opcode, &'static str),
    /// Two blocks share a label (the assembler requires unique labels).
    DuplicateLabel(String),
    /// A speculative modifier is set on an opcode the architecture forbids
    /// from being speculative (control, irreversible, or sentinel opcodes).
    IllegalSpeculation(InsnId, Opcode),
    /// A boosting level is set on an opcode that may not be boosted, or
    /// together with the speculative modifier (the two mechanisms belong
    /// to different architectures).
    IllegalBoost(InsnId, Opcode),
    /// `confirm_store` has a negative index.
    NegativeConfirmIndex(InsnId),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Empty => write!(f, "function has no blocks"),
            ValidateError::UnassignedId(b, pos) => {
                write!(f, "instruction at {b}[{pos}] has an unassigned id")
            }
            ValidateError::DuplicateId(id) => write!(f, "duplicate instruction id {id}"),
            ValidateError::BadTarget(id, b) => {
                write!(f, "instruction {id} targets nonexistent block {b}")
            }
            ValidateError::BadOperands(id, op, why) => {
                write!(f, "instruction {id} ({op}): {why}")
            }
            ValidateError::DuplicateLabel(l) => write!(f, "duplicate block label '{l}'"),
            ValidateError::IllegalSpeculation(id, op) => {
                write!(f, "instruction {id} ({op}) may not be speculative")
            }
            ValidateError::IllegalBoost(id, op) => {
                write!(f, "instruction {id} ({op}) carries an illegal boost level")
            }
            ValidateError::NegativeConfirmIndex(id) => {
                write!(f, "confirm_store {id} has a negative index")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Operand-class requirement.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Req {
    None,
    Int,
    Fp,
    Any,
}

fn check_req(
    slot: Option<sentinel_isa::Reg>,
    req: Req,
    what: &'static str,
) -> Result<(), &'static str> {
    match (slot, req) {
        (None, Req::None) => Ok(()),
        (Some(_), Req::None) => Err(match what {
            "dest" => "unexpected destination operand",
            "src1" => "unexpected first source operand",
            _ => "unexpected second source operand",
        }),
        (None, _) => Err(match what {
            "dest" => "missing destination operand",
            "src1" => "missing first source operand",
            _ => "missing second source operand",
        }),
        (Some(r), Req::Int) => {
            if r.class() == RegClass::Int {
                Ok(())
            } else {
                Err("expected an integer register")
            }
        }
        (Some(r), Req::Fp) => {
            if r.class() == RegClass::Fp {
                Ok(())
            } else {
                Err("expected a floating-point register")
            }
        }
        (Some(_), Req::Any) => Ok(()),
    }
}

/// (dest, src1, src2, needs_target) requirement per opcode.
pub(crate) fn signature(op: Opcode) -> (Req, Req, Req, bool) {
    use Opcode::*;
    use Req::*;
    match op {
        Nop | Jsr | Io | Halt => (None, None, None, false),
        Li => (Int, None, None, false),
        FLi => (Fp, None, None, false),
        Mov => (Int, Int, None, false),
        FMov => (Fp, Fp, None, false),
        Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Seq | Mul | Div | Rem => {
            (Int, Int, Int, false)
        }
        AddI | AndI | OrI | XorI | SllI | SrlI | SltI => (Int, Int, None, false),
        FAdd | FSub | FMul | FDiv => (Fp, Fp, Fp, false),
        FCvtIF => (Fp, Int, None, false),
        FCvtFI => (Int, Fp, None, false),
        FLt | FEq => (Int, Fp, Fp, false),
        LdW | LdB => (Int, None, Int, false),
        FLd => (Fp, None, Int, false),
        StW | StB => (None, Int, Int, false),
        FSt => (None, Fp, Int, false),
        LdTag => (Any, None, Int, false),
        StTag => (None, Any, Int, false),
        Beq | Bne | Blt | Bge => (None, Int, Int, true),
        Jump => (None, None, None, true),
        CheckExcept => (Any, Any, None, false),
        ConfirmStore => (None, None, None, false),
        ClearTag => (Any, None, None, false),
    }
}

fn check_insn(insn: &Insn) -> Result<(), &'static str> {
    let (d, s1, s2, needs_target) = signature(insn.op);
    check_req(insn.dest, d, "dest")?;
    check_req(insn.src1, s1, "src1")?;
    check_req(insn.src2, s2, "src2")?;
    if needs_target && insn.target.is_none() {
        return Err("missing branch target");
    }
    if !needs_target && insn.target.is_some() {
        return Err("unexpected branch target");
    }
    Ok(())
}

/// Validates a function, returning every structural error found.
///
/// An empty result means the function is well-formed: all ids are assigned
/// and unique, all branch targets exist, all operand shapes and register
/// classes match their opcodes, labels are unique, and the speculative
/// modifier only appears on architecturally speculatable opcodes.
///
/// # Examples
///
/// ```
/// use sentinel_prog::{validate, ProgramBuilder};
/// use sentinel_isa::Insn;
///
/// let mut b = ProgramBuilder::new("ok");
/// b.block("entry");
/// b.push(Insn::halt());
/// assert!(validate(&b.finish()).is_empty());
/// ```
pub fn validate(func: &Function) -> Vec<ValidateError> {
    let mut errs = Vec::new();
    if func.block_count() == 0 {
        errs.push(ValidateError::Empty);
        return errs;
    }

    let mut labels: FastSet<&str> =
        FastSet::with_capacity_and_hasher(func.block_count(), Default::default());
    for b in func.blocks() {
        if !labels.insert(&b.label) {
            errs.push(ValidateError::DuplicateLabel(b.label.clone()));
        }
    }

    let mut ids: FastSet<InsnId> =
        FastSet::with_capacity_and_hasher(func.insn_count(), Default::default());
    for b in func.blocks() {
        for (pos, insn) in b.insns.iter().enumerate() {
            if insn.id == InsnId::UNASSIGNED {
                errs.push(ValidateError::UnassignedId(b.id, pos));
            } else if !ids.insert(insn.id) {
                errs.push(ValidateError::DuplicateId(insn.id));
            }
            if let Some(t) = insn.target {
                if t.index() >= func.block_count() {
                    errs.push(ValidateError::BadTarget(insn.id, t));
                }
            }
            if let Err(why) = check_insn(insn) {
                errs.push(ValidateError::BadOperands(insn.id, insn.op, why));
            }
            if insn.speculative && !insn.op.may_be_speculative() {
                errs.push(ValidateError::IllegalSpeculation(insn.id, insn.op));
            }
            if insn.boost > 0 && (insn.speculative || !insn.op.may_be_speculative()) {
                errs.push(ValidateError::IllegalBoost(insn.id, insn.op));
            }
            if insn.op == Opcode::ConfirmStore && insn.imm < 0 {
                errs.push(ValidateError::NegativeConfirmIndex(insn.id));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;
    use sentinel_isa::Reg;

    fn ok_fn() -> Function {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let x = b.block("exit");
        b.switch_to(e);
        b.push(Insn::li(Reg::int(1), 3));
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, x));
        b.push(Insn::fli(Reg::fp(0), 2.0));
        b.push(Insn::alu(Opcode::FAdd, Reg::fp(1), Reg::fp(0), Reg::fp(0)));
        b.switch_to(x);
        b.push(Insn::halt());
        b.finish()
    }

    #[test]
    fn well_formed_passes() {
        assert!(validate(&ok_fn()).is_empty());
    }

    #[test]
    fn empty_function_rejected() {
        assert_eq!(validate(&Function::new("e")), vec![ValidateError::Empty]);
    }

    #[test]
    fn bad_target_detected() {
        let mut f = ok_fn();
        let e = f.entry();
        f.push_insn(e, Insn::jump(BlockId(99)));
        assert!(validate(&f)
            .iter()
            .any(|e| matches!(e, ValidateError::BadTarget(_, BlockId(99)))));
    }

    #[test]
    fn wrong_register_class_detected() {
        let mut f = ok_fn();
        let e = f.entry();
        // fadd with integer sources is ill-formed.
        f.push_insn(
            e,
            Insn::alu(Opcode::FAdd, Reg::fp(2), Reg::int(1), Reg::int(2)),
        );
        assert!(validate(&f)
            .iter()
            .any(|e| matches!(e, ValidateError::BadOperands(_, Opcode::FAdd, _))));
    }

    #[test]
    fn missing_operand_detected() {
        let mut f = ok_fn();
        let e = f.entry();
        f.push_insn(e, Insn::new(Opcode::Add)); // no operands at all
        assert!(validate(&f)
            .iter()
            .any(|e| matches!(e, ValidateError::BadOperands(_, Opcode::Add, _))));
    }

    #[test]
    fn illegal_speculation_detected() {
        let mut f = ok_fn();
        let e = f.entry();
        let mut j = Insn::jsr();
        j.speculative = true;
        f.push_insn(e, j);
        assert!(validate(&f)
            .iter()
            .any(|e| matches!(e, ValidateError::IllegalSpeculation(_, Opcode::Jsr))));
    }

    #[test]
    fn duplicate_label_detected() {
        let mut f = Function::new("f");
        f.add_block("a");
        f.add_block("a");
        assert!(validate(&f)
            .iter()
            .any(|e| matches!(e, ValidateError::DuplicateLabel(_))));
    }

    #[test]
    fn duplicate_id_detected() {
        let mut f = Function::new("f");
        let b = f.add_block("entry");
        f.push_insn(b, Insn::nop());
        // Force a duplicate id by hand.
        let dup = f.block(b).insns[0].clone();
        f.block_mut(b).insns.push(dup);
        assert!(validate(&f)
            .iter()
            .any(|e| matches!(e, ValidateError::DuplicateId(_))));
    }

    #[test]
    fn structural_errors_keep_their_order() {
        // Labels a, b, a, b; ids 0, 1, 0, unassigned, 1 in block order.
        let mut f = Function::new("f");
        let a = f.add_block("a");
        let b = f.add_block("b");
        let a2 = f.add_block("a");
        f.add_block("b");
        let i0 = f.push_insn(a, Insn::nop());
        let i1 = f.push_insn(b, Insn::nop());
        let dup0 = f.block(a).insns[0].clone();
        let dup1 = f.block(b).insns[0].clone();
        f.block_mut(a2).insns.push(dup0);
        f.block_mut(a2).insns.push(Insn::nop());
        f.block_mut(a2).insns.push(dup1);
        assert_eq!(
            validate(&f),
            vec![
                ValidateError::DuplicateLabel("a".into()),
                ValidateError::DuplicateLabel("b".into()),
                ValidateError::DuplicateId(i0),
                ValidateError::UnassignedId(a2, 1),
                ValidateError::DuplicateId(i1),
            ]
        );
    }

    #[test]
    fn all_opcodes_have_consistent_signatures() {
        // Every opcode's canonical constructor output must validate.
        let r = Reg::int(1);
        let q = Reg::int(2);
        let fr = Reg::fp(1);
        let fq = Reg::fp(2);
        let t = BlockId(0);
        let samples = vec![
            Insn::nop(),
            Insn::li(r, 1),
            Insn::fli(fr, 1.0),
            Insn::mov(r, q),
            Insn::fmov(fr, fq),
            Insn::alu(Opcode::Add, r, q, q),
            Insn::alu(Opcode::Mul, r, q, q),
            Insn::alu(Opcode::Div, r, q, q),
            Insn::alui(Opcode::AddI, r, q, 1),
            Insn::alu(Opcode::FAdd, fr, fq, fq),
            Insn::alu(Opcode::FLt, r, fq, fq),
            Insn {
                dest: Some(fr),
                src1: Some(r),
                ..Insn::new(Opcode::FCvtIF)
            },
            Insn {
                dest: Some(r),
                src1: Some(fr),
                ..Insn::new(Opcode::FCvtFI)
            },
            Insn::ld_w(r, q, 0),
            Insn::st_w(r, q, 0),
            Insn::ld_b(r, q, 0),
            Insn::st_b(r, q, 0),
            Insn::fld(fr, q, 0),
            Insn::fst(fr, q, 0),
            Insn::ld_tag(fr, q, 0),
            Insn::st_tag(r, q, 0),
            Insn::branch(Opcode::Beq, r, q, t),
            Insn::jump(t),
            Insn::jsr(),
            Insn::io(),
            Insn::halt(),
            Insn::check_exception(r),
            Insn::confirm_store(0),
            Insn::clear_tag(fr),
        ];
        let mut f = Function::new("sig");
        let b = f.add_block("entry");
        for s in samples {
            f.push_insn(b, s);
        }
        let errs = validate(&f);
        assert!(errs.is_empty(), "unexpected errors: {errs:?}");
    }
}
