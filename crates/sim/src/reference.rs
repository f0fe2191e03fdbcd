//! The sequential reference interpreter — the correctness oracle.
//!
//! This is a deliberately independent, minimal implementation: it executes
//! the *original* (unscheduled) program one instruction at a time with
//! precise exceptions, no exception tags, no store buffer, and no timing.
//! Scheduled code run on a [`SimSession`](crate::SimSession) must match
//! its final architectural state and (for exception-precise models) its
//! trap.

use sentinel_isa::{Insn, InsnId, Opcode, Reg};
use sentinel_prog::profile::Profile;
use sentinel_prog::Function;

use crate::except::ExceptionKind;
use crate::exec::{branch_taken, compute, ComputeError};
use crate::memory::{Memory, Width};

/// Outcome of a reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefOutcome {
    /// Executed `halt`.
    Halted,
    /// Faulted at the given instruction.
    Trapped {
        /// The faulting instruction.
        pc: InsnId,
        /// The cause.
        kind: ExceptionKind,
    },
}

/// Errors (non-architectural) of the reference interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefError {
    /// Control fell off the end of the layout.
    FellOffEnd,
    /// Dynamic instruction budget exhausted.
    OutOfFuel,
    /// The program contains a speculative instruction or a sentinel opcode
    /// (`check`/`confirm`); reference programs must be unscheduled.
    NotSequentialCode(InsnId),
}

impl std::fmt::Display for RefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefError::FellOffEnd => write!(f, "control fell off the end"),
            RefError::OutOfFuel => write!(f, "out of fuel"),
            RefError::NotSequentialCode(id) => {
                write!(
                    f,
                    "instruction {id} is not sequential (speculative/sentinel)"
                )
            }
        }
    }
}

impl std::error::Error for RefError {}

/// The reference interpreter.
///
/// # Examples
///
/// ```
/// use sentinel_sim::reference::{Reference, RefOutcome};
/// use sentinel_prog::examples::sum_kernel;
///
/// let f = sum_kernel(0x1000, 2, 0x2000);
/// let mut r = Reference::new(&f);
/// r.memory_mut().map_region(0x1000, 64);
/// r.memory_mut().map_region(0x2000, 8);
/// r.memory_mut().write_word(0x1000, 5).unwrap();
/// r.memory_mut().write_word(0x1008, 7).unwrap();
/// assert_eq!(r.run().unwrap(), RefOutcome::Halted);
/// assert_eq!(r.memory().read_word(0x2000).unwrap(), 12);
/// ```
pub struct Reference<'a> {
    func: &'a Function,
    int: Vec<u64>,
    fp: Vec<u64>,
    mem: Memory,
    fuel: u64,
    dyn_insns: u64,
    profile: Profile,
}

impl<'a> Reference<'a> {
    /// Creates a reference interpreter for `func`.
    pub fn new(func: &'a Function) -> Reference<'a> {
        let (mi, mf) = func.max_reg_indices();
        Reference {
            func,
            int: vec![0; 64.max(mi.map_or(0, |i| i as usize + 1))],
            fp: vec![0; 64.max(mf.map_or(0, |i| i as usize + 1))],
            mem: Memory::new(),
            fuel: 50_000_000,
            dyn_insns: 0,
            profile: Profile::new(),
        }
    }

    /// Overrides the dynamic-instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// The memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access for initialization.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Reads a register's raw bits.
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            return 0;
        }
        match r.class() {
            sentinel_isa::RegClass::Int => self.int[r.index() as usize],
            sentinel_isa::RegClass::Fp => self.fp[r.index() as usize],
        }
    }

    /// Sets a register's raw bits.
    pub fn set_reg(&mut self, r: Reg, bits: u64) {
        if r.is_zero() {
            return;
        }
        match r.class() {
            sentinel_isa::RegClass::Int => self.int[r.index() as usize] = bits,
            sentinel_isa::RegClass::Fp => self.fp[r.index() as usize] = bits,
        }
    }

    /// Dynamic instructions executed.
    pub fn dyn_insns(&self) -> u64 {
        self.dyn_insns
    }

    /// The execution profile (drives superblock formation).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    fn write_dest(&mut self, insn: &Insn, v: u64) {
        if let Some(d) = insn.dest {
            self.set_reg(d, v);
        }
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// See [`RefError`]. Architectural traps are an outcome, not an error.
    pub fn run(&mut self) -> Result<RefOutcome, RefError> {
        let mut block = self.func.entry();
        let mut pos = 0usize;
        self.profile.enter_block(block);
        loop {
            let b = self.func.block(block);
            if pos >= b.insns.len() {
                let Some(ft) = self.func.fallthrough_of(block) else {
                    return Err(RefError::FellOffEnd);
                };
                block = ft;
                pos = 0;
                self.profile.enter_block(block);
                continue;
            }
            if self.dyn_insns >= self.fuel {
                return Err(RefError::OutOfFuel);
            }
            let insn = &b.insns[pos];
            if insn.speculative
                || insn.boost > 0
                || matches!(
                    insn.op,
                    Opcode::CheckExcept | Opcode::ConfirmStore | Opcode::ClearTag
                )
            {
                return Err(RefError::NotSequentialCode(insn.id));
            }
            self.dyn_insns += 1;
            use Opcode::*;
            match insn.op {
                Halt => return Ok(RefOutcome::Halted),
                Jump => {
                    self.profile.record_branch(insn.id, true);
                    block = insn.target.expect("jump target");
                    pos = 0;
                    self.profile.enter_block(block);
                    continue;
                }
                Beq | Bne | Blt | Bge => {
                    let a = self.reg(insn.src1.unwrap());
                    let bb = self.reg(insn.src2.unwrap());
                    let taken = branch_taken(insn.op, a, bb);
                    self.profile.record_branch(insn.id, taken);
                    if taken {
                        block = insn.target.expect("branch target");
                        pos = 0;
                        self.profile.enter_block(block);
                        continue;
                    }
                }
                Jsr | Io => {}
                LdW | LdB | FLd => {
                    let base = self.reg(insn.src2.unwrap());
                    let addr = (base as i64).wrapping_add(insn.imm) as u64;
                    let width = if insn.op == LdB {
                        Width::Byte
                    } else {
                        Width::Word
                    };
                    match self.mem.read(addr, width) {
                        Ok(v) => self.write_dest(insn, v),
                        Err(kind) => return Ok(RefOutcome::Trapped { pc: insn.id, kind }),
                    }
                }
                StW | StB | FSt => {
                    let val = self.reg(insn.src1.unwrap());
                    let base = self.reg(insn.src2.unwrap());
                    let addr = (base as i64).wrapping_add(insn.imm) as u64;
                    let width = if insn.op == StB {
                        Width::Byte
                    } else {
                        Width::Word
                    };
                    match self.mem.write(addr, width, val) {
                        Ok(()) => {}
                        Err(kind) => return Ok(RefOutcome::Trapped { pc: insn.id, kind }),
                    }
                }
                LdTag | StTag => {
                    // Reference programs are unscheduled; tag spills are a
                    // scheduled-code artifact but harmless: treat as plain
                    // word accesses to the (non-faulting) spill area.
                    if insn.op == LdTag {
                        let base = self.reg(insn.src2.unwrap());
                        let addr = (base as i64).wrapping_add(insn.imm) as u64;
                        let v = self.mem.read_raw(addr, Width::Word);
                        self.write_dest(insn, v);
                    } else {
                        let val = self.reg(insn.src1.unwrap());
                        let base = self.reg(insn.src2.unwrap());
                        let addr = (base as i64).wrapping_add(insn.imm) as u64;
                        self.mem.write_raw(addr, Width::Word, val);
                    }
                }
                _ => {
                    let a = insn.src1.map_or(0, |r| self.reg(r));
                    let bb = insn.src2.map_or(0, |r| self.reg(r));
                    match compute(insn.op, a, bb, insn.imm) {
                        Ok(v) => self.write_dest(insn, v),
                        Err(ComputeError::Exception(kind)) => {
                            return Ok(RefOutcome::Trapped { pc: insn.id, kind })
                        }
                        // The outer match routed every memory/control
                        // opcode away from this arm.
                        Err(ComputeError::NotComputable(_)) => unreachable!(),
                    }
                }
            }
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_prog::examples::{chase_kernel, saxpy_kernel, sum_kernel};
    use sentinel_prog::ProgramBuilder;

    #[test]
    fn sum_kernel_correct() {
        let f = sum_kernel(0x1000, 3, 0x2000);
        let mut r = Reference::new(&f);
        r.memory_mut().map_region(0x1000, 64);
        r.memory_mut().map_region(0x2000, 8);
        for (i, v) in [2i64, 3, 5].iter().enumerate() {
            r.memory_mut()
                .write_word(0x1000 + 8 * i as u64, *v as u64)
                .unwrap();
        }
        assert_eq!(r.run().unwrap(), RefOutcome::Halted);
        assert_eq!(r.memory().read_word(0x2000).unwrap(), 10);
    }

    #[test]
    fn chase_kernel_follows_links() {
        let f = chase_kernel(0x1000, 2, 0x2000);
        let mut r = Reference::new(&f);
        r.memory_mut().map_region(0x1000, 0x200);
        r.memory_mut().map_region(0x2000, 8);
        // head -> 0x1010 -> 0x1020 -> 0x1030
        r.memory_mut().write_word(0x1000, 0x1010).unwrap();
        r.memory_mut().write_word(0x1010, 0x1020).unwrap();
        r.memory_mut().write_word(0x1020, 0x1030).unwrap();
        assert_eq!(r.run().unwrap(), RefOutcome::Halted);
        assert_eq!(r.memory().read_word(0x2000).unwrap(), 0x1030);
    }

    #[test]
    fn saxpy_kernel_fp_math() {
        let f = saxpy_kernel(0x1000, 0x2000, 2, 3.0);
        let mut r = Reference::new(&f);
        r.memory_mut().map_region(0x1000, 64);
        r.memory_mut().map_region(0x2000, 64);
        r.memory_mut().write_f64(0x1000, 1.0).unwrap();
        r.memory_mut().write_f64(0x1008, 2.0).unwrap();
        r.memory_mut().write_f64(0x2000, 10.0).unwrap();
        r.memory_mut().write_f64(0x2008, 20.0).unwrap();
        assert_eq!(r.run().unwrap(), RefOutcome::Halted);
        assert_eq!(r.memory().read_f64(0x2000).unwrap(), 13.0);
        assert_eq!(r.memory().read_f64(0x2008).unwrap(), 26.0);
    }

    #[test]
    fn precise_trap_at_faulting_insn() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::li(Reg::int(1), 3));
        b.push(Insn::alu(Opcode::Div, Reg::int(2), Reg::int(1), Reg::ZERO));
        b.push(Insn::halt());
        let f = b.finish();
        let div_id = f.block(f.entry()).insns[1].id;
        let mut r = Reference::new(&f);
        assert_eq!(
            r.run().unwrap(),
            RefOutcome::Trapped {
                pc: div_id,
                kind: ExceptionKind::DivideByZero
            }
        );
    }

    #[test]
    fn rejects_speculative_code() {
        let mut b = ProgramBuilder::new("f");
        b.block("e");
        b.push(Insn::li(Reg::int(1), 1).speculated());
        b.push(Insn::halt());
        let f = b.finish();
        let mut r = Reference::new(&f);
        assert!(matches!(r.run(), Err(RefError::NotSequentialCode(_))));
    }

    #[test]
    fn profile_collected() {
        let f = sum_kernel(0x1000, 3, 0x2000);
        let mut r = Reference::new(&f);
        r.memory_mut().map_region(0x1000, 64);
        r.memory_mut().map_region(0x2000, 8);
        r.run().unwrap();
        let body = f.block_by_label("loop").unwrap();
        assert_eq!(r.profile().entries(body), 3);
    }

    #[test]
    fn fuel_limit() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        b.push(Insn::jump(e));
        let f = b.finish();
        let mut r = Reference::new(&f).with_fuel(10);
        assert_eq!(r.run(), Err(RefError::OutOfFuel));
    }
}
