//! Shared test-support helpers for the in-crate engine tests.
//!
//! One copy of the machine descriptions and run harness that the
//! interpreter, fast-engine, and sem-layer tests all use, instead of a
//! private near-duplicate per test module.

use sentinel_isa::{Insn, MachineDesc, Opcode, Reg};
use sentinel_prog::{Function, ProgramBuilder};

use crate::stats::Stats;
use crate::{Engine, RunOutcome, SimConfig, SimSession};

/// A unit-latency machine at `width` — schedule lengths are easy to
/// count by hand.
pub(crate) fn unit_mdes(width: usize) -> MachineDesc {
    MachineDesc::unit_issue(width)
}

/// The paper's latencies at `width`.
pub(crate) fn paper_mdes(width: usize) -> MachineDesc {
    MachineDesc::paper_issue(width)
}

/// A session over `f` on the interpreter.
pub(crate) fn interp(f: &Function, config: SimConfig) -> SimSession<'_> {
    SimSession::for_function(f)
        .config(config)
        .engine(Engine::Interpreter)
        .build()
}

/// Runs `f` on the interpreter with a unit-latency machine and a data
/// region mapped at `0x1000`, returning the outcome and final stats.
pub(crate) fn run_func(f: &Function, width: usize) -> (RunOutcome, Stats) {
    let mut m = interp(f, SimConfig::for_mdes(unit_mdes(width)));
    m.memory_mut().map_region(0x1000, 0x1000);
    let o = m.run().unwrap();
    (o, *m.stats())
}

/// A small program exercising speculation, branches, and stores — the
/// standard cross-engine comparison workload.
pub(crate) fn spec_loop() -> Function {
    let mut b = ProgramBuilder::new("spec_loop");
    b.block("entry");
    b.push(Insn::li(Reg::int(1), 0x1000));
    b.push(Insn::li(Reg::int(2), 0));
    b.push(Insn::li(Reg::int(3), 4));
    let loop_b = b.block("loop");
    b.switch_to(loop_b);
    b.push(Insn::ld_w(Reg::int(4), Reg::int(1), 0).speculated());
    b.push(Insn::check_exception(Reg::int(4)));
    b.push(Insn::alu(
        Opcode::Add,
        Reg::int(2),
        Reg::int(2),
        Reg::int(4),
    ));
    b.push(Insn::addi(Reg::int(1), Reg::int(1), 8));
    b.push(Insn::addi(Reg::int(3), Reg::int(3), -1));
    b.push(Insn::branch(Opcode::Bne, Reg::int(3), Reg::ZERO, loop_b));
    let exit = b.block("exit");
    b.switch_to(exit);
    b.push(Insn::li(Reg::int(5), 0x2000));
    b.push(Insn::st_w(Reg::int(2), Reg::int(5), 0));
    b.push(Insn::halt());
    b.finish()
}
