//! Instruction boosting's commit and squash rules (paper §2.3), on both
//! machines.
//!
//! Each test is a hand-built block whose observable outcome depends on
//! one rule of the shadow register file and shadow store buffer: which
//! shadow write a read sees, what an untaken branch commits when a
//! boosted instruction faulted, and what a failed commit does. Both
//! machines share these rules, so each program runs on the interpreter
//! and on turbo and the two must agree before the expectation is
//! checked.

use sentinel_isa::{BlockId, Insn, MachineDesc, Opcode, Reg};
use sentinel_prog::{Function, ProgramBuilder};
use sentinel_sim::{Engine, Recovery, RunOutcome, SbError, SimConfig, SimError, SimSession, Stats};

const MAPPED: u64 = 0x1000;
const UNMAPPED: u64 = 0x9990;

fn r(i: u16) -> Reg {
    Reg::int(i)
}

/// What one run exposes.
#[derive(Debug, PartialEq)]
struct Run {
    outcome: Result<RunOutcome, SimError>,
    stats: Stats,
    /// `r0`..`r9`.
    regs: Vec<i64>,
}

/// Builds a function from an entry block, whose branches may target
/// the block `t` they are given, and `t` itself.
fn function(entry: impl FnOnce(BlockId) -> Vec<Insn>, target: Vec<Insn>) -> Function {
    let mut b = ProgramBuilder::new("boost");
    let e = b.block("e");
    let t = b.block("t");
    b.switch_to(e);
    for insn in entry(t) {
        b.push(insn);
    }
    b.switch_to(t);
    for insn in target {
        b.push(insn);
    }
    b.finish()
}

/// Runs `f` on both machines with `MAPPED` holding 41 and `r9` = 1. With
/// `recover`, a trap maps the faulting region and resumes (§3.7).
fn run(f: &Function, store_buffer: usize, recover: bool) -> Run {
    let mdes = MachineDesc::builder()
        .issue_width(4)
        .store_buffer_size(store_buffer)
        .build();
    let [interp, turbo] = [Engine::Interpreter, Engine::Turbo].map(|engine| {
        let mut m = SimSession::for_function(f)
            .config(SimConfig::for_mdes(mdes.clone()))
            .engine(engine)
            .build();
        m.memory_mut().map_region(MAPPED, 64);
        m.memory_mut().write_word(MAPPED, 41).unwrap();
        m.set_reg(r(9), 1);
        let outcome = m.run_with_recovery(|_, mem| {
            if !recover {
                return Recovery::Abort;
            }
            mem.map_region(UNMAPPED, 64);
            Recovery::Resume
        });
        Run {
            outcome,
            stats: *m.stats(),
            regs: (0..10).map(|i| m.reg(r(i)).as_i64()).collect(),
        }
    });
    assert_eq!(interp, turbo, "the interpreter and turbo disagree");
    interp
}

/// A branch to `t`, taken iff `a == b`.
fn beq(a: Reg, b: Reg, t: BlockId) -> Insn {
    Insn::branch(Opcode::Beq, a, b, t)
}

#[test]
fn the_newest_shadow_write_wins_even_when_it_faulted() {
    // Two boosted loads write r1: an older one at level 2 that reads 41,
    // and a newer one at level 1 that faults. The branch reads r1 through
    // the shadow: the newest write wins, and a faulted one reads as an
    // untagged 0, so the branch is taken and squashes both.
    let f = function(
        |t| {
            vec![
                Insn::li(r(1), 7),
                Insn::li(r(2), MAPPED as i64),
                Insn::li(r(5), UNMAPPED as i64),
                Insn::ld_w(r(1), r(2), 0).boosted(2),
                Insn::ld_w(r(1), r(5), 0).boosted(1),
                beq(r(1), Reg::ZERO, t),
                Insn::halt(),
            ]
        },
        vec![Insn::li(r(6), 1), Insn::halt()],
    );
    let run = run(&f, 8, false);
    assert_eq!(run.outcome, Ok(RunOutcome::Halted));
    assert_eq!(run.regs[6], 1, "the branch was taken");
    assert_eq!(run.regs[1], 7, "both shadow writes were squashed");
    assert_eq!(run.stats.shadow_squashes, 2);
    assert_eq!(run.stats.shadow_commits, 0);
}

#[test]
fn r0_never_overlays() {
    // A boosted load into r0 still parks its result in the shadow, but
    // r0 reads 0 regardless, so `beq r0, r1` (r1 = 41) falls through.
    let f = function(
        |t| {
            vec![
                Insn::li(r(1), 41),
                Insn::li(r(2), MAPPED as i64),
                Insn::ld_w(Reg::ZERO, r(2), 0).boosted(1),
                beq(Reg::ZERO, r(1), t),
                Insn::li(r(6), 1),
                Insn::halt(),
            ]
        },
        vec![Insn::halt()],
    );
    let run = run(&f, 8, false);
    assert_eq!(run.outcome, Ok(RunOutcome::Halted));
    assert_eq!(run.regs[6], 1, "the branch fell through");
    assert_eq!(run.regs[0], 0);
    assert_eq!(run.stats.shadow_commits, 1);
}

#[test]
fn a_boosted_load_forwards_from_the_newest_matching_shadow_store() {
    // Two boosted stores to the same word, then a boosted load of it:
    // the load reads the newer store's data from the shadow store
    // buffer, not memory's 41, and the untaken branch commits all three.
    let f = function(
        |t| {
            vec![
                Insn::li(r(2), MAPPED as i64),
                Insn::li(r(3), 5),
                Insn::li(r(5), 6),
                Insn::st_w(r(3), r(2), 0).boosted(1),
                Insn::st_w(r(5), r(2), 0).boosted(1),
                Insn::ld_w(r(4), r(2), 0).boosted(1),
                beq(Reg::ZERO, r(9), t),
                Insn::halt(),
            ]
        },
        vec![Insn::halt()],
    );
    let run = run(&f, 8, false);
    assert_eq!(run.outcome, Ok(RunOutcome::Halted));
    assert_eq!(run.regs[4], 6);
    assert_eq!(run.stats.shadow_commits, 3);
}

/// Level-1 entries around a faulting boosted load, plus a level-2 entry
/// older than all of them, resolved by one untaken branch.
fn faulting_commit() -> Function {
    function(
        |t| {
            vec![
                Insn::li(r(5), UNMAPPED as i64),
                Insn::li(r(3), 3).boosted(2),
                Insn::li(r(4), 4).boosted(1),
                Insn::ld_w(r(1), r(5), 0).boosted(1),
                Insn::li(r(6), 6).boosted(1),
                beq(Reg::ZERO, r(9), t),
                Insn::halt(),
            ]
        },
        vec![Insn::halt()],
    )
}

#[test]
fn a_fault_stops_the_commit_of_later_level1_entries() {
    let f = faulting_commit();
    let ids: Vec<_> = f.block(f.entry()).insns.iter().map(|i| i.id).collect();
    let run = run(&f, 8, false);
    let Ok(RunOutcome::Trapped(trap)) = run.outcome else {
        panic!("expected a trap, got {:?}", run.outcome);
    };
    // The faulting load is reported, by the branch whose commit found it.
    assert_eq!((trap.excepting_pc, trap.reported_by), (ids[3], ids[5]));
    assert_eq!(run.regs[4], 4, "the entry before the fault committed");
    assert_eq!(run.regs[6], 0, "the entry after the fault did not");
    assert_eq!(run.regs[3], 0, "the level-2 entry is still in the shadow");
    // The entry before the fault and the faulting one were processed.
    assert_eq!(run.stats.shadow_commits, 2);
}

#[test]
fn deeper_entries_survive_a_faulting_commit_one_level_down() {
    // Recovery re-executes from the faulting load with its region now
    // mapped. The level-2 entry survived the first commit at level 1,
    // so the same branch, untaken again, commits it: r3 = 3 at halt.
    let run = run(&faulting_commit(), 8, true);
    assert_eq!(run.outcome, Ok(RunOutcome::Halted));
    assert_eq!(run.stats.recoveries, 1);
    assert_eq!(run.regs[3], 3);
    assert_eq!((run.regs[4], run.regs[6]), (4, 6));
}

#[test]
fn a_store_buffer_error_from_a_committed_shadow_store_aborts_the_run() {
    // A probationary store fills the one-entry store buffer; the shadow
    // store that commits behind it cannot enter until a confirm that
    // never comes (the §4.2 deadlock), and the run ends with that error.
    let f = function(
        |t| {
            vec![
                Insn::li(r(2), MAPPED as i64),
                Insn::li(r(3), 5),
                Insn::st_w(r(3), r(2), 0).speculated(),
                Insn::st_w(r(3), r(2), 8).boosted(1),
                beq(Reg::ZERO, r(9), t),
                Insn::halt(),
            ]
        },
        vec![Insn::halt()],
    );
    let run = run(&f, 1, false);
    assert_eq!(run.outcome, Err(SimError::StoreBuffer(SbError::Deadlock)));
}
