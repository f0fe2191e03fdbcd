//! Scheduled traps against the sequential reference.
//!
//! The paper's claim (§3): under sentinel scheduling (S) and sentinel
//! scheduling with speculative stores (T), the scheduled program reports
//! the exception that sequential execution reaches first. Two faults in
//! one home block — the stretch of a superblock between two side exits —
//! may be reported in either order (§3.6), so the sweep requires only
//! that the reported fault come from the home block of the reference's.
//! The interpreter-versus-turbo check cannot see a violation: both
//! machines run the same schedule and report the same wrong trap.
//!
//! Every point runs a `fuzz_spec(seed, 0.25, traps)` program compiled
//! with `JobSpec::fuzz`'s options, and `sim::reference` on the original
//! program. A debug build runs every [`DEBUG_STRIDE`]-th point of the
//! sweep; a release build runs all 16,384.

use sentinel_bench::runner::apply_memory;
use sentinel_core::SchedulingModel;
use sentinel_isa::{BlockId, InsnId};
use sentinel_sim::reference::{RefOutcome, Reference};
use sentinel_sim::{Engine, RunOutcome};
use sentinel_spec::{model_str, JobSpec, Prepared};
use sentinel_workloads::{fuzz_spec, generate, Workload};

/// Alias fraction of every generated program.
const ALIAS: f64 = 0.25;

/// A debug build runs sweep points `0, DEBUG_STRIDE, 2·DEBUG_STRIDE, …`.
const DEBUG_STRIDE: usize = if cfg!(debug_assertions) { 4 } else { 1 };

/// The excepting instruction of the original program's sequential run
/// (`None` if it halts).
fn sequential_trap(w: &Workload) -> Option<InsnId> {
    let mut r = Reference::new(&w.func);
    apply_memory(w, r.memory_mut());
    match r.run().expect("the reference ends in a halt or a trap") {
        RefOutcome::Halted => None,
        RefOutcome::Trapped { pc, .. } => Some(pc),
    }
}

/// The excepting instruction the scheduled program reports (`None` if
/// it halts).
fn scheduled_trap(w: &Workload, spec: &JobSpec) -> Option<InsnId> {
    let label = spec_label(spec);
    let prepared = Prepared::compile(&w.func, &spec.mdes(), spec.sched_options())
        .unwrap_or_else(|e| panic!("{label}: schedule failed: {e}"));
    let mut m = prepared.session(spec.sim_config(), Engine::Fast).build();
    apply_memory(w, m.memory_mut());
    match m.run() {
        Ok(RunOutcome::Halted) => None,
        Ok(RunOutcome::Trapped(t)) => Some(t.excepting_pc),
        Err(e) => panic!("{label}: simulation failed: {e}"),
    }
}

/// The home block of original instruction `id`: its block, and how many
/// side exits precede it there.
fn home_block(w: &Workload, id: InsnId) -> Option<(BlockId, usize)> {
    let (b, pos) = w.func.find_insn(id)?;
    let exits = w.func.block(b).insns[..pos]
        .iter()
        .filter(|i| i.op.is_cond_branch())
        .count();
    Some((b, exits))
}

fn spec_label(spec: &JobSpec) -> String {
    let sentinel_spec::ProgramRef::Seeded { seed, traps, .. } = spec.program else {
        unreachable!("fuzz specs name seeded programs")
    };
    format!(
        "seed {seed} traps {traps} [{} x{}{}]",
        model_str(spec.model),
        spec.width,
        if spec.recovery { " +recovery" } else { "" }
    )
}

#[test]
fn checks_precede_the_next_writer_of_their_register() {
    // Each of these runs once reported a fault from a later home block:
    // an inserted check read its register after an instruction hoisted
    // from a later home block had overwritten it and cleared the tag.
    use SchedulingModel::{Sentinel as S, SentinelStores as T};
    let mut cases = vec![(S, 1, 112, 0.27), (T, 1, 112, 0.27)];
    cases.extend([1, 2, 8].map(|width| (T, width, 107, 0.27)));
    cases.extend([1, 2, 4].map(|width| (T, width, 151, 0.27)));
    for traps in [0.2, 0.27] {
        cases.extend([1, 2, 4, 8].map(|width| (T, width, 235, traps)));
    }
    assert_eq!(cases.len(), 16);
    let mut wrong = Vec::new();
    for (model, width, seed, traps) in cases {
        let w = generate(&fuzz_spec(seed, ALIAS, traps));
        let spec = JobSpec::fuzz(seed, model, width, ALIAS, traps);
        let (want, got) = (sequential_trap(&w), scheduled_trap(&w, &spec));
        if want != got {
            wrong.push(format!(
                "{}: sequential trap {want:?}, scheduled {got:?}",
                spec_label(&spec)
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn no_trap_comes_from_another_home_block() {
    let mut runs = 0;
    let mut wrong = Vec::new();
    let mut point = 0usize;
    for seed in 0..256 {
        for traps in [0.05, 0.1, 0.2, 0.27] {
            let mut workload = None;
            for model in [SchedulingModel::Sentinel, SchedulingModel::SentinelStores] {
                for width in [1, 2, 4, 8] {
                    for recovery in [false, true] {
                        point += 1;
                        if !(point - 1).is_multiple_of(DEBUG_STRIDE) {
                            continue;
                        }
                        let (w, want) = workload.get_or_insert_with(|| {
                            let w = generate(&fuzz_spec(seed, ALIAS, traps));
                            let want = sequential_trap(&w);
                            (w, want)
                        });
                        let spec = JobSpec {
                            recovery,
                            ..JobSpec::fuzz(seed, model, width, ALIAS, traps)
                        };
                        let got = scheduled_trap(w, &spec);
                        runs += 1;
                        let same = match (*want, got) {
                            (None, None) => true,
                            (Some(a), Some(b)) => {
                                home_block(w, b).is_some() && home_block(w, a) == home_block(w, b)
                            }
                            _ => false,
                        };
                        if !same {
                            wrong.push(format!(
                                "{}: sequential trap {want:?}, scheduled {got:?}",
                                spec_label(&spec)
                            ));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(point, 16_384);
    assert_eq!(runs, 16_384 / DEBUG_STRIDE);
    assert!(
        wrong.is_empty(),
        "{} of {runs} runs report another home block's trap:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
