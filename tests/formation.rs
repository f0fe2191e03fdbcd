//! Superblock formation end-to-end (paper §2.1): splitting a workload
//! into basic blocks, profiling, and re-forming must (a) preserve
//! semantics and (b) recover the superblock schedule quality.

use sentinel::bench::runner::apply_memory;
use sentinel::prog::superblock::{form_superblocks, split_at_branches, SuperblockConfig};
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::reference::{RefOutcome, Reference};
use sentinel::sim::{RunOutcome, SimConfig, SimSession};
use sentinel_isa::MachineDesc;
use sentinel_prog::validate;
use sentinel_workloads::suite::specs;
use sentinel_workloads::{generate, Workload};

fn cycles_of(w: &Workload) -> u64 {
    let mdes = MachineDesc::paper_issue(8);
    let s = schedule_function(
        &w.func,
        &mdes,
        &SchedOptions::new(SchedulingModel::Sentinel),
    )
    .expect("schedule");
    let mut m = SimSession::for_function(&s.func)
        .config(SimConfig::for_mdes(mdes))
        .build();
    apply_memory(w, m.memory_mut());
    assert_eq!(m.run().unwrap(), RunOutcome::Halted);
    m.stats().cycles
}

#[test]
fn split_profile_form_recovers_superblock_performance() {
    for name in ["cmp", "yacc", "doduc", "wc"] {
        let mut spec = specs().into_iter().find(|s| s.name == name).unwrap();
        spec.iterations = 40;
        let w = generate(&spec);
        let original_cycles = cycles_of(&w);

        // Split into basic blocks: semantics preserved, performance lost.
        let mut split_w = w.clone();
        split_at_branches(&mut split_w.func);
        assert!(validate(&split_w.func).is_empty(), "{name}: split invalid");
        let split_cycles = cycles_of(&split_w);
        assert!(
            split_cycles > original_cycles,
            "{name}: basic blocks should schedule worse ({split_cycles} vs {original_cycles})"
        );

        // Profile and re-form.
        let mut r = Reference::new(&split_w.func);
        apply_memory(&split_w, r.memory_mut());
        assert_eq!(r.run().unwrap(), RefOutcome::Halted);
        let profile = r.profile().clone();
        let mut formed_w = split_w.clone();
        let result = form_superblocks(&mut formed_w.func, &profile, &SuperblockConfig::default());
        assert!(!result.superblocks.is_empty());
        assert!(
            validate(&formed_w.func).is_empty(),
            "{name}: formed invalid"
        );
        let formed_cycles = cycles_of(&formed_w);
        assert!(
            formed_cycles <= (original_cycles as f64 * 1.05) as u64,
            "{name}: formation should recover the superblock schedule \
             (formed {formed_cycles}, original {original_cycles})"
        );

        // And the formed program still computes the same results.
        let mut r1 = Reference::new(&w.func);
        apply_memory(&w, r1.memory_mut());
        r1.run().unwrap();
        let mut r2 = Reference::new(&formed_w.func);
        apply_memory(&formed_w, r2.memory_mut());
        r2.run().unwrap();
        assert_eq!(
            r1.memory().snapshot(),
            r2.memory().snapshot(),
            "{name}: formation changed results"
        );
    }
}

#[test]
fn unrolling_preserves_execution_and_equivalence() {
    use sentinel::prog::superblock::unroll_all_loops;
    for name in ["cmp", "grep", "tomcatv"] {
        let mut spec = specs().into_iter().find(|s| s.name == name).unwrap();
        spec.iterations = 37; // deliberately not a multiple of the factor
        let w = generate(&spec);
        for factor in [2, 3, 4] {
            let mut wu = w.clone();
            let n = unroll_all_loops(&mut wu.func, factor);
            assert!(n >= 1, "{name}: nothing unrolled");
            assert!(validate(&wu.func).is_empty(), "{name} x{factor}");
            // Reference equivalence: identical results.
            let mut r1 = Reference::new(&w.func);
            apply_memory(&w, r1.memory_mut());
            assert_eq!(r1.run().unwrap(), RefOutcome::Halted);
            let mut r2 = Reference::new(&wu.func);
            apply_memory(&wu, r2.memory_mut());
            assert_eq!(r2.run().unwrap(), RefOutcome::Halted, "{name} x{factor}");
            assert_eq!(
                r1.memory().snapshot(),
                r2.memory().snapshot(),
                "{name} x{factor}: unrolling changed results"
            );
            // And the scheduled unrolled program still matches.
            let mdes = MachineDesc::paper_issue(8);
            let s = schedule_function(
                &wu.func,
                &mdes,
                &SchedOptions::new(SchedulingModel::Sentinel),
            )
            .unwrap();
            let mut m = SimSession::for_function(&s.func)
                .config(SimConfig::for_mdes(mdes))
                .build();
            apply_memory(&wu, m.memory_mut());
            assert_eq!(m.run().unwrap(), RunOutcome::Halted);
            assert_eq!(
                m.memory().snapshot(),
                r1.memory().snapshot(),
                "{name} x{factor}: scheduled unrolled diverges"
            );
        }
    }
}

#[test]
fn splitting_preserves_execution() {
    for name in ["grep", "tomcatv"] {
        let mut spec = specs().into_iter().find(|s| s.name == name).unwrap();
        spec.iterations = 25;
        let w = generate(&spec);
        let mut split_w = w.clone();
        split_at_branches(&mut split_w.func);
        let mut r1 = Reference::new(&w.func);
        apply_memory(&w, r1.memory_mut());
        assert_eq!(r1.run().unwrap(), RefOutcome::Halted);
        let mut r2 = Reference::new(&split_w.func);
        apply_memory(&split_w, r2.memory_mut());
        assert_eq!(r2.run().unwrap(), RefOutcome::Halted);
        assert_eq!(r1.memory().snapshot(), r2.memory().snapshot());
        assert_eq!(r1.dyn_insns(), r2.dyn_insns(), "same dynamic stream");
    }
}
