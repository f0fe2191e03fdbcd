//! Every suite benchmark, under every scheduling model, must execute to
//! the same architectural outcome as the sequential reference — the core
//! soundness property of the whole reproduction.

use sentinel::bench::runner::apply_memory;
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::reference::{RefOutcome, Reference};
use sentinel::sim::verify::{compare_runs, CompareSpec};
use sentinel::sim::{RunOutcome, SimConfig, SimSession, SpeculationSemantics};
use sentinel_isa::MachineDesc;
use sentinel_workloads::suite::suite_with_iterations;
use sentinel_workloads::Workload;

fn check(w: &Workload, model: SchedulingModel, width: usize, recovery: bool) {
    check_opts(w, model, width, recovery, false)
}

fn check_opts(w: &Workload, model: SchedulingModel, width: usize, recovery: bool, allocate: bool) {
    let mdes = MachineDesc::paper_issue(width);
    let mut opts = SchedOptions::new(model);
    if recovery {
        opts = opts.with_recovery();
    }
    if allocate {
        opts = opts.with_allocation();
    }
    let sched = schedule_function(&w.func, &mdes, &opts)
        .unwrap_or_else(|e| panic!("{} {model}: {e}", w.name));
    let mut cfg = SimConfig::for_mdes(mdes);
    cfg.semantics = match model {
        SchedulingModel::GeneralPercolation => SpeculationSemantics::Silent,
        _ => SpeculationSemantics::SentinelTags,
    };
    let mut m = SimSession::for_function(&sched.func).config(cfg).build();
    apply_memory(w, m.memory_mut());
    let mo = m
        .run()
        .unwrap_or_else(|e| panic!("{} {model} w{width} rec={recovery}: {e}", w.name));
    assert_eq!(mo, RunOutcome::Halted, "{} {model}", w.name);

    let mut r = Reference::new(&w.func);
    apply_memory(w, r.memory_mut());
    let ro = r.run().unwrap();
    assert_eq!(ro, RefOutcome::Halted);

    let divs = compare_runs(&m, mo, &r, ro, &CompareSpec::precise(w.live_out.clone()));
    assert!(
        divs.is_empty(),
        "{} {model} w{width} rec={recovery}: {} divergences, first: {}",
        w.name,
        divs.len(),
        divs[0]
    );
}

#[test]
fn all_benchmarks_all_models_match_reference() {
    for w in suite_with_iterations(40) {
        for model in SchedulingModel::all() {
            // General percolation matches the oracle here because these
            // workloads are exception-free by construction; its silent
            // faults never fire.
            check(&w, model, 8, false);
        }
    }
}

#[test]
fn nan_write_semantics_equivalent_on_trap_free_programs() {
    // The Colwell scheme only diverges when speculative faults occur; the
    // suite is fault-free by construction, so general-percolation
    // schedules under NaN-write semantics must match the oracle.
    for w in suite_with_iterations(25) {
        let mdes = MachineDesc::paper_issue(8);
        let sched = schedule_function(
            &w.func,
            &mdes,
            &SchedOptions::new(SchedulingModel::GeneralPercolation),
        )
        .unwrap();
        let mut cfg = SimConfig::for_mdes(mdes);
        cfg.semantics = SpeculationSemantics::NanWrite;
        let mut m = SimSession::for_function(&sched.func).config(cfg).build();
        apply_memory(&w, m.memory_mut());
        assert_eq!(m.run().unwrap(), RunOutcome::Halted, "{}", w.name);
        let mut r = Reference::new(&w.func);
        apply_memory(&w, r.memory_mut());
        let ro = r.run().unwrap();
        let divs = compare_runs(
            &m,
            RunOutcome::Halted,
            &r,
            ro,
            &CompareSpec::imprecise(w.live_out.clone()),
        );
        assert!(divs.is_empty(), "{}: {}", w.name, divs[0]);
    }
}

#[test]
fn boosting_matches_reference_at_all_levels() {
    // Instruction boosting (§2.3): shadow register files and shadow store
    // buffers must be architecturally transparent.
    for w in suite_with_iterations(30) {
        for levels in [1, 2, 4] {
            check(&w, SchedulingModel::Boosting(levels), 8, false);
        }
        check(&w, SchedulingModel::Boosting(2), 2, false);
    }
}

#[test]
fn all_benchmarks_narrow_machine_match_reference() {
    for w in suite_with_iterations(25) {
        check(&w, SchedulingModel::Sentinel, 2, false);
        check(&w, SchedulingModel::SentinelStores, 2, false);
    }
}

#[test]
fn all_benchmarks_with_recovery_constraints_match_reference() {
    for w in suite_with_iterations(25) {
        check(&w, SchedulingModel::Sentinel, 8, true);
        check(&w, SchedulingModel::SentinelStores, 4, true);
    }
}

#[test]
fn recovery_plus_register_allocation_matches_reference() {
    // Recovery renaming introduces virtual registers; the §3.7 allocator
    // must fold them back under the architectural count without changing
    // behavior. Verify no virtual registers survive and equivalence holds.
    for w in suite_with_iterations(25) {
        let mdes = MachineDesc::paper_issue(8);
        let opts = SchedOptions::new(SchedulingModel::Sentinel)
            .with_recovery()
            .with_allocation();
        let sched = sentinel::sched::schedule_function(&w.func, &mdes, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let (mi, mf) = sched.func.max_reg_indices();
        assert!(mi.unwrap_or(0) < 64, "{}: int virtuals remain", w.name);
        assert!(mf.unwrap_or(0) < 64, "{}: fp virtuals remain", w.name);
        check_opts(&w, SchedulingModel::Sentinel, 8, true, true);
    }
}
