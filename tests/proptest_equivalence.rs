//! Property: for *any* generated workload and any scheduling model, the
//! scheduled program running on the sentinel machine produces the same
//! architectural outcome as the sequential reference interpreter.
//!
//! The workload generator explores the structural space (region counts,
//! sizes, instruction mixes, exit probabilities, aliasing); a seed loop
//! over the in-tree deterministic RNG drives its parameters so the
//! workspace builds offline.

use sentinel::bench::runner::apply_memory;
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::reference::{RefOutcome, Reference};
use sentinel::sim::verify::{compare_runs, CompareSpec};
use sentinel::sim::{RunOutcome, SimConfig, SimSession, SpeculationSemantics};
use sentinel_isa::MachineDesc;
use sentinel_workloads::{generate, BenchClass, Rng, WorkloadSpec};

fn arb_spec(r: &mut Rng) -> WorkloadSpec {
    WorkloadSpec {
        name: "prop",
        class: BenchClass::NonNumeric,
        seed: r.gen_range_u64(0, 10_000),
        loops: r.gen_range_usize(1, 3),
        regions_per_loop: r.gen_range_usize(1, 6),
        insns_per_region: r.gen_range_usize(1, 10),
        iterations: r.gen_range_u64(1, 25),
        load_frac: r.gen_range_f64(0.0, 0.5),
        store_frac: r.gen_range_f64(0.0, 0.25),
        fp_frac: if r.gen_bool(0.5) {
            0.0
        } else {
            r.gen_range_f64(0.1, 0.6)
        },
        mul_frac: r.gen_range_f64(0.0, 0.1),
        div_frac: r.gen_range_f64(0.0, 0.05),
        side_exit_prob: r.gen_range_f64(0.0, 0.3),
        branch_on_load: r.gen_range_f64(0.0, 1.0),
        chain_frac: r.gen_range_f64(0.0, 1.0),
        alias_frac: r.gen_range_f64(0.0, 0.6),
        trap_frac: 0.0,
    }
}

fn check_equivalence(spec: &WorkloadSpec, model: SchedulingModel, width: usize, recovery: bool) {
    let w = generate(spec);
    let mdes = MachineDesc::paper_issue(width);
    let mut opts = SchedOptions::new(model);
    if recovery {
        opts = opts.with_recovery();
    }
    let sched = schedule_function(&w.func, &mdes, &opts).expect("schedule");
    let mut cfg = SimConfig::for_mdes(mdes);
    cfg.semantics = match model {
        SchedulingModel::GeneralPercolation => SpeculationSemantics::Silent,
        _ => SpeculationSemantics::SentinelTags,
    };
    let mut m = SimSession::for_function(&sched.func).config(cfg).build();
    apply_memory(&w, m.memory_mut());
    let mo = m.run().expect("machine run");
    assert_eq!(mo, RunOutcome::Halted);

    let mut r = Reference::new(&w.func);
    apply_memory(&w, r.memory_mut());
    let ro = r.run().expect("reference run");
    assert_eq!(ro, RefOutcome::Halted);

    let divs = compare_runs(&m, mo, &r, ro, &CompareSpec::precise(w.live_out.clone()));
    assert!(
        divs.is_empty(),
        "model {model} width {width} recovery {recovery} seed {}: {}\n{}",
        spec.seed,
        divs[0],
        sentinel::prog::asm::print(&sched.func),
    );
}

#[test]
fn sentinel_matches_reference() {
    let mut r = Rng::seed_from_u64(0x1111_0001);
    for _ in 0..48 {
        let spec = arb_spec(&mut r);
        let width = [1usize, 2, 4, 8][r.gen_range_usize(0, 4)];
        check_equivalence(&spec, SchedulingModel::Sentinel, width, false);
    }
}

#[test]
fn sentinel_stores_matches_reference() {
    let mut r = Rng::seed_from_u64(0x1111_0002);
    for _ in 0..48 {
        let spec = arb_spec(&mut r);
        let width = if r.gen_bool(0.5) { 2 } else { 8 };
        check_equivalence(&spec, SchedulingModel::SentinelStores, width, false);
    }
}

#[test]
fn restricted_matches_reference() {
    let mut r = Rng::seed_from_u64(0x1111_0003);
    for _ in 0..48 {
        let spec = arb_spec(&mut r);
        check_equivalence(&spec, SchedulingModel::RestrictedPercolation, 4, false);
    }
}

#[test]
fn general_matches_reference_on_trap_free_programs() {
    // These workloads never fault, so even general percolation's
    // silent semantics must be architecturally equivalent.
    let mut r = Rng::seed_from_u64(0x1111_0004);
    for _ in 0..48 {
        let spec = arb_spec(&mut r);
        check_equivalence(&spec, SchedulingModel::GeneralPercolation, 8, false);
    }
}

#[test]
fn recovery_constraints_preserve_equivalence() {
    let mut r = Rng::seed_from_u64(0x1111_0005);
    for _ in 0..24 {
        let spec = arb_spec(&mut r);
        let width = if r.gen_bool(0.5) { 2 } else { 8 };
        check_equivalence(&spec, SchedulingModel::Sentinel, width, true);
        check_equivalence(&spec, SchedulingModel::SentinelStores, width, true);
    }
}

#[test]
fn boosting_preserves_equivalence() {
    let mut r = Rng::seed_from_u64(0x1111_0006);
    for _ in 0..48 {
        let spec = arb_spec(&mut r);
        let levels = r.gen_range_u64(1, 5) as u8;
        check_equivalence(&spec, SchedulingModel::Boosting(levels), 8, false);
    }
}

#[test]
fn unrolling_preserves_equivalence() {
    use sentinel::prog::superblock::unroll_all_loops;
    let mut r = Rng::seed_from_u64(0x1111_0007);
    for _ in 0..48 {
        let spec = arb_spec(&mut r);
        let factor = r.gen_range_usize(2, 5);
        let w = generate(&spec);
        let mut wu = w.clone();
        unroll_all_loops(&mut wu.func, factor);
        let mut r1 = Reference::new(&w.func);
        apply_memory(&w, r1.memory_mut());
        r1.run().expect("original");
        let mut r2 = Reference::new(&wu.func);
        apply_memory(&wu, r2.memory_mut());
        r2.run().expect("unrolled");
        assert_eq!(r1.memory().snapshot(), r2.memory().snapshot());
        // And the unrolled program still schedules + simulates correctly.
        let sched = schedule_function(
            &wu.func,
            &MachineDesc::paper_issue(8),
            &SchedOptions::new(SchedulingModel::Sentinel),
        )
        .expect("schedule unrolled");
        let mut m = SimSession::for_function(&sched.func)
            .config(SimConfig::for_mdes(MachineDesc::paper_issue(8)))
            .build();
        apply_memory(&wu, m.memory_mut());
        assert_eq!(m.run().expect("run"), RunOutcome::Halted);
        assert_eq!(m.memory().snapshot(), r1.memory().snapshot());
    }
}
