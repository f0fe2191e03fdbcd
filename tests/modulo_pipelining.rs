//! Software-pipelined loops must compute exactly what the original loops
//! compute — for every trip count, including the guard's short-trip
//! fallback — and must be faster once scheduled.

use sentinel::bench::runner::apply_memory;
use sentinel::sched::modulo::{pipeline_all_loops, pipeline_loop};
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::reference::{RefOutcome, Reference};
use sentinel::sim::{RunOutcome, SimConfig, SimSession};
use sentinel_isa::{MachineDesc, Reg};
use sentinel_prog::validate;
use sentinel_workloads::kernels;
use sentinel_workloads::Workload;

fn reference_snapshot(w: &Workload) -> (Vec<(u64, u8)>, u64) {
    let mut r = Reference::new(&w.func);
    apply_memory(w, r.memory_mut());
    assert_eq!(r.run().unwrap(), RefOutcome::Halted);
    (r.memory().snapshot(), r.reg(Reg::int(8)))
}

#[test]
fn pipelined_copy_words_equivalent_for_all_trip_counts() {
    // Sweep trip counts across the guard boundary (stages = 2 here).
    for n in 1..=12 {
        let w = kernels::copy_words(n);
        let (want_mem, want_r8) = reference_snapshot(&w);

        let mut wp = w.clone();
        let body = wp.func.block_by_label("loop").unwrap();
        pipeline_loop(&mut wp.func, body, &MachineDesc::paper_issue(8))
            .unwrap_or_else(|| panic!("n={n}: not pipelined"));
        assert!(validate(&wp.func).is_empty(), "n={n}");

        let mut r = Reference::new(&wp.func);
        apply_memory(&wp, r.memory_mut());
        assert_eq!(r.run().unwrap(), RefOutcome::Halted, "n={n}");
        assert_eq!(r.memory().snapshot(), want_mem, "n={n}: memory differs");
        assert_eq!(r.reg(Reg::int(8)), want_r8, "n={n}");
    }
}

#[test]
fn pipelined_dot_product_equivalent() {
    for n in [1, 2, 3, 5, 24, 48] {
        let w = kernels::dot_product(n);
        let (want_mem, _) = reference_snapshot(&w);
        let mut wp = w.clone();
        let infos = pipeline_all_loops(&mut wp.func, &MachineDesc::paper_issue(8));
        assert_eq!(infos.len(), 1);
        let mut r = Reference::new(&wp.func);
        apply_memory(&wp, r.memory_mut());
        assert_eq!(r.run().unwrap(), RefOutcome::Halted, "n={n}");
        assert_eq!(r.memory().snapshot(), want_mem, "n={n}: fp sum differs");
    }
}

#[test]
fn pipelined_then_scheduled_matches_oracle_and_is_faster() {
    let w = kernels::copy_words(200);
    let (want_mem, _) = reference_snapshot(&w);
    let mdes = MachineDesc::paper_issue(8);

    let cycles_of = |func: &sentinel_prog::Function| {
        let s = schedule_function(func, &mdes, &SchedOptions::new(SchedulingModel::Sentinel))
            .expect("schedule");
        let mut m = SimSession::for_function(&s.func)
            .config(SimConfig::for_mdes(mdes.clone()))
            .build();
        apply_memory(&w, m.memory_mut());
        assert_eq!(m.run().unwrap(), RunOutcome::Halted);
        assert_eq!(m.memory().snapshot(), want_mem, "scheduled run diverges");
        m.stats().cycles
    };

    let plain = cycles_of(&w.func);
    let mut wp = w.clone();
    let infos = pipeline_all_loops(&mut wp.func, &mdes);
    assert_eq!(infos.len(), 1);
    let info = infos[0];
    assert!(info.stages >= 2);
    let pipelined = cycles_of(&wp.func);
    assert!(
        pipelined < plain,
        "pipelining should win: {pipelined} vs {plain} (info {info:?})"
    );
}

#[test]
fn while_loop_pipelining_requires_speculation() {
    // The paper's §2 point, demonstrated: a pipelined while-loop whose
    // loads run ahead of the exit test reads past the data. WITH the
    // speculative modifier the faults defer into exception tags that the
    // taken exit abandons; WITHOUT it the machine traps spuriously.
    use sentinel::sched::modulo::pipeline_while_loop;
    let w = kernels::chain_scan(20);
    let mdes = MachineDesc::paper_issue(8);

    // Ground truth from the original loop.
    let (want_mem, want_r8) = reference_snapshot(&w);
    assert_eq!(want_r8, 20);

    // Pipeline WITH speculation.
    let mut ws = w.clone();
    let body = ws.func.block_by_label("loop").unwrap();
    let info = pipeline_while_loop(&mut ws.func, body, &mdes, true).expect("pipelinable");
    assert!(
        info.stages >= 3,
        "need the load ≥2 iterations ahead to overshoot: {info:?}"
    );
    assert!(validate(&ws.func).is_empty(), "{:?}", validate(&ws.func));
    // The pipelined code contains speculative loads.
    let spec_loads = ws
        .func
        .blocks()
        .flat_map(|b| b.insns.iter())
        .filter(|i| i.speculative && i.op.is_load())
        .count();
    assert!(spec_loads >= 1, "loads must carry the speculative modifier");
    let mut m = SimSession::for_function(&ws.func)
        .config(SimConfig::for_mdes(mdes.clone()))
        .build();
    apply_memory(&ws, m.memory_mut());
    assert_eq!(
        m.run().unwrap(),
        RunOutcome::Halted,
        "speculation lets the overshoot pass"
    );
    assert_eq!(m.memory().snapshot(), want_mem);
    assert_eq!(m.reg(Reg::int(8)).as_i64(), want_r8 as i64);
    assert!(
        m.stats().tag_sets >= 1,
        "the overshooting load really faulted"
    );

    // Pipeline WITHOUT speculation: the same schedule traps spuriously.
    let mut wn = w.clone();
    let body = wn.func.block_by_label("loop").unwrap();
    pipeline_while_loop(&mut wn.func, body, &mdes, false).expect("pipelinable");
    let mut m = SimSession::for_function(&wn.func)
        .config(SimConfig::for_mdes(mdes.clone()))
        .build();
    apply_memory(&wn, m.memory_mut());
    match m.run().unwrap() {
        RunOutcome::Trapped(t) => {
            assert!(
                matches!(
                    t.kind,
                    Some(sentinel::sim::ExceptionKind::UnmappedAddress(_))
                ),
                "{t}"
            );
        }
        other => panic!("without speculative support the pipeline must trap, got {other:?}"),
    }
}

#[test]
fn pipelined_while_loop_is_faster() {
    use sentinel::sched::modulo::pipeline_while_loop;
    let w = kernels::chain_scan(150);
    let mdes = MachineDesc::paper_issue(8);
    // The pipelined code already carries speculative modifiers, so it runs
    // as-is; the baseline gets the full superblock scheduler.
    let run_raw = |func: &sentinel_prog::Function| {
        let mut m = SimSession::for_function(func)
            .config(SimConfig::for_mdes(mdes.clone()))
            .build();
        apply_memory(&w, m.memory_mut());
        assert_eq!(m.run().unwrap(), RunOutcome::Halted);
        assert_eq!(m.reg(Reg::int(8)).as_i64(), 150);
        m.stats().cycles
    };
    let plain_scheduled = {
        let s = schedule_function(
            &w.func,
            &mdes,
            &SchedOptions::new(SchedulingModel::Sentinel),
        )
        .unwrap();
        run_raw(&s.func)
    };
    let mut wp = w.clone();
    let body = wp.func.block_by_label("loop").unwrap();
    pipeline_while_loop(&mut wp.func, body, &mdes, true).expect("pipelinable");
    let pipelined = run_raw(&wp.func);
    assert!(
        pipelined < plain_scheduled,
        "while-loop pipelining should beat acyclic scheduling: {pipelined} vs {plain_scheduled}"
    );
}

#[test]
fn pipelined_dot_product_is_faster() {
    let w = kernels::dot_product(200);
    let (want_mem, _) = reference_snapshot(&w);
    let mdes = MachineDesc::paper_issue(8);
    let run = |func: &sentinel_prog::Function| {
        let s =
            schedule_function(func, &mdes, &SchedOptions::new(SchedulingModel::Sentinel)).unwrap();
        let mut m = SimSession::for_function(&s.func)
            .config(SimConfig::for_mdes(mdes.clone()))
            .build();
        apply_memory(&w, m.memory_mut());
        assert_eq!(m.run().unwrap(), RunOutcome::Halted);
        assert_eq!(m.memory().snapshot(), want_mem);
        m.stats().cycles
    };
    let plain = run(&w.func);
    let mut wp = w.clone();
    pipeline_all_loops(&mut wp.func, &mdes);
    let pipelined = run(&wp.func);
    assert!(
        pipelined < plain,
        "dot product should pipeline: {pipelined} vs {plain}"
    );
}
