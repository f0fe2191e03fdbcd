//! The trace subsystem's two contracts: identical runs render
//! byte-identical traces, and the stall counters account for every
//! non-issuing cycle exactly (`issuing_cycles + stalls.total() ==
//! cycles`) — on release builds too, where the simulator's internal
//! `debug_assert` is compiled out.

use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::{SimConfig, SimSession, Stats};
use sentinel::spec::semantics_for;
use sentinel::trace::{ChromeTraceSink, JsonlSink, TimelineSink, TraceSink};
use sentinel_bench::runner::apply_memory;
use sentinel_isa::MachineDesc;
use sentinel_workloads::{suite, Workload};

fn traced_run(
    w: &Workload,
    model: SchedulingModel,
    width: usize,
    sink: Box<dyn TraceSink>,
) -> (String, Stats) {
    let mdes = MachineDesc::paper_issue(width);
    let s = schedule_function(&w.func, &mdes, &SchedOptions::new(model)).unwrap();
    let mut cfg = SimConfig::for_mdes(mdes);
    cfg.semantics = semantics_for(model);
    let mut m = SimSession::for_function(&s.func)
        .config(cfg)
        .sink(sink)
        .build();
    apply_memory(w, m.memory_mut());
    m.run().unwrap();
    let mut sink = m.take_sink().expect("sink attached");
    (sink.finish(), *m.stats())
}

#[test]
fn jsonl_traces_are_byte_identical_across_runs() {
    let w = suite::by_name("cmp").unwrap();
    let (a, sa) = traced_run(&w, SchedulingModel::Sentinel, 8, Box::new(JsonlSink::new()));
    let (b, sb) = traced_run(&w, SchedulingModel::Sentinel, 8, Box::new(JsonlSink::new()));
    assert!(!a.is_empty());
    assert_eq!(a, b, "two identical runs must render byte-identical JSONL");
    assert_eq!(sa, sb);
}

#[test]
fn chrome_and_timeline_are_deterministic_too() {
    let w = suite::by_name("grep").unwrap();
    for make in [
        (|| Box::new(ChromeTraceSink::new()) as Box<dyn TraceSink>) as fn() -> Box<dyn TraceSink>,
        || Box::new(TimelineSink::new(4)),
    ] {
        let (a, _) = traced_run(&w, SchedulingModel::SentinelStores, 4, make());
        let (b, _) = traced_run(&w, SchedulingModel::SentinelStores, 4, make());
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}

#[test]
fn stall_counters_cover_every_non_issuing_cycle() {
    // Across the whole suite, every model and two widths, untraced (so on
    // the compiled machine): the attribution invariant must hold exactly.
    for w in suite::suite() {
        for model in SchedulingModel::all() {
            for width in [2, 8] {
                let mdes = MachineDesc::paper_issue(width);
                let s = schedule_function(&w.func, &mdes, &SchedOptions::new(model)).unwrap();
                let mut cfg = SimConfig::for_mdes(mdes);
                cfg.semantics = semantics_for(model);
                let mut m = SimSession::for_function(&s.func).config(cfg).build();
                apply_memory(&w, m.memory_mut());
                m.run().unwrap();
                let st = m.stats();
                assert_eq!(
                    st.issuing_cycles + st.stalls.total(),
                    st.cycles,
                    "{} [{} w{width}]: {} issuing + {} stalled != {} cycles ({})",
                    w.name,
                    model.tag(),
                    st.issuing_cycles,
                    st.stalls.total(),
                    st.cycles,
                    st.stalls
                );
            }
        }
    }
}

#[test]
fn tracing_does_not_change_timing() {
    // Attaching a sink must be observation-only: the traced run (which
    // runs on the interpreter) has the same cycle counts and statistics
    // as the untraced one (on the compiled machine).
    let w = suite::by_name("doduc").unwrap();
    let mdes = MachineDesc::paper_issue(8);
    let s = schedule_function(
        &w.func,
        &mdes,
        &SchedOptions::new(SchedulingModel::Sentinel),
    )
    .unwrap();
    let run = |sink: Option<Box<dyn TraceSink>>| {
        let mut b = SimSession::for_function(&s.func).config(SimConfig::for_mdes(mdes.clone()));
        if let Some(sink) = sink {
            b = b.sink(sink);
        }
        let mut m = b.build();
        apply_memory(&w, m.memory_mut());
        m.run().unwrap();
        *m.stats()
    };
    let plain = run(None);
    let traced = run(Some(Box::new(JsonlSink::new())));
    assert_eq!(plain, traced);
}
