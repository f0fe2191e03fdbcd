//! Engine differential suite: the compiled machine (`turbo`, which the
//! `fast` label also runs) must be observationally identical to the
//! interpretive oracle.
//!
//! Every suite workload is scheduled under all four models and run at
//! issue widths {1, 2, 4, 8} on both machines, asserting identical
//! run outcome, statistics, final architectural state (every register
//! with its exception tag, plus full memory), execution profile, and PC
//! history. Traced sessions run on the interpreter whatever their label;
//! a second test pins that routing rule.

use sentinel::bench::runner::apply_memory;
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::{Engine, PcHistoryQueue, RunOutcome, SimConfig, SimSession, Stats};
use sentinel::spec::semantics_for;
use sentinel::trace::{JsonlSink, TraceSink};
use sentinel_isa::{MachineDesc, Reg};
use sentinel_prog::profile::Profile;
use sentinel_prog::Function;
use sentinel_workloads::suite::suite_with_iterations;
use sentinel_workloads::Workload;

/// Everything one run exposes: outcome, stats, every register (data and
/// tag), the full memory image, the profile, and the PC history.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: RunOutcome,
    stats: Stats,
    regs: Vec<(u64, bool)>,
    memory: Vec<(u64, u8)>,
    profile: Profile,
    pc_history: PcHistoryQueue,
}

fn observe(
    func: &Function,
    cfg: &SimConfig,
    mdes: &MachineDesc,
    w: &Workload,
    engine: Engine,
) -> Observation {
    let mut m = SimSession::for_function(func)
        .config(cfg.clone())
        .engine(engine)
        .build();
    apply_memory(w, m.memory_mut());
    let outcome = m.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let mut regs = Vec::new();
    for i in 0..mdes.int_regs() {
        let v = m.reg(Reg::int(i as u16));
        regs.push((v.data, v.tag));
    }
    for i in 0..mdes.fp_regs() {
        let v = m.reg(Reg::fp(i as u16));
        regs.push((v.data, v.tag));
    }
    Observation {
        outcome,
        stats: *m.stats(),
        regs,
        memory: m.memory().snapshot(),
        profile: m.profile().clone(),
        pc_history: m.pc_history().clone(),
    }
}

#[test]
fn engines_agree_on_every_workload_model_and_width() {
    let workloads = suite_with_iterations(6);
    for w in &workloads {
        for model in SchedulingModel::all() {
            for width in [1usize, 2, 4, 8] {
                let mdes = MachineDesc::paper_issue(width);
                let sched = schedule_function(&w.func, &mdes, &SchedOptions::new(model))
                    .unwrap_or_else(|e| panic!("{} {model}: {e}", w.name));
                let mut cfg = SimConfig::for_mdes(mdes.clone());
                cfg.semantics = semantics_for(model);
                let interp = observe(&sched.func, &cfg, &mdes, w, Engine::Interpreter);
                let turbo = observe(&sched.func, &cfg, &mdes, w, Engine::Turbo);
                assert_eq!(
                    interp, turbo,
                    "{} {model} w{width}: turbo diverged from the interpreter",
                    w.name
                );
            }
        }
    }
}

/// The routing rule: an instrumented session runs on the interpreter
/// whatever its label, so with a sink and trace collection on, the
/// `fast` and `turbo` labels emit the interpreter's pipeline-event
/// stream and `TraceEvent` log, and still report their own label.
#[test]
fn engines_emit_identical_trace_streams() {
    let workloads = suite_with_iterations(3);
    for w in &workloads {
        let model = SchedulingModel::Sentinel;
        let mdes = MachineDesc::paper_issue(4);
        let sched = schedule_function(&w.func, &mdes, &SchedOptions::new(model)).unwrap();
        let mut streams = Vec::new();
        for engine in [Engine::Interpreter, Engine::Fast, Engine::Turbo] {
            let mut cfg = SimConfig::for_mdes(mdes.clone());
            cfg.semantics = semantics_for(model);
            cfg.collect_trace = true;
            let sink: Box<dyn TraceSink> = Box::new(JsonlSink::new());
            let mut m = SimSession::for_function(&sched.func)
                .config(cfg)
                .engine(engine)
                .sink(sink)
                .build();
            assert_eq!(m.engine(), engine, "{}: the label is kept", w.name);
            apply_memory(w, m.memory_mut());
            m.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let trace = m.trace().to_vec();
            let events = m.take_sink().expect("sink attached").finish();
            assert!(!events.is_empty(), "{}: sink saw no events", w.name);
            assert!(!trace.is_empty(), "{}: no TraceEvent log", w.name);
            streams.push((events, trace));
        }
        assert!(
            streams.windows(2).all(|p| p[0] == p[1]),
            "{}: an instrumented fast or turbo session left the interpreter",
            w.name
        );
    }
}
