//! Engine differential suite: the compiled machine (`turbo`, which the
//! `fast` label also runs) must be observationally identical to the
//! interpretive oracle.
//!
//! Every suite workload is scheduled under all four models and run at
//! issue widths {1, 2, 4, 8} on both machines, asserting identical
//! run outcome, statistics, final architectural state (every register
//! with its exception tag, plus full memory), and — on a sampled
//! subset — identical trace-event streams from an attached sink.

use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::{Engine, RunOutcome, SimConfig, SimSession, SpeculationSemantics, Stats};
use sentinel_isa::{MachineDesc, Reg};
use sentinel_prog::Function;
use sentinel_workloads::suite::suite_with_iterations;
use sentinel_workloads::Workload;

fn apply_memory(w: &Workload, mem: &mut sentinel::sim::Memory) {
    for &(s, l) in &w.mem_regions {
        mem.map_region(s, l);
    }
    for &(a, v) in &w.mem_words {
        mem.write_word(a, v).unwrap();
    }
}

fn semantics_for(model: SchedulingModel) -> SpeculationSemantics {
    match model {
        SchedulingModel::GeneralPercolation => SpeculationSemantics::Silent,
        _ => SpeculationSemantics::SentinelTags,
    }
}

/// Everything one run exposes: outcome, stats, every register (data and
/// tag), and the full memory image.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: RunOutcome,
    stats: Stats,
    regs: Vec<(u64, bool)>,
    memory: Vec<(u64, u8)>,
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

/// A sink that shares its event buffer with the test, so the stream
/// survives the engine taking ownership of the boxed sink.
#[derive(Default)]
struct SharedSink {
    events: std::sync::Arc<std::sync::Mutex<Vec<sentinel::trace::Event>>>,
}

impl sentinel::trace::TraceSink for SharedSink {
    fn record(&mut self, event: &sentinel::trace::Event) {
        self.events.lock().unwrap().push(event.clone());
    }

    fn finish(&mut self) -> String {
        String::new()
    }
}

/// With a sink attached and trace collection on, both machines must
/// produce identical pipeline-event streams and `TraceEvent` logs.
#[test]
fn engines_emit_identical_trace_streams() {
    let workloads = suite_with_iterations(3);
    for w in &workloads {
        let model = SchedulingModel::Sentinel;
        let mdes = MachineDesc::paper_issue(4);
        let sched = schedule_function(&w.func, &mdes, &SchedOptions::new(model)).unwrap();
        let mut streams = Vec::new();
        for engine in [Engine::Interpreter, Engine::Turbo] {
            let buffer = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink = SharedSink {
                events: buffer.clone(),
            };
            let mut cfg = SimConfig::for_mdes(mdes.clone());
            cfg.semantics = semantics_for(model);
            cfg.collect_trace = true;
            let mut m = SimSession::for_function(&sched.func)
                .config(cfg)
                .engine(engine)
                .sink(Box::new(sink))
                .build();
            apply_memory(w, m.memory_mut());
            m.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let trace = m.trace().to_vec();
            drop(m.take_sink());
            let events = std::mem::take(&mut *buffer.lock().unwrap());
            assert!(!events.is_empty(), "{}: sink saw no events", w.name);
            streams.push((events, trace));
        }
        assert_eq!(
            streams[0], streams[1],
            "{}: trace streams differ (interpreter vs turbo)",
            w.name
        );
    }
}
