//! Instrumented runs, pinned.
//!
//! Traced sessions and sessions with `collect_trace` run on the
//! interpreter, the only instrumented loop. `trace_determinism.rs` shows
//! that two runs of one build render the same bytes; this test holds the
//! renderings fixed across commits. Each run below is rendered four
//! ways — the `timeline`, `jsonl` and `chrome` sinks and the
//! `collect_trace` log — and each rendering reduces to one line, its
//! FNV-1a digest and byte length, which must match
//! `tests/golden/traces.txt`. The event order inside a rendering
//! (journals, trap, recovery, stall) is exactly what a change to the
//! machine loops can disturb.

use sentinel::prog::{asm, examples::figure3, Function};
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::{Memory, Recovery, SimConfig, SimSession, Width};
use sentinel::spec::{fnv64, semantics_for};
use sentinel::trace::{ChromeTraceSink, JsonlSink, TimelineSink, TraceSink};
use sentinel_bench::runner::apply_memory;
use sentinel_isa::{MachineDesc, Reg};
use sentinel_workloads::suite;

/// CI's trace smoke program: a load from its region, an add, a store.
const SMOKE: &str = "func @smoke {
entry:
    li r1, 0x1000
    ld r2, 0(r1)
    addi r3, r2, 1
    st r3, 8(r1)
    halt
}
";

/// One instrumented run: the scheduled program, its machine, and what
/// the session gets before it runs.
struct Run {
    label: String,
    func: Function,
    config: SimConfig,
    setup: Box<dyn Fn(&mut SimSession<'_>)>,
    /// Map Figure 3's faulting page and resume, as the `tracing`
    /// example does.
    recover: bool,
}

fn schedule(f: &Function, mdes: &MachineDesc, opts: &SchedOptions) -> Function {
    schedule_function(f, mdes, opts).expect("schedule").func
}

fn runs() -> Vec<Run> {
    let mut out = Vec::new();
    let smoke = asm::parse(SMOKE).expect("smoke program parses");
    for mapped in [true, false] {
        let mdes = MachineDesc::paper_issue(4);
        out.push(Run {
            label: format!(
                "smoke {} [S x4]",
                if mapped { "mapped" } else { "unmapped" }
            ),
            func: schedule(&smoke, &mdes, &SchedOptions::new(SchedulingModel::Sentinel)),
            config: SimConfig::for_mdes(mdes),
            setup: Box::new(move |m| {
                if mapped {
                    m.memory_mut().map_region(0x1000, 0x100);
                }
            }),
            recover: false,
        });
    }
    let mdes = MachineDesc::builder().issue_width(8).build();
    let opts = SchedOptions::new(SchedulingModel::Sentinel).with_recovery();
    out.push(Run {
        label: "figure3 [S x8 +recovery]".to_string(),
        func: schedule(&figure3(), &mdes, &opts),
        config: SimConfig::for_mdes(mdes),
        setup: Box::new(|m| {
            m.set_reg(Reg::int(3), 0x1000);
            m.set_reg(Reg::int(6), 0x3000);
            m.set_reg(Reg::int(4), 0x1100);
            m.set_reg(Reg::int(2), 0x1007);
            m.set_reg(Reg::int(7), 99);
            m.memory_mut().map_region(0x1000, 0x200);
            m.memory_mut().write_word(0x1000, 5).unwrap();
            m.memory_mut().write_word(0x1008, 777).unwrap();
        }),
        recover: true,
    });
    let w = suite::by_name("cmp").expect("cmp is in the suite");
    let model = SchedulingModel::Sentinel;
    let mdes = MachineDesc::paper_issue(8);
    let mut config = SimConfig::for_mdes(mdes.clone());
    config.semantics = semantics_for(model);
    out.push(Run {
        label: "cmp [S x8]".to_string(),
        func: schedule(&w.func, &mdes, &SchedOptions::new(model)),
        config,
        setup: Box::new(move |m| apply_memory(&w, m.memory_mut())),
        recover: false,
    });
    out
}

/// Runs `run` once with `sink` attached (or, with none, collecting the
/// per-instruction log) and returns the rendering.
fn render(run: &Run, sink: Option<Box<dyn TraceSink>>) -> String {
    let mut config = run.config.clone();
    config.collect_trace = sink.is_none();
    let mut b = SimSession::for_function(&run.func).config(config);
    if let Some(sink) = sink {
        b = b.sink(sink);
    }
    let mut m = b.build();
    (run.setup)(&mut m);
    let outcome = if run.recover {
        m.run_with_recovery(|_, mem: &mut Memory| {
            mem.map_region(0x3000, 8);
            mem.write_raw(0x3000, Width::Word, 41);
            Recovery::Resume
        })
    } else {
        m.run()
    };
    outcome.expect("the run ends in a halt or a trap");
    match m.take_sink() {
        Some(mut sink) => sink.finish(),
        None => m.trace().iter().map(|e| format!("{e}\n")).collect(),
    }
}

fn rendering() -> String {
    let mut out = String::new();
    for run in runs() {
        let width = run.config.mdes.issue_width();
        let sinks: [(&str, Option<Box<dyn TraceSink>>); 4] = [
            ("timeline", Some(Box::new(TimelineSink::new(width)))),
            ("jsonl", Some(Box::new(JsonlSink::new()))),
            ("chrome", Some(Box::new(ChromeTraceSink::new()))),
            ("collect", None),
        ];
        for (format, sink) in sinks {
            let text = render(&run, sink);
            assert!(!text.is_empty(), "{} {format} rendered nothing", run.label);
            out.push_str(&format!(
                "{} {format} fnv={:016x} len={}\n",
                run.label,
                fnv64(text.as_bytes()),
                text.len()
            ));
        }
    }
    out
}

#[test]
fn instrumented_runs_match_the_golden_file() {
    let rendered = rendering();
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traces.txt");
    std::fs::write(&actual, &rendered).expect("write the rendering");
    assert_eq!(
        rendered,
        include_str!("golden/traces.txt"),
        "tests/golden/traces.txt drifted. The rendering is in {}; if the change is \
         deliberate, copy it over the golden file and say why in CHANGELOG.md.",
        actual.display()
    );
}
