//! Cycle-accurate tracing of the paper's §3 running example.
//!
//! Schedules Figure 3 with the sentinel model under the §3.7 recovery
//! constraints, attaches a trace sink, and lets the speculative load `D`
//! page-fault so the timeline shows the whole story: tag set on the
//! faulting load, tag propagation into `G`'s destination, the sentinel
//! `check` detecting the exception, the trap, and recovery re-execution.
//!
//! ```sh
//! cargo run --example tracing
//! ```

use sentinel::prelude::*;
use sentinel::prog::examples::figure3;
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::{Recovery, RunOutcome, Width};

fn main() {
    let f = figure3();
    let mdes = MachineDesc::builder().issue_width(8).build();
    let width = mdes.issue_width();
    let sched = schedule_function(
        &f,
        &mdes,
        &SchedOptions::new(SchedulingModel::Sentinel).with_recovery(),
    )
    .expect("schedule");

    let mut m = SimSession::for_function(&sched.func)
        .config(SimConfig::for_mdes(mdes))
        .sink(Box::new(TimelineSink::new(width)))
        .build();
    m.set_reg(Reg::int(3), 0x1000); // B's pointer (mapped)
    m.set_reg(Reg::int(6), 0x3000); // D's pointer: initially unmapped
    m.set_reg(Reg::int(4), 0x1100); // F's store target
    m.set_reg(Reg::int(2), 0x1007); // H loads mem(r2+0) after E adds 1
    m.set_reg(Reg::int(7), 99);
    m.memory_mut().map_region(0x1000, 0x200);
    m.memory_mut().write_word(0x1000, 5).unwrap();
    m.memory_mut().write_word(0x1008, 777).unwrap();

    let out = m
        .run_with_recovery(|_trap, mem| {
            // The speculative load D faulted; map its page and resume at
            // the excepting instruction, as §3.7 prescribes.
            mem.map_region(0x3000, 8);
            mem.write_raw(0x3000, Width::Word, 41);
            Recovery::Resume
        })
        .expect("run");
    assert_eq!(out, RunOutcome::Halted);

    let mut sink = m.take_sink().expect("sink attached");
    println!("--- pipeline timeline (Figure 3, sentinel + recovery) ---");
    print!("{}", sink.finish());

    let stats = *m.stats();
    println!(
        "\n{} cycles: {} issuing, {} stalled [{}]",
        stats.cycles,
        stats.issuing_cycles,
        stats.cycles - stats.issuing_cycles,
        stats.stalls
    );
    println!(
        "r8 = {} (expected 42), r9 = {} (expected 777)",
        m.reg(Reg::int(8)).as_i64(),
        m.reg(Reg::int(9)).as_i64(),
    );

    // The same run rendered as machine-readable JSONL (first lines).
    let mut m2 = SimSession::for_function(&sched.func)
        .config(SimConfig::for_mdes(
            MachineDesc::builder().issue_width(8).build(),
        ))
        .sink(Box::new(JsonlSink::new()))
        .build();
    m2.set_reg(Reg::int(3), 0x1000);
    m2.set_reg(Reg::int(6), 0x3000);
    m2.set_reg(Reg::int(4), 0x1100);
    m2.set_reg(Reg::int(2), 0x1007);
    m2.set_reg(Reg::int(7), 99);
    m2.memory_mut().map_region(0x1000, 0x200);
    m2.memory_mut().write_word(0x1000, 5).unwrap();
    m2.memory_mut().write_word(0x1008, 777).unwrap();
    m2.run_with_recovery(|_t, mem| {
        mem.map_region(0x3000, 8);
        mem.write_raw(0x3000, Width::Word, 41);
        Recovery::Resume
    })
    .expect("run");
    let mut jsonl = m2.take_sink().expect("sink attached");
    println!("\n--- same run as JSONL (first 8 events) ---");
    for line in jsonl.finish().lines().take(8) {
        println!("{line}");
    }
}
