//! Software pipelining and its dependence on speculative support
//! (paper §2, citing Tirumalai et al.).
//!
//! Pipelines a counted loop (no speculation needed) and a while-loop
//! (loads overshoot the exit — speculation required), and shows the
//! machine trapping when the while-loop pipeline is generated without
//! speculative modifiers.
//!
//! ```sh
//! cargo run --release --example software_pipelining
//! ```

use sentinel::bench::runner::apply_memory;
use sentinel::prelude::*;
use sentinel::prog::asm;
use sentinel::sched::modulo::{pipeline_all_loops, pipeline_while_loop};
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::RunOutcome;
use sentinel_workloads::kernels;
use sentinel_workloads::Workload;

fn run(w: &Workload, func: &Function, mdes: &MachineDesc) -> (RunOutcome, u64) {
    let mut m = SimSession::for_function(func)
        .config(SimConfig::for_mdes(mdes.clone()))
        .build();
    apply_memory(w, m.memory_mut());
    let out = m.run().expect("simulation");
    (out, m.stats().cycles)
}

fn main() {
    let mdes = MachineDesc::paper_issue(8);

    // --- counted loop -----------------------------------------------------
    let w = kernels::copy_words(200);
    let acyclic = {
        let s = schedule_function(
            &w.func,
            &mdes,
            &SchedOptions::new(SchedulingModel::Sentinel),
        )
        .unwrap();
        run(&w, &s.func, &mdes).1
    };
    let mut wp = w.clone();
    let info = pipeline_all_loops(&mut wp.func, &mdes)[0];
    println!(
        "--- copy_words pipelined (II={}, stages={}) ---",
        info.ii, info.stages
    );
    let kernel = wp.func.block_by_label("loop.kernel").unwrap();
    for insn in &wp.func.block(kernel).insns {
        println!("    {}", asm::print_insn(&wp.func, insn));
    }
    let (out, pipelined) = run(&w, &wp.func, &mdes);
    println!("acyclic {acyclic} cycles → pipelined {pipelined} cycles ({out:?})\n");

    // --- while-loop: the speculation-dependent case ------------------------
    let w = kernels::chain_scan(100);
    println!("--- chain_scan: a while-loop (exit test fed by ld → div → div) ---");
    let mut ws = w.clone();
    let body = ws.func.block_by_label("loop").unwrap();
    let info = pipeline_while_loop(&mut ws.func, body, &mdes, true).expect("pipelinable");
    println!(
        "pipelined with speculation (II={}, stages={}): loads lead the exit test by {} iteration(s)",
        info.ii,
        info.stages,
        info.stages - 1
    );
    let kernel = ws.func.block_by_label("loop.wkernel").unwrap();
    for insn in &ws.func.block(kernel).insns {
        println!("    {}", asm::print_insn(&ws.func, insn));
    }
    let (out, cycles) = run(&w, &ws.func, &mdes);
    println!("with .s   : {out:?} in {cycles} cycles — overshooting loads deferred and abandoned");

    let mut wn = w.clone();
    let body = wn.func.block_by_label("loop").unwrap();
    pipeline_while_loop(&mut wn.func, body, &mdes, false).unwrap();
    let (out, _) = run(&w, &wn.func, &mdes);
    match out {
        RunOutcome::Trapped(t) => println!(
            "without .s: TRAP — {t}\n=> \"modulo scheduling of while loops depends on speculative support\" (paper §2)"
        ),
        o => println!("without .s: unexpected {o:?}"),
    }
}
