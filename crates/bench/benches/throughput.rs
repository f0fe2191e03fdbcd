//! Component throughput: scheduler, both execution machines, reference
//! interpreter, and assembler, measured on suite programs.
//!
//! The engine section is the headline: it runs every workload on the
//! interpretive oracle and the compiled turbo machine (which the `fast`
//! label also runs), **fails on any disagreement** (outcome, statistics,
//! live-out registers, memory), and reports simulated instructions per
//! second for each. Turbo runs reuse one decoded program per workload
//! (built outside the timed loop), matching the decode-once contract
//! the `ProgramCache` gives the grid and serve workers in production.
//! Each workload runs under the sentinel model (S) and under
//! instruction boosting (B4), both at issue 8, timed in the same
//! interleaved rounds; the S÷B4 ratio of their rates is the extra
//! per-instruction cost of boosted code, comparable within one run
//! even on a host whose speed drifts between runs.
//!
//! ```text
//! cargo bench --bench throughput                      # full run
//! cargo bench --bench throughput -- --quick           # CI smoke: verify + small IPS sample
//! cargo bench --bench throughput -- --quick --engine turbo
//! cargo bench --bench throughput -- --json BENCH_4.json
//! ```
//!
//! `--engine E` restricts the *timing* pass to one engine (the
//! verification pass always covers both); the JSON report carries a
//! column per timed engine.

use std::fmt::Write as _;

use sentinel_bench::figures::{
    ablation_boosting, ablation_cache, ablation_formation, ablation_recovery,
    ablation_register_pressure, ablation_store_buffer, ablation_unrolling, figure4, figure5,
    sentinel_overhead,
};
use sentinel_bench::grid::GridSession;
use sentinel_bench::runner::{apply_memory, prepare, MeasureConfig, Prepared};
use sentinel_bench::timing::{bench, group, time_interleaved, time_once};
use sentinel_core::{schedule_function, SchedOptions, SchedulingModel};
use sentinel_isa::MachineDesc;
use sentinel_prog::asm;
use sentinel_sim::reference::Reference;
use sentinel_sim::Engine;
use sentinel_spec::model_str;

use sentinel_workloads::{suite, Workload};

const ALL_ENGINES: [Engine; 2] = [Engine::Interpreter, Engine::Turbo];

struct Cli {
    quick: bool,
    json: Option<String>,
    /// Restrict the timing pass to one engine (`--engine E`).
    engine: Option<Engine>,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        quick: false,
        json: None,
        engine: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--json" => cli.json = it.next(),
            "--engine" => {
                let v = it.next().expect("--engine requires a value");
                cli.engine = Some(v.parse::<Engine>().expect("bad --engine"));
            }
            // `cargo bench` forwards its own flags (e.g. --bench); ignore.
            _ => {}
        }
    }
    cli
}

fn bench_scheduler() {
    group("scheduler");
    let mdes = MachineDesc::paper_issue(8);
    for name in ["grep", "fpppp"] {
        let w = suite::by_name(name).unwrap();
        println!("   ({} static insns)", w.func.insn_count());
        for model in SchedulingModel::all() {
            bench(&format!("{name}/{}", model.tag()), 20, || {
                schedule_function(&w.func, &mdes, &SchedOptions::new(model)).unwrap()
            });
        }
    }
}

/// The models the engine section runs, both at issue 8: the sentinel
/// model and instruction boosting at depth 4.
const ENGINE_MODELS: [SchedulingModel; 2] =
    [SchedulingModel::Sentinel, SchedulingModel::Boosting(4)];

/// Schedules `w` for `model` at issue 8.
fn sched_for(w: &Workload, model: SchedulingModel) -> (MeasureConfig, Prepared) {
    let cfg = MeasureConfig::paper(model, 8);
    let prepared = prepare(w, &cfg).unwrap();
    (cfg, prepared)
}

/// One full run of `prepared` on `engine`; returns dynamic
/// instructions. Turbo runs share the program's one decode — the steady
/// state every production path (grid, serve) reaches via the
/// `ProgramCache`.
fn run_once(w: &Workload, cfg: &MeasureConfig, prepared: &Prepared, engine: Engine) -> u64 {
    let mut m = prepared.session(cfg.sim_config(), engine).build();
    apply_memory(w, m.memory_mut());
    m.run().unwrap();
    m.stats().dyn_insns
}

/// Runs `w` on both engines and panics on any observable difference:
/// outcome, statistics, live-out registers, or final memory.
fn assert_engines_agree(w: &Workload, cfg: &MeasureConfig, prepared: &Prepared) {
    let mut states = Vec::new();
    for engine in ALL_ENGINES {
        let mut m = prepared.session(cfg.sim_config(), engine).build();
        apply_memory(w, m.memory_mut());
        let outcome = m.run().unwrap();
        let regs: Vec<u64> = w.live_out.iter().map(|&r| m.reg(r).data).collect();
        states.push((outcome, *m.stats(), regs, m.memory().snapshot()));
    }
    assert_eq!(
        states[0],
        states[1],
        "{} {}×8: turbo engine disagrees with the interpreter",
        w.name,
        model_str(cfg.model)
    );
}

/// Per-workload engine comparison row; an engine filtered out of the
/// timing pass has no entry.
struct EngineRow {
    name: String,
    model: SchedulingModel,
    dyn_insns: u64,
    /// (engine, simulated instructions per second), in `ALL_ENGINES`
    /// order, timed engines only.
    ips: Vec<(Engine, f64)>,
}

impl EngineRow {
    fn ips_of(&self, engine: Engine) -> Option<f64> {
        self.ips.iter().find(|(e, _)| *e == engine).map(|(_, v)| *v)
    }
}

fn bench_engines(quick: bool, only: Option<Engine>) -> Vec<EngineRow> {
    group("engines (S and B4, issue 8)");

    // Verification pass: the whole suite, both models, both engines.
    let workloads = suite::shared();
    for w in workloads.iter() {
        for model in ENGINE_MODELS {
            let (cfg, prepared) = sched_for(w, model);
            assert_engines_agree(w, &cfg, &prepared);
        }
    }
    println!(
        "   (both engines agree on all {} suite workloads under S and B4)",
        workloads.len()
    );

    // Timing pass.
    let timed: &[&str] = if quick {
        &["compress"]
    } else {
        &["compress", "grep", "yacc", "fpppp"]
    };
    let engines: Vec<Engine> = ALL_ENGINES
        .into_iter()
        .filter(|e| only.is_none_or(|o| o == *e))
        .collect();
    // Each timed sample runs `reps` back-to-back executions so one
    // sample spans several scheduler quanta — the min of single runs
    // otherwise just selects the luckiest interrupt-free window, which
    // is not the same luck for engines with different run lengths.
    let (rounds, reps) = if quick { (5, 2) } else { (150, 10) };
    let mut rows = Vec::new();
    for name in timed {
        let w = suite::by_name(name).unwrap();
        let points: Vec<(MeasureConfig, Prepared)> =
            ENGINE_MODELS.iter().map(|&m| sched_for(&w, m)).collect();
        let dyn_insns: Vec<u64> = points
            .iter()
            .map(|(cfg, prepared)| run_once(&w, cfg, prepared, Engine::Turbo))
            .collect();
        // Models and engines alternate within each timing round so host
        // contention cannot bias one whole sample block; the min is the
        // uncontended-time estimate for each.
        let mut fns: Vec<Box<dyn FnMut() + '_>> = Vec::new();
        for (cfg, prepared) in &points {
            for &engine in &engines {
                let w = &w;
                fns.push(Box::new(move || {
                    for _ in 0..reps {
                        std::hint::black_box(run_once(w, cfg, prepared, engine));
                    }
                }));
            }
        }
        let times = time_interleaved(rounds, &mut fns);
        let first = rows.len();
        for (i, (cfg, _)) in points.iter().enumerate() {
            let ips = engines
                .iter()
                .zip(&times[i * engines.len()..])
                .map(|(&e, t)| (e, (dyn_insns[i] * reps) as f64 / t.min.as_secs_f64()))
                .collect();
            rows.push(EngineRow {
                name: name.to_string(),
                model: cfg.model,
                dyn_insns: dyn_insns[i],
                ips,
            });
        }
        let [s, b4] = &rows[first..] else {
            unreachable!("one row per engine model")
        };
        for r in [s, b4] {
            let label = format!("{name} {}×8", model_str(r.model));
            let mut line = format!("{label:<16} {:>9} insns", r.dyn_insns);
            for &(engine, v) in &r.ips {
                let _ = write!(line, "   {engine} {:>6.1} Minsn/s", v / 1e6);
            }
            println!("{line}");
        }
        let mut line = format!("{:<32}", format!("{name} S÷B4"));
        for &(engine, v) in &b4.ips {
            let _ = write!(line, "   {engine} {:>6.2}", s.ips_of(engine).unwrap() / v);
        }
        println!("{line}");
    }
    rows
}

fn bench_reference() {
    group("reference interpreter");
    let w = suite::by_name("yacc").unwrap();
    bench("reference/yacc", 20, || {
        let mut r = Reference::new(&w.func);
        apply_memory(&w, r.memory_mut());
        r.run().unwrap()
    });
}

/// The full figure/ablation grid `reproduce all` evaluates (minus
/// printing and minus the modulo-pipelining study, which manages its
/// own engine-independent session).
fn reproduce_grid(engine: Engine) -> f64 {
    let mut session = GridSession::suite(sentinel_bench::grid::default_jobs());
    session.set_engine(engine);
    let ((), wall) = time_once(|| {
        figure4(&session);
        figure5(&session);
        ablation_store_buffer(&session, &[1, 2, 4, 8, 16, 32]);
        ablation_recovery(&session);
        ablation_formation(&session);
        ablation_boosting(&session);
        ablation_unrolling(&session, &[1, 2, 4]);
        ablation_cache(&session, &[0, 10, 20, 40]);
        ablation_register_pressure(&session);
        sentinel_overhead(&session, 2);
        sentinel_overhead(&session, 8);
    });
    wall.as_secs_f64()
}

fn bench_assembler() {
    group("assembler");
    let w = suite::by_name("compress").unwrap();
    let text = asm::print(&w.func);
    println!("   ({} bytes of assembly)", text.len());
    bench("print/compress", 50, || asm::print(&w.func));
    bench("parse/compress", 50, || asm::parse(&text).unwrap());
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

/// Geomean ratio of `num` over `den` across the S rows where both were
/// timed.
fn geomean_ratio(rows: &[EngineRow], num: Engine, den: Engine) -> Option<f64> {
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| r.model == SchedulingModel::Sentinel)
        .filter_map(|r| Some(r.ips_of(num)? / r.ips_of(den)?))
        .collect();
    (!ratios.is_empty()).then(|| geomean(ratios.iter().copied()))
}

fn write_json(path: &str, rows: &[EngineRow], grid: Option<[f64; 2]>) {
    let mut j = String::from("{\n  \"bench\": \"throughput\",\n  \"engines\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let mut fields = format!(
            "\"workload\": \"{}\", \"model\": \"{}\", \"dyn_insns\": {}",
            r.name,
            model_str(r.model),
            r.dyn_insns
        );
        for &(engine, ips) in &r.ips {
            let _ = write!(fields, ", \"{engine}_ips\": {ips:.0}");
        }
        let _ = writeln!(
            j,
            "    {{{fields}}}{}",
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    j.push_str("  ]");
    if let Some(gm) = geomean_ratio(rows, Engine::Turbo, Engine::Interpreter) {
        let _ = write!(j, ",\n  \"geomean_turbo_over_interpreter\": {gm:.2}");
    }
    if let Some([interp_s, turbo_s]) = grid {
        let _ = write!(
            j,
            ",\n  \"reproduce_grid\": {{\"interpreter_wall_s\": {interp_s:.2}, \
             \"turbo_wall_s\": {turbo_s:.2}, \"turbo_speedup\": {:.2}}}",
            interp_s / turbo_s
        );
    }
    j.push_str("\n}\n");
    std::fs::write(path, j).unwrap();
    println!("\nwrote {path}");
}

fn main() {
    let cli = parse_args();
    let rows = bench_engines(cli.quick, cli.engine);
    let mut grid = None;
    if !cli.quick {
        bench_scheduler();
        bench_reference();
        bench_assembler();
        group("reproduce grid (fig4+fig5+ablations), wall clock");
        let interp_s = reproduce_grid(Engine::Interpreter);
        println!("{:<36} {interp_s:>8.2}s", "grid/interpreter");
        let turbo_s = reproduce_grid(Engine::Turbo);
        println!("{:<36} {turbo_s:>8.2}s", "grid/turbo");
        grid = Some([interp_s, turbo_s]);
    }
    if let Some(path) = &cli.json {
        write_json(path, &rows, grid);
    }
}
