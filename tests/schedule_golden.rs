//! The scheduler's output, pinned.
//!
//! Every schedule point `reproduce all` compiles, the ×2/×4-unrolled
//! programs of ablation A6, a few seeded generated programs built the
//! way the serve benchmark's `/v1/compile` stream builds them, and a set
//! of stress blocks the suite never reaches (Figure 3, seeded random
//! blocks with `jsr`/`io` barriers and self-overwrites, and two
//! 511-instruction blocks at serve's block limit) are compiled here, and
//! each scheduled function is reduced to one line:
//! the point, the FNV-1a hash of its `asm::print` text, and its
//! [`SchedStats`]. The lines must match `tests/golden/schedules.txt`.
//! The same loop pins each compile's [`PassLog`] in
//! `tests/golden/pass_logs.txt`: the point, its total pass runs, and a
//! digest of every report without wall times (name, runs, IR delta,
//! diagnostics), since the grid's `compile.pass.*` metrics, serve's
//! `passes` field and `sentinel compile --explain` all read that log.
//!
//! The figures only see cycle counts, so a scheduler change that
//! reorders instructions without changing a count passes every figure
//! test; this one does not. A performance change to the compiler's data
//! structures must leave the file untouched. A deliberate scheduling
//! change regenerates it (the failure message names the file the new
//! rendering was written to) and says why in the changelog.

use sentinel_bench::grid::Cell;
use sentinel_bench::runner::{prepare, MeasureConfig};
use sentinel_core::{CompileSession, PassLog, SchedOptions, SchedStats, SchedulingModel};
use sentinel_isa::{Insn, MachineDesc, Opcode, Reg};
use sentinel_prog::superblock::unroll_all_loops;
use sentinel_prog::{asm, examples, Function, ProgramBuilder};
use sentinel_spec::{fnv64, model_str};
use sentinel_workloads::{generate, suite, Rng, Workload};

const R: SchedulingModel = SchedulingModel::RestrictedPercolation;
const G: SchedulingModel = SchedulingModel::GeneralPercolation;
const S: SchedulingModel = SchedulingModel::Sentinel;
const T: SchedulingModel = SchedulingModel::SentinelStores;

/// Generated programs per suite benchmark.
const GENERATED_PER_BENCH: u64 = 2;

/// The distinct schedule points of `reproduce all`, per benchmark: the
/// base machine, Figures 4 and 5, ablation A1's store-buffer sizes
/// (N = 8 is Figure 5's T×8), A2's recovery point, and A5's boosting
/// levels. A7 (data cache) and A3 (sentinel overhead) reuse these
/// points; the cache is timing-only and does not reach the scheduler.
fn grid_points(bench: &str) -> Vec<Cell> {
    let mut cells = vec![Cell::base(bench)];
    for model in [R, S, G, T] {
        for width in [2, 4, 8] {
            cells.push(Cell::paper(bench, model, width));
        }
    }
    for store_buffer in [1, 2, 4, 16, 32] {
        let mut cell = Cell::paper(bench, T, 8);
        cell.store_buffer = store_buffer;
        cells.push(cell);
    }
    let mut rec = Cell::paper(bench, S, 8);
    rec.recovery = true;
    cells.push(rec);
    for levels in [1, 2, 4] {
        cells.push(Cell::paper(bench, SchedulingModel::Boosting(levels), 8));
    }
    cells
}

/// One point's lines: its schedule line and its pass-log line.
struct Lines {
    schedule: String,
    passes: String,
}

fn line(point: &str, func: &Function, s: &SchedStats, log: &PassLog) -> Lines {
    let schedule = format!(
        "{point} asm={:016x} blocks={} speculated={} checks={} confirms={} pinned_stores={} \
         renames={} clear_tags={}\n",
        fnv64(asm::print(func).as_bytes()),
        s.blocks,
        s.speculated,
        s.checks_inserted,
        s.confirms_inserted,
        s.pinned_stores,
        s.renames,
        s.clear_tags,
    );
    Lines {
        schedule,
        passes: format!(
            "{point} runs={} log={:016x}\n",
            log.total_runs(),
            fnv64(log_text(log).as_bytes())
        ),
    }
}

/// A pass log without its wall times: per report in order, the name,
/// runs and IR delta, then each diagnostic on its own line.
fn log_text(log: &PassLog) -> String {
    let mut out = String::new();
    for r in log.reports() {
        out.push_str(&format!(
            "{} {} +{} -{} +{}\n",
            r.name, r.runs, r.delta.insns_added, r.delta.insns_removed, r.delta.marked_speculative
        ));
        for d in &r.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
    }
    out
}

/// A grid point's label in the golden file: `Cell`'s rendering, but with
/// the model spelled by its paper tag, so every boosting depth reads `B`
/// as it did when the file was pinned.
fn grid_label(cell: &Cell) -> String {
    let tag = |m: &str| format!("[{m} ");
    format!("grid {cell}").replacen(&tag(&model_str(cell.model)), &tag(cell.model.tag()), 1)
}

fn compile_cell(w: &Workload, cfg: &MeasureConfig, point: &str) -> Lines {
    let p = prepare(w, cfg).unwrap_or_else(|e| panic!("{point}: {e}"));
    line(point, &p.func, &p.sched, &p.passes)
}

/// A generated program as a `/v1/compile` request carries it: a suite
/// benchmark's generator parameters under a fresh seed, printed and
/// parsed back, scheduled with seeded knobs on the service's machine.
fn compile_generated(spec_index: usize, n: u64) -> Lines {
    let specs = suite::specs();
    let seed = fnv64(&(spec_index as u64 * 1_000 + n).to_le_bytes());
    let mut spec = specs[spec_index].clone();
    spec.seed = seed;
    let func = asm::parse(&asm::print(&generate(&spec).func)).expect("printed program parses");
    let mut rng = Rng::seed_from_u64(seed);
    let model = match rng.gen_below(5) {
        0 => R,
        1 => G,
        2 => S,
        3 => T,
        _ => SchedulingModel::Boosting(1 + rng.gen_below(16) as u8),
    };
    let width = 1 + rng.gen_below(64) as usize;
    let recovery = rng.gen_bool(0.5);
    let mut opts = SchedOptions::new(model);
    if recovery {
        opts = opts.with_recovery();
    }
    let point = format!(
        "gen {} seed={seed:016x} [{} x{width}{}]",
        spec.name,
        model.tag(),
        if recovery { " +recovery" } else { "" }
    );
    let mdes = MachineDesc::builder().issue_width(width).build();
    let mut session = CompileSession::for_function(&func)
        .mdes(&mdes)
        .options(opts)
        .build();
    let scheduled = session.run().unwrap_or_else(|e| panic!("{point}: {e}"));
    line(&point, &scheduled.func, &scheduled.stats, session.log())
}

/// Seeded random superblocks among the stress blocks.
const RANDOM_BLOCKS: u64 = 32;

/// One superblock of `n` × (`addi`, `ld`, `beq … exit`): `n` = 170 is the
/// 511-instruction block serve's block-limit test compiles.
fn ld_beq_chain(n: usize) -> Function {
    let mut src = String::from("func @ld_beq_chain {\nentry:\n");
    for _ in 0..n {
        src.push_str("    addi r1, r1, 8\n    ld r2, 0(r1)\n    beq r2, r0, exit\n");
    }
    src.push_str("    halt\nexit:\n    halt\n}\n");
    asm::parse(&src).expect("chain parses")
}

/// One superblock of `n` × (`st` on base r1, `ld` on base r2): every
/// load may alias every earlier store.
fn st_ld_block(n: usize) -> Function {
    let mut src = String::from("func @st_ld {\nentry:\n");
    for k in 0..n {
        src.push_str(&format!(
            "    st r{}, {}(r1)\n    ld r{}, {}(r2)\n",
            4 + k % 8,
            8 * k,
            4 + (k + 1) % 8,
            8 * k
        ));
    }
    src.push_str("    halt\n}\n");
    asm::parse(&src).expect("block parses")
}

/// A seeded random superblock over eight registers: conditional side
/// exits to two blocks with different live-in sets, `jsr` and `io`
/// barriers, loads and stores on three bases, `div`, and self-overwriting
/// `mov`, `addi` and `ld` (the last never renamable under recovery).
fn random_block(seed: u64) -> Function {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(format!("rand{seed}"));
    let entry = b.block("entry");
    let exits = [b.block("exit0"), b.block("exit1")];
    b.switch_to(entry);
    let reg = |rng: &mut Rng| Reg::int(1 + rng.gen_below(8) as u16);
    for _ in 0..rng.gen_range_usize(8, 48) {
        let insn = match rng.gen_below(16) {
            0..=2 => {
                let op =
                    [Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bge][rng.gen_below(4) as usize];
                let target = exits[rng.gen_below(2) as usize];
                Insn::branch(op, reg(&mut rng), Reg::ZERO, target)
            }
            3 => Insn::jsr(),
            4 => Insn::io(),
            5 | 6 => {
                let base = Reg::int(9 + rng.gen_below(3) as u16);
                Insn::ld_w(reg(&mut rng), base, 8 * rng.gen_below(4) as i64)
            }
            7 | 8 => {
                let base = Reg::int(9 + rng.gen_below(3) as u16);
                Insn::st_w(reg(&mut rng), base, 8 * rng.gen_below(4) as i64)
            }
            9 => Insn::alu(Opcode::Div, reg(&mut rng), reg(&mut rng), reg(&mut rng)),
            10 => {
                let r = reg(&mut rng);
                Insn::mov(r, r)
            }
            11 | 12 => {
                let r = reg(&mut rng);
                Insn::addi(r, r, 8)
            }
            13 => {
                let r = reg(&mut rng);
                Insn::ld_w(r, r, 0)
            }
            _ => Insn::alu(Opcode::Add, reg(&mut rng), reg(&mut rng), reg(&mut rng)),
        };
        b.push(insn);
    }
    b.push(Insn::halt());
    b.switch_to(exits[0]);
    b.push(Insn::alu(
        Opcode::Add,
        Reg::int(12),
        Reg::int(1),
        Reg::int(2),
    ));
    b.push(Insn::halt());
    b.switch_to(exits[1]);
    b.push(Insn::st_w(Reg::int(3), Reg::int(4), 0));
    b.push(Insn::halt());
    b.finish()
}

/// Each stress block under every model (boosting at depths 1, 2, 4 and
/// 16), at issue widths 1, 8 and 64, with recovery off and on.
fn compile_stress(name: &str, func: &Function, out: &mut Rendered) {
    let models = [
        R,
        G,
        S,
        T,
        SchedulingModel::Boosting(1),
        SchedulingModel::Boosting(2),
        SchedulingModel::Boosting(4),
        SchedulingModel::Boosting(16),
    ];
    for model in models {
        for width in [1, 8, 64] {
            for recovery in [false, true] {
                let mut opts = SchedOptions::new(model);
                if recovery {
                    opts = opts.with_recovery();
                }
                let point = format!(
                    "stress {name} [{} x{width}{}]",
                    model_str(model),
                    if recovery { " +recovery" } else { "" }
                );
                let mdes = MachineDesc::paper_issue(width);
                let mut session = CompileSession::for_function(func)
                    .mdes(&mdes)
                    .options(opts)
                    .build();
                let scheduled = session.run().unwrap_or_else(|e| panic!("{point}: {e}"));
                out.push(line(
                    &point,
                    &scheduled.func,
                    &scheduled.stats,
                    session.log(),
                ));
            }
        }
    }
}

/// The renderings of both golden files: schedules, then pass logs.
#[derive(Default)]
struct Rendered {
    schedules: String,
    passes: String,
}

impl Rendered {
    fn push(&mut self, lines: Lines) {
        self.schedules.push_str(&lines.schedule);
        self.passes.push_str(&lines.passes);
    }
}

fn render() -> Rendered {
    let workloads = suite::shared();
    let mut out = Rendered::default();
    for w in workloads.iter() {
        for cell in grid_points(&w.name) {
            out.push(compile_cell(w, &cell.config(), &grid_label(&cell)));
        }
    }
    for w in workloads.iter() {
        for factor in [2, 4] {
            let mut unrolled = w.clone();
            unroll_all_loops(&mut unrolled.func, factor);
            let point = format!("unroll x{factor} {}", Cell::paper(&w.name, S, 8));
            out.push(compile_cell(&unrolled, &MeasureConfig::paper(S, 8), &point));
        }
    }
    for spec_index in 0..suite::specs().len() {
        for n in 0..GENERATED_PER_BENCH {
            out.push(compile_generated(spec_index, n));
        }
    }
    compile_stress("figure3", &examples::figure3(), &mut out);
    for seed in 0..RANDOM_BLOCKS {
        compile_stress(&format!("rand{seed:02}"), &random_block(seed), &mut out);
    }
    compile_stress("ld_beq_chain", &ld_beq_chain(170), &mut out);
    compile_stress("st_ld", &st_ld_block(255), &mut out);
    out
}

/// `None` when `rendered` matches the golden file `name`; otherwise the
/// first differing line, with the full rendering written next to the
/// test binary's scratch files.
fn drift(name: &str, golden: &str, rendered: &str) -> Option<String> {
    if rendered == golden {
        return None;
    }
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&actual, rendered).expect("write the rendering");
    let first = golden
        .lines()
        .zip(rendered.lines())
        .find(|(g, r)| g != r)
        .map(|(g, r)| format!("golden:   {g}\nrendered: {r}"))
        .unwrap_or_else(|| {
            format!(
                "golden has {} lines, rendered has {}",
                golden.lines().count(),
                rendered.lines().count()
            )
        });
    Some(format!(
        "tests/golden/{name} drifted; first difference:\n{first}\n\
         The full rendering is in {}. If the change is deliberate, copy it over the\n\
         golden file and say why in CHANGELOG.md.",
        actual.display()
    ))
}

#[test]
fn schedules_match_the_golden_file() {
    // One compile per point feeds both files.
    let rendered = render();
    let drifts: Vec<String> = [
        (
            "schedules.txt",
            include_str!("golden/schedules.txt"),
            &rendered.schedules,
        ),
        (
            "pass_logs.txt",
            include_str!("golden/pass_logs.txt"),
            &rendered.passes,
        ),
    ]
    .into_iter()
    .filter_map(|(name, golden, r)| drift(name, golden, r))
    .collect();
    assert!(drifts.is_empty(), "{}", drifts.join("\n\n"));
}

#[test]
fn grid_points_are_the_374_reproduce_all_compiles() {
    // `reproduce all` reports 374 compiles on stderr: one per distinct
    // schedule hash, 22 per benchmark.
    let mut hashes = std::collections::HashSet::new();
    for w in suite::specs() {
        for cell in grid_points(w.name) {
            assert!(hashes.insert(cell.spec(sentinel_sim::Engine::Fast).schedule_hash()));
        }
    }
    assert_eq!(hashes.len(), 374);
    let golden = include_str!("golden/schedules.txt");
    let count = |prefix: &str| golden.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(count("grid "), 374);
    assert_eq!(count("unroll "), 34);
    // Figure 3, the random blocks and the two big blocks, 48 points each.
    assert_eq!(count("stress "), (3 + RANDOM_BLOCKS as usize) * 48);
    // The pass-log file names the same points in the same order.
    let labels = |text: &'static str, sep: &str| -> Vec<&'static str> {
        text.lines().map(|l| l.split(sep).next().unwrap()).collect()
    };
    assert_eq!(
        labels(golden, " asm="),
        labels(include_str!("golden/pass_logs.txt"), " runs=")
    );
}
