//! The scheduler's output, pinned.
//!
//! Every schedule point `reproduce all` compiles, the ×2/×4-unrolled
//! programs of ablation A6, and a few seeded generated programs built
//! the way the serve benchmark's `/v1/compile` stream builds them are
//! compiled here, and each scheduled function is reduced to one line:
//! the point, the FNV-1a hash of its `asm::print` text, and its
//! [`SchedStats`]. The lines must match `tests/golden/schedules.txt`.
//!
//! The figures only see cycle counts, so a scheduler change that
//! reorders instructions without changing a count passes every figure
//! test; this one does not. A performance change to the compiler's data
//! structures must leave the file untouched. A deliberate scheduling
//! change regenerates it (the failure message names the file the new
//! rendering was written to) and says why in the changelog.

use sentinel_bench::grid::Cell;
use sentinel_bench::runner::{prepare, MeasureConfig};
use sentinel_core::{CompileSession, SchedOptions, SchedStats, SchedulingModel};
use sentinel_isa::MachineDesc;
use sentinel_prog::superblock::unroll_all_loops;
use sentinel_prog::{asm, Function};
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

fn line(point: &str, func: &Function, s: &SchedStats) -> String {
    format!(
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
    )
}

/// A grid point's label in the golden file: `Cell`'s rendering, but with
/// the model spelled by its paper tag, so every boosting depth reads `B`
/// as it did when the file was pinned.
fn grid_label(cell: &Cell) -> String {
    let tag = |m: &str| format!("[{m} ");
    format!("grid {cell}").replacen(&tag(&model_str(cell.model)), &tag(cell.model.tag()), 1)
}

fn compile_cell(w: &Workload, cfg: &MeasureConfig, point: &str) -> String {
    let p = prepare(w, cfg).unwrap_or_else(|e| panic!("{point}: {e}"));
    line(point, &p.func, &p.sched)
}

/// A generated program as a `/v1/compile` request carries it: a suite
/// benchmark's generator parameters under a fresh seed, printed and
/// parsed back, scheduled with seeded knobs on the service's machine.
fn compile_generated(spec_index: usize, n: u64) -> String {
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
    let scheduled = CompileSession::for_function(&func)
        .mdes(&mdes)
        .options(opts)
        .build()
        .run()
        .unwrap_or_else(|e| panic!("{point}: {e}"));
    line(&point, &scheduled.func, &scheduled.stats)
}

fn render() -> String {
    let workloads = suite::shared();
    let mut out = String::new();
    for w in workloads.iter() {
        for cell in grid_points(&w.name) {
            out.push_str(&compile_cell(w, &cell.config(), &grid_label(&cell)));
        }
    }
    for w in workloads.iter() {
        for factor in [2, 4] {
            let mut unrolled = w.clone();
            unroll_all_loops(&mut unrolled.func, factor);
            let point = format!("unroll x{factor} {}", Cell::paper(&w.name, S, 8));
            out.push_str(&compile_cell(
                &unrolled,
                &MeasureConfig::paper(S, 8),
                &point,
            ));
        }
    }
    for spec_index in 0..suite::specs().len() {
        for n in 0..GENERATED_PER_BENCH {
            out.push_str(&compile_generated(spec_index, n));
        }
    }
    out
}

#[test]
fn schedules_match_the_golden_file() {
    let rendered = render();
    let golden = include_str!("golden/schedules.txt");
    if rendered == golden {
        return;
    }
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("schedules.txt");
    std::fs::write(&actual, &rendered).expect("write the rendered schedules");
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
    panic!(
        "scheduled code drifted from tests/golden/schedules.txt; first difference:\n{first}\n\
         The full rendering is in {}. If the change is deliberate, copy it over the\n\
         golden file and say why in CHANGELOG.md.",
        actual.display()
    );
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
}
