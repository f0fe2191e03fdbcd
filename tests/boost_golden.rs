//! Boosted runs, pinned.
//!
//! Instruction boosting (paper §2.3) holds boosted results in shadow
//! register files and shadow store buffers until their branches
//! resolve. Both machines route those rules through one shared module,
//! so the differential fuzzer cannot catch a slip in them: the engines
//! would slip together. This test pins what boosted runs do instead.
//!
//! Each point — a suite program, or a seeded trapping program built by
//! `fuzz_spec(seed, 0.25, 0.25)`, under B1, B2, B4 or B16 — is
//! scheduled, run on the interpreter and on the turbo machine, and
//! reduced to one line: the outcome (trap PC, reporter and kind), every
//! nonzero [`Stats`] field, and FNV-1a digests of the final registers with
//! their tags, the memory image, the execution profile and the PC
//! history. Both machines must produce the line, and it must match
//! `tests/golden/boost_runs.txt`.
//!
//! A debug build simulates every [`DEBUG_STRIDE`]-th point, which keeps
//! the tier-1 run short; a release build (`cargo test --release --test
//! boost_golden`, as CI runs it) simulates them all. Both check the
//! full list of point labels against the golden file.

use sentinel_bench::runner::apply_memory;
use sentinel_core::SchedulingModel;
use sentinel_isa::Reg;
use sentinel_sim::{Engine, RunOutcome, SimSessionBuilder, Stats};
use sentinel_spec::{fnv64, model_str, JobSpec, Prepared, ProgramRef};
use sentinel_trace::StallCounts;
use sentinel_workloads::{fuzz_spec, generate, suite, Workload};

/// The boosting depths pinned: A5's three plus the deepest serve offers.
const LEVELS: [u8; 4] = [1, 2, 4, 16];

/// Issue widths of the suite points: scalar, the paper's widest, and
/// serve's cap.
const SUITE_WIDTHS: [usize; 3] = [1, 8, 64];

/// Seeded trapping programs, each run under every depth in [`LEVELS`].
const FUZZ_SEEDS: u64 = 100;

/// Alias and trap fractions of the seeded programs.
const FUZZ_ALIAS: f64 = 0.25;
const FUZZ_TRAPS: f64 = 0.25;

/// A debug build simulates points `0, DEBUG_STRIDE, 2·DEBUG_STRIDE, …`.
const DEBUG_STRIDE: usize = if cfg!(debug_assertions) { 4 } else { 1 };

enum Program {
    /// Index into the shared suite.
    Suite(usize),
    /// A `fuzz_spec` seed.
    Fuzz(u64),
}

struct Point {
    label: String,
    program: Program,
    spec: JobSpec,
}

fn points() -> Vec<Point> {
    let mut out = Vec::new();
    for (i, w) in suite::shared().iter().enumerate() {
        for levels in LEVELS {
            let model = SchedulingModel::Boosting(levels);
            for width in SUITE_WIDTHS {
                for recovery in [false, true] {
                    out.push(Point {
                        label: format!(
                            "suite {} [{} x{width}{}]",
                            w.name,
                            model_str(model),
                            if recovery { " +recovery" } else { "" }
                        ),
                        program: Program::Suite(i),
                        spec: JobSpec {
                            recovery,
                            ..JobSpec::simulate(ProgramRef::Suite(w.name.clone()), model, width)
                        },
                    });
                }
            }
        }
    }
    for seed in 0..FUZZ_SEEDS {
        let width = [1, 2, 4, 8][seed as usize % 4];
        for levels in LEVELS {
            let model = SchedulingModel::Boosting(levels);
            out.push(Point {
                label: format!("fuzz seed={seed} [{} x{width}]", model_str(model)),
                program: Program::Fuzz(seed),
                spec: JobSpec::fuzz(seed, model, width, FUZZ_ALIAS, FUZZ_TRAPS),
            });
        }
    }
    out
}

/// Every nonzero `Stats` field as `name=value`, in declaration order; a
/// field left out is 0. The destructuring makes a new field a compile
/// error here.
fn stats_text(s: &Stats) -> String {
    let Stats {
        cycles,
        issuing_cycles,
        stalls,
        dyn_insns,
        dyn_speculative,
        dyn_checks,
        dyn_confirms,
        tag_sets,
        tag_propagations,
        silent_garbage_writes,
        branches,
        branches_taken,
        loads,
        stores,
        sb_releases,
        sb_cancels,
        sb_forwards,
        sb_stall_cycles,
        recoveries,
        dyn_boosted,
        shadow_commits,
        shadow_squashes,
    } = *s;
    let StallCounts {
        raw_interlock,
        fu_conflict,
        branch_limit,
        store_buffer_full,
        branch_redirect,
        sentinel_overhead,
        recovery,
    } = stalls;
    let fields = [
        ("cycles", cycles),
        ("issuing", issuing_cycles),
        ("stall.raw", raw_interlock),
        ("stall.fu", fu_conflict),
        ("stall.branch", branch_limit),
        ("stall.sb_full", store_buffer_full),
        ("stall.redirect", branch_redirect),
        ("stall.sentinel", sentinel_overhead),
        ("stall.recovery", recovery),
        ("insns", dyn_insns),
        ("spec", dyn_speculative),
        ("checks", dyn_checks),
        ("confirms", dyn_confirms),
        ("tag_sets", tag_sets),
        ("tag_props", tag_propagations),
        ("garbage", silent_garbage_writes),
        ("branches", branches),
        ("taken", branches_taken),
        ("loads", loads),
        ("stores", stores),
        ("sb_releases", sb_releases),
        ("sb_cancels", sb_cancels),
        ("sb_forwards", sb_forwards),
        ("sb_stalls", sb_stall_cycles),
        ("recoveries", recoveries),
        ("boosted", dyn_boosted),
        ("commits", shadow_commits),
        ("squashes", shadow_squashes),
    ];
    let parts: Vec<String> = fields
        .iter()
        .filter(|(_, v)| *v != 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    parts.join(" ")
}

/// Runs one session and renders everything it exposes after the run.
fn observe(session: SimSessionBuilder<'_>, w: &Workload, regs: (usize, usize)) -> String {
    let mut m = session.build();
    apply_memory(w, m.memory_mut());
    let outcome = match m.run() {
        Ok(RunOutcome::Halted) => "halted".to_string(),
        Ok(RunOutcome::Trapped(t)) => format!(
            "trap pc={} by={} kind={:?}",
            t.excepting_pc.0, t.reported_by.0, t.kind
        ),
        Err(e) => format!("error {e:?}"),
    };
    let mut reg_bytes = Vec::new();
    let all_regs = (0..regs.0).map(|i| Reg::int(i as u16));
    for r in all_regs.chain((0..regs.1).map(|i| Reg::fp(i as u16))) {
        let v = m.reg(r);
        reg_bytes.extend_from_slice(&v.data.to_le_bytes());
        reg_bytes.push(v.tag as u8);
    }
    let mut mem_bytes = Vec::new();
    for (addr, byte) in m.memory().snapshot() {
        mem_bytes.extend_from_slice(&addr.to_le_bytes());
        mem_bytes.push(byte);
    }
    // `Profile` holds std `HashMap`s, whose iteration order changes from
    // process to process: sort before hashing.
    let p = m.profile();
    let mut profile = Vec::new();
    for (tag, counts) in [
        (
            0u8,
            p.block_entries
                .iter()
                .map(|(b, n)| (b.0, *n))
                .collect::<Vec<_>>(),
        ),
        (
            1,
            p.branch_executed.iter().map(|(i, n)| (i.0, *n)).collect(),
        ),
        (2, p.branch_taken.iter().map(|(i, n)| (i.0, *n)).collect()),
    ] {
        let mut counts = counts;
        counts.sort_unstable();
        profile.push(tag);
        for (id, n) in counts {
            profile.extend_from_slice(&id.to_le_bytes());
            profile.extend_from_slice(&n.to_le_bytes());
        }
    }
    format!(
        "{outcome} {} regs={:016x} mem={:016x} profile={:016x} pcs={:016x}",
        stats_text(m.stats()),
        fnv64(&reg_bytes),
        fnv64(&mem_bytes),
        fnv64(&profile),
        fnv64(format!("{:?}", m.pc_history()).as_bytes()),
    )
}

/// Schedules and runs one point on both machines; both must agree.
fn render(point: &Point) -> String {
    let fuzz;
    let w = match point.program {
        Program::Suite(i) => &suite::shared()[i],
        Program::Fuzz(seed) => {
            fuzz = generate(&fuzz_spec(seed, FUZZ_ALIAS, FUZZ_TRAPS));
            &fuzz
        }
    };
    let mdes = point.spec.mdes();
    let prepared = match Prepared::compile(&w.func, &mdes, point.spec.sched_options()) {
        Ok(p) => p,
        Err(e) => return format!("{} schedule error: {e}", point.label),
    };
    // The register file is sized like the machines size it, so renamed
    // virtual registers are covered too.
    let (mi, mf) = prepared.func.max_reg_indices();
    let regs = (
        mdes.int_regs().max(mi.map_or(0, |i| i as usize + 1)),
        mdes.fp_regs().max(mf.map_or(0, |i| i as usize + 1)),
    );
    let cfg = point.spec.sim_config();
    let interp = observe(prepared.session(cfg.clone(), Engine::Interpreter), w, regs);
    let turbo = observe(prepared.session(cfg, Engine::Turbo), w, regs);
    assert_eq!(
        interp, turbo,
        "{}: the interpreter and turbo disagree",
        point.label
    );
    format!("{} {interp}", point.label)
}

#[test]
fn boosted_runs_match_the_golden_file() {
    let golden = include_str!("golden/boost_runs.txt");
    let points = points();
    let golden_lines: Vec<&str> = golden.lines().collect();
    let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
    let golden_labels: Vec<&str> = golden_lines
        .iter()
        .map(|l| &l[..l.find(']').map_or(l.len(), |i| i + 1)])
        .collect();
    let mut rendered = String::new();
    let mut first_diff = None;
    for (i, point) in points.iter().enumerate().step_by(DEBUG_STRIDE) {
        let line = render(point);
        if first_diff.is_none() && golden_lines.get(i) != Some(&line.as_str()) {
            first_diff = Some(format!(
                "golden:   {}\nrendered: {line}",
                golden_lines.get(i).unwrap_or(&"<missing>")
            ));
        }
        rendered.push_str(&line);
        rendered.push('\n');
    }
    if labels == golden_labels && first_diff.is_none() {
        return;
    }
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("boost_runs.txt");
    std::fs::write(&actual, &rendered).expect("write the rendered runs");
    panic!(
        "boosted runs drifted from tests/golden/boost_runs.txt; first difference:\n{}\n\
         The rendering is in {}; a release build renders every point. If the change is\n\
         deliberate, copy a release rendering over the golden file and say why in CHANGELOG.md.",
        first_diff.unwrap_or_else(|| format!(
            "the golden file lists {} points, the test {}; first differing label: {:?}",
            golden_labels.len(),
            labels.len(),
            labels.iter().zip(&golden_labels).find(|(l, g)| l != g)
        )),
        actual.display()
    );
}
