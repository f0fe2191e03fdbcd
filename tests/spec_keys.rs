//! Cross-layer spec-key stability.
//!
//! The canonical `JobSpec` encoding is the cache key for the serve
//! response cache, the bench grid's persistent store, and the CLI's
//! `--spec` reproduction path. Two contracts pin it:
//!
//! 1. **Golden hashes** — a corpus of representative specs must hash to
//!    the exact values in `tests/golden/spec_hashes.txt`. A change here
//!    silently invalidates every existing cache directory and breaks
//!    `--spec <hash>` lines quoted in old failure reports, so it must
//!    be deliberate: regenerate the golden file and call it out in the
//!    changelog.
//! 2. **Serve ≡ bench** — a serve `/v1/simulate` request and the bench
//!    grid cell for the same job derive byte-identical canonical keys,
//!    so a measurement cached by one layer is addressable from the
//!    other, and measure the same cycles, instructions and schedule.
//! 3. **Golden bodies** — `/v1/simulate` response bodies for one job
//!    under every engine label (and none) must match
//!    `tests/golden/simulate_bodies.txt` byte for byte, so swapping the
//!    machine behind a label cannot change what clients receive.

use sentinel::bench::grid::{Cell, GridSession};
use sentinel::serve::api::{ApiRequest, JobKind};
use sentinel::sim::cache::CacheConfig;
use sentinel::sim::Engine;
use sentinel::spec::{JobSpec, ProgramRef};
use sentinel::trace::json::{self, Value};
use sentinel_core::SchedulingModel;

/// A fixed inline program for source-keyed specs. Never reformat this
/// string: its bytes are part of the pinned hashes.
const SOURCE: &str = "@golden:\n  r1 = add r0, r0\n  halt\n";

/// Representative specs spanning every kind, program form, and knob.
fn corpus() -> Vec<JobSpec> {
    let mut specs = Vec::new();

    // The README's reproduce-by-hash example: suite wc, sentinel, w=4.
    specs.push(JobSpec::simulate(
        ProgramRef::Suite("wc".into()),
        SchedulingModel::Sentinel,
        4,
    ));
    // The most shared grid point: the base machine.
    specs.push(Cell::paper("cmp", SchedulingModel::RestrictedPercolation, 1).spec(Engine::Fast));
    // Every simulate knob off its default.
    let mut knobbed = Cell::paper("grep", SchedulingModel::SentinelStores, 8);
    knobbed.recovery = true;
    knobbed.store_buffer = 2;
    knobbed.cache = Some(CacheConfig {
        lines: 64,
        line_bytes: 32,
        miss_penalty: 20,
    });
    specs.push(knobbed.spec(Engine::Interpreter));
    // Source program with a memory image.
    let mut src = JobSpec::simulate(
        ProgramRef::Source(SOURCE.into()),
        SchedulingModel::GeneralPercolation,
        2,
    );
    src.map = vec![(0x1000, 0x100)];
    src.word = vec![(0x1000, 7), (0x1008, 9)];
    specs.push(src);
    // Compile, defaults and fully knobbed (boosting model).
    specs.push(JobSpec::compile(SOURCE, SchedulingModel::Sentinel, 8));
    let mut compile = JobSpec::compile(SOURCE, SchedulingModel::Boosting(3), 4);
    compile.recovery = true;
    compile.verify_passes = true;
    compile.emit = true;
    specs.push(compile);
    // A fuzz case (self-describing seeded program).
    specs.push(JobSpec::fuzz(
        42,
        SchedulingModel::SentinelStores,
        2,
        0.25,
        0.1,
    ));

    specs
}

fn render(specs: &[JobSpec]) -> String {
    let mut out = String::new();
    for s in specs {
        out.push_str(&format!("{} {}\n", s.hash_hex(), s.canonical()));
    }
    out
}

#[test]
fn golden_hashes_are_pinned() {
    let rendered = render(&corpus());
    let golden = include_str!("golden/spec_hashes.txt");
    assert_eq!(
        rendered, golden,
        "spec hashes drifted from tests/golden/spec_hashes.txt.\n\
         If this change is deliberate, regenerate the golden file with the\n\
         rendered lines below and note the cache invalidation in CHANGELOG.md:\n\
         \n{rendered}"
    );
}

#[test]
fn golden_specs_parse_back_to_themselves() {
    for spec in corpus() {
        let source = match &spec.program {
            ProgramRef::Source(s) => Some(s.as_str()),
            _ => None,
        };
        if !spec.map.is_empty() || !spec.word.is_empty() {
            // Memory images appear as digests in the canonical form —
            // they still key the cache, but are not reconstructible
            // from the string alone, and parsing must say so.
            assert!(JobSpec::parse_with_source(&spec.canonical(), source).is_err());
            continue;
        }
        let parsed = JobSpec::parse_with_source(&spec.canonical(), source).unwrap();
        assert_eq!(parsed, spec, "round trip of {}", spec.canonical());
        assert_eq!(parsed.content_hash(), spec.content_hash());
    }
}

#[test]
fn serve_and_bench_derive_identical_simulate_keys() {
    let req = ApiRequest::from_json(JobKind::Simulate, r#"{"suite":"wc","model":"S","width":4}"#)
        .unwrap();
    let cell = Cell::paper("wc", SchedulingModel::Sentinel, 4);
    assert_eq!(req.cache_key(), cell.spec(Engine::Fast).canonical());

    // And with non-default knobs on both sides.
    let req = ApiRequest::from_json(
        JobKind::Simulate,
        r#"{"suite":"grep","model":"T","width":8,"recovery":true,"engine":"interpreter"}"#,
    )
    .unwrap();
    let mut cell = Cell::paper("grep", SchedulingModel::SentinelStores, 8);
    cell.recovery = true;
    assert_eq!(req.cache_key(), cell.spec(Engine::Interpreter).canonical());
}

#[test]
fn serve_and_grid_measure_the_same_job() {
    let workloads = sentinel::workloads::suite::shared();
    let grid = GridSession::new(workloads.clone(), 1);
    let mut grep = Cell::paper("grep", SchedulingModel::SentinelStores, 8);
    grep.recovery = true;
    for (request, cell) in [
        (
            r#"{"suite":"wc","model":"S","width":4}"#,
            Cell::paper("wc", SchedulingModel::Sentinel, 4),
        ),
        (
            r#"{"suite":"grep","model":"T","width":8,"recovery":true}"#,
            grep,
        ),
        (
            r#"{"suite":"cmp","model":"B2","width":2}"#,
            Cell::paper("cmp", SchedulingModel::Boosting(2), 2),
        ),
    ] {
        let body = ApiRequest::from_json(JobKind::Simulate, request)
            .unwrap()
            .run(&workloads)
            .unwrap();
        let v = json::parse(&body).unwrap();
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap();
        let m = grid.measurement(cell);
        assert_eq!(num(&v, "cycles"), m.cycles, "{request}");
        assert_eq!(num(&v, "dyn_insns"), m.stats.dyn_insns, "{request}");
        let sched = v.get("sched").unwrap();
        let served = [
            "blocks",
            "speculated",
            "checks",
            "confirms",
            "pinned_stores",
            "renames",
            "clear_tags",
        ]
        .map(|key| num(sched, key) as usize);
        let s = m.sched;
        let measured = [
            s.blocks,
            s.speculated,
            s.checks_inserted,
            s.confirms_inserted,
            s.pinned_stores,
            s.renames,
            s.clear_tags,
        ];
        assert_eq!(served, measured, "{request}");
    }
}

#[test]
fn golden_simulate_bodies_are_pinned() {
    let golden = include_str!("golden/simulate_bodies.txt");
    let workloads = sentinel::workloads::suite::shared();
    let mut seen = 0;
    for line in golden.lines() {
        let (request, expected) = line
            .split_once(' ')
            .expect("golden line is '<request> <body>'");
        let body = ApiRequest::from_json(JobKind::Simulate, request)
            .unwrap()
            .run(&workloads)
            .unwrap();
        assert_eq!(
            body, expected,
            "/v1/simulate body for {request} drifted from tests/golden/simulate_bodies.txt"
        );
        seen += 1;
    }
    // No engine, then fast, turbo, and interpreter.
    assert_eq!(seen, 4);
}

#[test]
fn fuzz_case_specs_match_the_spec_constructor() {
    let case = sentinel::fuzz::FuzzCase {
        seed: 42,
        model: SchedulingModel::SentinelStores,
        width: 2,
        alias_frac: 0.25,
        trap_frac: 0.1,
    };
    let expected = JobSpec::fuzz(42, SchedulingModel::SentinelStores, 2, 0.25, 0.1);
    assert_eq!(case.spec(), expected);
    assert_eq!(case.spec().hash_hex(), expected.hash_hex());
}
