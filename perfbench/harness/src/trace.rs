//! Traced in-process runs: a workload's inputs driven through each
//! layer's public functions, with a span around every call.
//!
//! Nothing inside the program is instrumented. Where a layer's work
//! happens inside a call the benchmark cannot split (a figure
//! evaluating its grid cells, a job computing its response), the
//! children are timed by running their public pieces again on the same
//! inputs, and the parent's self time is its span minus those children.
//! Every traced run is single-threaded, so self times add up to the
//! traced wall time; what they miss is the `unattributed` row.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sentinel_bench::cache::{EVAL_COUNTER, HIT_COUNTER, MISS_COUNTER};
use sentinel_bench::figures;
use sentinel_bench::grid::{Cell, GridSession};
use sentinel_bench::report;
use sentinel_bench::runner::{apply_memory, prepare, semantics_for, Prepared};
use sentinel_core::{CompileSession, PassLog, SchedOptions, SchedulingModel, PASS_NAMES};
use sentinel_isa::MachineDesc;
use sentinel_prog::Function;
use sentinel_serve::api::{ApiError, ApiRequest, ApiResponse, JobKind, Program, SimProgramCache};
use sentinel_serve::cache::ResponseCache;
use sentinel_serve::http;
use sentinel_serve::server::{Handler, ServerConfig};
use sentinel_sim::{Engine, Memory, ProgramCache, SimConfig, SimSession, TurboProgram};
use sentinel_trace::serve::{CACHE_EVICT, CACHE_HIT, CACHE_MISS};
use sentinel_trace::sim::{SIM_PROGRAM_CACHE_HIT, SIM_PROGRAM_CACHE_MISS};
use sentinel_trace::SharedMetrics;
use sentinel_workloads::{generate, suite, Workload};

use crate::load::Sample;
use crate::stream::{Mix, Stream, WARM_JOBS};
use crate::{median, Metric};

/// Entry bound of the server's decoded-program cache
/// (`sentinel_serve::server`'s `PROGRAM_CACHE_CAPACITY`).
const SERVE_PROGRAM_CACHE: usize = 512;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, us(t.elapsed()))
}

/// Self times per call, by layer row name.
#[derive(Default)]
pub struct Ledger {
    rows: BTreeMap<String, Vec<f64>>,
}

impl Ledger {
    /// Records one call of `row` with `self_us` of self time.
    pub fn call(&mut self, row: &str, self_us: f64) {
        match self.rows.get_mut(row) {
            Some(calls) => calls.push(self_us),
            None => {
                self.rows.insert(row.to_string(), vec![self_us]);
            }
        }
    }

    /// Calls recorded for `row`.
    pub fn calls(&self, row: &str) -> usize {
        self.rows.get(row).map_or(0, Vec::len)
    }

    /// Total self time of `row`.
    pub fn total_us(&self, row: &str) -> f64 {
        self.rows.get(row).map_or(0.0, |v| v.iter().sum())
    }

    /// Median self time per call of `row` (0 without calls).
    pub fn median_us(&self, row: &str) -> f64 {
        self.rows.get(row).map_or(0.0, |v| median(v))
    }

    /// Total self time over every row.
    pub fn sum_us(&self) -> f64 {
        self.rows.values().flatten().sum()
    }
}

/// Compile and simulate of one schedule point, timed piece by piece.
#[derive(Default)]
struct Pieces {
    /// `(row, self µs)` in call order.
    calls: Vec<(&'static str, f64)>,
    /// Pass reports of the compile, if one ran.
    passes: Option<PassLog>,
    dyn_insns: u64,
}

impl Pieces {
    fn total_us(&self) -> f64 {
        self.calls.iter().map(|c| c.1).sum::<f64>()
            + self
                .passes
                .iter()
                .flat_map(|p| p.reports())
                .map(|r| us(r.wall))
                .sum::<f64>()
    }

    /// Moves the calls into `ledger`; the compile row's self time
    /// excludes its passes, which become rows of their own.
    fn book(self, ledger: &mut Ledger, counts: &mut Counts) {
        for (row, t) in self.calls {
            ledger.call(row, t);
        }
        if let Some(log) = self.passes {
            for r in log.reports() {
                ledger.call(&format!("compile.pass.{}.us", r.name), us(r.wall));
                *counts
                    .entry(format!("compile.pass.{}.runs", r.name))
                    .or_default() += f64::from(r.runs);
            }
        }
        *counts.entry("sim.dyn_insns".into()).or_default() += self.dyn_insns as f64;
    }
}

type Counts = BTreeMap<String, f64>;

/// Books one compile span of `t` µs with its pass log; the span's self
/// time excludes the passes, which become rows of their own.
fn book_compile(pieces: &mut Pieces, t: f64, log: PassLog) {
    let passes: f64 = log.reports().iter().map(|r| us(r.wall)).sum();
    pieces.calls.push(("compile.us", t - passes));
    pieces.passes = Some(log);
}

/// Times building and running one simulation of `func`.
fn sim_pieces(
    pieces: &mut Pieces,
    func: &Function,
    mdes: &MachineDesc,
    cfg: SimConfig,
    engine: Engine,
    turbo: Option<Arc<TurboProgram>>,
    memory: impl FnOnce(&mut Memory),
) {
    let program = match (engine, turbo) {
        (Engine::Turbo, Some(p)) => Some(p),
        (Engine::Turbo, None) => {
            let (p, t) = timed(|| Arc::new(TurboProgram::new(func, mdes)));
            pieces.calls.push(("sim.decode.us", t));
            Some(p)
        }
        _ => None,
    };
    let (mut m, t) = timed(|| {
        let builder = SimSession::for_function(func).config(cfg);
        let mut m = match program {
            Some(p) => builder.program(p).build(),
            None => builder.engine(engine).build(),
        };
        memory(m.memory_mut());
        m
    });
    pieces.calls.push(("sim.build.us", t));
    let (_, t) = timed(|| m.run());
    pieces.calls.push(("sim.run.us", t));
    pieces.dyn_insns += m.stats().dyn_insns;
}

/// One traced repetition's results.
struct Rep {
    ledger: Ledger,
    counts: Counts,
    traced_us: f64,
    untraced_us: f64,
}

/// Per-layer metrics of `reps`, each the median over repetitions, plus
/// `extra` metrics measured outside them. `layer` (`grid` or `serve`)
/// names the run whose `unattributed_frac` is measured; the other's is 0.
fn summarize(
    reps: &[Rep],
    layer: &str,
    extra: &[(&str, f64, &'static str)],
) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    let mut put = |name: String, values: Vec<f64>, unit: &'static str| {
        out.insert(
            name,
            Metric {
                value: median(&values),
                unit,
            },
        );
    };
    let per = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let mut timed_rows: Vec<String> = [
        "workloads.generate.us",
        "prog.asm_parse.us",
        "compile.us",
        "sim.decode.us",
        "sim.build.us",
        "sim.run.us",
        "spec.canonical.us",
        "spec.hash.us",
        "store.lookup.us",
        "store.insert.us",
        "grid.eval.us",
        "grid.nongrid.us",
        "grid.report.us",
        "serve.http_read.us",
        "serve.parse.us",
        "serve.execute.us",
        "serve.encode.us",
        "serve.http_write.us",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    timed_rows.extend(PASS_NAMES.iter().map(|p| format!("compile.pass.{p}.us")));
    for row in timed_rows {
        let values = per(&|r: &Rep| r.ledger.median_us(&row));
        put(row, values, "us");
    }
    for p in PASS_NAMES {
        let key = format!("compile.pass.{p}.runs");
        let values = per(&|r: &Rep| r.counts.get(&key).copied().unwrap_or(0.0));
        put(key, values, "count");
    }
    put(
        "compile.count".into(),
        per(&|r: &Rep| r.ledger.calls("compile.us") as f64),
        "count",
    );
    for (key, unit) in [
        ("sim.dyn_insns", "count"),
        ("sim.program_cache.hit_ratio", "ratio"),
        ("store.hit_ratio", "ratio"),
        ("store.evict", "count"),
        ("grid.cells_evaluated", "count"),
        ("grid.cell_cache.hit_ratio", "ratio"),
    ] {
        let values = per(&|r: &Rep| r.counts.get(key).copied().unwrap_or(0.0));
        put(key.into(), values, unit);
    }
    put(
        "sim.mips".into(),
        per(&|r: &Rep| {
            let run = r.ledger.total_us("sim.run.us");
            if run > 0.0 {
                r.counts.get("sim.dyn_insns").copied().unwrap_or(0.0) / run
            } else {
                0.0
            }
        }),
        "Minsn/s",
    );
    for l in ["grid", "serve"] {
        let values = if l == layer {
            per(&|r: &Rep| (r.traced_us - r.ledger.sum_us()) / r.traced_us)
        } else {
            vec![0.0]
        };
        put(format!("{l}.unattributed_frac"), values, "ratio");
    }
    put(
        "trace.wall_ms".into(),
        per(&|r: &Rep| r.traced_us / 1e3),
        "ms",
    );
    put(
        "trace.overhead_ms".into(),
        per(&|r: &Rep| (r.traced_us - r.untraced_us) / 1e3),
        "ms",
    );
    for &(name, value, unit) in extra {
        put(name.to_string(), vec![value], unit);
    }
    out
}

/// Prints the traced-run table of the last repetition on stderr: every
/// layer row by its metric name with calls, self time and share of the
/// traced wall time, then `unattributed` and the tracing overhead.
fn print_table(workload: &str, rep: &Rep) {
    let wall = rep.traced_us;
    eprintln!("perfbench: traced run of {workload} (single-threaded)");
    eprintln!("{:<44}{:>9}{:>14}{:>9}", "row", "calls", "self ms", "share");
    for (row, calls) in &rep.ledger.rows {
        let total: f64 = calls.iter().sum();
        eprintln!(
            "{row:<44}{:>9}{:>14.3}{:>8.1}%",
            calls.len(),
            total / 1e3,
            100.0 * total / wall
        );
    }
    let unattributed = wall - rep.ledger.sum_us();
    eprintln!(
        "{:<44}{:>9}{:>14.3}{:>8.1}%",
        "unattributed",
        "",
        unattributed / 1e3,
        100.0 * unattributed / wall
    );
    eprintln!(
        "{:<44}{:>9}{:>14.3}{:>8.1}%",
        "overhead (traced - untraced wall)",
        "",
        (wall - rep.untraced_us) / 1e3,
        100.0 * (wall - rep.untraced_us) / rep.untraced_us
    );
    eprintln!("{:<44}{:>9}{:>14.3}", "traced wall", "", wall / 1e3);
}

/// Which kind of `reproduce all` step a span covers.
#[derive(Clone, Copy)]
enum Step {
    Eval,
    NonGrid,
    Report,
}

impl Step {
    fn row(self) -> &'static str {
        match self {
            Step::Eval => "grid.eval.us",
            Step::NonGrid => "grid.nongrid.us",
            Step::Report => "grid.report.us",
        }
    }
}

/// The `reproduce all` sequence of figure, ablation and report calls,
/// on a session over `workloads`. `span` wraps every call; `reproduce`
/// itself prints what these return.
fn reproduce_all(session: &GridSession, span: &mut dyn FnMut(Step, &mut dyn FnMut())) {
    use SchedulingModel::{
        GeneralPercolation as G, RestrictedPercolation as R, Sentinel as S, SentinelStores as T,
    };
    let mut rows4 = Vec::new();
    span(Step::Eval, &mut || rows4 = figures::figure4(session));
    span(Step::Report, &mut || {
        let _ = report::speedup_table(&rows4, &[R, S]);
        let _ = report::improvement_summary(&rows4, S, R);
        let _ = report::stall_breakdown_table(&rows4, R, 8);
        let _ = report::stall_breakdown_table(&rows4, S, 8);
        let _ = report::failed_cell_report(&rows4);
    });
    let mut rows5 = Vec::new();
    span(Step::Eval, &mut || rows5 = figures::figure5(session));
    span(Step::Report, &mut || {
        let _ = report::speedup_table(&rows5, &[G, S, T]);
        let _ = report::improvement_summary(&rows5, S, G);
        let _ = report::improvement_summary(&rows5, T, S);
        let _ = report::stall_breakdown_table(&rows5, T, 8);
        let _ = report::failed_cell_report(&rows5);
    });
    span(Step::Eval, &mut || {
        figures::ablation_store_buffer(session, &[1, 2, 4, 8, 16, 32]);
    });
    span(Step::Eval, &mut || {
        figures::ablation_recovery(session);
    });
    span(Step::NonGrid, &mut || {
        figures::ablation_formation(session);
    });
    span(Step::Eval, &mut || {
        figures::ablation_boosting(session);
    });
    span(Step::NonGrid, &mut || {
        figures::ablation_unrolling(session, &[1, 2, 4]);
    });
    span(Step::Eval, &mut || {
        figures::ablation_cache(session, &[0, 10, 20, 40]);
    });
    span(Step::NonGrid, &mut || {
        figures::ablation_pipelining(session.jobs());
    });
    span(Step::NonGrid, &mut || {
        figures::ablation_register_pressure(session);
    });
    span(Step::Eval, &mut || {
        figures::sentinel_overhead(session, 2);
    });
    span(Step::Eval, &mut || {
        figures::sentinel_overhead(session, 8);
    });
}

fn grid_untraced() -> f64 {
    let (_, t) = timed(|| {
        let workloads: Vec<Workload> = suite::specs().iter().map(generate).collect();
        let session = GridSession::new(Arc::new(workloads), 1);
        reproduce_all(&session, &mut |_, f| f());
    });
    t
}

fn grid_traced() -> Rep {
    let mut ledger = Ledger::default();
    let mut counts = Counts::new();
    let start = Instant::now();
    let workloads: Vec<Workload> = suite::specs()
        .iter()
        .map(|s| {
            let (w, t) = timed(|| generate(s));
            ledger.call("workloads.generate.us", t);
            w
        })
        .collect();
    let mut session = GridSession::new(Arc::new(workloads), 1);
    // The fault hook sees every cell the session evaluates, in order;
    // it records the cell under the span that asked for it and never
    // injects a fault.
    let current = Arc::new(Mutex::new(0usize));
    let probed: Arc<Mutex<Vec<(Cell, usize)>>> = Arc::default();
    {
        let (current, probed) = (Arc::clone(&current), Arc::clone(&probed));
        session.set_fault_hook(Arc::new(move |c: &Cell| {
            let span = *current.lock().expect("span lock");
            probed.lock().expect("probe lock").push((c.clone(), span));
            false
        }));
    }
    let mut spans: Vec<(Step, f64)> = Vec::new();
    reproduce_all(&session, &mut |step, f| {
        *current.lock().expect("span lock") = spans.len();
        let (_, t) = timed(f);
        spans.push((step, t));
    });
    let traced_us = us(start.elapsed());

    // Children of each span: the compile and simulate of every cell it
    // evaluated, re-timed piece by piece on the same inputs.
    let engine = session.engine();
    let mut children = vec![0.0; spans.len()];
    let mut prepared: HashMap<u64, Prepared> = HashMap::new();
    let probed = std::mem::take(&mut *probed.lock().expect("probe lock"));
    for (cell, span) in probed {
        let w = session.workload(&cell.bench).expect("probed cell's bench");
        let mut cfg = cell.config();
        cfg.engine = engine;
        let mut pieces = Pieces::default();
        let (key, t) = timed(|| cell.spec(engine).schedule_hash());
        pieces.calls.push(("spec.hash.us", t));
        let p = prepared.entry(key).or_insert_with(|| {
            let (p, t) = timed(|| prepare(w, &cfg).expect("grid cells compile"));
            book_compile(&mut pieces, t, p.passes.clone());
            p
        });
        // Turbo decodes once per compiled program, on first use.
        let program = (engine == Engine::Turbo).then(|| {
            let first = !p.turbo_decoded();
            let (prog, t) = timed(|| p.turbo_program());
            if first {
                pieces.calls.push(("sim.decode.us", t));
            }
            prog
        });
        let mdes = cfg.mdes();
        sim_pieces(
            &mut pieces,
            &p.func,
            &mdes,
            cfg.sim_config(),
            engine,
            program,
            |m| apply_memory(w, m),
        );
        children[span] += pieces.total_us();
        pieces.book(&mut ledger, &mut counts);
    }
    for ((step, t), child) in spans.iter().zip(children) {
        ledger.call(step.row(), t - child);
    }

    let m = session.metrics();
    let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
    counts.insert(
        "grid.cells_evaluated".into(),
        m.counter(EVAL_COUNTER) as f64,
    );
    counts.insert(
        "grid.cell_cache.hit_ratio".into(),
        ratio(m.counter(HIT_COUNTER), m.counter(MISS_COUNTER)),
    );
    counts.insert(
        "sim.program_cache.hit_ratio".into(),
        ratio(
            m.counter(SIM_PROGRAM_CACHE_HIT),
            m.counter(SIM_PROGRAM_CACHE_MISS),
        ),
    );
    Rep {
        ledger,
        counts,
        traced_us,
        untraced_us: 0.0,
    }
}

/// The traced `reproduce all` run, repeated (alternating with an
/// untraced run) until `seconds` have passed, at least once.
pub fn grid(seconds: f64) -> BTreeMap<String, Metric> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps = Vec::new();
    while reps.is_empty() || Instant::now() < deadline {
        let untraced_us = grid_untraced();
        let mut rep = grid_traced();
        rep.untraced_us = untraced_us;
        reps.push(rep);
    }
    let mut by_wall: Vec<&Rep> = reps.iter().collect();
    by_wall.sort_by(|a, b| a.traced_us.total_cmp(&b.traced_us));
    print_table("grid (median repetition)", by_wall[by_wall.len() / 2]);
    let zeros: Vec<(&str, f64, &'static str)> =
        SERVE_ONLY.iter().map(|&(n, u)| (n, 0.0, u)).collect();
    summarize(&reps, "grid", &zeros)
}

/// Serve-layer metrics measured from the timed window, reported as 0
/// on the grid workload.
const SERVE_ONLY: [(&str, &str); 4] = [
    ("serve.connect.us", "us"),
    ("serve.outside_handler.us", "us"),
    ("serve.rejected", "count"),
    ("serve.reuse_rate", "ratio"),
];

/// The server's response path for one job, its steps called one by one:
/// `Handler::execute`'s cache key, lookup, compute and insert, over
/// caches of the server's sizes.
struct Mirror {
    suite: Arc<Vec<Workload>>,
    cache: ResponseCache,
    programs: SimProgramCache,
    metrics: SharedMetrics,
}

impl Mirror {
    /// A fresh mirror; with `steady`, both caches start full of
    /// unrelated entries, the state a long cold window runs in (every
    /// insert evicts).
    fn new(suite: Arc<Vec<Workload>>, steady: bool) -> Mirror {
        let metrics = SharedMetrics::new();
        let capacity = ServerConfig::default().cache_capacity;
        let m = Mirror {
            suite,
            cache: ResponseCache::new(capacity, metrics.clone()),
            programs: ProgramCache::with_metrics(SERVE_PROGRAM_CACHE, metrics.clone()),
            metrics,
        };
        if steady {
            fill_cache(&m.cache);
            for k in 0..SERVE_PROGRAM_CACHE as u64 {
                m.programs
                    .get_or_fill(u64::MAX - k, || Err(ApiError::bad("fill")));
            }
        }
        m
    }
}

/// Fills a response cache to capacity with keys no request uses.
fn fill_cache(cache: &ResponseCache) {
    for k in 0..ServerConfig::default().cache_capacity {
        cache.insert(format!("perfbench-fill-{k}"), String::new());
    }
}

/// One traced request: the route time (parse + execute + encode, what
/// `Handler::route` spends) and the execute span less its inline
/// children (key, lookup, insert).
struct Served {
    route_us: f64,
    execute_us: f64,
    computed: bool,
}

/// Serves one request through the mirror, recording a span per layer.
fn serve_traced(mirror: &Mirror, bytes: &[u8], ledger: &mut Ledger) -> Served {
    let (req, t) = timed(|| {
        http::read_request(&mut &bytes[..], http::DEFAULT_MAX_BODY_BYTES).expect("request reads")
    });
    ledger.call("serve.http_read.us", t);
    let kind = if req.path == JobKind::Compile.path() {
        JobKind::Compile
    } else {
        JobKind::Simulate
    };
    let (job, t_parse) = timed(|| {
        ApiRequest::from_json(kind, req.body_str().expect("UTF-8 body")).expect("request parses")
    });
    ledger.call("serve.parse.us", t_parse);
    let exec_start = Instant::now();
    let (key, t_key) = timed(|| job.cache_key());
    let (hit, t_lookup) = timed(|| mirror.cache.lookup(&key));
    let computed = hit.is_none();
    let mut t_insert = 0.0;
    let body = hit.unwrap_or_else(|| {
        let body = job
            .run_with_cache(&mirror.suite, Some(&mirror.programs))
            .expect("job computes");
        let ((), t) = timed(|| mirror.cache.insert(key, body.clone()));
        t_insert = t;
        body
    });
    let t_exec = us(exec_start.elapsed());
    ledger.call("spec.canonical.us", t_key);
    ledger.call("store.lookup.us", t_lookup);
    if computed {
        ledger.call("store.insert.us", t_insert);
    }
    let (resp, t_encode) = timed(|| ApiResponse::Result(body).into_http());
    ledger.call("serve.encode.us", t_encode);
    let mut out = Vec::new();
    let close = !req.persistent();
    let (_, t) = timed(|| http::write_response(&mut out, &resp, close).expect("write to memory"));
    ledger.call("serve.http_write.us", t);
    Served {
        route_us: t_parse + t_exec + t_encode,
        execute_us: t_exec - t_key - t_lookup - t_insert,
        computed,
    }
}

/// Compile and simulate children of a computed job, re-timed piece by
/// piece: the same parse, compile and simulation its response came from.
fn job_pieces(job: &ApiRequest, suite: &[Workload]) -> Pieces {
    let mut pieces = Pieces::default();
    let compile = |pieces: &mut Pieces, func: &Function, knobs: &sentinel_serve::api::Knobs| {
        let mdes = MachineDesc::builder().issue_width(knobs.width).build();
        let mut opts = SchedOptions::new(knobs.model);
        if knobs.recovery {
            opts = opts.with_recovery();
        }
        let ((session, scheduled), t) = timed(|| {
            let mut s = CompileSession::for_function(func)
                .mdes(&mdes)
                .options(opts)
                .build();
            let out = s.run().expect("benchmark jobs schedule");
            (s, out)
        });
        book_compile(pieces, t, session.log().clone());
        (scheduled.func, mdes)
    };
    match job {
        ApiRequest::Compile(r) => {
            let (func, t) = timed(|| sentinel_prog::asm::parse(&r.source).expect("source parses"));
            pieces.calls.push(("prog.asm_parse.us", t));
            compile(&mut pieces, &func, &r.knobs);
        }
        ApiRequest::Simulate(r) => {
            let Program::Suite(name) = &r.program else {
                unreachable!("benchmark streams simulate suite programs")
            };
            let w = suite.iter().find(|w| &w.name == name).expect("suite bench");
            let spec = job.to_spec();
            let (_, t) = timed(|| spec.schedule_hash());
            pieces.calls.push(("spec.hash.us", t));
            let (func, mdes) = compile(&mut pieces, &w.func, &r.knobs);
            let mut cfg = SimConfig::for_mdes(mdes.clone());
            cfg.semantics = semantics_for(r.knobs.model);
            sim_pieces(&mut pieces, &func, &mdes, cfg, r.engine, None, |m| {
                apply_memory(w, m)
            });
        }
    }
    pieces
}

/// What the timed window measured that the traced run reports.
pub struct WindowFacts<'a> {
    /// The window's samples.
    pub samples: &'a [Sample],
    /// Counter deltas of the server across the window.
    pub deltas: &'a BTreeMap<String, u64>,
}

/// Generates the suite as the server does at start-up, one span per
/// benchmark when `ledger` is given.
fn generate_suite(mut ledger: Option<&mut Ledger>) -> Arc<Vec<Workload>> {
    let suite = suite::specs()
        .iter()
        .map(|s| {
            let (w, t) = timed(|| generate(s));
            if let Some(l) = ledger.as_deref_mut() {
                l.call("workloads.generate.us", t);
            }
            w
        })
        .collect();
    Arc::new(suite)
}

/// The traced replay of a serve workload: suite generation (the
/// server's set-up), then the first `n` requests of the window's
/// stream through the mirrored response path — after the replayed set
/// is cached, for serve_connect. Client latencies of the same requests
/// give the time spent outside the handler.
pub fn serve(stream: &Stream, n: u64, facts: &WindowFacts<'_>) -> BTreeMap<String, Metric> {
    let keep_alive = stream.mix().keep_alive();
    let cold = stream.mix() == Mix::Cold;
    let requests: Vec<Vec<u8>> = (0..n)
        .map(|i| stream.request(i).http_bytes(keep_alive))
        .collect();
    let replay_set: Vec<Vec<u8>> = if cold {
        Vec::new()
    } else {
        (0..WARM_JOBS)
            .map(|j| stream.job(j).http_bytes(true))
            .collect()
    };

    // Untraced: the server's own route (`Handler::route`) over the
    // same bytes, on a handler with its own caches.
    let (suite, untraced_gen) = timed(|| generate_suite(None));
    let cfg = ServerConfig::default();
    let cache = Arc::new(ResponseCache::new(cfg.cache_capacity, SharedMetrics::new()));
    if cold {
        fill_cache(&cache);
    }
    let handler = Handler::new(SharedMetrics::new(), cache, suite, cfg.batch_max_jobs, None);
    let route = |bytes: &[u8]| {
        let req = http::read_request(&mut &bytes[..], cfg.max_body).expect("request reads");
        let resp = handler.route(&req);
        let mut out = Vec::new();
        http::write_response(&mut out, &resp, !req.persistent()).expect("write to memory");
        out
    };

    let mut ledger = Ledger::default();
    let mut counts = Counts::new();
    let (suite, traced_gen) = timed(|| generate_suite(Some(&mut ledger)));
    let mirror = Mirror::new(suite, cold);
    let mut scratch = Ledger::default();
    for bytes in &replay_set {
        route(bytes);
        serve_traced(&mirror, bytes, &mut scratch);
    }
    let before = |k: &str| mirror.metrics.counter(k);
    let (evict0, hit0, miss0) = (
        before(CACHE_EVICT),
        before(SIM_PROGRAM_CACHE_HIT),
        before(SIM_PROGRAM_CACHE_MISS),
    );
    let (store_hit0, store_miss0) = (before(CACHE_HIT), before(CACHE_MISS));

    // Request by request, the untraced route, the traced path and the
    // re-timed compute children run side by side, alternating which
    // comes first, so drift in the machine's speed hits all three alike.
    let (mut traced_us, mut untraced_us) = (traced_gen, untraced_gen);
    let mut route_us = Vec::with_capacity(requests.len());
    for (i, bytes) in requests.iter().enumerate() {
        let pieces_of = || job_pieces(&stream.request(i as u64).job(), &mirror.suite);
        let first = i % 2 == 0;
        let mut pieces = None;
        if first {
            untraced_us += timed(|| route(bytes)).1;
        } else if cold {
            pieces = Some(pieces_of());
        }
        let (served, t) = timed(|| serve_traced(&mirror, bytes, &mut ledger));
        traced_us += t;
        if first {
            if served.computed {
                pieces = Some(pieces_of());
            }
        } else {
            untraced_us += timed(|| route(bytes)).1;
        }
        // The execute span's self time: less the compute children of a
        // job that missed.
        let mut own = served.execute_us;
        if served.computed {
            let p = pieces.unwrap_or_else(pieces_of);
            own -= p.total_us();
            p.book(&mut ledger, &mut counts);
        }
        ledger.call("serve.execute.us", own);
        route_us.push(served.route_us);
    }
    let after = |k: &str| mirror.metrics.counter(k);
    counts.insert("store.evict".into(), (after(CACHE_EVICT) - evict0) as f64);
    let (hits, misses) = (
        after(SIM_PROGRAM_CACHE_HIT) - hit0,
        after(SIM_PROGRAM_CACHE_MISS) - miss0,
    );
    counts.insert(
        "sim.program_cache.hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let (store_hits, store_misses) = (
        after(CACHE_HIT) - store_hit0,
        after(CACHE_MISS) - store_miss0,
    );
    counts.insert(
        "store.hit_ratio".into(),
        store_hits as f64 / (store_hits + store_misses).max(1) as f64,
    );

    // Outside the handler: the client's latency for request i minus
    // the in-process route time of the same request.
    let latency: HashMap<u64, f64> = facts
        .samples
        .iter()
        .map(|s| (s.index, s.latency_us))
        .collect();
    let outside: Vec<f64> = route_us
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some(latency.get(&(i as u64))? - r))
        .collect();
    let connects: Vec<f64> = facts.samples.iter().filter_map(|s| s.connect_us).collect();
    let d = |k: &str| facts.deltas.get(k).copied().unwrap_or(0) as f64;
    // The closing scrape is one request the clients did not send.
    let requests_served = (d("serve_http_requests") - 1.0).max(1.0);
    let extra = [
        ("serve.connect.us", median(&connects), "us"),
        ("serve.outside_handler.us", median(&outside), "us"),
        ("serve.rejected", d("serve_queue_rejected"), "count"),
        (
            "serve.reuse_rate",
            d("serve_http_reused") / requests_served,
            "ratio",
        ),
        ("grid.cells_evaluated", 0.0, "count"),
        ("grid.cell_cache.hit_ratio", 0.0, "ratio"),
    ];
    let rep = Rep {
        ledger,
        counts,
        traced_us,
        untraced_us,
    };
    print_table(stream.mix().name(), &rep);
    summarize(std::slice::from_ref(&rep), "serve", &extra)
}
