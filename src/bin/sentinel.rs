//! The `sentinel` command-line tool: assemble, disassemble, validate,
//! schedule, and run programs in the reproduction's ISA.
//!
//! ```text
//! sentinel check     prog.sasm
//! sentinel asm       prog.sasm -o prog.sobj
//! sentinel disasm    prog.sobj
//! sentinel info      prog.sasm
//! sentinel compile   prog.sasm --model S --issue 8 [--recovery] [--allocate] [--clear-uninit]
//!                    [--mdes FILE] [--explain] [--verify-passes] [-o out.sasm]
//!                    (or: --spec HASH|CANONICAL [--cache-dir DIR]; `schedule` is the same)
//! sentinel simulate  --suite NAME | prog.sasm | --spec HASH|CANONICAL
//!                    [--model M] [--issue N] [--engine fast|interpreter|turbo]
//!                    [--recovery] [--cache-dir DIR]
//! sentinel run       prog.sasm [--issue N] [--semantics tags|silent|nan]
//!                    [--map START:LEN]... [--word ADDR=VAL]... [--reg rN=VAL]...
//!                    [--print rN]... [--base]
//! sentinel trace     prog.sasm --model S --issue 8 --format chrome|jsonl|timeline
//!                    [--raw] [-o out] [run's machine flags]
//! sentinel reproduce [fig4|fig5|summary|...|all] [--csv] [--jobs N] [--cache-dir DIR]
//! sentinel serve     [--addr HOST] [--port N] [--workers N] [--queue N] [--cache N] [--cache-dir PATH]
//! sentinel fuzz      [--seed N] [--count M] [--model R|G|S|T|B<k>] [--width W]
//!                    [--alias F] [--traps F] [--spec HASH|CANONICAL] [--cache-dir DIR]
//! sentinel --version
//! ```
//!
//! Numeric arguments accept decimal or `0x` hexadecimal.
//!
//! Every compile, simulate, and fuzz job has one canonical description
//! (a [`sentinel::spec::JobSpec`]) and one stable 64-bit content hash,
//! printed as `spec: <hash>` on stderr. `--spec` accepts either the
//! full canonical string or — when `--cache-dir` points at a directory
//! whose registry recorded the job — the bare hash, so any failure
//! reported anywhere in the stack reproduces from one identifier.

use std::process::exit;

use sentinel::prelude::*;
use sentinel::prog::{asm, object};
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::serve::api::MAX_WIDTH;
use sentinel::sim::{RunOutcome, SpeculationSemantics};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// A number in the assembler's immediate grammar ([`asm::parse_imm`]).
fn parse_num(s: &str) -> i64 {
    asm::parse_imm(s).unwrap_or_else(|| fail(&format!("bad number '{s}'")))
}

/// `--issue N`: an issue width in 1..=[`MAX_WIDTH`], the bound serve and
/// the fuzzer enforce too; `None` when the flag is absent.
fn issue_width(args: &Args) -> Option<usize> {
    let s = args.flag("issue")?;
    let width = asm::parse_imm(s)
        .and_then(|n| usize::try_from(n).ok())
        .filter(|w| (1..=MAX_WIDTH).contains(w));
    Some(width.unwrap_or_else(|| {
        fail(&format!(
            "bad --issue '{s}' (want an integer in 1..={MAX_WIDTH})"
        ))
    }))
}

fn load_program(path: &str) -> Function {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    if bytes.starts_with(b"SNTL") {
        return object::read_object(&bytes)
            .unwrap_or_else(|e| fail(&format!("load object {path}: {e}")));
    }
    let text = String::from_utf8(bytes).unwrap_or_else(|_| fail(&format!("{path}: not UTF-8")));
    asm::parse(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")))
}

fn parse_model(s: &str) -> SchedulingModel {
    sentinel::spec::parse_model_name(s).unwrap_or_else(|e| fail(&e.to_string()))
}

/// The register `tok` names in `--flag`, checked against the banks the
/// session runs with.
fn session_reg(m: &SimSession<'_>, flag: &str, tok: &str) -> Reg {
    let r = asm::parse_reg(tok)
        .unwrap_or_else(|| fail(&format!("--{flag}: bad register '{tok}' (want rN or fN)")));
    let (ints, fps) = m.reg_sizes();
    let (bank, size) = if r.is_fp() {
        ("fp", fps)
    } else {
        ("int", ints)
    };
    if usize::from(r.index()) >= size {
        fail(&format!(
            "--{flag} {tok}: the {bank} bank has {size} registers"
        ));
    }
    r
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let takes_value = !matches!(
                    name,
                    "recovery"
                        | "allocate"
                        | "base"
                        | "clear-uninit"
                        | "trace"
                        | "stats"
                        | "raw"
                        | "explain"
                        | "verify-passes"
                );
                let value = if takes_value { it.next() } else { None };
                flags.push((name.to_string(), value));
            } else if a == "-o" {
                flags.push(("output".to_string(), it.next()));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }
}

/// Resolves a `--spec` argument: a bare 16-hex-digit hash is looked up
/// in the `--cache-dir` registry (which restores any embedded source
/// payload); anything else must be a full canonical spec string.
fn resolve_spec_arg(args: &Args, arg: &str) -> sentinel::spec::JobSpec {
    use sentinel::spec::registry;
    if let Some(hash) = registry::parse_hash(arg) {
        let dir = args.flag("cache-dir").unwrap_or_else(|| {
            fail(&format!(
                "--spec {arg} is a bare hash; pass --cache-dir DIR to resolve it \
                 (or pass the full canonical spec string)"
            ))
        });
        match registry::resolve(std::path::Path::new(dir), hash) {
            Ok(Some(resolved)) => resolved
                .into_spec()
                .unwrap_or_else(|e| fail(&format!("spec {arg}: {e}"))),
            Ok(None) => fail(&format!("spec {arg} not found under {dir}")),
            Err(e) => fail(&format!("resolve spec {arg}: {e}")),
        }
    } else {
        sentinel::spec::JobSpec::parse(arg).unwrap_or_else(|e| fail(&format!("--spec: {e}")))
    }
}

/// Records `spec` in the `--cache-dir` registry (if one is given), so
/// its bare hash resolves in later invocations. Registry failures are
/// warnings: the job itself already ran.
fn record_spec(args: &Args, spec: &sentinel::spec::JobSpec) {
    if let Some(dir) = args.flag("cache-dir") {
        if let Err(e) = sentinel::spec::registry::record(std::path::Path::new(dir), spec) {
            eprintln!("warning: could not record spec in {dir}: {e}");
        }
    }
}

fn emit(func: &Function, output: Option<&str>) {
    match output {
        None => print!("{}", asm::print(func)),
        Some(path) if path.ends_with(".sobj") => {
            let bytes =
                object::write_object(func).unwrap_or_else(|e| fail(&format!("encode: {e}")));
            std::fs::write(path, bytes).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        }
        Some(path) => {
            std::fs::write(path, asm::print(func))
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        }
    }
}

fn cmd_check(args: &Args) {
    let f = load_program(&args.positional[0]);
    let errs = sentinel::prog::validate(&f);
    if errs.is_empty() {
        println!(
            "{}: ok ({} blocks, {} instructions)",
            f.name(),
            f.block_count(),
            f.insn_count()
        );
    } else {
        for e in &errs {
            eprintln!("{e}");
        }
        exit(1);
    }
}

fn cmd_info(args: &Args) {
    let f = load_program(&args.positional[0]);
    println!("function @{}", f.name());
    println!("  blocks:        {}", f.block_count());
    println!("  instructions:  {}", f.insn_count());
    let branches: usize = f.blocks().map(|b| b.side_exit_count()).sum();
    println!("  cond branches: {branches}");
    let loads = f
        .blocks()
        .flat_map(|b| b.insns.iter())
        .filter(|i| i.op.is_load())
        .count();
    let stores = f
        .blocks()
        .flat_map(|b| b.insns.iter())
        .filter(|i| i.op.is_store())
        .count();
    println!("  loads/stores:  {loads}/{stores}");
    let spec = f
        .blocks()
        .flat_map(|b| b.insns.iter())
        .filter(|i| i.speculative)
        .count();
    println!("  speculative:   {spec}");
    let (mi, mf) = f.max_reg_indices();
    println!(
        "  max regs:      int {:?}, fp {:?}",
        mi.unwrap_or(0),
        mf.unwrap_or(0)
    );
    if !f.noalias_bases().is_empty() {
        let regs: Vec<String> = f.noalias_bases().iter().map(|r| r.to_string()).collect();
        println!("  noalias:       {}", regs.join(", "));
    }
}

/// Builds the machine description from `--mdes FILE` (if given) and an
/// `--issue N` override.
fn machine_desc(args: &Args) -> MachineDesc {
    let base = match args.flag("mdes") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
            sentinel::isa::mdes_file::parse_mdes(&text)
                .unwrap_or_else(|e| fail(&format!("{path}: {e}")))
        }
        None => MachineDesc::paper_issue(8),
    };
    match issue_width(args) {
        Some(width) => MachineDesc::builder()
            .issue_width(width)
            .branches_per_cycle(base.branches_per_cycle())
            .int_regs(base.int_regs())
            .fp_regs(base.fp_regs())
            .store_buffer_size(base.store_buffer_size())
            .latencies(base.latencies().clone())
            .build(),
        None => base,
    }
}

/// `sentinel compile` (also spelled `schedule`): schedule a program
/// through [`CompileSession`](sentinel::sched::CompileSession).
/// `--explain` prints its pass log (runs, wall time, IR delta,
/// diagnostics) to stderr, also when the compile fails; `--verify-passes`
/// runs the inter-pass IR verifier between stages even in release builds.
fn cmd_compile(args: &Args) {
    use sentinel::sched::CompileSession;
    use sentinel::spec::{JobSpec, ProgramRef, SpecKind};
    // `--spec` reproduces a recorded compile job: the spec carries the
    // source (via the registry), model, width, and knobs, so every
    // other flag is ignored.
    let (f, spec, mdes, opts) = if let Some(arg) = args.flag("spec") {
        let spec = resolve_spec_arg(args, arg);
        if spec.kind != SpecKind::Compile {
            fail(&format!(
                "--spec {} is a {} spec, not a compile spec",
                spec.hash_hex(),
                spec.kind.as_str()
            ));
        }
        let ProgramRef::Source(src) = &spec.program else {
            fail("compile spec carries no inline source");
        };
        let f = asm::parse(src).unwrap_or_else(|e| fail(&format!("spec source: {e}")));
        let (mdes, opts) = (spec.mdes(), spec.sched_options());
        (f, Some(spec), mdes, opts)
    } else {
        let path = &args.positional[0];
        let f = load_program(path);
        let mdes = machine_desc(args);
        let opts = SchedOptions {
            recovery: args.has("recovery"),
            allocate: args.has("allocate"),
            clear_uninitialized: args.has("clear-uninit"),
            verify_passes: args.has("verify-passes"),
            ..SchedOptions::new(parse_model(args.flag("model").unwrap_or("S")))
        };
        // A compile spec names the source, model, width, recovery and
        // verification; a job it cannot describe gets no spec.
        let uncarried: Vec<&str> = ["mdes", "allocate", "clear-uninit"]
            .into_iter()
            .filter(|flag| args.has(flag))
            .collect();
        let spec = if uncarried.is_empty() {
            // Text inputs hash as written (matching what a serve client
            // submitting the same file would hash); objects hash their
            // printed assembly.
            let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
            let source = match String::from_utf8(bytes) {
                Ok(text) if !text.starts_with("SNTL") => text,
                _ => asm::print(&f),
            };
            Some(JobSpec {
                recovery: opts.recovery,
                verify_passes: opts.verify_passes,
                ..JobSpec::compile(source, opts.model, mdes.issue_width())
            })
        } else {
            eprintln!(
                "spec: none (a compile spec cannot carry --{})",
                uncarried.join(", --")
            );
            None
        };
        (f, spec, mdes, opts)
    };
    if let Some(spec) = &spec {
        eprintln!("spec: {}", spec.hash_hex());
        record_spec(args, spec);
    }
    let mut session = CompileSession::for_function(&f)
        .mdes(&mdes)
        .options(opts.clone())
        .build();
    let result = session.run();
    if args.has("explain") {
        eprint!("{}", session.log().render());
    }
    let s = result.unwrap_or_else(|e| fail(&format!("compile: {e}")));
    eprintln!(
        "compiled for {} at issue {}: {} pass runs{}, {} speculated, {} checks, {} confirms{}",
        opts.model,
        mdes.issue_width(),
        session.log().total_runs(),
        if session.verifies() {
            " (verified)"
        } else {
            ""
        },
        s.stats.speculated,
        s.stats.checks_inserted,
        s.stats.confirms_inserted,
        if opts.recovery {
            format!(", {} renames", s.stats.renames)
        } else {
            String::new()
        }
    );
    emit(&s.func, args.flag("output"));
}

/// `sentinel simulate`: evaluate one simulate job exactly as the serve
/// API would — same canonical spec, same cache key, same JSON response
/// body — so a measurement quoted from serve, the bench grid, or a CI
/// log reproduces locally from its spec. With `--cache-dir`, responses
/// are served from (and written to) the shared content-addressed
/// store, and the job's spec is recorded so its bare hash resolves.
fn cmd_simulate(args: &Args) {
    use sentinel::serve::api::ApiRequest;
    use sentinel::spec::{JobSpec, ProgramRef, Store};
    let spec = if let Some(arg) = args.flag("spec") {
        resolve_spec_arg(args, arg)
    } else {
        let model = parse_model(args.flag("model").unwrap_or("S"));
        let width = issue_width(args).unwrap_or(8);
        let program = if let Some(name) = args.flag("suite") {
            ProgramRef::Suite(name.to_string())
        } else if let Some(path) = args.positional.first() {
            let f = load_program(path);
            ProgramRef::Source(asm::print(&f))
        } else {
            fail("simulate needs a program: --suite NAME, a source file, or --spec");
        };
        let mut spec = JobSpec::simulate(program, model, width);
        if args.has("recovery") {
            spec.recovery = true;
        }
        if let Some(e) = args.flag("engine") {
            spec.engine = e
                .parse::<sentinel::sim::Engine>()
                .unwrap_or_else(|e| fail(&e));
        }
        spec
    };
    let req =
        ApiRequest::from_spec(&spec).unwrap_or_else(|e| fail(&format!("simulate: {}", e.message)));
    let spec = req.to_spec();
    eprintln!("spec: {}", spec.hash_hex());
    record_spec(args, &spec);
    let workloads = sentinel::workloads::suite::shared();
    let evaluate = || {
        req.run(&workloads)
            .unwrap_or_else(|e| fail(&format!("simulate: {}", e.message)))
    };
    let body = match args.flag("cache-dir") {
        Some(dir) => {
            let metrics = sentinel::trace::SharedMetrics::new();
            let store = Store::new(1024, metrics)
                .attach_dir(std::path::Path::new(dir))
                .unwrap_or_else(|e| fail(&format!("cache dir '{dir}': {e}")));
            let key = spec.canonical();
            match store.lookup(&key) {
                // Only serve bodies this command wrote (serve-style
                // JSON). A bench grid measurement stored under the
                // same spec stays untouched — re-evaluate, don't
                // clobber another layer's rendering.
                Some(body) if body.starts_with('{') => {
                    eprintln!("spec: {} served from {dir}", spec.hash_hex());
                    body
                }
                Some(_) => evaluate(),
                None => {
                    let body = evaluate();
                    store.insert(key, body.clone());
                    body
                }
            }
        }
        None => evaluate(),
    };
    println!("{body}");
}

fn cmd_pipeline(args: &Args) {
    use sentinel::sched::modulo::{pipeline_loop, pipeline_while_loop};
    let mut f = load_program(&args.positional[0]);
    let mdes = machine_desc(args);
    let blocks: Vec<_> = f.layout().to_vec();
    let mut done = 0;
    for b in blocks {
        let info =
            pipeline_loop(&mut f, b, &mdes).or_else(|| pipeline_while_loop(&mut f, b, &mdes, true));
        if let Some(info) = info {
            eprintln!(
                "pipelined {}: II={}, stages={}, {} ops overlapped",
                f.block(b).label,
                info.ii,
                info.stages,
                info.body_ops
            );
            done += 1;
        }
    }
    if done == 0 {
        eprintln!("no pipelinable loops found");
    }
    emit(&f, args.flag("output"));
}

/// Applies `--map START:LEN`, `--word ADDR=VAL`, and `--reg rN=VAL`
/// flags to a freshly built machine.
fn apply_machine_flags(args: &Args, m: &mut SimSession<'_>) {
    let pairs = |flag: &str, sep: char, want: &str| -> Vec<(u64, u64)> {
        args.all(flag)
            .into_iter()
            .map(|spec| {
                let (a, b) = spec
                    .split_once(sep)
                    .unwrap_or_else(|| fail(&format!("bad --{flag} '{spec}' (want {want})")));
                (parse_num(a) as u64, parse_num(b) as u64)
            })
            .collect()
    };
    let (regions, words) = (
        pairs("map", ':', "START:LEN"),
        pairs("word", '=', "ADDR=VAL"),
    );
    sentinel::spec::apply_image(m.memory_mut(), &regions, &words).unwrap_or_else(|e| fail(&e));
    for spec in args.all("reg") {
        let (reg, val) = spec
            .split_once('=')
            .unwrap_or_else(|| fail(&format!("bad --reg '{spec}' (want rN=VAL)")));
        let r = session_reg(m, "reg", reg);
        m.set_reg(r, parse_num(val) as u64);
    }
}

fn cmd_run(args: &Args) {
    let f = load_program(&args.positional[0]);
    let semantics = match args.flag("semantics").unwrap_or("tags") {
        "tags" => SpeculationSemantics::SentinelTags,
        "silent" => SpeculationSemantics::Silent,
        "nan" => SpeculationSemantics::NanWrite,
        other => fail(&format!("unknown semantics '{other}'")),
    };
    let mut cfg = SimConfig::for_mdes(machine_desc(args));
    cfg.semantics = semantics;
    cfg.collect_trace = args.has("trace");
    let mut m = SimSession::for_function(&f).config(cfg).build();
    apply_machine_flags(args, &mut m);
    let prints: Vec<Reg> = args
        .all("print")
        .into_iter()
        .map(|tok| session_reg(&m, "print", tok))
        .collect();
    let result = m.run();
    for event in m.trace() {
        println!("{event}");
    }
    match result {
        Ok(RunOutcome::Halted) => {
            println!(
                "halted after {} cycles ({} instructions, ipc {:.2})",
                m.stats().cycles,
                m.stats().dyn_insns,
                m.stats().ipc()
            );
        }
        Ok(RunOutcome::Trapped(t)) => {
            println!("TRAP: {t} (after {} cycles)", m.stats().cycles);
        }
        Err(e) => fail(&format!("simulation: {e}")),
    }
    for r in prints {
        let v = m.reg(r);
        if v.tag {
            println!("{r} = [exception tag, pc={}]", v.as_pc());
        } else if r.is_fp() {
            println!("{r} = {} ({:#x})", v.as_f64(), v.data);
        } else {
            println!("{r} = {} ({:#x})", v.as_i64(), v.data);
        }
    }
    if args.has("stats") {
        println!("{}", m.stats());
    }
}

/// `sentinel trace`: schedule a program (unless `--raw`), run it with a
/// cycle-accurate trace sink attached, and emit the rendered trace.
fn cmd_trace(args: &Args) {
    use sentinel::trace::{ChromeTraceSink, JsonlSink, TimelineSink, TraceSink};
    let f = load_program(&args.positional[0]);
    let mdes = machine_desc(args);
    let model = parse_model(args.flag("model").unwrap_or("S"));
    let func = if args.has("raw") {
        f
    } else {
        let mut opts = SchedOptions::new(model);
        if args.has("recovery") {
            opts = opts.with_recovery();
        }
        let s =
            schedule_function(&f, &mdes, &opts).unwrap_or_else(|e| fail(&format!("schedule: {e}")));
        s.func
    };
    let width = mdes.issue_width();
    let mut cfg = SimConfig::for_mdes(mdes);
    cfg.semantics = match args.flag("semantics") {
        Some("tags") | None => SpeculationSemantics::SentinelTags,
        Some("silent") => SpeculationSemantics::Silent,
        Some("nan") => SpeculationSemantics::NanWrite,
        Some(other) => fail(&format!("unknown semantics '{other}'")),
    };
    let sink: Box<dyn TraceSink> = match args.flag("format").unwrap_or("timeline") {
        "timeline" => Box::new(TimelineSink::new(width)),
        "jsonl" => Box::new(JsonlSink::new()),
        "chrome" => Box::new(ChromeTraceSink::new()),
        other => fail(&format!(
            "unknown format '{other}' (timeline, jsonl, or chrome)"
        )),
    };
    let mut m = SimSession::for_function(&func)
        .config(cfg)
        .sink(sink)
        .build();
    apply_machine_flags(args, &mut m);
    let result = m.run();
    let mut sink = m.take_sink().expect("sink was attached");
    let rendered = sink.finish();
    match args.flag("output") {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    let stats = *m.stats();
    match result {
        Ok(RunOutcome::Halted) => eprintln!(
            "halted after {} cycles ({} instructions, ipc {:.2})",
            stats.cycles,
            stats.dyn_insns,
            stats.ipc()
        ),
        Ok(RunOutcome::Trapped(t)) => {
            eprintln!("TRAP: {t} (after {} cycles)", stats.cycles);
        }
        Err(e) => fail(&format!("simulation: {e}")),
    }
    let stalled = stats.cycles.saturating_sub(stats.issuing_cycles);
    eprintln!(
        "cycle attribution: {} issuing ({:.1}%), {} stalled",
        stats.issuing_cycles,
        if stats.cycles == 0 {
            0.0
        } else {
            100.0 * stats.issuing_cycles as f64 / stats.cycles as f64
        },
        stalled
    );
    for (reason, n) in stats.stalls.iter() {
        if n > 0 {
            eprintln!(
                "  {:<18} {:>8}  ({:.1}%)",
                reason.name(),
                n,
                stats.stalls.pct_of(reason, stats.cycles)
            );
        }
    }
    if args.has("stats") {
        eprintln!("{stats}");
    }
}

/// `sentinel fuzz`: run the seeded differential fuzzer — each case is a
/// generated program executed on the interpreter and the compiled
/// machine, every observable compared byte-for-byte. Unpinned, seeds
/// cycle through all four models at widths 1/2/4/8; `--model`/`--width`
/// pin one axis for reproduction.
fn cmd_fuzz(args: &Args) {
    use sentinel::fuzz::FuzzCase;
    let parse_frac = |name: &str| -> f64 {
        args.flag(name).map_or(0.0, |s| {
            s.parse()
                .unwrap_or_else(|_| fail(&format!("bad --{name} '{s}'")))
        })
    };
    // `--spec` replays exactly one recorded (or quoted) case.
    if let Some(arg) = args.flag("spec") {
        let spec = resolve_spec_arg(args, arg);
        let case = FuzzCase::from_spec(&spec)
            .and_then(|case| case.validate().map(|()| case))
            .unwrap_or_else(|e| fail(&format!("--spec: {e}")));
        match sentinel::fuzz::run_case(&case) {
            Ok(()) => println!("fuzz: case passed (spec {})", spec.hash_hex()),
            Err(report) => {
                eprintln!("fuzz FAILED:\n{report}");
                exit(1);
            }
        }
        return;
    }
    let seed = args.flag("seed").map_or(0, |s| parse_num(s) as u64);
    let count = args.flag("count").map_or(16, |s| parse_num(s) as u64);
    let model = args.flag("model").map(parse_model);
    let width = args.flag("width").map(|s| parse_num(s) as usize);
    let alias = parse_frac("alias");
    let traps = parse_frac("traps");
    // Every case of the batch is one of these (model, width) points with
    // these fractions; `validate` names the first bad knob.
    for (model, width) in sentinel::fuzz::grid(model, width) {
        let case = FuzzCase {
            seed,
            model,
            width,
            alias_frac: alias,
            trap_frac: traps,
        };
        case.validate().unwrap_or_else(|e| fail(&format!("--{e}")));
    }
    match sentinel::fuzz::run_batch_detail(seed, count, alias, traps, model, width) {
        Ok(n) => println!(
            "fuzz: {n} case(s) passed (seeds {seed}..{}, alias {alias}, traps {traps})",
            seed + n
        ),
        Err((case, report)) => {
            // Record the failing case's spec so its bare hash resolves
            // in later invocations (`sentinel fuzz --spec <hash>`).
            record_spec(args, &case.spec());
            eprintln!("fuzz FAILED:\n{report}");
            exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: sentinel <command> <file> [options]\n\
         commands:\n\
           check     validate a program\n\
           info      print program statistics\n\
           asm       assemble text to a .sobj object (-o out.sobj)\n\
           disasm    print an object as text assembly\n\
           compile   --model R|G|S|T|B<k> --issue N [--recovery] [--allocate] [--clear-uninit] [--mdes file] [--explain] [--verify-passes] [--spec H] [--cache-dir DIR] [-o out]\n\
           schedule  the same as compile\n\
           simulate  one job, serve-identical JSON response: --suite NAME | FILE | --spec H [--model M] [--issue N] [--engine E] [--recovery] [--cache-dir DIR]\n\
           pipeline  software-pipeline counted/while loops [-o out]\n\
           mdes      print the effective machine description [--mdes file] [--issue N]\n\
           run       [--issue N] [--semantics tags|silent|nan] [--map S:L]… [--word A=V]… [--reg rN=V]… [--print rN]… [--stats] [--trace]\n\
           trace     --model R|G|S|T|B<k> --issue N --format timeline|jsonl|chrome [--raw] [--recovery] [-o out] [run's machine flags]\n\
           reproduce regenerate the paper's tables/figures [fig4|fig5|summary|…|all] [--csv] [--jobs N] [--cache-dir DIR]\n\
           serve     networked compile-and-simulate service [--addr HOST] [--port N] [--workers N] [--queue N] [--cache N] [--cache-dir PATH]\n\
           fuzz      differential fuzzer: interpreter vs turbo, byte-identical observables [--seed N] [--count M] [--model R|G|S|T|B<k>] [--width W] [--alias F] [--traps F] [--spec H] [--cache-dir DIR]\n\
           version   print the version (also --version)"
    );
    exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let cmd = raw[0].clone();
    if cmd == "--version" || cmd == "version" {
        println!("sentinel {}", env!("CARGO_PKG_VERSION"));
        return;
    }
    if cmd == "serve" {
        // Delegates to the serve crate's CLI, before the positional-args
        // check: `sentinel serve` alone starts with defaults.
        exit(sentinel::serve::cli::run(&raw[1..]));
    }
    if cmd == "reproduce" {
        // Delegates to the bench crate's CLI (same interface as the
        // standalone `reproduce` binary), before the positional-args
        // check: `sentinel reproduce` alone means `reproduce all`.
        exit(sentinel::bench::cli::run(&raw[1..]));
    }
    let args = Args::parse(raw[1..].to_vec());
    if cmd == "fuzz" {
        // Before the positional-args check: `sentinel fuzz` alone runs a
        // 16-case smoke sweep covering the whole (model, width) grid.
        cmd_fuzz(&args);
        return;
    }
    if cmd == "mdes" {
        // Print the effective machine description (paper defaults, a
        // --mdes file, and/or an --issue override), re-parseable.
        print!(
            "{}",
            sentinel::isa::mdes_file::print_mdes(&machine_desc(&args))
        );
        return;
    }
    if cmd == "simulate" {
        // Before the positional-args check: the program may come from
        // --suite or --spec instead of a file.
        cmd_simulate(&args);
        return;
    }
    if args.positional.is_empty()
        && !(matches!(cmd.as_str(), "compile" | "schedule") && args.has("spec"))
    {
        usage();
    }
    match cmd.as_str() {
        "check" => cmd_check(&args),
        "info" => cmd_info(&args),
        "asm" => {
            let f = load_program(&args.positional[0]);
            let out = args.flag("output").unwrap_or("out.sobj");
            emit(&f, Some(out));
            eprintln!("wrote {out}");
        }
        "disasm" => {
            let f = load_program(&args.positional[0]);
            print!("{}", asm::print(&f));
        }
        "compile" | "schedule" => cmd_compile(&args),
        "pipeline" => cmd_pipeline(&args),
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        _ => usage(),
    }
}
