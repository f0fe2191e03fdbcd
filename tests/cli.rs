//! End-to-end tests of the `sentinel` command-line tool.

use std::process::Command;

const DEMO: &str = r#"
func @demo {
.noalias r2, r3
main:
    ld r5, 0(r3)
    beq r5, r0, skip
    ld r1, 0(r2)
    addi r4, r1, 1
    st r4, 8(r2)
    halt
skip:
    halt
}
"#;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sentinel"))
}

fn write_demo(dir: &std::path::Path) -> std::path::PathBuf {
    let p = dir.join("demo.sasm");
    std::fs::write(&p, DEMO).unwrap();
    p
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sentinel-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn check_accepts_valid_program() {
    let dir = tmpdir("check");
    let p = write_demo(&dir);
    let out = bin().args(["check", p.to_str().unwrap()]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok (2 blocks, 7 instructions)"));
}

#[test]
fn check_rejects_invalid_program() {
    let dir = tmpdir("bad");
    let p = dir.join("bad.sasm");
    std::fs::write(&p, "func @bad {\ne:\n    add r1, r2\n}\n").unwrap();
    let out = bin().args(["check", p.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn schedule_then_run_pipeline() {
    let dir = tmpdir("pipe");
    let p = write_demo(&dir);
    let sched = dir.join("sched.sasm");
    let out = bin()
        .args([
            "schedule",
            p.to_str().unwrap(),
            "--model",
            "S",
            "--issue",
            "4",
            "-o",
            sched.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&sched).unwrap();
    assert!(
        text.contains(".s "),
        "speculated instructions present:\n{text}"
    );

    let out = bin()
        .args([
            "run",
            sched.to_str().unwrap(),
            "--issue",
            "4",
            "--map",
            "0x1000:0x100",
            "--word",
            "0x1000=1",
            "--reg",
            "r3=0x1000",
            "--reg",
            "r2=0x1010",
            "--print",
            "r4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("halted after"), "{stdout}");
    assert!(stdout.contains("r4 = 1"), "{stdout}");
}

#[test]
fn run_reports_precise_trap() {
    let dir = tmpdir("trap");
    let p = write_demo(&dir);
    let sched = dir.join("sched.sasm");
    bin()
        .args([
            "schedule",
            p.to_str().unwrap(),
            "--model",
            "S",
            "-o",
            sched.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    // r2 unmapped: the hoisted speculative load faults; precise trap.
    let out = bin()
        .args([
            "run",
            sched.to_str().unwrap(),
            "--map",
            "0x1000:0x100",
            "--word",
            "0x1000=1",
            "--reg",
            "r3=0x1000",
            "--reg",
            "r2=0xdead0",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TRAP"), "{stdout}");
    assert!(stdout.contains("unmapped address 0xdead0"), "{stdout}");
}

#[test]
fn a_bad_memory_region_is_an_error_not_a_panic() {
    // Every machine flag (`--map`, `--reg`, `--print`) of `run` and
    // `trace`; the demo names no register past r5, so each bank has the
    // paper machine's 64.
    let dir = tmpdir("badmap");
    let p = write_demo(&dir);
    let p = p.to_str().unwrap();
    let map = "0x1000:0x400";
    for (flags, named) in [
        (
            &["run", p, "--map", "0x1000:0"][..],
            "map region 0x1000:0x0 is empty",
        ),
        (
            &["run", p, "--map", "-64:64"],
            "map region 0xffffffffffffffc0:0x40 wraps",
        ),
        (
            &["run", p, "--map", map, "--reg", "r100=5"],
            "--reg r100: the int bank has 64 registers",
        ),
        (
            &["run", p, "--map", map, "--reg", "=5"],
            "--reg: bad register ''",
        ),
        (
            &["run", p, "--map", map, "--print", "r100"],
            "--print r100: the int bank has 64 registers",
        ),
        (
            &["run", p, "--map", map, "--print", "f64"],
            "--print f64: the fp bank has 64 registers",
        ),
        (
            &["trace", p, "--map", map, "--reg", "r64=1"],
            "--reg r64: the int bank has 64 registers",
        ),
    ] {
        let out = bin().args(flags).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "{flags:?}: {stderr}"
        );
    }
    // The last register of a bank is in range.
    let out = bin()
        .args(["run", p, "--map", map, "--reg", "r63=7", "--print", "r63"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("r63 = 7"));
}

#[test]
fn numbers_follow_the_immediate_grammar() {
    // Numeric flags read the assembler's immediate grammar: a doubled
    // sign, a `+` or a sign after `0x` is a named error, and `i64::MIN`
    // is a number.
    let dir = tmpdir("num");
    let p = write_demo(&dir);
    let p = p.to_str().unwrap();
    let map = "0x1000:0x400";
    for (flags, bad) in [
        (&["run", p, "--map", map, "--reg", "r4=--5"][..], "--5"),
        (
            &["run", p, "--map", map, "--reg", "r4=--9223372036854775808"],
            "--9223372036854775808",
        ),
        (&["run", p, "--map", map, "--reg", "r4=+7"], "+7"),
        (&["run", p, "--map", "0x-1000:0x400"], "0x-1000"),
    ] {
        let out = bin().args(flags).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: bad number '{bad}'")),
            "{flags:?}: {stderr}"
        );
    }
    let out = bin()
        .args([
            "run",
            p,
            "--map",
            map,
            "--reg",
            "r4=-9223372036854775808",
            "--print",
            "r4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("r4 = -9223372036854775808"));
}

#[test]
fn asm_disasm_roundtrip() {
    let dir = tmpdir("obj");
    let p = write_demo(&dir);
    let obj = dir.join("demo.sobj");
    assert!(bin()
        .args(["asm", p.to_str().unwrap(), "-o", obj.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let bytes = std::fs::read(&obj).unwrap();
    assert!(bytes.starts_with(b"SNTL"));
    let out = bin()
        .args(["disasm", obj.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("func @demo"));
    assert!(text.contains(".noalias r2, r3"));
    // Objects can be run directly.
    let out = bin()
        .args([
            "run",
            obj.to_str().unwrap(),
            "--map",
            "0x1000:0x100",
            "--reg",
            "r3=0x1000",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("halted"));
}

const LOOP: &str = r#"
func @copy {
.noalias r1, r2
init:
    li r1, 0x1000
    li r2, 0x2000
    li r3, 50
loop:
    ld r4, 0(r1)
    st r4, 0(r2)
    addi r1, r1, 8
    addi r2, r2, 8
    addi r3, r3, -1
    bne r3, r0, loop
done:
    halt
}
"#;

#[test]
fn pipeline_command_overlaps_loops() {
    let dir = tmpdir("pipe2");
    let p = dir.join("loop.sasm");
    std::fs::write(&p, LOOP).unwrap();
    let out_path = dir.join("loop_p.sasm");
    let out = bin()
        .args([
            "pipeline",
            p.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("pipelined loop: II="));

    let common = [
        "--map",
        "0x1000:0x200",
        "--map",
        "0x2000:0x200",
        "--word",
        "0x1008=9",
    ];
    let cycles_of = |path: &std::path::Path| -> u64 {
        let out = bin().arg("run").arg(path).args(common).output().unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("halted after"), "{stdout}");
        stdout
            .split("halted after ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let plain = cycles_of(&p);
    let pipelined = cycles_of(&out_path);
    assert!(pipelined < plain, "{pipelined} vs {plain}");
}

#[test]
fn mdes_command_prints_reparseable_description() {
    let out = bin().args(["mdes", "--issue", "2"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("issue_width 2"));
    assert!(text.contains("latency mem-load 2"));
    // Feed it back through --mdes.
    let dir = tmpdir("mdes");
    let p = dir.join("m.mdes");
    std::fs::write(&p, text.as_bytes()).unwrap();
    let out2 = bin()
        .args(["mdes", "--mdes", p.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out2.status.success());
    assert_eq!(out.stdout, out2.stdout, "round-trips through a file");
}

#[test]
fn trace_command_renders_all_formats() {
    let dir = tmpdir("trace");
    let p = write_demo(&dir);
    let common = [
        "--model",
        "S",
        "--issue",
        "4",
        "--map",
        "0x1000:0x100",
        "--word",
        "0x1000=1",
        "--reg",
        "r3=0x1000",
        "--reg",
        "r2=0x1010",
    ];

    let trace = |fmt: &str| -> (String, String) {
        let out = bin()
            .args(["trace", p.to_str().unwrap(), "--format", fmt])
            .args(common)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let (timeline, stderr) = trace("timeline");
    assert!(timeline.contains("cycle"), "{timeline}");
    assert!(timeline.contains("slot 0"), "{timeline}");
    assert!(stderr.contains("halted after"), "{stderr}");
    assert!(stderr.contains("cycle attribution:"), "{stderr}");

    let (jsonl, _) = trace("jsonl");
    assert!(jsonl.lines().count() > 3, "{jsonl}");
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    // Byte-identical across runs.
    assert_eq!(jsonl, trace("jsonl").0);

    let (chrome, _) = trace("chrome");
    assert!(chrome.starts_with(r#"{"traceEvents":["#), "{chrome}");
    assert!(chrome.trim_end().ends_with('}'), "{chrome}");
    assert!(chrome.contains(r#""ph":"X""#), "{chrome}");
}

#[test]
fn reproduce_subcommand_delegates_to_bench_cli() {
    // Bad input is enough to prove the wiring without regenerating a
    // figure in a debug build: the bench CLI answers with its own usage
    // text and exit status 2.
    let out = bin().args(["reproduce", "fig99"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'fig99'"), "{stderr}");
    assert!(stderr.contains("usage: reproduce"), "{stderr}");

    let out = bin()
        .args(["reproduce", "fig4", "--jobs", "zero"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --jobs"));
}

#[test]
fn boosting_model_from_cli() {
    let dir = tmpdir("boost");
    let p = write_demo(&dir);
    let out = bin()
        .args([
            "schedule",
            p.to_str().unwrap(),
            "--model",
            "B2",
            "--issue",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains(".b1 ") || text.contains(".b2 "),
        "boost markers:\n{text}"
    );
}

#[test]
fn only_canonical_boosting_depths_are_models() {
    // `B+2` and `B02` once ran as B2, and `B0` as a boosting model that
    // cannot speculate; each is now an error naming the accepted form.
    for model in ["B+2", "B02", "B0"] {
        let out = bin()
            .args(["simulate", "--suite", "wc", "--model", model])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--model {model}: {stderr}");
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains(&format!("'{model}'"))
                && stderr.contains("1..=255"),
            "--model {model}: {stderr}"
        );
        assert_fuzz_rejects(&["--model", model, "--count", "1"], "1..=255");
    }
}

#[test]
fn version_flag_prints_package_version() {
    for spelling in ["--version", "version"] {
        let out = bin().arg(spelling).output().unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            text.trim(),
            format!("sentinel {}", env!("CARGO_PKG_VERSION")),
            "{spelling}"
        );
    }
}

#[test]
fn unknown_subcommands_exit_2_with_usage() {
    let out = bin().arg("frobnicate").arg("x.sasm").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: sentinel"));
    // The serve subcommand follows the same convention for its flags.
    let out = bin().args(["serve", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: serve"));
}

#[test]
fn serve_version_flag() {
    let out = bin().args(["serve", "--version"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.trim(),
        format!("sentinel-serve {}", env!("CARGO_PKG_VERSION"))
    );
}

/// Full service lifecycle through the CLI: start on an ephemeral port,
/// wait for the readiness line, exercise the endpoints, SIGINT, and
/// assert a clean drained exit.
#[cfg(unix)]
#[test]
fn serve_subcommand_drains_on_sigint() {
    use std::io::BufRead;
    use std::process::Stdio;

    let mut child = bin()
        .args(["serve", "--port", "0", "--workers", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stderr = child.stderr.take().unwrap();
    let mut lines = std::io::BufReader::new(stderr).lines();
    let ready = lines.next().unwrap().unwrap();
    assert!(ready.starts_with("sentinel-serve listening on "), "{ready}");
    let addr = ready
        .strip_prefix("sentinel-serve listening on ")
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    let mut client = sentinel::serve::client::Client::new(&addr);
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let sim = client
        .post_json("/v1/simulate", r#"{"suite":"wc","width":2}"#)
        .unwrap();
    assert_eq!(sim.status, 200);
    let metrics = client.get("/metrics").unwrap();
    assert!(metrics.body.contains("serve_http_requests"));
    drop(client);

    let kill = std::process::Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    // A missed wake-up of the blocked acceptor would hang the drain:
    // give it 10 s, then kill the server and fail.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve still running 10 s after SIGINT");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0));
    // The drain message and final metrics snapshot land on stderr.
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let rest = rest.join("\n");
    assert!(rest.contains("sentinel-serve draining (SIGINT)"), "{rest}");
    assert!(rest.contains("serve.http.requests"), "{rest}");
}

/// Runs `sentinel fuzz ARGS` and asserts a clean error: exit 1 (never a
/// 101 panic) with an `error:` line naming `field`.
fn assert_fuzz_rejects(args: &[&str], field: &str) {
    let out = bin().arg("fuzz").args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains(field)),
        "{args:?}: {stderr}"
    );
}

/// A fuzz case whose trap fraction oversubscribes the instruction mix.
const TRAP_HEAVY_SPEC: &str = "sentinel-spec/v1|kind=fuzz|prog=seeded:42:0.25:0.9|model=T|width=2";

#[test]
fn fuzz_rejects_trap_fraction_above_the_mix_bound() {
    assert_fuzz_rejects(&["--traps", "0.4", "--count", "64"], "--traps");
}

#[test]
fn fuzz_rejects_zero_width() {
    assert_fuzz_rejects(&["--width", "0"], "--width");
}

#[test]
fn fuzz_spec_rejects_trap_fraction_above_the_mix_bound() {
    assert_fuzz_rejects(&["--spec", TRAP_HEAVY_SPEC], "traps");
}

#[test]
fn fuzz_spec_rejects_zero_width() {
    let spec = TRAP_HEAVY_SPEC.replace("width=2", "width=0");
    assert_fuzz_rejects(&["--spec", &spec], "width");
}

#[test]
fn a_bad_issue_width_is_a_named_error_not_a_panic() {
    // No machine has width 0, -3 must not wrap to a huge width, and 65
    // is past the bound serve and the fuzzer enforce.
    let dir = tmpdir("issue");
    let p = write_demo(&dir);
    let p = p.to_str().unwrap();
    for width in ["0", "-3", "65"] {
        for cmd in [
            vec!["schedule", p],
            vec!["compile", p],
            vec!["run", p],
            vec!["trace", p],
            vec!["pipeline", p],
            vec!["mdes"],
            vec!["simulate", "--suite", "wc"],
        ] {
            let out = bin().args(&cmd).args(["--issue", width]).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{cmd:?} --issue {width}: {stderr}"
            );
            assert!(
                stderr.starts_with("error: ")
                    && stderr.contains("--issue")
                    && stderr.contains("1..=64"),
                "{cmd:?} --issue {width}: {stderr}"
            );
        }
    }
}

/// Runs `sentinel compile ARGS`, asserting success; returns stdout and
/// stderr.
fn compile(args: &[&str]) -> (String, String) {
    let out = bin().arg("compile").args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{args:?}: {stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

/// The `spec: HASH` line of a compile's stderr.
fn spec_line(stderr: &str) -> &str {
    stderr
        .lines()
        .find(|l| l.starts_with("spec: "))
        .unwrap_or_else(|| panic!("no spec line: {stderr}"))
}

#[test]
fn a_recorded_compile_spec_replays_byte_for_byte() {
    let dir = tmpdir("replay");
    let p = write_demo(&dir);
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let (plain, stderr) = compile(&[
        p.to_str().unwrap(),
        "--model",
        "S",
        "--issue",
        "4",
        "--cache-dir",
        cache,
    ]);
    let spec = spec_line(&stderr);
    let hash = spec.strip_prefix("spec: ").unwrap();
    let (replayed, replay_stderr) = compile(&["--spec", hash, "--cache-dir", cache]);
    assert_eq!(spec_line(&replay_stderr), spec);
    assert_eq!(plain, replayed);
}

#[test]
fn compile_prints_a_spec_only_for_a_job_the_spec_describes() {
    let dir = tmpdir("nospec");
    let p = write_demo(&dir);
    let p = p.to_str().unwrap();
    let (_, plain_err) = compile(&[p, "--model", "S", "--issue", "4"]);
    let (cleared, stderr) = compile(&[p, "--model", "S", "--issue", "4", "--clear-uninit"]);
    assert!(cleared.contains("clrtag"), "{cleared}");
    assert!(!stderr.contains(spec_line(&plain_err)), "{stderr}");
    assert!(
        spec_line(&stderr).starts_with("spec: none") && stderr.contains("--clear-uninit"),
        "{stderr}"
    );

    // A slower load reorders this block at issue 1, so a machine file
    // makes another job than the paper machine at the same width.
    let prog = dir.join("five.sasm");
    std::fs::write(
        &prog,
        "func @five {\nentry:\n    ld r1, 0(r2)\n    addi r3, r1, 1\n    addi r4, r0, 1\n    \
         addi r5, r0, 2\n    addi r6, r0, 3\n    halt\n}\n",
    )
    .unwrap();
    let mdes = dir.join("slow-load.mdes");
    std::fs::write(&mdes, "issue_width 1\nlatency mem-load 9\n").unwrap();
    let prog = prog.to_str().unwrap();
    let (paper, paper_err) = compile(&[prog, "--issue", "1"]);
    let (slow, slow_err) = compile(&[prog, "--issue", "1", "--mdes", mdes.to_str().unwrap()]);
    assert_ne!(paper, slow);
    assert!(!slow_err.contains(spec_line(&paper_err)), "{slow_err}");
    assert!(
        spec_line(&slow_err).starts_with("spec: none") && slow_err.contains("--mdes"),
        "{slow_err}"
    );
}

/// Runs `sentinel ARGS`; returns the exit code, stdout and stderr.
fn run_sentinel(args: &[&str]) -> (Option<i32>, String, String) {
    let out = bin().args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs `sentinel mdes --mdes FILE` on a one-line machine file.
fn mdes_file(dir: &std::path::Path, line: &str) -> (Option<i32>, String, String) {
    let p = dir.join("m.mdes");
    std::fs::write(&p, format!("{line}\n")).unwrap();
    run_sentinel(&["mdes", "--mdes", p.to_str().unwrap()])
}

#[test]
fn machine_file_values_past_their_limits_are_line_errors() {
    let dir = tmpdir("mdes-limits");
    // The largest value each key accepts, then the first two it rejects.
    // Past u32, a latency used to truncate: 2^32 to 0 (a panic), 2^32+1
    // silently to 1. Register files and the store buffer past their
    // limits used to abort `run` on allocation.
    for (key, max) in [
        ("latency mem-load", u64::from(u32::MAX)),
        ("int_regs", 65_536),
        ("fp_regs", 65_536),
        ("store_buffer", 65_536),
    ] {
        let largest = format!("{key} {max}");
        let (code, stdout, stderr) = mdes_file(&dir, &largest);
        assert_eq!(code, Some(0), "{largest}: {stderr}");
        assert!(
            stdout.contains(&format!("{largest}\n")),
            "{largest}: {stdout}"
        );
        for over in [max + 1, max + 2] {
            let (code, _, stderr) = mdes_file(&dir, &format!("{key} {over}"));
            assert_eq!(code, Some(1), "{key} {over}: {stderr}");
            assert!(
                stderr.contains("line 1: ")
                    && stderr.contains(&format!("{over} exceeds the limit")),
                "{key} {over}: {stderr}"
            );
        }
    }
}

/// Runs `sentinel simulate --spec SPEC`.
fn simulate_spec(spec: &str) -> (Option<i32>, String, String) {
    run_sentinel(&["simulate", "--spec", spec])
}

/// cccp under T at issue 8 with the given `sb=` and `cache=` fields.
fn cccp_spec(sb: &str, cache: &str) -> String {
    format!(
        "sentinel-spec/v1|kind=simulate|prog=suite:cccp|model=T|width=8|engine=fast|\
         recovery=0|sb={sb}|cache={cache}|map=-|word=-"
    )
}

#[test]
fn a_simulate_spec_on_the_paper_store_buffer_replays_unchanged() {
    let (code, plain, plain_err) = run_sentinel(&[
        "simulate", "--suite", "cccp", "--model", "T", "--issue", "8",
    ]);
    assert_eq!(code, Some(0), "{plain_err}");
    let (code, body, stderr) = simulate_spec(&cccp_spec("8", "-"));
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(body, plain);
    assert_eq!(spec_line(&stderr), spec_line(&plain_err));
}

#[test]
fn a_simulate_spec_with_another_store_buffer_is_refused() {
    let (code, body, stderr) = simulate_spec(&cccp_spec("1", "-"));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(body.is_empty(), "{body}");
    assert!(stderr.contains("spec field sb=1"), "{stderr}");
}

#[test]
fn a_simulate_spec_with_a_data_cache_is_refused() {
    let (code, body, stderr) = simulate_spec(&cccp_spec("8", "64:32:10"));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(body.is_empty(), "{body}");
    assert!(stderr.contains("spec field cache=64:32:10"), "{stderr}");
}
