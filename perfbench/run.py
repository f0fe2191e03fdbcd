#!/usr/bin/env python3
"""The repository benchmark: `reproduce all` and `sentinel serve` under
seeded, closed-loop workloads, with every output checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see perfbench/README.md):

    grid           repeated `reproduce all` runs, one process per run
    serve_cold     keep-alive clients, every request a distinct job
    serve_connect  a cached job set replayed, one connection per request

The script builds the shipped binaries and the `perfbench` harness
(perfbench/harness) with cargo into $CARGO_TARGET_DIR (default
`.bench_build`), sets the workload up, measures it for `--seconds`,
checks every output, and prints one JSON object as the last line of
stdout. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it also runs the traced in-process run and reports the
per-layer metrics instead. A record of the run (seed, nproc, source
digest, request-stream digest) and the traced-run table go to stderr.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("grid", "serve_cold", "serve_connect")
ORACLE_RUNS = 3
SERVER_SPAWNS = 5
BATCH = 256
TAIL_PCT = 99
TAIL_BEYOND = 10
HARNESS_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nearest_rank(values, pct):
    """The nearest-rank percentile: the smallest value with at least
    `pct` percent of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_pct(n):
    """The highest whole percentile, at most TAIL_PCT, whose nearest-rank
    value has at least TAIL_BEYOND of `n` samples beyond it (50 at
    least)."""
    for pct in range(TAIL_PCT, 49, -1):
        if n - math.ceil(pct / 100 * n) >= TAIL_BEYOND:
            return pct
    return 50


def failures(attempted, failed, broken=()):
    """Operations that count as failed: those that failed on their own,
    or every operation attempted when the run broke its workload's
    property (`broken` lists how)."""
    return attempted if broken else failed


def latency_metrics(latencies_ms, window_s, batch_walls_s):
    """The end-to-end timing metrics of one window."""
    pct = tail_pct(len(latencies_ms))
    return {
        "wall_s": (statistics.median(batch_walls_s), "s"),
        "throughput_rps": (len(latencies_ms) / window_s, "1/s"),
        "p50_ms": (statistics.median(latencies_ms), "ms"),
        "p99_ms": (nearest_rank(latencies_ms, pct), "ms"),
    }, pct


def batch_walls(done_s):
    """Wall time of each run of BATCH consecutive completions, from the
    completion times of a window's requests."""
    ends = sorted(done_s)
    marks = [0.0] + ends[BATCH - 1::BATCH]
    return [b - a for a, b in zip(marks, marks[1:])] or [ends[-1]]


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, in path order (the
    commit when the checkout carries no git metadata)."""
    h = hashlib.sha256()
    names = ["Cargo.toml"]
    for top in ("src", "crates", "perfbench"):
        for dirpath, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            names.extend(os.path.relpath(os.path.join(dirpath, f), root)
                         for f in sorted(files) if f != "Cargo.lock")
    for name in names:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            h.update(name.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def build(root, target):
    """Builds `sentinel`, `reproduce` and the harness; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "sentinel", "--bin", "sentinel",
         "-p", "sentinel-bench", "--bin", "reproduce"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "harness", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name) for name in ("sentinel", "reproduce", "perfbench")}


def run_reproduce(binary, args, work):
    """Runs `reproduce` once; returns (wall s, exit code, stdout bytes,
    peak RSS MiB)."""
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([binary] + args, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    return wall, proc.returncode, stdout, usage.ru_maxrss / 1024


def run_grid(bins, args, work):
    # Set-up: the interpreter engine's output is the oracle.
    oracle, setup = None, []
    for _ in range(ORACLE_RUNS):
        wall, code, stdout, _ = run_reproduce(bins["reproduce"], ["all", "--engine", "interpreter"],
                                              work)
        if code != 0 or (oracle is not None and stdout != oracle):
            raise SystemExit("perfbench: interpreter oracle run failed or is not deterministic")
        oracle = stdout
        setup.append(wall)

    walls, rss, outcomes = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, code, stdout, peak = run_reproduce(bins["reproduce"], ["all"], work)
        walls.append(wall)
        rss.append(peak)
        if code != 0:
            outcomes.append(f"exit {code}")
        elif b"DEGRADED" in stdout:
            outcomes.append("degraded cell")
        elif stdout != oracle:
            outcomes.append("stdout differs from the interpreter oracle")
        else:
            outcomes.append(None)
    window = time.perf_counter() - start
    attempted = len(outcomes)
    failed = failures(attempted, sum(1 for o in outcomes if o is not None))
    metrics, pct = latency_metrics([w * 1e3 for w in walls], window, walls)
    metrics["peak_rss_mb"] = (statistics.median(rss), "MiB")
    metrics["setup_s"] = (statistics.median(setup), "s")
    record = {"runs": len(walls), "tail_pct": pct, "inputs": "reproduce all (not seeded)",
              "failures": sorted({o for o in outcomes if o})}
    layers = None
    if args.trace:
        layers = harness(bins, ["grid-trace", "--seconds", str(args.seconds)])["layers"]
    return attempted, failed, metrics, layers, record


class Server:
    """A `sentinel serve` child process: spawn time to its readiness line,
    and a drained stderr."""

    def __init__(self, binary, workers):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "serve", "--port", "0", "--workers", str(workers)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        line = self.proc.stderr.readline().decode()
        self.setup_s = time.perf_counter() - start
        if "listening on" not in line:
            self.stop()
            raise SystemExit(f"perfbench: server did not start: {line.strip()}")
        self.addr = line.split("listening on ")[1].split()[0]
        self.drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self.drain.start()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise SystemExit("perfbench: no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if hasattr(self, "drain"):
            self.drain.join(timeout=5)
        self.proc.stderr.close()


def harness(bins, argv):
    done = subprocess.run([bins["perfbench"]] + argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=HARNESS_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: harness {argv[0]} failed")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def run_serve(bins, args, nproc):
    setup, server = [], None
    try:
        for i in range(SERVER_SPAWNS):
            server = Server(bins["sentinel"], nproc)
            setup.append(server.setup_s)
            if i + 1 < SERVER_SPAWNS:
                server.stop()
        argv = ["serve", "--addr", server.addr, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--clients", str(nproc)]
        if args.trace:
            argv.append("--trace")
        result = harness(bins, argv)
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    lat = result["latency_ms"]
    attempted = result["attempted"]
    failed = failures(attempted, result["failed"], result["validity"])
    metrics, pct = latency_metrics(lat, result["window_s"], batch_walls(result["done_s"]))
    metrics["peak_rss_mb"] = (peak, "MiB")
    metrics["setup_s"] = (statistics.median(setup), "s")
    record = {"requests": len(lat), "tail_pct": pct, "failures": result["failures"],
              "validity": result["validity"], "connections": result["connections"],
              "stream_digest": result["stream_digest"]}
    return attempted, failed, metrics, result["layers"], record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        raise SystemExit("perfbench: run from the repository root (no Cargo.toml here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work = os.path.join(target, "perfbench")
    os.makedirs(work, exist_ok=True)
    bins = build(root, target)
    nproc = len(os.sched_getaffinity(0))

    if args.workload == "grid":
        attempted, failed, metrics, layers, record = run_grid(bins, args, work)
    else:
        attempted, failed, metrics, layers, record = run_serve(bins, args, nproc)

    record.update(workload=args.workload, seed=args.seed, nproc=nproc, commit=commit(root),
                  source_digest=source_digest(root), attempted=attempted, failed=failed,
                  failed_frac=failed / attempted,
                  metrics={k: v for k, (v, _) in metrics.items()})
    log("record " + json.dumps(record, sort_keys=True))
    chosen = layers if args.trace else {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": chosen}))


if __name__ == "__main__":
    main()
