//! `perfbench`: the Rust half of the repository benchmark.
//!
//! `perfbench/run.py` builds this binary, spawns the shipped programs
//! (`reproduce`, `sentinel serve`) and calls it for the parts that need
//! the workspace's own types:
//!
//! ```text
//! perfbench serve --addr HOST:PORT --workload serve_cold|serve_connect
//!                 --seed N --seconds S --clients N [--trace]
//! perfbench grid-trace --seconds S
//! ```
//!
//! `serve` drives a running server with the workload's seeded stream,
//! checks every reply against the in-process result, checks the
//! workload's property in the server's `/metrics`, and prints one JSON
//! object; with `--trace` it adds the traced replay's per-layer metrics.
//! `grid-trace` prints the per-layer metrics of traced in-process
//! `reproduce all` runs. Traced-run tables go to stderr.

mod load;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use sentinel_trace::json;

use crate::stream::{Mix, Stream};

/// Requests the traced serve replay covers, at most.
const TRACE_REQUESTS_COLD: u64 = 1_000;
const TRACE_REQUESTS_REPLAY: u64 = 20_000;

/// One reported metric.
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The median of `values` (mean of the middle two for an even count;
/// 0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse().map_err(|_| format!("bad {name} '{v}'"))
}

fn str_lit(s: &str) -> String {
    let mut out = String::new();
    json::push_str_lit(&mut out, s);
    out
}

fn metrics_json(metrics: &BTreeMap<String, Metric>) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                str_lit(k),
                m.value,
                str_lit(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn serve(args: &[String]) -> Result<String, String> {
    let addr: String = parsed(args, "--addr")?;
    let name: String = parsed(args, "--workload")?;
    let mix = Mix::parse(&name).ok_or_else(|| format!("unknown serve workload '{name}'"))?;
    let seed: u64 = parsed(args, "--seed")?;
    let seconds: f64 = parsed(args, "--seconds")?;
    let clients: usize = parsed(args, "--clients")?;
    let traced = args.iter().any(|a| a == "--trace");

    let stream = Stream::new(mix, seed);
    if mix != Mix::Cold {
        load::fill(&addr, &stream).map_err(|e| format!("cache fill: {e}"))?;
    }
    let before = load::scrape(&addr).map_err(|e| format!("scrape: {e}"))?;
    let window = load::window(&addr, &stream, clients, seconds);
    let after = load::scrape(&addr).map_err(|e| format!("scrape: {e}"))?;
    let deltas = load::deltas(&before, &after);
    let broken = load::validity(mix, clients, &deltas, &window);

    // Outside the timed window: every reply against the in-process body.
    let suite = sentinel_workloads::suite::shared();
    let expected = load::expect_all(&stream, &window.samples, &suite, nproc());
    let failures = load::check(&stream, &window.samples, &expected);

    let mut by_index: Vec<&load::Sample> = window.samples.iter().collect();
    by_index.sort_by_key(|s| s.index);
    let digest = stream::digest(by_index.iter().map(|s| s.request_hash));
    let latencies: Vec<String> = window
        .samples
        .iter()
        .map(|s| format!("{}", s.latency_us / 1e3))
        .collect();
    let done: Vec<String> = window
        .samples
        .iter()
        .map(|s| format!("{}", s.done_s))
        .collect();
    let layers = if traced {
        let cap = if mix == Mix::Cold {
            TRACE_REQUESTS_COLD
        } else {
            TRACE_REQUESTS_REPLAY
        };
        let n = cap.min(window.samples.len() as u64);
        let facts = trace::WindowFacts {
            samples: &window.samples,
            deltas: &deltas,
        };
        metrics_json(&trace::serve(&stream, n, &facts))
    } else {
        "{}".to_string()
    };
    let validity: Vec<String> = broken.iter().map(|b| str_lit(b)).collect();
    Ok(format!(
        "{{\"attempted\":{},\"failed\":{},\"failures\":{{\"status\":{},\"transport\":{},\
         \"mismatch\":{},\"not_halted\":{}}},\"validity\":[{}],\"window_s\":{},\
         \"connections\":{},\"stream_digest\":\"{digest:016x}\",\"latency_ms\":[{}],\
         \"done_s\":[{}],\"layers\":{layers}}}",
        window.samples.len(),
        failures.total(),
        failures.status,
        failures.transport,
        failures.mismatch,
        failures.not_halted,
        validity.join(","),
        window.elapsed.as_secs_f64(),
        window.connections,
        latencies.join(","),
        done.join(","),
    ))
}

fn grid_trace(args: &[String]) -> Result<String, String> {
    let seconds: f64 = parsed(args, "--seconds")?;
    Ok(format!(
        "{{\"layers\":{}}}",
        metrics_json(&trace::grid(seconds))
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("grid-trace") => grid_trace(&args[1..]),
        _ => Err("usage: perfbench serve|grid-trace ...".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
