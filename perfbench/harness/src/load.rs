//! Closed-loop HTTP load against a running `sentinel serve`, with every
//! response checked against the in-process result.
//!
//! Each client thread sends a request, waits for the whole reply, and
//! only then draws the next stream index, until the window closes. The
//! server's own `/metrics` are scraped around the window to check that
//! the traffic had the property its workload claims (all misses, all
//! hits, one connection per request or per client).

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sentinel_serve::api::JobKind;
use sentinel_spec::fnv64;
use sentinel_workloads::Workload;

use crate::stream::{Mix, Stream, COLD_CAPACITY, WARM_JOBS};

/// One reply as the client saw it.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// The server announced it will close the connection.
    pub close: bool,
}

/// A client connection with its read buffer. The repository's own
/// `serve::client::Client` retries a failed request once on a fresh
/// socket, which would hide a transport failure, so the benchmark
/// speaks HTTP itself.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Opens a connection to `addr`.
    pub fn open(addr: &str) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(s),
        })
    }

    /// Writes `request` and reads one full response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.reader.get_mut().write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "no status line",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let (mut len, mut close) = (0usize, false);
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "headers cut"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .parse()
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            close,
        })
    }
}

/// Scrapes `GET /metrics` on a fresh connection into counter values
/// (histogram series are skipped).
pub fn scrape(addr: &str) -> io::Result<BTreeMap<String, u64>> {
    let mut conn = Conn::open(addr)?;
    let reply =
        conn.exchange(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")?;
    let text = String::from_utf8_lossy(&reply.body);
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// One request of the timed window.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Stream index.
    pub index: u64,
    /// FNV-1a of the request's HTTP bytes.
    pub request_hash: u64,
    /// Client-observed latency, connect included, in microseconds.
    pub latency_us: f64,
    /// When the reply completed, in seconds from the window's start.
    pub done_s: f64,
    /// Time to open a connection for this request, if one was opened.
    pub connect_us: Option<f64>,
    /// HTTP status, or 0 after a transport error.
    pub status: u16,
    /// FNV-1a of the response body.
    pub body_hash: u64,
}

/// Why requests count as failed.
#[derive(Debug, Default, Clone)]
pub struct Failures {
    /// Replies with a non-2xx status.
    pub status: u64,
    /// Connect, write or read errors.
    pub transport: u64,
    /// Bodies that differ from the in-process result.
    pub mismatch: u64,
    /// Simulate results that did not halt.
    pub not_halted: u64,
}

impl Failures {
    /// Requests failed for any reason (one reason per request).
    pub fn total(&self) -> u64 {
        self.status + self.transport + self.mismatch + self.not_halted
    }
}

/// Everything one window measured.
pub struct Window {
    /// Per-request samples, in completion order.
    pub samples: Vec<Sample>,
    /// Wall time from start until the last client finished.
    pub elapsed: Duration,
    /// Connections the clients opened.
    pub connections: u64,
    /// Replies that announced `Connection: close`.
    pub server_closes: u64,
}

/// The expected result of one job: its status-200 body digest and
/// whether it is a simulate result that halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    body_hash: u64,
    ok: bool,
}

/// Runs `job` in process, exactly as an uncached server would.
fn expected(stream: &Stream, job: u64, suite: &[Workload]) -> Expected {
    let req = stream.job(job);
    match req.job().run(suite) {
        Ok(body) => Expected {
            body_hash: fnv64(body.as_bytes()),
            ok: req.kind == JobKind::Compile || body.contains("\"outcome\":\"halted\""),
        },
        Err(_) => Expected {
            body_hash: 0,
            ok: false,
        },
    }
}

/// Expected results of the jobs behind `samples`, computed in process
/// on `threads` threads, each distinct job once.
pub fn expect_all(
    stream: &Stream,
    samples: &[Sample],
    suite: &[Workload],
    threads: usize,
) -> BTreeMap<u64, Expected> {
    let mut jobs: Vec<u64> = samples.iter().map(|s| stream.job_index(s.index)).collect();
    jobs.sort_unstable();
    jobs.dedup();
    let next = AtomicU64::new(0);
    let out = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let n = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(&job) = jobs.get(n) else {
                    break;
                };
                let e = expected(stream, job, suite);
                out.lock().expect("result map lock").insert(job, e);
            });
        }
    });
    out.into_inner().expect("result map lock")
}

/// Sends every job of the replayed set once, on one keep-alive connection,
/// so the timed replay finds them all cached.
///
/// # Errors
///
/// Transport errors and non-200 replies.
pub fn fill(addr: &str, stream: &Stream) -> io::Result<()> {
    let mut conn = Conn::open(addr)?;
    for job in 0..WARM_JOBS {
        let reply = conn.exchange(&stream.job(job).http_bytes(true))?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "fill job {job}: status {}",
                reply.status
            )));
        }
        if reply.close {
            conn = Conn::open(addr)?;
        }
    }
    Ok(())
}

/// Runs `clients` closed-loop clients against `addr` for `seconds`.
pub fn window(addr: &str, stream: &Stream, clients: usize, seconds: f64) -> Window {
    let keep_alive = stream.mix().keep_alive();
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Sample>, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut samples = Vec::new();
                    let (mut opened, mut closes) = (0u64, 0u64);
                    let mut conn: Option<Conn> = None;
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if stream.mix() == Mix::Cold && index >= COLD_CAPACITY {
                            break;
                        }
                        let bytes = stream.request(index).http_bytes(keep_alive);
                        let request_hash = fnv64(&bytes);
                        let t0 = Instant::now();
                        let mut connect_us = None;
                        if conn.is_none() {
                            match Conn::open(addr) {
                                Ok(c) => {
                                    conn = Some(c);
                                    opened += 1;
                                    connect_us = Some(t0.elapsed().as_secs_f64() * 1e6);
                                }
                                Err(_) => {
                                    samples.push(Sample {
                                        index,
                                        request_hash,
                                        latency_us: t0.elapsed().as_secs_f64() * 1e6,
                                        done_s: start.elapsed().as_secs_f64(),
                                        connect_us: None,
                                        status: 0,
                                        body_hash: 0,
                                    });
                                    continue;
                                }
                            }
                        }
                        let result = conn.as_mut().expect("connected above").exchange(&bytes);
                        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
                        let (status, body_hash) = match result {
                            Ok(reply) => {
                                if reply.close || !keep_alive {
                                    closes += u64::from(reply.close);
                                    conn = None;
                                }
                                (reply.status, fnv64(&reply.body))
                            }
                            Err(_) => {
                                conn = None;
                                (0, 0)
                            }
                        };
                        samples.push(Sample {
                            index,
                            request_hash,
                            latency_us,
                            done_s: start.elapsed().as_secs_f64(),
                            connect_us,
                            status,
                            body_hash,
                        });
                    }
                    (samples, opened, closes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut out = Window {
        samples: Vec::new(),
        elapsed,
        connections: 0,
        server_closes: 0,
    };
    for (samples, opened, closes) in results {
        out.samples.extend(samples);
        out.connections += opened;
        out.server_closes += closes;
    }
    out
}

/// Classifies every sample against the expected results.
pub fn check(stream: &Stream, samples: &[Sample], expected: &BTreeMap<u64, Expected>) -> Failures {
    let mut f = Failures::default();
    for s in samples {
        let want = expected.get(&stream.job_index(s.index));
        match (s.status, want) {
            (0, _) => f.transport += 1,
            (200..=299, Some(e)) if e.body_hash == s.body_hash => {
                if !e.ok {
                    f.not_halted += 1;
                }
            }
            (200..=299, _) => f.mismatch += 1,
            _ => f.status += 1,
        }
    }
    f
}

/// Counter deltas of the window (`after - before`), for the counters
/// the validity checks read.
pub fn deltas(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v.saturating_sub(*before.get(k).unwrap_or(&0))))
        .collect()
}

/// The properties a window of `mix` with `clients` clients must show in
/// the server's own counters; returns each one that was broken. `d` is
/// the counter delta across the window, which includes the closing
/// scrape's own connection and request.
pub fn validity(mix: Mix, clients: usize, d: &BTreeMap<String, u64>, w: &Window) -> Vec<String> {
    let get = |k: &str| d.get(k).copied().unwrap_or(0);
    let requests = w.samples.len() as u64;
    let mut broken = Vec::new();
    let mut want = |ok: bool, what: String| {
        if !ok {
            broken.push(what);
        }
    };
    let served = get("serve_http_requests").saturating_sub(1);
    want(
        served == requests,
        format!("server counted {served} requests, clients sent {requests}"),
    );
    let conns = get("serve_http_connections").saturating_sub(1);
    want(
        conns == w.connections,
        format!(
            "server accepted {conns} connections, clients opened {}",
            w.connections
        ),
    );
    match mix {
        Mix::Cold => {
            want(
                get("serve_cache_hit") == 0,
                format!(
                    "{} response-cache hits on the cold stream",
                    get("serve_cache_hit")
                ),
            );
            want(
                get("sim_program_cache_hit") == 0,
                format!(
                    "{} program-cache hits on the cold stream",
                    get("sim_program_cache_hit")
                ),
            );
        }
        Mix::Connect => {
            want(
                get("serve_cache_miss") == 0,
                format!(
                    "{} response-cache misses on the replay",
                    get("serve_cache_miss")
                ),
            );
            want(
                get("sim_program_cache_miss") == 0,
                format!(
                    "{} program-cache misses on the replay",
                    get("sim_program_cache_miss")
                ),
            );
        }
    }
    match mix {
        Mix::Connect => want(
            w.connections == requests,
            format!("{} connections for {requests} requests", w.connections),
        ),
        // Keep-alive: one connection per client, plus one reconnect
        // after each reply that closed the connection (the server's
        // per-connection request bound).
        Mix::Cold => want(
            w.connections <= clients as u64 + w.server_closes,
            format!(
                "{} connections for {clients} keep-alive clients and {} server closes",
                w.connections, w.server_closes
            ),
        ),
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: u64, status: u16, body_hash: u64) -> Sample {
        Sample {
            index,
            request_hash: 0,
            latency_us: 1.0,
            done_s: 0.0,
            connect_us: None,
            status,
            body_hash,
        }
    }

    #[test]
    fn check_counts_each_failed_request_once() {
        let stream = Stream::new(Mix::Cold, 1);
        let expected = BTreeMap::from([
            (
                0,
                Expected {
                    body_hash: 7,
                    ok: true,
                },
            ),
            (
                1,
                Expected {
                    body_hash: 9,
                    ok: false,
                },
            ),
        ]);
        let samples = [
            sample(0, 200, 7),
            sample(0, 200, 8),
            sample(0, 0, 0),
            sample(0, 429, 0),
            sample(1, 200, 9),
            sample(2, 200, 7),
        ];
        let f = check(&stream, &samples, &expected);
        assert_eq!(
            (f.mismatch, f.transport, f.status, f.not_halted),
            (2, 1, 1, 1)
        );
        assert_eq!(f.total(), 5);
    }

    fn window(requests: u64, connections: u64, server_closes: u64) -> Window {
        Window {
            samples: (0..requests).map(|i| sample(i, 200, 0)).collect(),
            elapsed: Duration::from_secs(1),
            connections,
            server_closes,
        }
    }

    /// Window deltas as the server reports them: the clients' traffic
    /// plus the closing scrape's connection and request.
    fn deltas_of(w: &Window, extra: &[(&str, u64)]) -> BTreeMap<String, u64> {
        let mut d = BTreeMap::from([
            (
                "serve_http_requests".to_string(),
                w.samples.len() as u64 + 1,
            ),
            ("serve_http_connections".to_string(), w.connections + 1),
        ]);
        for &(k, v) in extra {
            d.insert(k.to_string(), v);
        }
        d
    }

    #[test]
    fn validity_names_each_broken_property() {
        let w = window(10, 2, 0);
        assert!(validity(Mix::Cold, 2, &deltas_of(&w, &[]), &w).is_empty());
        let broken = validity(Mix::Cold, 2, &deltas_of(&w, &[("serve_cache_hit", 1)]), &w);
        assert_eq!(broken.len(), 1, "{broken:?}");
        // More keep-alive connections than clients and server closes.
        let w = window(10, 5, 2);
        assert_eq!(validity(Mix::Cold, 2, &deltas_of(&w, &[]), &w).len(), 1);
        // One connection per request, or it is not the connect workload.
        let w = window(10, 10, 0);
        assert!(validity(Mix::Connect, 2, &deltas_of(&w, &[]), &w).is_empty());
        let broken = validity(
            Mix::Connect,
            2,
            &deltas_of(&w, &[("sim_program_cache_miss", 3)]),
            &w,
        );
        assert_eq!(broken.len(), 1, "{broken:?}");
        let w = window(10, 9, 0);
        assert_eq!(validity(Mix::Connect, 2, &deltas_of(&w, &[]), &w).len(), 1);
        // The server saw traffic the clients did not send.
        let w = window(10, 2, 0);
        let mut d = deltas_of(&w, &[]);
        d.insert("serve_http_requests".to_string(), 12);
        assert_eq!(validity(Mix::Cold, 2, &d, &w).len(), 1);
    }
}
