//! Seeded request streams for the serve workloads.
//!
//! A stream is a pure function of `(workload, seed, index)`: client
//! threads draw indices from one shared counter and build the request
//! for each index on demand, so no stream has a fixed length and the
//! same seed always yields the same bytes.
//!
//! * `serve_cold` alternates `/v1/simulate` on distinct suite schedule
//!   points (bench × model × width × recovery, in a seeded order) and
//!   `/v1/compile` of distinct generated programs. No cache key repeats
//!   within [`COLD_CAPACITY`] requests.
//! * `serve_connect` replays a fixed seeded set of [`WARM_JOBS`] jobs
//!   drawn the same way, all cached before timing.
//!
//! Requests never name an engine, so the server's default engine runs.

use sentinel_serve::api::{ApiRequest, JobKind};
use sentinel_spec::fnv64;
use sentinel_trace::json;
use sentinel_workloads::{generate, suite, Rng, WorkloadSpec};

/// Jobs in the replayed set: well under the server's 1,024-entry
/// response cache and 512-entry program cache, so every replayed
/// request is a hit.
pub const WARM_JOBS: u64 = 256;

/// Scheduling models a request may name.
const MODELS: [&str; 20] = [
    "R", "G", "S", "T", "B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9", "B10", "B11", "B12",
    "B13", "B14", "B15", "B16",
];

/// Largest issue width the service accepts.
const MAX_WIDTH: u64 = sentinel_serve::api::MAX_WIDTH as u64;

/// Distinct simulate points: 17 benches × models × widths × recovery.
pub const SIM_POINTS: u64 = 17 * MODELS.len() as u64 * MAX_WIDTH * 2;

/// Requests a cold stream can serve before a simulate point repeats
/// (every other request is a simulate).
pub const COLD_CAPACITY: u64 = 2 * SIM_POINTS;

/// The serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Distinct jobs on keep-alive connections: every request misses.
    Cold,
    /// A cached job set replayed with one connection per request.
    Connect,
}

impl Mix {
    /// Parses a workload name of the benchmark.
    pub fn parse(name: &str) -> Option<Mix> {
        match name {
            "serve_cold" => Some(Mix::Cold),
            "serve_connect" => Some(Mix::Connect),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Cold => "serve_cold",
            Mix::Connect => "serve_connect",
        }
    }

    /// Whether a client keeps its connection across requests.
    pub fn keep_alive(self) -> bool {
        self == Mix::Cold
    }
}

/// One request of a stream: its endpoint and JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Which endpoint the body is posted to.
    pub kind: JobKind,
    /// The JSON body.
    pub body: String,
}

impl Request {
    /// The request as HTTP/1.1 bytes, written in one piece.
    pub fn http_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut out = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nConnection: {connection}\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.kind.path(),
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// The parsed API job.
    ///
    /// # Panics
    ///
    /// If the body does not parse, which is a bug in this module.
    pub fn job(&self) -> ApiRequest {
        ApiRequest::from_json(self.kind, &self.body).expect("generated request parses")
    }
}

/// A seeded stream of one workload.
pub struct Stream {
    mix: Mix,
    seed: u64,
    benches: Vec<WorkloadSpec>,
    /// Simulate points `(bench, model, width, recovery)` in seeded order.
    points: Vec<(u16, u8, u8, bool)>,
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Stream {
    /// The stream of `mix` under `seed`.
    pub fn new(mix: Mix, seed: u64) -> Stream {
        let benches = suite::specs();
        let mut points = Vec::with_capacity(SIM_POINTS as usize);
        for b in 0..benches.len() as u16 {
            for m in 0..MODELS.len() as u8 {
                for w in 1..=MAX_WIDTH as u8 {
                    for rec in [false, true] {
                        points.push((b, m, w, rec));
                    }
                }
            }
        }
        let mut rng = Rng::seed_from_u64(seed);
        for i in (1..points.len()).rev() {
            let j = rng.gen_below(i as u64 + 1) as usize;
            points.swap(i, j);
        }
        Stream {
            mix,
            seed,
            benches,
            points,
        }
    }

    /// The workload this stream feeds.
    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// The job behind request `index`: the request itself on the cold
    /// stream, a seeded pick from the replayed set otherwise.
    pub fn job_index(&self, index: u64) -> u64 {
        match self.mix {
            Mix::Cold => index,
            Mix::Connect => mix64(self.seed ^ mix64(index)) % WARM_JOBS,
        }
    }

    /// Request `index` of the stream.
    pub fn request(&self, index: u64) -> Request {
        self.job(self.job_index(index))
    }

    /// Job `job` of the stream's layout: even jobs simulate, odd jobs
    /// compile.
    ///
    /// # Panics
    ///
    /// Past [`COLD_CAPACITY`] (a key would repeat).
    pub fn job(&self, job: u64) -> Request {
        assert!(
            job < COLD_CAPACITY,
            "cold stream exhausted at job {job}: keys would repeat"
        );
        if job.is_multiple_of(2) {
            self.simulate(job / 2)
        } else {
            self.compile(job / 2)
        }
    }

    fn simulate(&self, n: u64) -> Request {
        let (b, m, w, rec) = self.points[n as usize];
        Request {
            kind: JobKind::Simulate,
            body: format!(
                "{{\"v\":1,\"suite\":\"{}\",\"model\":\"{}\",\"width\":{w},\"recovery\":{rec}}}",
                self.benches[b as usize].name, MODELS[m as usize]
            ),
        }
    }

    /// A compile job: a suite benchmark's generator parameters under a
    /// fresh seed, printed as assembly, with seeded knobs.
    fn compile(&self, n: u64) -> Request {
        let h = mix64(self.seed.rotate_left(17) ^ mix64(n));
        let mut spec = self.benches[(h % self.benches.len() as u64) as usize].clone();
        spec.seed = h;
        let source = sentinel_prog::asm::print(&generate(&spec).func);
        let mut rng = Rng::seed_from_u64(h);
        let model = MODELS[rng.gen_below(MODELS.len() as u64) as usize];
        let width = 1 + rng.gen_below(MAX_WIDTH);
        let recovery = rng.gen_bool(0.5);
        let mut body = String::from("{\"v\":1,\"source\":");
        json::push_str_lit(&mut body, &source);
        body.push_str(&format!(
            ",\"model\":\"{model}\",\"width\":{width},\"recovery\":{recovery}}}"
        ));
        Request {
            kind: JobKind::Compile,
            body,
        }
    }

    /// Digest of requests `0..n`: [`digest`] over each request's HTTP
    /// bytes, as the load clients compute it.
    #[cfg(test)]
    fn digest(&self, n: u64) -> u64 {
        let keep_alive = self.mix.keep_alive();
        digest((0..n).map(|i| fnv64(&self.request(i).http_bytes(keep_alive))))
    }
}

/// FNV-1a over a sequence of per-request FNV-1a hashes, in stream order
/// (clients hash each request as they send it).
pub fn digest(hashes: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = hashes.flat_map(u64::to_le_bytes).collect();
    fnv64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_the_same_stream() {
        for mix in [Mix::Cold, Mix::Connect] {
            let (a, b) = (Stream::new(mix, 7), Stream::new(mix, 7));
            for i in 0..64 {
                assert_eq!(a.request(i), b.request(i), "{mix:?} request {i}");
            }
            assert_eq!(a.digest(64), b.digest(64));
        }
    }

    #[test]
    fn a_different_seed_gives_a_different_stream() {
        for mix in [Mix::Cold, Mix::Connect] {
            let (a, b) = (Stream::new(mix, 7), Stream::new(mix, 8));
            assert_ne!(a.digest(64), b.digest(64), "{mix:?}");
            let differing = (0..64).filter(|&i| a.request(i) != b.request(i)).count();
            assert!(differing > 48, "{mix:?}: only {differing} of 64 differ");
        }
    }

    #[test]
    fn cold_stream_never_repeats_a_key() {
        // The whole capacity: more requests than any timed window sends.
        let s = Stream::new(Mix::Cold, 3);
        let mut keys = HashSet::new();
        let mut schedule_points = HashSet::new();
        for i in 0..COLD_CAPACITY {
            let job = s.request(i).job();
            assert!(keys.insert(job.cache_key()), "request {i} repeats a key");
            if job.kind() == JobKind::Simulate {
                assert!(schedule_points.insert(job.to_spec().schedule_hash()));
            }
        }
    }

    #[test]
    fn cold_stream_alternates_endpoints_and_names_no_engine() {
        let s = Stream::new(Mix::Cold, 1);
        for i in 0..16 {
            let r = s.request(i);
            let want = if i % 2 == 0 {
                JobKind::Simulate
            } else {
                JobKind::Compile
            };
            assert_eq!(r.kind, want);
            assert!(!r.body.contains("\"engine\""));
        }
    }

    #[test]
    fn connect_stream_replays_a_fixed_set() {
        let s = Stream::new(Mix::Connect, 5);
        let jobs: HashSet<u64> = (0..4_096).map(|i| s.job_index(i)).collect();
        assert!(jobs.len() as u64 <= WARM_JOBS);
        assert!(jobs.len() as u64 > WARM_JOBS * 9 / 10, "{}", jobs.len());
        let keys: HashSet<String> = (0..4_096).map(|i| s.request(i).job().cache_key()).collect();
        assert_eq!(keys.len(), jobs.len());
    }

    #[test]
    fn http_bytes_carry_the_connection_mode() {
        let r = Stream::new(Mix::Connect, 1).request(0);
        let text = String::from_utf8(r.http_bytes(false)).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with(&r.body));
        let mut reader = std::io::BufReader::new(text.as_bytes());
        let parsed = sentinel_serve::http::read_request(&mut reader, 1 << 20).unwrap();
        assert_eq!(parsed.body_str(), Some(r.body.as_str()));
        assert!(!parsed.persistent());
    }
}
