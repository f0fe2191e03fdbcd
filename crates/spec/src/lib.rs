//! sentinel-spec: one job description and one cache for every layer.
//!
//! The paper's evaluation (§5) is a grid of (benchmark, machine model,
//! issue width, knob) points, and every layer of this repository —
//! the serve API, the bench grid, the differential fuzzer, the CLI —
//! runs jobs drawn from that same space. This crate gives them a
//! single vocabulary:
//!
//! * [`JobSpec`] — a canonical value describing one compile, simulate,
//!   or fuzz job, with one canonical byte encoding
//!   ([`JobSpec::canonical`]) and one stable 64-bit content hash
//!   ([`JobSpec::content_hash`], rendered by [`JobSpec::hash_hex`]).
//!   The serve cache, the bench grid store, and fuzz repro lines all
//!   derive their keys from it, so the same job always has the same
//!   identity no matter which layer ran it.
//! * [`fnv64`] — the FNV-1a content hash behind every key (moved here
//!   from `serve::cache`, reference vectors and all).
//! * [`Store`] — a generic content-addressed store: in-memory LRU plus
//!   an optional checksummed disk spill, generalized from serve's
//!   response cache so grid measurements persist across processes too.
//! * [`registry`] — sidecar `<hash>.spec` files that map a bare
//!   content hash back to its canonical spec (and, for inline-source
//!   jobs, the source text), so `--spec <hash>` reproduces a job from
//!   one identifier.
//! * [`pipeline`] — how every layer runs a job: the machine, scheduler
//!   options and simulator configuration a spec derives, one compile
//!   entry ([`Prepared::compile`]) and one run entry
//!   ([`Prepared::session`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod pipeline;
pub mod registry;
pub mod store;

pub use job::{
    model_str, parse_model, parse_model_name, semantics_for, JobSpec, ProgramRef, SpecError,
    SpecKind,
};
pub use pipeline::{apply_image, Prepared};
pub use registry::ResolvedSpec;
pub use store::{Store, StoreMetricNames};

/// 64-bit FNV-1a over `bytes`.
///
/// This is the one content hash used for cache keys, spill file names,
/// and [`JobSpec::content_hash`] across serve, bench, fuzz, and the
/// CLI. Not a `Hasher`: [`sentinel_sim::hash::FastHasher`] exists for
/// hot-path *map* hashing and is intentionally a different algorithm —
/// `fnv64` values are persisted (spill filenames, golden hashes, repro
/// lines), so this function must stay byte-for-byte stable forever.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a test vectors; these pin the exact algorithm.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv_is_content_sensitive() {
        assert_ne!(fnv64(b"compile|x"), fnv64(b"compile|y"));
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }
}
