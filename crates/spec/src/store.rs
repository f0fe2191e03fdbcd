//! Generic content-addressed store: bounded LRU memo table with an
//! optional checksummed on-disk spill.
//!
//! Generalized from the serve response cache: every layer's work is
//! deterministic — the same [`JobSpec`](crate::JobSpec) always
//! produces the same bytes — so one store implementation serves them
//! all. Serve keeps its instance keyed by spec canonical strings and
//! reporting under its historical `serve.cache.*` metric names; the
//! bench grid persists measurements under the canonical `store.*`
//! family ([`sentinel_trace::store`]). The metric vocabulary is the
//! only per-instance variation, injected via [`StoreMetricNames`].
//!
//! Capacity is an **LRU bound**: at the limit the least-recently-used
//! entry is evicted (`store.evict`), so a hostile key stream degrades
//! hit rate, not memory. With a spill directory
//! ([`Store::attach_dir`]) every entry is also written to disk as a
//! length-prefixed, checksummed file named by the FNV-1a hash of its
//! key, and the directory is warm-loaded at construction — a restarted
//! process answers yesterday's jobs from cache (`store.disk_hit`). A
//! truncated or bit-flipped file is a logged miss (`store.corrupt`),
//! never a panic.
//!
//! ## On-disk entry format (`<fnv64(key):016x>.sc`)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "SNTLSTO1"
//! 8       4     key length   (u32 LE)
//! 12      4     body length  (u32 LE)
//! 16      k     key bytes   (UTF-8)
//! 16+k    b     body bytes  (UTF-8)
//! 16+k+b  8     FNV-1a of key ++ body (u64 LE)
//! ```
//!
//! The full key is stored, so a warm load indexes by key, not by the
//! (collidable) hash in the filename; two keys that collide in the
//! filename simply overwrite each other's spill — a lost disk entry,
//! never a wrong answer. Storing the full key is also what lets the
//! [`registry`](crate::registry) resolve a bare content hash back to
//! its canonical spec from the spill file alone.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use sentinel_trace::store::{
    STORE_CORRUPT, STORE_DISK_HIT, STORE_EVICT, STORE_FULL, STORE_HIT, STORE_MISS,
};
use sentinel_trace::SharedMetrics;

use crate::fnv64;

/// Magic bytes opening every spill file this store writes.
const MAGIC: &[u8; 8] = b"SNTLSTO1";

/// Spill-file extension.
pub(crate) const EXT: &str = "sc";

/// The counter names a [`Store`] instance reports under.
///
/// Defaults to the canonical `store.*` family; the serve layer
/// overrides every field with its historical `serve.cache.*` aliases
/// to keep `/metrics` output byte-compatible.
#[derive(Debug, Clone, Copy)]
pub struct StoreMetricNames {
    /// In-memory lookup served.
    pub hit: &'static str,
    /// Lookup that found nothing.
    pub miss: &'static str,
    /// First in-process hit on a warm-loaded entry.
    pub disk_hit: &'static str,
    /// LRU eviction (memory and spill file both).
    pub evict: &'static str,
    /// Spill file rejected at warm load.
    pub corrupt: &'static str,
    /// Insert dropped (capacity zero) or spill write failed.
    pub full: &'static str,
}

impl Default for StoreMetricNames {
    fn default() -> StoreMetricNames {
        StoreMetricNames {
            hit: STORE_HIT,
            miss: STORE_MISS,
            disk_hit: STORE_DISK_HIT,
            evict: STORE_EVICT,
            corrupt: STORE_CORRUPT,
            full: STORE_FULL,
        }
    }
}

struct Entry {
    body: String,
    /// Recency stamp: larger = more recently used.
    seq: u64,
    /// Warm-loaded from disk and not yet hit since (first hit counts
    /// a disk hit).
    from_disk: bool,
}

struct State {
    map: HashMap<String, Entry>,
    seq: u64,
}

/// Bounded LRU memo table from content key to deterministic body,
/// optionally mirrored to a spill directory.
pub struct Store {
    state: Mutex<State>,
    capacity: usize,
    dir: Option<PathBuf>,
    metrics: SharedMetrics,
    names: StoreMetricNames,
}

impl Store {
    /// An empty in-memory store holding at most `capacity` bodies,
    /// reporting into `metrics` under the canonical `store.*` names.
    pub fn new(capacity: usize, metrics: SharedMetrics) -> Store {
        Store {
            state: Mutex::new(State {
                map: HashMap::new(),
                seq: 0,
            }),
            capacity,
            dir: None,
            metrics,
            names: StoreMetricNames::default(),
        }
    }

    /// Report under `names` instead of the canonical `store.*` family
    /// (builder-style; serve uses this for its `serve.cache.*`
    /// aliases).
    pub fn metric_names(mut self, names: StoreMetricNames) -> Store {
        self.names = names;
        self
    }

    /// Attach a spill directory (created if absent) and warm-load
    /// whatever valid entries are already there (builder-style, after
    /// [`metric_names`](Store::metric_names) so warm-load corruption
    /// counts under the right name).
    ///
    /// # Errors
    ///
    /// Only directory creation can fail; unreadable or corrupt entry
    /// files are counted, logged, and skipped.
    pub fn attach_dir(mut self, dir: &Path) -> io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        self.dir = Some(dir.to_path_buf());
        self.warm_load(dir);
        Ok(self)
    }

    /// The spill directory, if one is attached.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The stored body for `key`, bumping hit/miss counters (and the
    /// disk-hit counter the first time a warm-loaded entry is served
    /// after a restart).
    pub fn lookup(&self, key: &str) -> Option<String> {
        let mut state = self.state();
        state.seq += 1;
        let seq = state.seq;
        let found = match state.map.get_mut(key) {
            Some(entry) => {
                entry.seq = seq;
                if std::mem::take(&mut entry.from_disk) {
                    self.metrics.count(self.names.disk_hit, 1);
                }
                Some(entry.body.clone())
            }
            None => None,
        };
        drop(state);
        self.metrics.count(
            if found.is_some() {
                self.names.hit
            } else {
                self.names.miss
            },
            1,
        );
        found
    }

    /// Retains `body` for `key`, evicting the least-recently-used
    /// entry (memory and spill file both) if the store is at capacity.
    /// Two workers racing the same missing key both compute and the
    /// second insert wins — same body either way, since job results
    /// are deterministic.
    pub fn insert(&self, key: String, body: String) {
        if self.capacity == 0 {
            self.metrics.count(self.names.full, 1);
            return;
        }
        let spill = self.spill_path(&key);
        let mut state = self.state();
        state.seq += 1;
        let seq = state.seq;
        if state.map.len() >= self.capacity && !state.map.contains_key(&key) {
            // O(n) LRU scan: capacity is ~10^3 and insert already paid
            // for a schedule+simulate, so simplicity wins over an
            // intrusive list.
            if let Some(lru) = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| k.clone())
            {
                state.map.remove(&lru);
                self.metrics.count(self.names.evict, 1);
                if let Some(path) = self.spill_path(&lru) {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        state.map.insert(
            key.clone(),
            Entry {
                body: body.clone(),
                seq,
                from_disk: false,
            },
        );
        drop(state);
        if let Some(path) = spill {
            if let Err(e) = write_spill(&path, &key, &body) {
                // Entry stays served from memory; the spill is lost.
                self.metrics.count(self.names.full, 1);
                eprintln!("store: spill {}: {e}", path.display());
            }
        }
    }

    /// Number of stored bodies.
    pub fn len(&self) -> usize {
        self.state().map.len()
    }

    /// Whether nothing is stored yet.
    pub fn is_empty(&self) -> bool {
        self.state().map.is_empty()
    }

    fn spill_path(&self, key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}.{EXT}", fnv64(key.as_bytes()))))
    }

    /// Loads every valid spill file in `dir` (sorted by filename for a
    /// deterministic initial recency order), stopping at capacity.
    fn warm_load(&self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == EXT))
            .collect();
        paths.sort();
        for path in paths {
            match read_spill(&path) {
                Ok((key, body)) => {
                    let mut state = self.state();
                    state.seq += 1;
                    let seq = state.seq;
                    if state.map.len() >= self.capacity {
                        // More files than capacity: ignore the excess
                        // (their files stay for a larger future store).
                        break;
                    }
                    state.map.insert(
                        key,
                        Entry {
                            body,
                            seq,
                            from_disk: true,
                        },
                    );
                }
                Err(e) => {
                    self.metrics.count(self.names.corrupt, 1);
                    eprintln!("store: entry {}: {e} (skipped)", path.display());
                }
            }
        }
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("dir", &self.dir)
            .finish()
    }
}

/// Serializes one entry to `path` via a temp file + rename, so readers
/// never observe a half-written entry.
fn write_spill(path: &Path, key: &str, body: &str) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(24 + key.len() + body.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&(key.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(key.as_bytes());
    bytes.extend_from_slice(body.as_bytes());
    let mut sum = Vec::with_capacity(key.len() + body.len());
    sum.extend_from_slice(key.as_bytes());
    sum.extend_from_slice(body.as_bytes());
    bytes.extend_from_slice(&fnv64(&sum).to_le_bytes());

    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
    }
    std::fs::rename(&tmp, path)
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Parses one spill file back into `(key, body)`, validating magic,
/// lengths, checksum, and UTF-8.
///
/// # Errors
///
/// `InvalidData` for any structural problem — the caller treats every
/// error as "this file is not a store entry".
pub(crate) fn read_spill(path: &Path) -> io::Result<(String, String)> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 24 {
        return Err(corrupt("truncated header"));
    }
    if &bytes[0..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let key_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let body_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let expected = 24usize
        .checked_add(key_len)
        .and_then(|n| n.checked_add(body_len));
    if expected != Some(bytes.len()) {
        return Err(corrupt("length mismatch"));
    }
    let key = &bytes[16..16 + key_len];
    let body = &bytes[16 + key_len..16 + key_len + body_len];
    let mut sum = Vec::with_capacity(key_len + body_len);
    sum.extend_from_slice(key);
    sum.extend_from_slice(body);
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if fnv64(&sum) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let key = std::str::from_utf8(key).map_err(|_| corrupt("non-UTF-8 key"))?;
    let body = std::str::from_utf8(body).map_err(|_| corrupt("non-UTF-8 body"))?;
    Ok((key.to_string(), body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh per-test spill directory (no `Drop` cleanup: the path is
    /// unique per process × call, and tempdirs are CI-ephemeral).
    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sentinel-store-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn with_dir(capacity: usize, metrics: SharedMetrics, dir: &Path) -> Store {
        Store::new(capacity, metrics).attach_dir(dir).unwrap()
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let metrics = SharedMetrics::new();
        let s = Store::new(8, metrics.clone());
        assert!(s.is_empty());
        assert!(s.lookup("k1").is_none());
        s.insert("k1".into(), "body".into());
        assert_eq!(s.lookup("k1").as_deref(), Some("body"));
        assert_eq!(metrics.counter(STORE_HIT), 1);
        assert_eq!(metrics.counter(STORE_MISS), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn metric_names_are_per_instance() {
        let metrics = SharedMetrics::new();
        let s = Store::new(8, metrics.clone()).metric_names(StoreMetricNames {
            hit: "alias.hit",
            miss: "alias.miss",
            disk_hit: "alias.disk_hit",
            evict: "alias.evict",
            corrupt: "alias.corrupt",
            full: "alias.full",
        });
        assert!(s.lookup("k").is_none());
        s.insert("k".into(), "v".into());
        assert!(s.lookup("k").is_some());
        assert_eq!(metrics.counter("alias.hit"), 1);
        assert_eq!(metrics.counter("alias.miss"), 1);
        assert_eq!(metrics.counter(STORE_HIT), 0, "canonical names untouched");
        assert_eq!(metrics.counter(STORE_MISS), 0);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let metrics = SharedMetrics::new();
        let s = Store::new(2, metrics.clone());
        s.insert("a".into(), "1".into());
        s.insert("b".into(), "2".into());
        // Touch "a": now "b" is least recently used.
        assert!(s.lookup("a").is_some());
        s.insert("c".into(), "3".into());
        assert_eq!(s.len(), 2);
        assert_eq!(metrics.counter(STORE_EVICT), 1);
        assert!(s.lookup("b").is_none(), "LRU entry should have gone");
        assert!(s.lookup("a").is_some());
        assert!(s.lookup("c").is_some());
        // Overwriting a resident key is not an eviction.
        s.insert("a".into(), "1'".into());
        assert_eq!(metrics.counter(STORE_EVICT), 1);
        assert_eq!(s.lookup("a").as_deref(), Some("1'"));
    }

    #[test]
    fn warm_start_serves_spilled_entries_as_disk_hits() {
        let dir = temp_dir("warm");
        {
            let s = with_dir(8, SharedMetrics::new(), &dir);
            s.insert("k1".into(), "body-1".into());
            s.insert("k2".into(), "body-2".into());
        }
        // "Restart": a fresh store over the same directory.
        let metrics = SharedMetrics::new();
        let s = with_dir(8, metrics.clone(), &dir);
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup("k1").as_deref(), Some("body-1"));
        assert_eq!(s.lookup("k1").as_deref(), Some("body-1"));
        assert_eq!(s.lookup("k2").as_deref(), Some("body-2"));
        assert_eq!(metrics.counter(STORE_HIT), 3);
        // disk_hit counts once per warm entry, on its first hit.
        assert_eq!(metrics.counter(STORE_DISK_HIT), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_magic_spills_are_corrupt_misses() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-write an entry the way the pre-extraction serve cache
        // did: identical layout and a valid checksum, but the retired
        // "SRVCACH1" magic — only the magic check can reject it.
        let (key, body) = ("old-key", "old-body");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SRVCACH1");
        bytes.extend_from_slice(&(key.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(key.as_bytes());
        bytes.extend_from_slice(body.as_bytes());
        let mut sum = Vec::new();
        sum.extend_from_slice(key.as_bytes());
        sum.extend_from_slice(body.as_bytes());
        bytes.extend_from_slice(&fnv64(&sum).to_le_bytes());
        let path = dir.join(format!("{:016x}.{EXT}", fnv64(key.as_bytes())));
        std::fs::write(&path, &bytes).unwrap();

        let metrics = SharedMetrics::new();
        let s = with_dir(8, metrics.clone(), &dir);
        assert_eq!(metrics.counter(STORE_CORRUPT), 1);
        assert!(s.lookup(key).is_none());
        assert_eq!(metrics.counter(STORE_MISS), 1);
        assert_eq!(metrics.counter(STORE_DISK_HIT), 0);
        let err = read_spill(&path).unwrap_err();
        assert_eq!(err.to_string(), "bad magic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_removes_the_spill_file_too() {
        let dir = temp_dir("evict");
        let metrics = SharedMetrics::new();
        {
            let s = with_dir(1, metrics.clone(), &dir);
            s.insert("a".into(), "1".into());
            s.insert("b".into(), "2".into());
            assert_eq!(metrics.counter(STORE_EVICT), 1);
        }
        let survivors: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .collect();
        assert_eq!(survivors.len(), 1, "evicted entry's file should be gone");
        let s2 = with_dir(8, SharedMetrics::new(), &dir);
        assert!(s2.lookup("a").is_none());
        assert_eq!(s2.lookup("b").as_deref(), Some("2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_files_are_logged_misses_not_panics() {
        let dir = temp_dir("corrupt");
        {
            let s = with_dir(8, SharedMetrics::new(), &dir);
            s.insert("good".into(), "kept".into());
            s.insert("flip".into(), "bits".into());
            s.insert("cut".into(), "short".into());
        }
        // Bit-flip one file's checksum region and truncate another.
        let flip = dir.join(format!("{:016x}.{EXT}", fnv64(b"flip")));
        let mut bytes = std::fs::read(&flip).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&flip, &bytes).unwrap();
        let cut = dir.join(format!("{:016x}.{EXT}", fnv64(b"cut")));
        let bytes = std::fs::read(&cut).unwrap();
        std::fs::write(&cut, &bytes[..10]).unwrap();
        // Plus a file that was never a store entry at all.
        std::fs::write(dir.join(format!("junk.{EXT}")), b"not a store entry").unwrap();

        let metrics = SharedMetrics::new();
        let s = with_dir(8, metrics.clone(), &dir);
        assert_eq!(metrics.counter(STORE_CORRUPT), 3);
        assert_eq!(s.lookup("good").as_deref(), Some("kept"));
        assert!(s.lookup("flip").is_none());
        assert!(s.lookup("cut").is_none());
        assert_eq!(metrics.counter(STORE_MISS), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_roundtrip_preserves_key_and_body() {
        let dir = temp_dir("roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("x.{EXT}"));
        write_spill(&path, "key|with|bars", "{\"cycles\":42}").unwrap();
        let (key, body) = read_spill(&path).unwrap();
        assert_eq!(key, "key|with|bars");
        assert_eq!(body, "{\"cycles\":42}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
