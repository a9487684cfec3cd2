//! The content-addressed, resumable result cache.
//!
//! A **cell** is one `(scenario, policy, master seed, semantics, step
//! cap)` evaluation. Its identity is the canonical JSON of those fields
//! ([`cell_key_fields`]) — note what is *excluded*: engine kind, thread
//! count, batch size and the stopping rule, none of which affect
//! results (the engine by the differential guarantee, threads/batch by
//! the evaluator's determinism contract, the stopping rule because it
//! only decides *how far* to grow the cell, never what any trial
//! contains). The FNV-1a hash of the canonical bytes
//! ([`CellKey::hex`]) is the cell's file name and its `GET
//! /v1/cell/{key}` address.
//!
//! Each cache file stores an [`EvalStats`] checkpoint
//! (`suu-sim/evalstats/v1`) wrapped in a [`CELL_SCHEMA`] envelope. A
//! cell is never recomputed: a request the cached trial count already
//! satisfies replays it byte-identically, and a request for more
//! precision *extends* it via the evaluator's resume path — bitwise
//! what a cold run at the final trial count would produce.
//!
//! Writes go through a temp file + atomic rename, so a crashed daemon
//! leaves either the old or the new checkpoint, never a torn one.
//! In-process, [`InflightTable`] serializes work per key: concurrent
//! identical requests coalesce onto one computation and the latecomer
//! reads the winner's checkpoint from disk.
//!
//! ## Recency log, size budget and LRU eviction
//!
//! The store mirrors every cell's size and recency in memory (O(log N)
//! per use, a running byte total), so a hit does no O(cache size) work. Recency persists as `recency.log` — an
//! append-only file of one cell key per line, kept for every store,
//! budgeted or not, and created by the first append. Each load hit and
//! each store appends one line; reopening replays the log onto the
//! cells found on disk (keys of deleted cells and a torn last line are
//! ignored; cells the log never names count as least recently used, in
//! key order) and compacts it with temp + rename. It is compacted again
//! at run time once it holds more than twice as many lines as there are
//! live cells, so a hit costs one appended line, amortized. A crash
//! leaves at worst slightly stale recency, never a torn cell.
//!
//! A store opened with [`CellStore::open_with_budget`] keeps total cell
//! bytes under the budget: every `store` that would exceed it evicts
//! least-recently-*used* cells first (loads count as use, not just
//! writes). Cells whose key is currently in flight are never evicted (a
//! resume in progress must find its checkpoint), and the cell just
//! written is always kept even when it alone exceeds the budget — a
//! budget too small for one cell degrades to "cache of one", not a
//! failure.

use crate::recency::Recency;
use crate::unpoisoned;
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use suu_core::fnv1a_hex;
use suu_core::json::Json;
use suu_sim::EvalStats;

/// Schema stamped on every cache file.
pub const CELL_SCHEMA: &str = suu_core::schemas::SERVE_CELL_V1;
/// Schema of the key-fields object that gets hashed.
pub const CELL_KEY_SCHEMA: &str = suu_core::schemas::SERVE_CELLKEY_V1;
/// File name of the append-only recency log inside the cache dir.
pub const RECENCY_LOG: &str = "recency.log";
/// Lines the recency log may hold beyond twice the live cell count
/// before it is compacted, so a small cache is not rewritten every few
/// hits.
const LOG_SLACK_LINES: usize = 64;

/// The canonical identity of a cell, pre-hash. `scenario_params` must be
/// the *normalized* parameter object from
/// [`suu_bench::request::RequestScenario`] so spelling variants
/// collapse; `master_seed` is the race master (the per-scenario
/// evaluation seed derives from it deterministically, so hashing either
/// is equivalent — the race master keeps the key auditable).
pub fn cell_key_fields(
    scenario_params: &Json,
    policy: &str,
    master_seed: u64,
    semantics: &str,
    max_steps: u64,
) -> Json {
    Json::obj()
        .field("schema", CELL_KEY_SCHEMA)
        .field("scenario", scenario_params.clone())
        .field("policy", policy)
        .field("master_seed", master_seed)
        .field("semantics", semantics)
        .field("max_steps", max_steps)
}

/// A computed cell address: the canonical bytes and their hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// Canonical JSON the hash covers (stored in the cache file for
    /// auditability and collision detection).
    pub canonical: String,
    /// 16-hex-char FNV-1a content address.
    pub hex: String,
}

impl CellKey {
    /// Address a cell.
    pub fn new(fields: &Json) -> CellKey {
        let canonical = fields.to_canonical();
        let hex = fnv1a_hex(canonical.as_bytes());
        CellKey { canonical, hex }
    }
}

/// `true` iff `key` is a plausible cell address — the shared
/// [`suu_core::is_fnv1a_hex`] shape, so this cache and the
/// `validate_results` CI gate agree by construction.
pub fn is_valid_key_hex(key: &str) -> bool {
    suu_core::is_fnv1a_hex(key)
}

/// A loaded cache entry.
#[derive(Debug)]
pub struct CachedCell {
    /// The restored, resumable statistics.
    pub stats: EvalStats,
    /// Stop reason recorded when the cell last grew.
    pub stop_reason: String,
}

/// The on-disk store plus its counters.
pub struct CellStore {
    dir: PathBuf,
    /// Cells served entirely from disk.
    pub hits: AtomicU64,
    /// Cells computed from scratch.
    pub misses: AtomicU64,
    /// Cells resumed to a higher trial count.
    pub extends: AtomicU64,
    /// Requests that waited for an identical in-flight computation.
    pub coalesced: AtomicU64,
    /// Cells deleted to stay under the size budget.
    pub evictions: AtomicU64,
    inflight: InflightTable,
    /// Total-cell-bytes ceiling (`None` = unbounded).
    budget: Option<u64>,
    lru: Mutex<LruState>,
}

/// In-memory mirror of the cells on disk: recency, sizes and their
/// total, plus the append handle of the recency log.
#[derive(Debug, Default)]
struct LruState {
    /// Cell key → file size, least to most recently used.
    cells: Recency<u64>,
    /// Sum of `cells`' sizes.
    total_bytes: u64,
    /// `recency.log` opened for append; `None` until the first append
    /// and after each compaction.
    log: Option<std::fs::File>,
    /// Lines in `recency.log` since it was last compacted.
    log_lines: usize,
}

impl LruState {
    /// Record a use of `hex` at `size` bytes (inserting it if the
    /// mirror did not know it) and append it to the log.
    fn put(&mut self, dir: &Path, hex: &str, size: u64) {
        let old = self.cells.insert(hex, size).unwrap_or(0);
        self.total_bytes = self.total_bytes + size - old;
        self.append(dir, hex);
    }

    /// Drop `hex` from the mirror (its file is gone). The log keeps its
    /// lines; replay ignores keys with no cell on disk.
    fn forget(&mut self, hex: &str) {
        if let Some(size) = self.cells.remove(hex) {
            self.total_bytes -= size;
        }
    }

    /// Append one key line to the log, compacting it once it holds
    /// more than twice the live cells. Best-effort: recency is an
    /// optimization, losing it must never fail a request.
    fn append(&mut self, dir: &Path, hex: &str) {
        let Some(line) = log_line(hex) else {
            return;
        };
        if self.log.is_none() {
            self.log = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(RECENCY_LOG))
                .ok();
        }
        let written = self
            .log
            .as_mut()
            .is_some_and(|log| log.write_all(&line).is_ok());
        if !written {
            self.log = None; // reopen on the next append
            return;
        }
        self.log_lines += 1;
        if self.log_lines > 2 * self.cells.len() + LOG_SLACK_LINES {
            self.compact(dir);
        }
    }

    /// Rewrite the log as the live keys in LRU order (temp + rename).
    fn compact(&mut self, dir: &Path) {
        let mut text = String::with_capacity(17 * self.cells.len());
        for key in self.cells.keys() {
            text.push_str(key);
            text.push('\n');
        }
        let tmp = dir.join(format!("{RECENCY_LOG}.tmp.{}", std::process::id()));
        self.log = None;
        if std::fs::write(&tmp, text).is_err()
            || std::fs::rename(&tmp, dir.join(RECENCY_LOG)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
        // A failed attempt (disk full) waits as long as a successful one
        // before the next, keeping appends amortized O(1) either way.
        self.log_lines = self.cells.len();
    }
}

/// One recency-log line, a cell key and its newline, built on the
/// stack so an append allocates nothing. `None` for a malformed key,
/// which replay could never match to a cell file anyway.
fn log_line(hex: &str) -> Option<[u8; 17]> {
    let key: &[u8; 16] = hex.as_bytes().try_into().ok()?;
    if !is_valid_key_hex(hex) {
        return None;
    }
    let mut line = [b'\n'; 17];
    line[..16].copy_from_slice(key);
    Some(line)
}

impl CellStore {
    /// Open (creating the directory if needed) with no size budget.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<CellStore> {
        CellStore::open_with_budget(dir, None)
    }

    /// Open with an optional total-cell-bytes budget. Sizes come from a
    /// directory scan (the disk is the authority), recency from
    /// replaying `recency.log` when present (see the module docs).
    pub fn open_with_budget(
        dir: impl Into<PathBuf>,
        budget: Option<u64>,
    ) -> std::io::Result<CellStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let lru = load_lru(&dir);
        Ok(CellStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            extends: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inflight: InflightTable::new(),
            budget,
            lru: Mutex::new(lru),
        })
    }

    /// Directory backing the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured size budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Total bytes of cached cells (from the in-memory size mirror).
    pub fn cache_bytes(&self) -> u64 {
        self.lru_lock().total_bytes
    }

    /// Cells currently cached, from the in-memory mirror: seeded by a
    /// directory scan on open, kept by every store and eviction, and
    /// corrected when a load finds a mirrored cell's file gone.
    pub fn cells_on_disk(&self) -> usize {
        self.lru_lock().cells.len()
    }

    /// The LRU mirror, recovered from poison: a panic elsewhere while
    /// holding the lock leaves at worst stale recency, which the next
    /// touch repairs — recency is an optimization, never worth wedging
    /// the store over.
    fn lru_lock(&self) -> std::sync::MutexGuard<'_, LruState> {
        unpoisoned(self.lru.lock())
    }

    /// Record a write of `hex` at `size` bytes, then evict LRU-first
    /// until the budget holds. In-flight keys and the cell just written
    /// are exempt.
    fn lru_record(&self, hex: &str, size: u64) {
        let mut lru = self.lru_lock();
        lru.put(&self.dir, hex, size);
        let Some(budget) = self.budget else {
            return;
        };
        let mut cursor = None;
        while lru.total_bytes > budget {
            let Some((seq, victim)) = lru.cells.next_after(cursor) else {
                break;
            };
            cursor = Some(seq);
            if victim == hex || self.inflight.contains(victim) {
                continue; // exempt; try the next-least-recent
            }
            let victim = victim.to_string();
            // Remove the file first: an eviction that fails to delete
            // must not be forgotten by the mirror.
            match std::fs::remove_file(self.path_for(&victim)) {
                Ok(()) => {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Already gone (external cleanup): reconcile the
                // mirror, but it wasn't our eviction.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => continue,
            }
            lru.forget(&victim);
        }
    }

    fn path_for(&self, hex: &str) -> PathBuf {
        self.dir.join(format!("{hex}.json"))
    }

    /// Raw cache document for `GET /v1/cell/{key}` (None when absent or
    /// the key is malformed).
    pub fn raw(&self, hex: &str) -> Option<String> {
        if !is_valid_key_hex(hex) {
            return None;
        }
        std::fs::read_to_string(self.path_for(hex)).ok()
    }

    /// Load a cell if cached. A file that exists but fails validation
    /// (schema drift, truncation despite atomic writes, key collision)
    /// is reported as an error — the daemon refuses to guess.
    pub fn load(&self, key: &CellKey) -> Result<Option<CachedCell>, String> {
        let path = self.path_for(&key.hex);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Deleted behind our back: keep the mirror (and with it
                // `cells_on_disk`) honest.
                self.lru_lock().forget(&key.hex);
                return Ok(None);
            }
            Err(e) => return Err(format!("cache read {}: {e}", path.display())),
        };
        let doc = suu_core::json::parse(&text)
            .map_err(|e| format!("cache parse {}: {e}", path.display()))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(CELL_SCHEMA) => {}
            other => return Err(format!("cache {}: bad schema {other:?}", path.display())),
        }
        // Detect FNV collisions / foreign files: the stored canonical key
        // must be exactly ours.
        match doc.get("cell_key_canonical").and_then(Json::as_str) {
            Some(canonical) if canonical == key.canonical => {}
            Some(_) => {
                return Err(format!(
                    "cache {}: content-address collision (stored key differs)",
                    path.display()
                ))
            }
            None => return Err(format!("cache {}: missing canonical key", path.display())),
        }
        let stop_reason = doc
            .get("stop_reason")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("cache {}: missing stop_reason", path.display()))?
            .to_string();
        let checkpoint = doc
            .get("checkpoint")
            .ok_or_else(|| format!("cache {}: missing checkpoint", path.display()))?;
        let stats = EvalStats::from_json(checkpoint)
            .map_err(|e| format!("cache {}: {e}", path.display()))?;
        // A read is a use: hits must refresh recency or a hot cell gets
        // evicted under write pressure.
        let size = u64::try_from(text.len()).unwrap_or(u64::MAX);
        self.lru_lock().put(&self.dir, &key.hex, size);
        Ok(Some(CachedCell { stats, stop_reason }))
    }

    /// Persist a cell checkpoint (temp file + rename, atomic on POSIX).
    pub fn store(
        &self,
        key: &CellKey,
        policy: &str,
        stats: &EvalStats,
        stop_reason: &str,
    ) -> Result<(), String> {
        let doc = Json::obj()
            .field("schema", CELL_SCHEMA)
            .field("cell_key", key.hex.as_str())
            .field("cell_key_canonical", key.canonical.as_str())
            .field("policy", policy)
            .field("stop_reason", stop_reason)
            .field("checkpoint", stats.to_json());
        let path = self.path_for(&key.hex);
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}", key.hex, std::process::id()));
        let bytes = doc.to_pretty();
        let size = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
        std::fs::write(&tmp, bytes).map_err(|e| format!("cache write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cache rename {}: {e}", path.display()))?;
        self.lru_record(&key.hex, size);
        Ok(())
    }

    /// Run `work` while holding the per-key in-flight guard: concurrent
    /// callers with the same key run strictly one at a time (the
    /// `coalesced` counter records each wait). The caller re-checks the
    /// store once inside, so a latecomer finds the winner's checkpoint.
    /// The key is released through a drop guard, so a panicking `work`
    /// (poisoned checkpoint, evaluator bug) unwinds without wedging
    /// every future request for the cell.
    pub fn with_inflight<T>(&self, key: &CellKey, work: impl FnOnce() -> T) -> T {
        struct Released<'a> {
            table: &'a InflightTable,
            key: &'a str,
        }
        impl Drop for Released<'_> {
            fn drop(&mut self) {
                self.table.release(self.key);
            }
        }
        if self.inflight.acquire(&key.hex) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        let _guard = Released {
            table: &self.inflight,
            key: &key.hex,
        };
        work()
    }

    /// Keys currently being computed.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }
}

/// Per-key mutual exclusion with a single mutex + condvar (the key set
/// is small: one entry per concurrently-computing cell).
struct InflightTable {
    keys: Mutex<BTreeSet<String>>,
    freed: Condvar,
}

impl InflightTable {
    fn new() -> InflightTable {
        InflightTable {
            keys: Mutex::new(BTreeSet::new()),
            freed: Condvar::new(),
        }
    }

    /// Block until the key is free, then claim it. Returns `true` when
    /// the caller had to wait (i.e. it coalesced behind another request).
    fn acquire(&self, key: &str) -> bool {
        let mut keys = unpoisoned(self.keys.lock());
        let mut waited = false;
        while keys.contains(key) {
            waited = true;
            keys = unpoisoned(self.freed.wait(keys));
        }
        keys.insert(key.to_string());
        waited
    }

    fn release(&self, key: &str) {
        let mut keys = unpoisoned(self.keys.lock());
        keys.remove(key);
        drop(keys);
        self.freed.notify_all();
    }

    fn len(&self) -> usize {
        unpoisoned(self.keys.lock()).len()
    }

    fn contains(&self, key: &str) -> bool {
        unpoisoned(self.keys.lock()).contains(key)
    }
}

/// Seed the LRU mirror: sizes from a directory scan (the disk is the
/// authority), recency from replaying `recency.log` where it has an
/// opinion. Unlogged cells sort first (least recent) by key for
/// determinism. A leftover `index.json` from the old whole-index format
/// is removed.
fn load_lru(dir: &Path) -> LruState {
    let _ = std::fs::remove_file(dir.join("index.json"));
    let mut sizes = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if path.extension().is_some_and(|x| x == "json") && is_valid_key_hex(stem) {
                if let Ok(meta) = entry.metadata() {
                    sizes.push((stem.to_string(), meta.len()));
                }
            }
        }
    }
    sizes.sort_unstable();
    let mut lru = LruState::default();
    for (key, size) in sizes {
        lru.cells.insert(&key, size);
        lru.total_bytes += size;
    }
    if let Ok(bytes) = std::fs::read(dir.join(RECENCY_LOG)) {
        // Only newline-terminated lines count: a crash mid-append leaves
        // a torn last line, which is ignored.
        let complete = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(&bytes[..0], |end| &bytes[..end]);
        for line in String::from_utf8_lossy(complete).split('\n') {
            lru.cells.touch(line); // unknown keys are no-ops
        }
        lru.compact(dir);
    }
    lru
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_sim::Evaluator;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("suu-serve-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stats() -> EvalStats {
        let sc = suu_bench::scenario::Scenario::uniform(2, 4, 0.3, 0.9, 5);
        let registry = suu_algos::standard_registry();
        Evaluator::seeded(8, 42)
            .run_stats_spec(
                &registry,
                &sc.instantiate(),
                &suu_sim::PolicySpec::new("gang-sequential"),
            )
            .unwrap()
    }

    fn sample_key(seed: u64) -> CellKey {
        let params = Json::obj()
            .field("family", "uniform")
            .field("m", 2u64)
            .field("n", 4u64)
            .field("lo", 0.3)
            .field("hi", 0.9)
            .field("seed", 5u64);
        CellKey::new(&cell_key_fields(
            &params,
            "gang-sequential",
            seed,
            "suu-star",
            1000,
        ))
    }

    #[test]
    fn key_is_order_insensitive_and_field_sensitive() {
        let params_a = Json::obj().field("family", "uniform").field("m", 2u64);
        let params_b = Json::obj().field("m", 2u64).field("family", "uniform");
        let key = |p: &Json| CellKey::new(&cell_key_fields(p, "x", 1, "suu-star", 10));
        assert_eq!(key(&params_a), key(&params_b));
        assert_ne!(
            key(&params_a),
            CellKey::new(&cell_key_fields(&params_a, "y", 1, "suu-star", 10))
        );
        assert_ne!(
            key(&params_a),
            CellKey::new(&cell_key_fields(&params_a, "x", 2, "suu-star", 10))
        );
        assert!(is_valid_key_hex(&key(&params_a).hex));
    }

    #[test]
    fn store_load_roundtrips_bitwise() {
        let store = CellStore::open(tempdir("roundtrip")).unwrap();
        let key = sample_key(42);
        assert!(store.load(&key).unwrap().is_none());
        let stats = sample_stats();
        store
            .store(&key, "gang-sequential", &stats, "fixed-budget")
            .unwrap();
        let cached = store.load(&key).unwrap().expect("stored cell");
        assert_eq!(cached.stop_reason, "fixed-budget");
        assert_eq!(
            cached.stats.acc.to_json().to_compact(),
            stats.acc.to_json().to_compact(),
            "restored accumulator must be bitwise the stored one"
        );
        assert_eq!(store.cells_on_disk(), 1);
        assert!(store.raw(&key.hex).unwrap().contains(CELL_SCHEMA));
        assert!(store.raw("not-a-key").is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn collision_and_corruption_are_loud() {
        let store = CellStore::open(tempdir("corrupt")).unwrap();
        let key_a = sample_key(1);
        let key_b = sample_key(2);
        let stats = sample_stats();
        store
            .store(&key_a, "gang-sequential", &stats, "fixed-budget")
            .unwrap();
        // Simulate a collision: key_b's file containing key_a's content.
        std::fs::copy(
            store.dir().join(format!("{}.json", key_a.hex)),
            store.dir().join(format!("{}.json", key_b.hex)),
        )
        .unwrap();
        let err = store.load(&key_b).unwrap_err();
        assert!(err.contains("collision"), "{err}");
        // Truncated file: error, not a panic or a silent miss.
        std::fs::write(store.dir().join(format!("{}.json", key_a.hex)), "{\"sch").unwrap();
        assert!(store.load(&key_a).is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn inflight_serializes_same_key_and_counts_waits() {
        let store = std::sync::Arc::new(CellStore::open(tempdir("inflight")).unwrap());
        let key = sample_key(7);
        let running = std::sync::Arc::new(AtomicU64::new(0));
        let peak = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (store, key, running, peak) =
                    (store.clone(), key.clone(), running.clone(), peak.clone());
                scope.spawn(move || {
                    store.with_inflight(&key, || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1, "same key must serialize");
        assert_eq!(store.coalesced.load(Ordering::SeqCst), 3);
        assert_eq!(store.inflight_count(), 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Store cells for seeds, returning their keys in store order.
    fn fill(store: &CellStore, seeds: std::ops::Range<u64>) -> Vec<CellKey> {
        let stats = sample_stats();
        seeds
            .map(|seed| {
                let key = sample_key(seed);
                store
                    .store(&key, "gang-sequential", &stats, "fixed-budget")
                    .unwrap();
                key
            })
            .collect()
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        // Measure one cell to size a budget that fits exactly two.
        let probe = CellStore::open(tempdir("lru-probe")).unwrap();
        let keys = fill(&probe, 0..1);
        let cell_bytes = probe.cache_bytes();
        assert!(cell_bytes > 0);
        assert_eq!(probe.cells_on_disk(), 1, "recency.log must not count");
        let _ = std::fs::remove_dir_all(probe.dir());
        drop(keys);

        let store = CellStore::open_with_budget(tempdir("lru"), Some(2 * cell_bytes + 16)).unwrap();
        let keys = fill(&store, 0..2);
        assert_eq!(store.evictions.load(Ordering::SeqCst), 0);
        // Touch cell 0 (a hit), then add cell 2: cell 1 is now LRU and
        // must be the victim.
        assert!(store.load(&keys[0]).unwrap().is_some());
        let key2 = fill(&store, 2..3).remove(0);
        assert_eq!(store.evictions.load(Ordering::SeqCst), 1);
        assert!(store.load(&keys[0]).unwrap().is_some(), "MRU kept");
        assert!(store.load(&key2).unwrap().is_some(), "new cell kept");
        assert!(store.load(&keys[1]).unwrap().is_none(), "LRU evicted");
        assert_eq!(store.cells_on_disk(), 2);
        assert!(store.cache_bytes() <= 2 * cell_bytes + 16);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_cell_larger_than_the_budget_is_still_kept() {
        let store = CellStore::open_with_budget(tempdir("lru-tiny"), Some(8)).unwrap();
        let keys = fill(&store, 0..2);
        // Each store evicts everything *else*, but never the newcomer.
        assert_eq!(store.cells_on_disk(), 1);
        assert!(store.load(&keys[1]).unwrap().is_some());
        assert_eq!(store.evictions.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn recency_survives_a_restart_via_the_index() {
        let dir = tempdir("lru-restart");
        let (keys, total) = {
            let store = CellStore::open(&dir).unwrap();
            let keys = fill(&store, 0..3);
            let total = store.cache_bytes();
            // Leave cell 0 most recently used.
            assert!(store.load(&keys[0]).unwrap().is_some());
            (keys, total)
        };
        // Reopen with room for the current three cells but not a fourth:
        // storing one more must evict cell 1 (LRU per the persisted
        // index), not the recently-touched cell 0.
        let store = CellStore::open_with_budget(&dir, Some(total + 64)).unwrap();
        assert_eq!(store.cache_bytes(), total, "sizes reseeded from disk");
        let key3 = fill(&store, 3..4).remove(0);
        assert!(store.load(&keys[0]).unwrap().is_some(), "recent cell kept");
        assert!(
            store.load(&keys[1]).unwrap().is_none(),
            "stale cell evicted"
        );
        assert!(store.load(&key3).unwrap().is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The mirror's keys, least to most recently used.
    fn lru_order(store: &CellStore) -> Vec<String> {
        store.lru_lock().cells.keys().map(str::to_string).collect()
    }

    fn log_text(dir: &Path) -> String {
        std::fs::read_to_string(dir.join(RECENCY_LOG)).unwrap_or_default()
    }

    /// Every file in `dir` but the recency log: name, size, inode and
    /// modification time — any rewrite (temp + rename) changes the inode.
    fn snapshot_without_log(dir: &Path) -> Vec<(String, u64, u64, std::time::SystemTime)> {
        use std::os::unix::fs::MetadataExt as _;
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name() != RECENCY_LOG)
            .map(|e| {
                let meta = e.metadata().unwrap();
                let name = e.file_name().into_string().unwrap();
                (name, meta.len(), meta.ino(), meta.modified().unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn a_hit_appends_one_log_line_and_rewrites_nothing_else() {
        for cells in [1u64, 1024] {
            let store = CellStore::open(tempdir(&format!("hit-cost-{cells}"))).unwrap();
            let keys = fill(&store, 0..cells);
            let before = snapshot_without_log(store.dir());
            assert_eq!(before.len() as u64, cells, "only cells besides the log");
            let log_before = log_text(store.dir());
            assert!(store.load(&keys[0]).unwrap().is_some());
            assert_eq!(snapshot_without_log(store.dir()), before);
            assert_eq!(
                log_text(store.dir()),
                format!("{log_before}{}\n", keys[0].hex),
                "a hit appends exactly its key"
            );
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    #[test]
    fn the_log_compacts_and_reopening_keeps_lru_order() {
        let dir = tempdir("log-compact");
        let (keys, order) = {
            let store = CellStore::open(&dir).unwrap();
            let keys = fill(&store, 0..4);
            for i in 0..500usize {
                let key = &keys[[2, 0, 3, 0, 1][i % 5]];
                assert!(store.load(key).unwrap().is_some());
                let lines = log_text(&dir).lines().count();
                assert!(lines <= 2 * 4 + LOG_SLACK_LINES, "{lines} log lines");
            }
            (keys, lru_order(&store))
        };
        // The last hits were 3, 0, 1 (i = 497, 498, 499), after 2.
        let hex = |i: usize| keys[i].hex.clone();
        assert_eq!(order, [hex(2), hex(3), hex(0), hex(1)]);
        let store = CellStore::open(&dir).unwrap();
        assert_eq!(lru_order(&store), order, "replayed recency");
        assert_eq!(log_text(&dir).lines().count(), 4, "compacted on open");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_unknown_log_lines_are_ignored() {
        let dir = tempdir("log-torn");
        let keys = fill(&CellStore::open(&dir).unwrap(), 0..3);
        let log = format!(
            "{}\nffffffffffffffff\nnot a key\n{}\n{}",
            keys[1].hex,
            keys[0].hex,
            &keys[2].hex[..7]
        );
        std::fs::write(dir.join(RECENCY_LOG), log).unwrap();
        let store = CellStore::open(&dir).unwrap();
        // Cell 2 appears only on the torn line, so it is unlogged and
        // least recent; the rest follow the log.
        let order = [&keys[2], &keys[1], &keys[0]].map(|k| k.hex.clone());
        assert_eq!(lru_order(&store), order);
        assert_eq!(log_text(&dir), order.map(|k| k + "\n").concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_creates_nothing_until_the_first_write() {
        let dir = tempdir("lazy-log");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("index.json"), "{}").unwrap();
        let store = CellStore::open(&dir).unwrap();
        let names = |dir: &Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert!(names(&dir).is_empty(), "leftover index.json removed");
        assert!(store.load(&sample_key(1)).unwrap().is_none());
        assert!(names(&dir).is_empty(), "a miss writes nothing");
        let key = fill(&store, 1..2).remove(0);
        assert_eq!(
            names(&dir),
            [format!("{}.json", key.hex), RECENCY_LOG.into()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_externally_deleted_cell_is_a_miss_and_leaves_the_count() {
        let store = CellStore::open(tempdir("deleted")).unwrap();
        let keys = fill(&store, 0..3);
        let total = store.cache_bytes();
        assert_eq!(store.cells_on_disk(), 3);
        let path = store.dir().join(format!("{}.json", keys[1].hex));
        let size = std::fs::metadata(&path).unwrap().len();
        std::fs::remove_file(&path).unwrap();
        assert!(store.load(&keys[1]).unwrap().is_none());
        assert_eq!(store.cells_on_disk(), 2);
        assert_eq!(store.cache_bytes(), total - size);
        assert!(store.load(&keys[0]).unwrap().is_some());
        assert_eq!(store.cells_on_disk(), 2);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn inflight_cells_are_never_evicted() {
        let stats = sample_stats();
        let probe = CellStore::open(tempdir("lru-inflight-probe")).unwrap();
        fill(&probe, 0..1);
        let cell_bytes = probe.cache_bytes();
        let _ = std::fs::remove_dir_all(probe.dir());

        let store =
            CellStore::open_with_budget(tempdir("lru-inflight"), Some(cell_bytes + 8)).unwrap();
        let keys = fill(&store, 0..1);
        // Key 0 is LRU but in flight (an extend is reading it): storing
        // key 1 must evict nothing and run over budget instead.
        store.with_inflight(&keys[0], || {
            let key1 = sample_key(1);
            store
                .store(&key1, "gang-sequential", &stats, "fixed-budget")
                .unwrap();
            assert_eq!(store.evictions.load(Ordering::SeqCst), 0);
            assert_eq!(store.cells_on_disk(), 2);
        });
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn inflight_key_is_released_even_when_work_panics() {
        let store = CellStore::open(tempdir("panic")).unwrap();
        let key = sample_key(9);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.with_inflight(&key, || panic!("poisoned checkpoint"))
        }));
        assert!(unwound.is_err());
        assert_eq!(
            store.inflight_count(),
            0,
            "a panicking computation must not wedge the key"
        );
        // The next request for the same cell proceeds immediately.
        assert_eq!(store.with_inflight(&key, || 42), 42);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
