//! Persistent tune cache: the autotuner's winners on disk.
//!
//! A search over the blocking space costs milliseconds of wall time
//! (stall proofs + a handful of timed estimates); a repeated tenant
//! shape should pay it once per process *fleet*, not once per call.
//! This module keeps the winners in a process-wide map backed by a
//! std-only JSON file (`$SW_TUNE_CACHE`, else `tune_cache.json` in the
//! working directory), keyed by everything the winner depends on:
//!
//! ```text
//! {variant}/{transport}/{backend}/m{M}n{N}k{K}
//! ```
//!
//! where `{transport}` is always `ring` (the one mesh transport) and
//! `{backend}` always `decoded` (the one CPE engine) — both segments
//! stay so existing cache files still hit — and `m{M}n{N}k{K}`
//! is the *shape class* — each dimension rounded up to its
//! power-of-two bucket, so nearby shapes share a tuned blocking
//! instead of each paying a fresh search.
//!
//! Robustness contract: a missing, truncated, or corrupt cache file
//! **degrades to an empty cache** (the caller re-searches); it is
//! never an error. Writes are atomic (temp file + rename) and
//! best-effort — an unwritable directory costs persistence, not
//! correctness. The map is capped at [`TUNE_CACHE_CAP`] entries with
//! oldest-write eviction. Hits, misses, evictions, and unreadable
//! loads are published as `tune.cache.*` metrics.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use crate::params::BlockingParams;
use crate::variants::Variant;
use sw_isa::EngineBackend;
use sw_probe::json::{escape, Value};
use sw_probe::metrics;
use sw_sim::MeshTransport;

/// Environment variable overriding the cache file location.
pub const TUNE_CACHE_ENV: &str = "SW_TUNE_CACHE";

/// Default cache file, relative to the working directory.
pub const TUNE_CACHE_DEFAULT: &str = "tune_cache.json";

/// Entry cap; the oldest write is evicted beyond it.
pub const TUNE_CACHE_CAP: usize = 256;

/// On-disk schema version.
const SCHEMA: u64 = 1;

/// One cached winner: the blocking plus the effective Gflops the
/// search credited it with (diagnostic only — resolution trusts the
/// params, not the number).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedTune {
    /// The winning blocking.
    pub params: BlockingParams,
    /// Effective Gflops at the searched shape.
    pub gflops: f64,
}

struct CacheState {
    loaded: bool,
    next_seq: u64,
    /// key → (winner, insertion sequence — the eviction clock).
    entries: HashMap<String, (CachedTune, u64)>,
}

/// A tune cache instance. Most callers want [`TuneCache::global`];
/// tests construct isolated instances with [`TuneCache::at`] /
/// [`TuneCache::ephemeral`].
pub struct TuneCache {
    path: Option<PathBuf>,
    state: Mutex<CacheState>,
}

impl TuneCache {
    fn with_path(path: Option<PathBuf>) -> Self {
        TuneCache {
            path,
            state: Mutex::new(CacheState {
                loaded: false,
                next_seq: 0,
                entries: HashMap::new(),
            }),
        }
    }

    /// A cache backed by an explicit file.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        TuneCache::with_path(Some(path.into()))
    }

    /// A purely in-memory cache (no persistence).
    pub fn ephemeral() -> Self {
        TuneCache::with_path(None)
    }

    /// The process-wide cache. The backing file is resolved once, from
    /// `$SW_TUNE_CACHE` if set, else [`TUNE_CACHE_DEFAULT`].
    pub fn global() -> &'static TuneCache {
        static GLOBAL: OnceLock<TuneCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let path = std::env::var(TUNE_CACHE_ENV)
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from(TUNE_CACHE_DEFAULT));
            TuneCache::at(path)
        })
    }

    /// The shape class of a problem: each dimension rounded up to its
    /// power-of-two bucket.
    pub fn shape_class(m: usize, n: usize, k: usize) -> String {
        let bucket = |d: usize| d.max(1).next_power_of_two();
        format!("m{}n{}k{}", bucket(m), bucket(n), bucket(k))
    }

    /// The full cache key for a resolution context.
    pub fn key(
        variant: Variant,
        transport: MeshTransport,
        backend: EngineBackend,
        m: usize,
        n: usize,
        k: usize,
    ) -> String {
        format!(
            "{}/{}/{}/{}",
            variant.name(),
            transport.name(),
            backend.name(),
            TuneCache::shape_class(m, n, k)
        )
    }

    /// Looks up a winner. Counts `tune.cache.hits` / `tune.cache.misses`.
    pub fn get(&self, key: &str) -> Option<CachedTune> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.load_locked(&mut state);
        let hit = state.entries.get(key).map(|(e, _)| *e);
        metrics::global()
            .counter(if hit.is_some() {
                "tune.cache.hits"
            } else {
                "tune.cache.misses"
            })
            .inc();
        hit
    }

    /// Records a winner and persists the cache (best-effort).
    pub fn put(&self, key: &str, entry: CachedTune) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.load_locked(&mut state);
        let seq = state.next_seq;
        state.next_seq += 1;
        state.entries.insert(key.to_string(), (entry, seq));
        while state.entries.len() > TUNE_CACHE_CAP {
            let oldest = state
                .entries
                .iter()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over the cap");
            state.entries.remove(&oldest);
            metrics::global().counter("tune.cache.evictions").inc();
        }
        self.persist_locked(&state);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.load_locked(&mut state);
        state.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (and persists the empty cache).
    pub fn clear(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.loaded = true;
        state.entries.clear();
        self.persist_locked(&state);
    }

    /// Lazy load. Any read or parse failure yields the empty cache:
    /// the tuner then re-searches, which is always correct.
    fn load_locked(&self, state: &mut CacheState) {
        if state.loaded {
            return;
        }
        state.loaded = true;
        let Some(path) = &self.path else { return };
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        match parse_entries(&text) {
            Some(entries) => {
                state.next_seq = entries.iter().map(|(_, (_, s))| *s + 1).max().unwrap_or(0);
                state.entries = entries;
            }
            None => {
                metrics::global().counter("tune.cache.load_errors").inc();
            }
        }
    }

    /// Atomic best-effort write: serialize, write a temp file next to
    /// the target, rename over it.
    fn persist_locked(&self, state: &CacheState) {
        let Some(path) = &self.path else { return };
        let mut rows: Vec<(&String, &(CachedTune, u64))> = state.entries.iter().collect();
        rows.sort_by_key(|(_, (_, s))| *s);
        let mut out = String::new();
        out.push_str(&format!("{{\"schema\":{SCHEMA},\"entries\":[\n"));
        for (i, (key, (e, seq))) in rows.iter().enumerate() {
            out.push_str(&format!(
                " {{\"key\":\"{}\",\"pm\":{},\"pn\":{},\"pk\":{},\"rm\":{},\"rn\":{},\
                 \"gflops\":{:.3},\"seq\":{}}}{}\n",
                escape(key),
                e.params.pm,
                e.params.pn,
                e.params.pk,
                e.params.rm,
                e.params.rn,
                e.gflops,
                seq,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, &out).is_ok() && std::fs::rename(&tmp, path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Parses the cache file. `None` on any structural problem; malformed
/// individual entries are skipped rather than failing the whole file.
fn parse_entries(text: &str) -> Option<HashMap<String, (CachedTune, u64)>> {
    let v = Value::parse(text).ok()?;
    if v.get("schema")?.as_u64()? != SCHEMA {
        return None;
    }
    let mut out = HashMap::new();
    for e in v.get("entries")?.as_arr()? {
        let Some(row) = parse_entry(e) else { continue };
        out.insert(row.0, (row.1, row.2));
    }
    Some(out)
}

fn parse_entry(e: &Value) -> Option<(String, CachedTune, u64)> {
    let dim = |k: &str| e.get(k).and_then(Value::as_u64).map(|v| v as usize);
    Some((
        e.get("key")?.as_str()?.to_string(),
        CachedTune {
            params: BlockingParams {
                pm: dim("pm")?,
                pn: dim("pn")?,
                pk: dim("pk")?,
                rm: dim("rm")?,
                rn: dim("rn")?,
            },
            gflops: e.get("gflops")?.as_f64()?,
        },
        e.get("seq")?.as_u64()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pn: usize) -> CachedTune {
        CachedTune {
            params: BlockingParams {
                pn,
                ..BlockingParams::paper_double()
            },
            gflops: 600.0 + pn as f64,
        }
    }

    #[test]
    fn shape_class_buckets_by_power_of_two() {
        assert_eq!(
            TuneCache::shape_class(9216, 9216, 9216),
            "m16384n16384k16384"
        );
        assert_eq!(TuneCache::shape_class(256, 96, 768), "m256n128k1024");
        // Nearby shapes share a class; far ones don't.
        assert_eq!(
            TuneCache::shape_class(9000, 9000, 9000),
            TuneCache::shape_class(16384, 16384, 16384)
        );
        assert_ne!(
            TuneCache::shape_class(4096, 4096, 4096),
            TuneCache::shape_class(4097, 4096, 4096)
        );
    }

    #[test]
    fn key_carries_every_resolution_axis() {
        let k = TuneCache::key(
            Variant::Sched,
            MeshTransport::Ring,
            EngineBackend::Decoded,
            9216,
            96,
            4608,
        );
        assert_eq!(k, "SCHED/ring/decoded/m16384n128k8192");
        assert_ne!(
            k,
            TuneCache::key(
                Variant::Db,
                MeshTransport::Ring,
                EngineBackend::Decoded,
                9216,
                96,
                4608
            )
        );
    }

    #[test]
    fn ephemeral_cache_round_trips_in_memory() {
        let c = TuneCache::ephemeral();
        assert!(c.is_empty());
        c.put("a", entry(32));
        assert_eq!(c.get("a").unwrap(), entry(32));
        assert!(c.get("b").is_none());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_drops_the_oldest_write() {
        let c = TuneCache::ephemeral();
        for i in 0..=TUNE_CACHE_CAP {
            c.put(&format!("k{i}"), entry(32));
        }
        assert_eq!(c.len(), TUNE_CACHE_CAP);
        assert!(c.get("k0").is_none(), "oldest entry must be evicted");
        assert!(c.get(&format!("k{TUNE_CACHE_CAP}")).is_some());
    }
}
