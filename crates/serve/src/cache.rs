//! Sharded, lock-striped LRU caches: the plan cache and the model memo.
//!
//! Entries are keyed by an FNV-1a content hash of a canonical JSON
//! rendering — the whole request for [`PlanCache`]
//! ([`crate::request::PlanRequest::key`]), its cluster + program part
//! for [`ModelMemo`] ([`crate::request::model_canon`]). The canonical
//! JSON itself is stored alongside and compared on every probe, so a
//! hash collision degrades to a miss instead of serving the wrong
//! value.
//!
//! The map is striped into `shards` independent `Mutex`-protected
//! shards selected by the key's high bits, so concurrent requests for
//! different keys rarely contend. Each shard runs its own exact LRU
//! over a small vector (capacities are tens of entries per shard;
//! linear scans are cheaper than pointer-chasing at that size).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mheta_core::Mheta;
use mheta_obs::json::Value;

use crate::planner::Plan;

struct Entry<V> {
    key: u64,
    canon: String,
    value: V,
    last_used: u64,
}

struct Shard<V> {
    entries: Vec<Entry<V>>,
    tick: u64,
}

/// Lock-striped LRU cache of finished plans.
pub type PlanCache = ShardedLru<Plan>;

/// Lock-striped LRU memo of assembled models. Virtual time is
/// deterministic, so a model is a pure function of its cluster and
/// program: one build serves every search over that pair.
pub type ModelMemo = ShardedLru<Arc<Mheta>>;

/// A lock-striped LRU map from a canonical rendering to a value.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl<V: Clone> ShardedLru<V> {
    /// A cache of `shards` stripes holding at most `capacity` entries
    /// in total (rounded up to a multiple of the shard count). Both
    /// arguments are clamped to at least 1.
    #[must_use]
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: Vec::new(),
                        tick: 0,
                    })
                })
                .collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        // High bits: FNV-1a mixes them well, and the low bits already
        // pick the LRU slot ordering inside a shard.
        let idx = (key >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Probe for `key`; `canon` disambiguates hash collisions. Bumps
    /// the hit/miss counters and the entry's recency on hit.
    #[must_use]
    pub fn get(&self, key: u64, canon: &str) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(e) = shard
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.canon == canon)
        {
            e.last_used = tick;
            let value = e.value.clone();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(value);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert (or refresh) the value for `key`, evicting the shard's
    /// least-recently-used entry if it is full.
    pub fn insert(&self, key: u64, canon: &str, value: V) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(e) = shard
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.canon == canon)
        {
            e.value = value;
            e.last_used = tick;
            return;
        }
        if shard.entries.len() >= self.capacity_per_shard {
            let lru = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("full shard is nonempty");
            shard.entries.swap_remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.entries.push(Entry {
            key,
            canon: canon.to_string(),
            value,
            last_used: tick,
        });
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every entry (e.g. after a model change); returns how many
    /// entries were invalidated.
    pub fn invalidate_all(&self) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            dropped += shard.entries.len();
            shard.entries.clear();
        }
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Drop the entry for one key, if present.
    pub fn invalidate(&self, key: u64, canon: &str) -> bool {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let before = shard.entries.len();
        shard
            .entries
            .retain(|e| !(e.key == key && e.canon == canon));
        let dropped = before - shard.entries.len();
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped > 0
    }

    /// Export every entry as `(key, canonical JSON, value)`,
    /// least-recently-used first within each shard — so re-`insert`ing
    /// the export in order (see [`crate::snapshot`]) reproduces each
    /// shard's recency ordering.
    #[must_use]
    pub fn export(&self) -> Vec<(u64, String, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            let mut entries: Vec<&Entry<V>> = shard.entries.iter().collect();
            entries.sort_by_key(|e| e.last_used);
            out.extend(
                entries
                    .into_iter()
                    .map(|e| (e.key, e.canon.clone(), e.value.clone())),
            );
        }
        out
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Capacity evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Counters and occupancy as a JSON value.
    #[must_use]
    pub fn stats(&self) -> Value {
        Value::object(vec![
            ("entries", Value::UInt(self.len() as u64)),
            ("shards", Value::UInt(self.shards.len() as u64)),
            (
                "capacity",
                Value::UInt((self.capacity_per_shard * self.shards.len()) as u64),
            ),
            ("hits", Value::UInt(self.hits())),
            ("misses", Value::UInt(self.misses())),
            (
                "insertions",
                Value::UInt(self.insertions.load(Ordering::Relaxed)),
            ),
            ("evictions", Value::UInt(self.evictions())),
            (
                "invalidations",
                Value::UInt(self.invalidations.load(Ordering::Relaxed)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_dist::Strategy;

    fn plan(score: f64) -> Plan {
        Plan {
            rows: vec![1, 2, 3],
            predicted_ns: score,
            winner: Strategy::Gbs,
            total_evals: 1,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = PlanCache::new(4, 16);
        assert!(c.get(7, "a").is_none());
        c.insert(7, "a", plan(1.0));
        let got = c.get(7, "a").unwrap();
        assert_eq!(got.predicted_ns, 1.0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        // Same hash, different canonical content: a collision is a miss.
        assert!(c.get(7, "b").is_none());
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_per_shard() {
        // One shard, capacity 2: inserting a third entry evicts the
        // stalest one.
        let c = PlanCache::new(1, 2);
        c.insert(1, "k1", plan(1.0));
        c.insert(2, "k2", plan(2.0));
        assert!(c.get(1, "k1").is_some()); // refresh key 1
        c.insert(3, "k3", plan(3.0)); // evicts key 2
        assert_eq!(c.evictions(), 1);
        assert!(c.get(1, "k1").is_some());
        assert!(c.get(2, "k2").is_none());
        assert!(c.get(3, "k3").is_some());
    }

    #[test]
    fn invalidation_drops_entries_and_counts() {
        let c = PlanCache::new(4, 16);
        c.insert(1, "k1", plan(1.0));
        c.insert(2, "k2", plan(2.0));
        assert!(c.invalidate(1, "k1"));
        assert!(!c.invalidate(1, "k1"));
        assert_eq!(c.invalidate_all(), 1);
        assert!(c.is_empty());
        let stats = c.stats();
        assert_eq!(stats.get("invalidations").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn insert_refreshes_existing_entry() {
        let c = PlanCache::new(2, 8);
        c.insert(5, "k", plan(1.0));
        c.insert(5, "k", plan(9.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(5, "k").unwrap().predicted_ns, 9.0);
    }
}
