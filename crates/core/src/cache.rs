//! Content-addressed plan cache for incremental recompilation.
//!
//! The serving layer (`avivd`) compiles the same programs over and over;
//! the expensive part of each compile is per-block planning (assignment
//! exploration + covering + allocation), which is a pure function of
//! `(block content, target, planning options)`. This module memoizes it.
//!
//! # Key
//!
//! [`CacheKey`] is the triple of stable fingerprints:
//!
//! * `block` — [`aviv_ir::block_dag_hash`] of the post-DCE block DAG,
//!   covering structure *and* the `(id, name)` binding of every symbol
//!   the block references;
//! * `target` — [`aviv_isdl::Target::fingerprint`] (canonical ISDL text);
//! * `options` — [`CodegenOptions::planning_fingerprint`]
//!   (parallelism/budget knobs excluded — see that method).
//!
//! [`CodegenOptions::planning_fingerprint`]: crate::CodegenOptions::planning_fingerprint
//!
//! # What is stored, and why hits are sound
//!
//! Only plans that report [`complete`](crate::BlockReport::complete) are
//! inserted: a complete plan is byte-identical to what an unbudgeted run
//! produces, so serving it under any fuel/deadline is indistinguishable
//! from (faster than) recomputing. Degraded or truncated plans depend on
//! budgets and wall-clock and are never cached. Fault-injected compiles
//! bypass the cache entirely (the injector keys on block *position*).
//!
//! A cached [`BlockPlan`] embeds symbol ids, which is safe because the
//! block hash pins every referenced `(id, name)` pair, and the plan's
//! *appended* (spill-slot) ids are rebased by
//! [`apply_plan`](crate::CodeGenerator::apply_plan) against whatever
//! table the hit is applied to — the same mechanism that makes parallel
//! planning deterministic.
//!
//! # Sharing
//!
//! Entries are `Arc<BlockPlan>`s and are never mutated in place: a hit
//! costs a reference count, and
//! [`compile_function`](crate::CodeGenerator::compile_function) emits
//! straight from the shared plan. The one plan it copies is a hit whose
//! spill-slot ids must be rebased because an earlier block of the same
//! function already took those ids; the copy is rebased and the resident
//! plan stays as it was inserted.
//!
//! # Eviction and concurrency
//!
//! Bounded LRU: inserting beyond [`PlanCache::capacity`] evicts the
//! least-recently-used entry and counts it in
//! [`CacheStats::evictions`]. One mutex guards the map — planning a
//! block takes milliseconds while a lookup takes nanoseconds, so
//! contention is negligible even with many server workers; counters are
//! atomics so [`stats`](PlanCache::stats) never blocks a compile.

use crate::codegen::BlockPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: `(block content hash, target fingerprint, options
/// fingerprint)`. See the [module docs](self) for what each component
/// covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`aviv_ir::block_dag_hash`] of the block being planned.
    pub block: u64,
    /// [`aviv_isdl::Target::fingerprint`] of the machine.
    pub target: u64,
    /// [`CodegenOptions::planning_fingerprint`](crate::CodegenOptions::planning_fingerprint).
    pub options: u64,
}

/// Counter snapshot from a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Snapshots written to disk ([`crate::persist::save_snapshot`]).
    pub persist_saves: u64,
    /// Entries absorbed from persisted snapshots
    /// ([`crate::persist::load_snapshot`]).
    pub persist_loads: u64,
    /// Snapshot files found corrupt/truncated/stale and quarantined
    /// instead of trusted.
    pub quarantines: u64,
}

struct CacheEntry {
    plan: Arc<BlockPlan>,
    /// Logical timestamp of the last hit or insertion.
    last_used: u64,
    /// Came from a persisted snapshot, not a compile in this process
    /// (`avivd --validate-on-load` forces validation on such hits).
    restored: bool,
}

struct CacheMap {
    entries: HashMap<CacheKey, CacheEntry>,
    tick: u64,
}

/// A bounded, thread-safe LRU cache of complete block plans.
///
/// Shared across compiles (and across server requests) via `Arc`; attach
/// one to a generator with
/// [`CodeGenerator::with_cache`](crate::CodeGenerator::with_cache).
pub struct PlanCache {
    map: Mutex<CacheMap>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    persist_saves: AtomicU64,
    persist_loads: AtomicU64,
    quarantines: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

/// Default [`PlanCache`] capacity: plans are per *block*, so this
/// comfortably holds hundreds of functions.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Create a cache bounded to `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            map: Mutex::new(CacheMap {
                entries: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persist_saves: AtomicU64::new(0),
            persist_loads: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a plan, refreshing its LRU position and counting the
    /// outcome. Returns an owned copy of the shared plan, for callers
    /// that hand it to [`apply_plan`](crate::CodeGenerator::apply_plan);
    /// [`lookup_flagged`](PlanCache::lookup_flagged) shares it instead.
    pub fn lookup(&self, key: &CacheKey) -> Option<BlockPlan> {
        self.lookup_flagged(key)
            .map(|(plan, _)| BlockPlan::clone(&plan))
    }

    /// Look up a plan like [`lookup`](PlanCache::lookup), returning the
    /// resident plan itself (plans are never mutated in place) and
    /// whether it was restored from a persisted snapshot rather than
    /// computed in this process.
    pub fn lookup_flagged(&self, key: &CacheKey) -> Option<(Arc<BlockPlan>, bool)> {
        let mut map = lock_unpoisoned(&self.map);
        map.tick += 1;
        let tick = map.tick;
        match map.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((Arc::clone(&entry.plan), entry.restored))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) a plan, evicting the least-recently-used
    /// entry if the cache is full.
    ///
    /// Callers are expected to insert only *complete* plans — the
    /// generator enforces this; see the [module docs](self). Takes a
    /// [`BlockPlan`] or an already shared `Arc<BlockPlan>`.
    pub fn insert(&self, key: CacheKey, plan: impl Into<Arc<BlockPlan>>) {
        let mut map = lock_unpoisoned(&self.map);
        map.tick += 1;
        let tick = map.tick;
        let replacing = map.entries.contains_key(&key);
        if !replacing && map.entries.len() >= self.capacity {
            if let Some(&lru) = map
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                map.entries.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.entries.insert(
            key,
            CacheEntry {
                plan: plan.into(),
                last_used: tick,
                restored: false,
            },
        );
    }

    /// Snapshot the resident entries in LRU order (least recently used
    /// first), sharing each plan — the input to
    /// [`crate::persist::save_snapshot`]. Iterating oldest-first means a
    /// later [`absorb`](PlanCache::absorb) into a smaller cache keeps the
    /// hottest entries.
    pub fn snapshot_entries(&self) -> Vec<(CacheKey, Arc<BlockPlan>)> {
        let map = lock_unpoisoned(&self.map);
        let mut entries: Vec<(&CacheKey, &CacheEntry)> = map.entries.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        entries
            .into_iter()
            .map(|(k, e)| (*k, Arc::clone(&e.plan)))
            .collect()
    }

    /// Insert entries restored from a persisted snapshot, marking each as
    /// `restored` (see [`lookup_flagged`](PlanCache::lookup_flagged)) and
    /// counting them in [`CacheStats::persist_loads`]. Entries beyond
    /// capacity evict LRU as usual; an entry already resident (computed
    /// in this process) is *not* overwritten — a live plan is always at
    /// least as trustworthy as a restored one.
    pub fn absorb<P: Into<Arc<BlockPlan>>>(&self, restored: Vec<(CacheKey, P)>) -> usize {
        let mut absorbed = 0;
        for (key, plan) in restored {
            let mut map = lock_unpoisoned(&self.map);
            map.tick += 1;
            let tick = map.tick;
            if map.entries.contains_key(&key) {
                continue;
            }
            if map.entries.len() >= self.capacity {
                if let Some(&lru) = map
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k)
                {
                    map.entries.remove(&lru);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            map.entries.insert(
                key,
                CacheEntry {
                    plan: plan.into(),
                    last_used: tick,
                    restored: true,
                },
            );
            absorbed += 1;
        }
        self.persist_loads.fetch_add(absorbed, Ordering::Relaxed);
        absorbed as usize
    }

    /// Count one snapshot written to disk.
    pub fn record_save(&self) {
        self.persist_saves.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one snapshot file quarantined as corrupt/truncated/stale.
    pub fn record_quarantine(&self) {
        self.quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every entry matching `predicate`, returning how many were
    /// removed. (Targeted invalidation; dropping the whole cache is just
    /// dropping the `Arc`.)
    pub fn invalidate_where(&self, predicate: impl Fn(&CacheKey) -> bool) -> usize {
        let mut map = lock_unpoisoned(&self.map);
        let before = map.entries.len();
        map.entries.retain(|k, _| !predicate(k));
        before - map.entries.len()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.map).entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
            persist_saves: self.persist_saves.load(Ordering::Relaxed),
            persist_loads: self.persist_loads.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
        }
    }
}

/// Lock a mutex, recovering from poisoning: the cache holds only
/// immutable-once-inserted plans plus LRU bookkeeping, both valid at
/// every instruction boundary, so a panic elsewhere cannot leave the map
/// in a state worth refusing to read (and the planner already isolates
/// panics per block — poisoning is next to impossible to begin with).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodeGenerator;
    use aviv_ir::parse_function;

    /// A real plan to populate entries with (contents are irrelevant to
    /// the LRU logic under test).
    fn some_plan() -> BlockPlan {
        let f = parse_function("func f(a) { x = a + 1; return x; }").unwrap();
        let gen = CodeGenerator::new(aviv_isdl::archs::example_arch(4));
        gen.plan_block(&f.blocks[0].dag, &f.syms).unwrap()
    }

    fn key(i: u64) -> CacheKey {
        CacheKey {
            block: i,
            target: 7,
            options: 9,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let plan = some_plan();
        cache.insert(key(1), plan.clone());
        cache.insert(key(2), plan.clone());
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(3), plan);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(cache.lookup(&key(1)).is_some(), "recently used survived");
        assert!(cache.lookup(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&key(3)).is_some());
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = PlanCache::new(8);
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), some_plan());
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, 8);
    }

    #[test]
    fn reinserting_a_resident_key_never_evicts() {
        let cache = PlanCache::new(2);
        let plan = some_plan();
        cache.insert(key(1), plan.clone());
        cache.insert(key(2), plan.clone());
        cache.insert(key(2), plan);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn invalidate_where_removes_matching_entries() {
        let cache = PlanCache::new(8);
        let plan = some_plan();
        for i in 0..4 {
            cache.insert(key(i), plan.clone());
        }
        assert_eq!(cache.invalidate_where(|k| k.block < 2), 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key(3)).is_some());
    }
}
