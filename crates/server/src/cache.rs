//! The server's one LRU, and the key of its atlas tier.
//!
//! [`Lru`] is a small keyed LRU whose missing keys are built once
//! however many callers ask at the same time (single-flight). It holds
//! the built atlases under [`CacheKey`]s — canonicalized
//! [`AtlasConfig`]s, floats compared by bit pattern — and the uploaded
//! corpora by digest. Values are `Arc`s shared with in-flight
//! responses.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

use cuisine_atlas::pipeline::AtlasConfig;

/// A hashable, canonical identity for an atlas build.
///
/// Two configs that produce the same corpus and trees map to the same
/// key; `f64` fields are compared via `to_bits` so `0.2` and `0.2`
/// parsed from different query strings coincide exactly. An uploaded
/// corpus replaces the generator entirely, so its key carries the
/// corpus digest and zeroes the generation-only knobs — two requests
/// against the same upload share one build regardless of `seed`/`scale`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    corpus: Option<String>,
    seed: u64,
    scale_bits: u64,
    min_recipes_per_cuisine: usize,
    min_support_bits: u64,
    generic_fraction_bits: u64,
    top_k: usize,
    linkage: &'static str,
}

impl CacheKey {
    /// Canonicalize a config into its cache identity (implicit,
    /// generator-backed corpus).
    pub fn from_config(config: &AtlasConfig) -> Self {
        CacheKey {
            corpus: None,
            seed: config.corpus.seed,
            scale_bits: config.corpus.scale.to_bits(),
            min_recipes_per_cuisine: config.corpus.min_recipes_per_cuisine,
            min_support_bits: config.min_support.to_bits(),
            generic_fraction_bits: config.generic_fraction.to_bits(),
            top_k: config.top_k,
            linkage: config.linkage.name(),
        }
    }

    /// The cache identity of a build over an uploaded corpus identified
    /// by `digest`. Generation parameters (`seed`, `scale`,
    /// `min_recipes_per_cuisine`) do not influence the recipes when the
    /// corpus is supplied, so they are zeroed out of the key; analysis
    /// parameters (`min_support`, `linkage`, ...) still distinguish
    /// builds.
    pub fn for_corpus(digest: &str, config: &AtlasConfig) -> Self {
        CacheKey {
            corpus: Some(digest.to_string()),
            seed: 0,
            scale_bits: 0,
            min_recipes_per_cuisine: 0,
            min_support_bits: config.min_support.to_bits(),
            generic_fraction_bits: config.generic_fraction.to_bits(),
            top_k: config.top_k,
            linkage: config.linkage.name(),
        }
    }

    /// The uploaded-corpus digest this key is bound to, if any.
    pub fn corpus_digest(&self) -> Option<&str> {
        self.corpus.as_deref()
    }

    /// The key's durable identity: a SHA-256 over a canonical,
    /// length-prefixed encoding of every field. This is the snapshot
    /// store's file name for the atlas this key builds — stable across
    /// processes and restarts (unlike `Hash`, whose hasher is not
    /// portable), and never colliding between corpus-backed and
    /// implicit keys.
    pub fn store_id(&self) -> String {
        let mut buf: Vec<u8> = Vec::with_capacity(128);
        buf.extend_from_slice(b"atlas-cache-key-v1\0");
        match &self.corpus {
            Some(digest) => {
                buf.push(1);
                buf.extend_from_slice(&(digest.len() as u64).to_le_bytes());
                buf.extend_from_slice(digest.as_bytes());
            }
            None => buf.push(0),
        }
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&self.scale_bits.to_le_bytes());
        buf.extend_from_slice(&(self.min_recipes_per_cuisine as u64).to_le_bytes());
        buf.extend_from_slice(&self.min_support_bits.to_le_bytes());
        buf.extend_from_slice(&self.generic_fraction_bits.to_le_bytes());
        buf.extend_from_slice(&(self.top_k as u64).to_le_bytes());
        buf.extend_from_slice(&(self.linkage.len() as u64).to_le_bytes());
        buf.extend_from_slice(self.linkage.as_bytes());
        recipedb::digest::Sha256::hex_digest(&buf)
    }
}

/// One key's state in an [`Lru`].
enum Slot<V> {
    /// A cached value and the clock stamp of its last use.
    Ready { value: Arc<V>, last_used: u64 },
    /// A caller is building this key; others wait on the condvar.
    Building,
}

/// The slots and the clock their recency stamps come from.
struct Table<K, V> {
    slots: HashMap<K, Slot<V>>,
    clock: u64,
}

impl<K: Eq + Hash, V> Table<K, V> {
    /// The cached value for `key`, stamping its recency.
    fn hit(&mut self, key: &K) -> Option<Arc<V>> {
        self.clock += 1;
        match self.slots.get_mut(key) {
            Some(Slot::Ready { value, last_used }) => {
                *last_used = self.clock;
                Some(Arc::clone(value))
            }
            _ => None,
        }
    }

    /// Number of `Ready` slots: the ones that count against capacity.
    fn ready(&self) -> usize {
        self.slots
            .values()
            .filter(|slot| matches!(slot, Slot::Ready { .. }))
            .count()
    }
}

/// Entries evicted to make room, oldest first, for the caller to spill.
pub type Evicted<K, V> = Vec<(K, Arc<V>)>;

/// How a [`Lru::get_or_build`] caller got its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The value was cached.
    Hit,
    /// Another caller was building the key; this one waited and shares
    /// that build.
    Waited,
    /// This caller ran the build.
    Built,
}

/// A bounded, keyed LRU that builds each missing key once.
///
/// One mutex guards every slot and the recency clock, and one condvar
/// wakes the callers waiting on builds. A slot is either `Ready` or
/// `Building`: a leader turns its `Building` slot into a cached value
/// in the same critical section that ends its flight, so a caller never
/// finds a key that is neither cached nor in flight. `Building` slots
/// are never evicted, do not count against the capacity, and are left
/// alone by [`Lru::remove_where`]. Eviction removes the `Ready` slot
/// with the oldest stamp — an exact LRU without a linked list.
pub struct Lru<K, V> {
    table: Mutex<Table<K, V>>,
    built: Condvar,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// A cache holding at most `capacity` values (at least one).
    pub fn new(capacity: usize) -> Self {
        Lru {
            table: Mutex::new(Table {
                slots: HashMap::new(),
                clock: 0,
            }),
            built: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Look up a cached value, stamping recency on a hit.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.table.lock().unwrap().hit(key)
    }

    /// Cache `value` under `key` unless a value is already cached
    /// there. Returns the cached value and whether it is the one just
    /// inserted; least-recently-used values beyond the capacity are
    /// dropped.
    pub fn insert(&self, key: K, value: V) -> (Arc<V>, bool) {
        let mut table = self.table.lock().unwrap();
        if let Some(cached) = table.hit(&key) {
            return (cached, false);
        }
        let value = Arc::new(value);
        let last_used = table.clock;
        table.slots.insert(
            key,
            Slot::Ready {
                value: Arc::clone(&value),
                last_used,
            },
        );
        self.evict(&mut table);
        (value, true)
    }

    /// The value for `key`: cached, or built once however many callers
    /// ask at the same time. The first caller to miss runs `build`
    /// without the lock held; later callers wait for it and share its
    /// value. `on_miss` runs (under the lock, so keep it cheap) when the
    /// lookup misses, before any wait or build. If the building caller
    /// panics, its slot is cleared and one of the waiters builds
    /// instead; so does a waiter that wakes to find the shared value
    /// already evicted. Values evicted to make room are handed back so
    /// the caller can spill them elsewhere after the lock is released.
    pub fn get_or_build(
        &self,
        key: &K,
        on_miss: impl FnOnce(),
        build: impl FnOnce() -> V,
    ) -> (Arc<V>, Lookup, Evicted<K, V>) {
        let mut on_miss = Some(on_miss);
        let mut lookup = Lookup::Hit;
        let mut table = self.table.lock().unwrap();
        loop {
            if let Some(cached) = table.hit(key) {
                return (cached, lookup, Vec::new());
            }
            if let Some(f) = on_miss.take() {
                f();
            }
            // Not cached: wait for the build in flight, or lead one.
            if table.slots.contains_key(key) {
                lookup = Lookup::Waited;
                table = self.built.wait(table).unwrap();
            } else {
                table.slots.insert(key.clone(), Slot::Building);
                break;
            }
        }
        drop(table);

        // Clears the slot and wakes the waiters if `build` panics.
        struct Abandon<'a, K: Eq + Hash + Clone, V> {
            lru: &'a Lru<K, V>,
            key: &'a K,
        }
        impl<K: Eq + Hash + Clone, V> Drop for Abandon<'_, K, V> {
            fn drop(&mut self) {
                self.lru.finish(self.key, None);
            }
        }
        let abandon = Abandon { lru: self, key };
        let value = Arc::new(build());
        std::mem::forget(abandon);
        let evicted = self.finish(key, Some(Arc::clone(&value)));
        (value, Lookup::Built, evicted)
    }

    /// End the flight on `key`: cache its value, or clear the slot when
    /// the build failed, then wake every waiter.
    fn finish(&self, key: &K, value: Option<Arc<V>>) -> Evicted<K, V> {
        let mut table = self.table.lock().unwrap();
        let evicted = match value {
            Some(value) => {
                table.clock += 1;
                let last_used = table.clock;
                table
                    .slots
                    .insert(key.clone(), Slot::Ready { value, last_used });
                self.evict(&mut table)
            }
            None => {
                table.slots.remove(key);
                Vec::new()
            }
        };
        drop(table);
        self.built.notify_all();
        evicted
    }

    /// Remove least-recently-used `Ready` slots while more than
    /// `capacity` are cached, returning them oldest first.
    fn evict(&self, table: &mut Table<K, V>) -> Evicted<K, V> {
        let mut evicted = Vec::new();
        while table.ready() > self.capacity {
            let oldest = table
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } => Some((k, *last_used)),
                    Slot::Building => None,
                })
                .min_by_key(|&(_, last_used)| last_used)
                .map(|(k, _)| k.clone())
                .expect("an over-capacity table has a ready slot");
            if let Some(Slot::Ready { value, .. }) = table.slots.remove(&oldest) {
                evicted.push((oldest, value));
            }
        }
        evicted
    }

    /// Drop every cached value whose key matches `doomed`; keys being
    /// built are left alone. Returns how many were removed.
    pub fn remove_where(&self, doomed: impl Fn(&K) -> bool) -> usize {
        let mut table = self.table.lock().unwrap();
        let before = table.slots.len();
        table
            .slots
            .retain(|k, slot| matches!(slot, Slot::Building) || !doomed(k));
        before - table.slots.len()
    }

    /// Every cached value, without stamping recency.
    pub fn values(&self) -> Vec<Arc<V>> {
        let table = self.table.lock().unwrap();
        table
            .slots
            .values()
            .filter_map(|slot| match slot {
                Slot::Ready { value, .. } => Some(Arc::clone(value)),
                Slot::Building => None,
            })
            .collect()
    }

    /// Number of cached values.
    pub fn len(&self) -> usize {
        self.table.lock().unwrap().ready()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::LinkageMethod;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn key(seed: u64) -> CacheKey {
        let mut config = AtlasConfig::quick(seed);
        config.linkage = LinkageMethod::Average;
        CacheKey::from_config(&config)
    }

    #[test]
    fn keys_canonicalize_equal_configs() {
        let a = CacheKey::from_config(&AtlasConfig::quick(7));
        let b = CacheKey::from_config(&AtlasConfig::quick(7));
        let c = CacheKey::from_config(&AtlasConfig::quick(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut with_other_support = AtlasConfig::quick(7);
        with_other_support.min_support += 0.05;
        assert_ne!(a, CacheKey::from_config(&with_other_support));
    }

    #[test]
    fn corpus_keys_ignore_generation_parameters() {
        // Different seeds/scales over the same upload are one build...
        let a = CacheKey::for_corpus("abc123", &AtlasConfig::quick(7));
        let b = CacheKey::for_corpus("abc123", &AtlasConfig::quick(99));
        assert_eq!(a, b);
        // ...but analysis parameters still split the key.
        let mut other = AtlasConfig::quick(7);
        other.min_support += 0.05;
        assert_ne!(a, CacheKey::for_corpus("abc123", &other));
        // Distinct corpora never collide, nor with the implicit corpus.
        assert_ne!(a, CacheKey::for_corpus("def456", &AtlasConfig::quick(7)));
        assert_ne!(a, CacheKey::from_config(&AtlasConfig::quick(7)));
    }

    #[test]
    fn hit_returns_same_arc_and_counts() {
        let cache = Lru::<CacheKey, String>::new(4);
        assert!(cache.get(&key(1)).is_none());
        let (stored, created) = cache.insert(key(1), "atlas".to_string());
        assert!(created);
        let got = cache.get(&key(1)).unwrap();
        assert_eq!(*got, "atlas");
        assert!(Arc::ptr_eq(&got, &stored));
        let (again, created_again) = cache.insert(key(1), "other".to_string());
        assert!(!created_again, "insert keeps the cached value");
        assert!(Arc::ptr_eq(&got, &again));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn store_ids_are_stable_hex_and_distinct() {
        let implicit = CacheKey::from_config(&AtlasConfig::quick(7));
        let uploaded = CacheKey::for_corpus("abc123", &AtlasConfig::quick(7));
        assert_eq!(implicit.store_id(), implicit.clone().store_id());
        assert_ne!(implicit.store_id(), uploaded.store_id());
        assert_ne!(
            implicit.store_id(),
            CacheKey::from_config(&AtlasConfig::quick(8)).store_id()
        );
        assert_eq!(implicit.store_id().len(), 64);
        assert!(implicit.store_id().bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(uploaded.corpus_digest(), Some("abc123"));
        assert_eq!(implicit.corpus_digest(), None);
    }

    #[test]
    fn remove_corpus_drops_only_that_corpus() {
        let cache = Lru::<CacheKey, u64>::new(8);
        cache.insert(key(1), 10);
        cache.insert(CacheKey::for_corpus("abc123", &AtlasConfig::quick(1)), 20);
        let mut other = AtlasConfig::quick(1);
        other.min_support += 0.05;
        cache.insert(CacheKey::for_corpus("abc123", &other), 30);
        let of_corpus = |k: &CacheKey| k.corpus_digest() == Some("abc123");
        assert_eq!(cache.remove_where(of_corpus), 2);
        assert_eq!(cache.remove_where(of_corpus), 0);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(1)).is_some());
    }

    #[test]
    fn eviction_is_global_and_least_recently_used() {
        let cache = Lru::<CacheKey, u64>::new(2);
        cache.insert(key(1), 10);
        cache.insert(key(2), 20);
        // Touch key 1 so key 2 becomes the LRU entry, then overflow.
        cache.get(&key(1));
        let (value, lookup, evicted) = cache.get_or_build(&key(3), || {}, || 30);
        assert_eq!((*value, lookup), (30, Lookup::Built));
        assert_eq!(cache.len(), 2, "capacity holds");
        // The spilled entry is handed back to the caller.
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, key(2));
        assert_eq!(*evicted[0].1, 20);
        assert_eq!(*cache.get(&key(1)).unwrap(), 10);
        assert!(cache.get(&key(2)).is_none(), "LRU entry was evicted");
        let (value, lookup, evicted) = cache.get_or_build(&key(3), || panic!("a hit"), || 0);
        assert_eq!((*value, lookup), (30, Lookup::Hit));
        assert!(evicted.is_empty());
    }

    #[test]
    fn concurrent_callers_share_one_build() {
        let cache = Lru::<&str, u64>::new(4);
        let (builds, misses) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    let (value, _, _) = cache.get_or_build(
                        &"key",
                        || {
                            misses.fetch_add(1, Ordering::SeqCst);
                        },
                        || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(50));
                            42
                        },
                    );
                    assert_eq!(*value, 42);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(misses.load(Ordering::SeqCst), 8, "every caller missed");
    }

    #[test]
    fn get_or_build_marks_exactly_one_leader() {
        let cache = Lru::<&str, u64>::new(4);
        let start = Barrier::new(8);
        let lookups: Vec<Lookup> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let (value, lookup, _) = cache.get_or_build(
                            &"key",
                            || {},
                            || {
                                std::thread::sleep(Duration::from_millis(50));
                                9
                            },
                        );
                        assert_eq!(*value, 9);
                        lookup
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let built = lookups.iter().filter(|&&l| l == Lookup::Built).count();
        let waited = lookups.iter().filter(|&&l| l == Lookup::Waited).count();
        assert_eq!((built, waited), (1, 7), "exactly one caller leads");
    }

    #[test]
    fn leader_panic_elects_new_leader() {
        let cache = Lru::<&str, u32>::new(4);
        std::thread::scope(|s| {
            let panicker = s.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_build(&"k", || {}, || panic!("leader died"));
                }));
                assert!(result.is_err());
            });
            // Give the leader time to claim the key, then join as waiter.
            std::thread::sleep(Duration::from_millis(20));
            let (value, lookup, _) = cache.get_or_build(&"k", || {}, || 7);
            panicker.join().unwrap();
            assert_eq!((*value, lookup), (7, Lookup::Built));
        });
        assert_eq!(*cache.get(&"k").unwrap(), 7);
    }

    #[test]
    fn building_slots_are_neither_evicted_counted_nor_purged() {
        let cache = Lru::<u32, u32>::new(1);
        let (release, gate) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let cache = &cache;
            let builder = s.spawn(move || {
                cache.get_or_build(
                    &1,
                    || {},
                    || {
                        gate.recv().unwrap();
                        10
                    },
                )
            });
            while cache.table.lock().unwrap().slots.is_empty() {
                std::thread::yield_now();
            }
            cache.insert(2, 20);
            cache.insert(3, 30);
            assert_eq!(cache.len(), 1, "the flight does not use the capacity");
            assert!(cache.get(&2).is_none(), "2 was evicted, not the flight");
            assert_eq!(
                cache.remove_where(|_| true),
                1,
                "the purge skips the flight"
            );
            release.send(()).unwrap();
            let (value, lookup, evicted) = builder.join().unwrap();
            assert_eq!((*value, lookup), (10, Lookup::Built));
            assert!(evicted.is_empty());
        });
        assert_eq!(*cache.get(&1).unwrap(), 10);
    }

    /// Staggered callers never find a key that is neither cached nor in
    /// flight: each round's key is built exactly once. (A cache lookup
    /// followed by a separate flight table lets a caller that missed
    /// the cache start a second build just after the first finished.)
    #[test]
    fn staggered_callers_build_each_key_exactly_once() {
        const ROUNDS: usize = 2000;
        let cache = Lru::<usize, usize>::new(4);
        let builds: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
        for round in 0..ROUNDS {
            std::thread::scope(|s| {
                for caller in 0..4u64 {
                    let (cache, builds) = (&cache, &builds);
                    s.spawn(move || {
                        std::thread::sleep(Duration::from_micros(60 * caller));
                        for _ in 0..3 {
                            let (value, _, _) = cache.get_or_build(
                                &round,
                                || {},
                                || {
                                    builds[round].fetch_add(1, Ordering::SeqCst);
                                    std::thread::sleep(Duration::from_micros(200));
                                    round
                                },
                            );
                            assert_eq!(*value, round);
                        }
                    });
                }
            });
        }
        let rebuilt = builds
            .iter()
            .filter(|b| b.load(Ordering::SeqCst) != 1)
            .count();
        assert_eq!(
            rebuilt, 0,
            "{rebuilt} of {ROUNDS} rounds built their key twice"
        );
    }
}
