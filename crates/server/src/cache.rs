//! LRU cache for built atlases.
//!
//! Keys are canonicalized [`AtlasConfig`]s (floats compared by bit
//! pattern), values are `Arc`s shared with in-flight responses. The
//! cache holds a handful of atlases, so one mutex guards the map and
//! its recency clock: every hit stamps the clock, and eviction removes
//! the entry with the oldest stamp — an exact LRU without a linked
//! list.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

/// The map and the clock its recency stamps come from.
struct Lru<V> {
    map: HashMap<CacheKey, Entry<V>>,
    clock: u64,
}

/// A bounded LRU cache behind one lock.
pub struct AtlasCache<V> {
    lru: Mutex<Lru<V>>,
    capacity: usize,
}

impl<V> AtlasCache<V> {
    /// A cache holding at most `capacity` atlases.
    pub fn new(capacity: usize) -> Self {
        AtlasCache {
            lru: Mutex::new(Lru {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Look up a key, stamping recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<V>> {
        let mut lru = self.lru.lock().unwrap();
        lru.clock += 1;
        let now = lru.clock;
        let entry = lru.map.get_mut(key)?;
        entry.last_used = now;
        Some(Arc::clone(&entry.value))
    }

    /// Insert a value, evicting least-recently-used entries while the
    /// cache is over capacity. The evicted entries are returned so the
    /// caller can spill them to the snapshot store instead of losing
    /// the build outright.
    pub fn insert(&self, key: CacheKey, value: Arc<V>) -> Vec<(CacheKey, Arc<V>)> {
        let mut lru = self.lru.lock().unwrap();
        lru.clock += 1;
        let last_used = lru.clock;
        lru.map.insert(key, Entry { value, last_used });
        let mut evicted = Vec::new();
        while lru.map.len() > self.capacity {
            let oldest = lru
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("an over-capacity map is not empty");
            let entry = lru.map.remove(&oldest).expect("the oldest key is present");
            evicted.push((oldest, entry.value));
        }
        evicted
    }

    /// Drop every cached atlas built from the uploaded corpus `digest`
    /// (the `DELETE /corpus/{digest}` path); returns how many were
    /// removed.
    pub fn remove_corpus(&self, digest: &str) -> usize {
        let mut lru = self.lru.lock().unwrap();
        let before = lru.map.len();
        lru.map.retain(|k, _| k.corpus_digest() != Some(digest));
        before - lru.map.len()
    }

    /// Number of cached atlases.
    pub fn len(&self) -> usize {
        self.lru.lock().unwrap().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::LinkageMethod;

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
        let cache = AtlasCache::<String>::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), Arc::new("atlas".to_string()));
        let got = cache.get(&key(1)).unwrap();
        assert_eq!(*got, "atlas");
        assert!(Arc::ptr_eq(&got, &cache.get(&key(1)).unwrap()));
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
        let cache = AtlasCache::<u64>::new(8);
        cache.insert(key(1), Arc::new(10));
        cache.insert(
            CacheKey::for_corpus("abc123", &AtlasConfig::quick(1)),
            Arc::new(20),
        );
        let mut other = AtlasConfig::quick(1);
        other.min_support += 0.05;
        cache.insert(CacheKey::for_corpus("abc123", &other), Arc::new(30));
        assert_eq!(cache.remove_corpus("abc123"), 2);
        assert_eq!(cache.remove_corpus("abc123"), 0);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(1)).is_some());
    }

    #[test]
    fn eviction_is_global_and_least_recently_used() {
        let cache = AtlasCache::<u64>::new(2);
        cache.insert(key(1), Arc::new(10));
        cache.insert(key(2), Arc::new(20));
        // Touch key 1 so key 2 becomes the LRU entry, then overflow.
        cache.get(&key(1));
        let evicted = cache.insert(key(3), Arc::new(30));
        assert_eq!(cache.len(), 2, "capacity holds");
        // The spilled entry is handed back to the caller.
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, key(2));
        assert_eq!(*evicted[0].1, 20);
        assert_eq!(*cache.get(&key(1)).unwrap(), 10);
        assert!(cache.get(&key(2)).is_none(), "LRU entry was evicted");
        assert_eq!(*cache.get(&key(3)).unwrap(), 30);
    }
}
