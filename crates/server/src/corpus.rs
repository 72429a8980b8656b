//! The bounded registry of user-uploaded corpora.
//!
//! `POST /corpus` validates a RecipeDB snapshot and registers it here
//! under its content digest; `?corpus=<digest>` on any endpoint looks it
//! up. The registry is a small exact LRU (the server's one [`Lru`]):
//! uploads beyond `max_corpora` evict the least-recently-used corpus
//! (its cached atlases stay keyed by digest in the atlas cache until
//! they age out there too). Registering the same bytes twice is
//! idempotent — the digest is the identity.

use std::sync::Arc;
use std::time::SystemTime;

use recipedb::RecipeDb;

use crate::cache::Lru;

/// An uploaded corpus and its summary, shared immutably with every
/// build that uses it.
#[derive(Debug)]
pub struct CorpusInfo {
    /// Content digest — the corpus id clients pass as `?corpus=`.
    pub digest: String,
    /// The validated database.
    pub db: Arc<RecipeDb>,
    /// Total recipes in the corpus.
    pub recipes: usize,
    /// Number of cuisines with at least one recipe.
    pub cuisines: usize,
    /// Size of the uploaded JSON body, in bytes.
    pub bytes: usize,
    /// When the corpus entered the registry — the upload time, or the
    /// snapshot file's mtime after a warm restart. Drives the optional
    /// corpus TTL.
    pub registered_at: SystemTime,
}

/// A bounded LRU of uploaded corpora, keyed by digest.
pub struct CorpusRegistry {
    lru: Lru<String, CorpusInfo>,
}

impl CorpusRegistry {
    /// A registry holding at most `max_corpora` corpora.
    pub fn new(max_corpora: usize) -> Self {
        CorpusRegistry {
            lru: Lru::new(max_corpora),
        }
    }

    /// Register a corpus, evicting the least-recently-used one when
    /// full. Returns the stored info and whether this digest was new
    /// (`false` = the upload was a no-op re-registration).
    pub fn insert(&self, info: CorpusInfo) -> (Arc<CorpusInfo>, bool) {
        self.lru.insert(info.digest.clone(), info)
    }

    /// Look up a corpus by digest, stamping recency on a hit.
    pub fn get(&self, digest: &str) -> Option<Arc<CorpusInfo>> {
        self.lru.get(&digest.to_string())
    }

    /// Remove a corpus by digest (the `DELETE /corpus/{digest}` path
    /// and the TTL sweep). Returns whether it was registered.
    pub fn remove(&self, digest: &str) -> bool {
        self.lru.remove_where(|d| d == digest) > 0
    }

    /// Every registered corpus, sorted by digest, without stamping
    /// recency (used for `/health` accounting and the TTL sweep).
    pub fn infos(&self) -> Vec<Arc<CorpusInfo>> {
        let mut infos = self.lru.values();
        infos.sort_by(|a, b| a.digest.cmp(&b.digest));
        infos
    }

    /// Number of registered corpora.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(digest: &str) -> CorpusInfo {
        CorpusInfo {
            digest: digest.to_string(),
            db: Arc::new(recipedb::store::RecipeDbBuilder::new().build().unwrap()),
            recipes: 0,
            cuisines: 0,
            bytes: 2,
            registered_at: SystemTime::now(),
        }
    }

    #[test]
    fn remove_and_infos_round_out_the_registry() {
        let reg = CorpusRegistry::new(4);
        reg.insert(info("d2"));
        reg.insert(info("d1"));
        let listed: Vec<String> = reg.infos().iter().map(|i| i.digest.clone()).collect();
        assert_eq!(listed, ["d1", "d2"], "infos are digest-sorted");
        assert!(reg.remove("d1"));
        assert!(!reg.remove("d1"), "second remove is a no-op");
        assert_eq!(reg.len(), 1);
        assert!(reg.get("d1").is_none());
    }

    #[test]
    fn insert_is_idempotent_by_digest() {
        let reg = CorpusRegistry::new(4);
        let (a, created) = reg.insert(info("d1"));
        assert!(created);
        let (b, created_again) = reg.insert(info("d1"));
        assert!(!created_again);
        assert!(Arc::ptr_eq(&a, &b), "re-upload returns the stored corpus");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn get_finds_registered_corpora_only() {
        let reg = CorpusRegistry::new(4);
        reg.insert(info("d1"));
        assert!(reg.get("d1").is_some());
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let reg = CorpusRegistry::new(2);
        reg.insert(info("d1"));
        reg.insert(info("d2"));
        // Touch d1 so d2 is the LRU victim.
        reg.get("d1");
        reg.insert(info("d3"));
        assert_eq!(reg.len(), 2);
        assert!(reg.get("d1").is_some());
        assert!(reg.get("d2").is_none(), "LRU corpus was evicted");
        assert!(reg.get("d3").is_some());
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let reg = CorpusRegistry::new(0);
        reg.insert(info("d1"));
        reg.insert(info("d2"));
        assert_eq!(reg.len(), 1);
    }
}
