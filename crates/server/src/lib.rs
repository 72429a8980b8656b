//! `atlas-server` — a concurrent query server for the cuisine atlas.
//!
//! Serves every artifact of the paper's pipeline (Table I, the four
//! cuisine trees, authenticity fingerprints, the elbow curve, and the
//! geography comparison) over a JSON HTTP/1.1 API, built from the
//! workspace's own primitives and `std` alone: `std::net` sockets with a
//! blocking accept loop, a worker pool over a bounded `std::sync::mpsc`
//! channel, and one keyed LRU ([`cache::Lru`], one mutex and one
//! condvar) that holds the built atlases and the uploaded corpora and
//! builds each missing atlas once however many requests ask for it.
//!
//! ```no_run
//! use atlas_server::{ServerConfig, ServerHandle};
//!
//! let server = ServerHandle::start(ServerConfig::default()).unwrap();
//! let (status, body) = server.get("/tree/pattern/euclidean").unwrap();
//! assert_eq!(status, 200);
//! println!("{}", String::from_utf8_lossy(&body));
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod corpus;
pub mod error;
pub mod handle;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod router;

pub use api::AppState;
pub use error::ApiError;
pub use handle::ServerHandle;

/// Server startup parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded connection-queue capacity; beyond it the server sheds
    /// load with 503s.
    pub queue_cap: usize,
    /// Atlases kept in the LRU cache.
    pub cache_capacity: usize,
    /// Worker threads for cold atlas builds (`0` = all available
    /// parallelism). Purely a wall-clock knob — every thread count
    /// builds bit-for-bit identical atlases.
    pub build_threads: usize,
    /// Emit one JSON line per served request on stdout (the
    /// `atlas-serve --access-log` flag).
    pub access_log: bool,
    /// Largest `POST /corpus` body accepted, in bytes; larger uploads
    /// are rejected with a 413 before the body is buffered.
    pub max_corpus_bytes: usize,
    /// Uploaded corpora kept in the registry; beyond it the
    /// least-recently-used corpus is evicted.
    pub max_corpora: usize,
    /// Directory for the persistent snapshot store (`--data-dir`).
    /// `None` disables persistence entirely — the PR-1 in-memory-only
    /// behaviour.
    pub data_dir: Option<std::path::PathBuf>,
    /// Disk budget for the snapshot store in bytes
    /// (`--max-disk-bytes`); 0 = unbounded.
    pub max_disk_bytes: u64,
    /// When `false` (`--no-persist`), the store serves warm reads from
    /// `data_dir` but never writes new snapshots.
    pub persist: bool,
    /// Drop uploaded corpora (registry entry, cached atlases, and disk
    /// snapshots) this many seconds after registration
    /// (`--corpus-ttl-secs`); `None` keeps them until evicted.
    pub corpus_ttl_secs: Option<u64>,
    /// How long a store mutation waits for the advisory write lock held
    /// by a sibling process sharing the data dir (`--lock-timeout-ms`).
    pub lock_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            cache_capacity: 4,
            build_threads: 0,
            access_log: false,
            max_corpus_bytes: 64 * 1024 * 1024,
            max_corpora: 8,
            data_dir: None,
            max_disk_bytes: 0,
            persist: true,
            corpus_ttl_secs: None,
            lock_timeout_ms: 5000,
        }
    }
}
