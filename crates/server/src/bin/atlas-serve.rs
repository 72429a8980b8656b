//! `atlas-serve` — run the cuisine-atlas JSON API from the command line.
//!
//! ```text
//! atlas-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!             [--cache-capacity N] [--build-threads N]
//!             [--prewarm SPEC[,SPEC...]] [--access-log]
//!             [--max-corpus-bytes N] [--max-corpora N]
//!             [--data-dir DIR] [--max-disk-bytes N] [--no-persist]
//!             [--corpus-ttl-secs N]
//! ```
//!
//! `--prewarm` warms the cache before accepting connections; each spec
//! is either a generator seed (`--prewarm 23,24`) or `corpus=<digest>`
//! naming an uploaded corpus restored from the data dir. With
//! `--data-dir` the server persists every uploaded corpus and the
//! atlases built over it as checksummed snapshots and restores them on
//! restart, so a warm restart serves an upload's first queries from
//! disk with zero rebuilds; generated atlases are rebuilt instead (a
//! build is faster than a restore of their corpus), and write nothing;
//! `--max-disk-bytes` bounds the store (LRU eviction, 0 = unbounded)
//! and `--no-persist` serves warm reads without writing anything new.
//! `--corpus-ttl-secs` expires uploaded corpora (memory and disk) that
//! many seconds after registration. One writing `atlas-serve` owns a
//! `--data-dir` until it is killed (`store.lock`): a second writer on
//! the same dir exits 1 naming the lock and its holder's pid, while a
//! restart after the owner died takes its lock over. `--no-persist`
//! servers take no lock and may run beside the owner, serving what
//! their boot scan found. `--build-threads` caps the worker
//! threads used per cold atlas build (default: all available cores);
//! the built atlases are bit-for-bit identical for every thread count.
//! `--access-log` writes one JSON line per served request to stdout;
//! scrape `/metrics` for Prometheus counters and latency histograms.
//! `--max-corpus-bytes` caps the `POST /corpus` upload size (413 beyond
//! it) and `--max-corpora` bounds how many uploaded corpora are kept
//! before LRU eviction.

use atlas_server::handle::PrewarmSpec;
use atlas_server::{handle, ServerConfig, ServerHandle};

struct Options {
    config: ServerConfig,
    prewarm: Vec<PrewarmSpec>,
}

fn usage() -> ! {
    eprintln!(
        "usage: atlas-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--cache-capacity N] [--build-threads N] [--prewarm SPEC[,SPEC...]] \
         [--access-log] [--max-corpus-bytes N] [--max-corpora N] \
         [--data-dir DIR] [--max-disk-bytes N] [--no-persist] [--corpus-ttl-secs N]\n\
         \n\
         prewarm SPEC is a generator seed (e.g. 23) or corpus=<digest>"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        config: ServerConfig {
            addr: "127.0.0.1:8091".to_string(),
            ..ServerConfig::default()
        },
        prewarm: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("missing value for {flag}");
                usage();
            }
        };
        match flag.as_str() {
            "--addr" => options.config.addr = value("--addr"),
            "--workers" => options.config.workers = parse_num(&value("--workers"), "--workers"),
            "--queue-cap" => {
                options.config.queue_cap = parse_num(&value("--queue-cap"), "--queue-cap")
            }
            "--cache-capacity" => {
                options.config.cache_capacity =
                    parse_num(&value("--cache-capacity"), "--cache-capacity")
            }
            "--build-threads" => {
                options.config.build_threads =
                    parse_num(&value("--build-threads"), "--build-threads")
            }
            "--prewarm" => {
                options.prewarm = value("--prewarm")
                    .split(',')
                    .map(parse_prewarm_spec)
                    .collect()
            }
            "--access-log" => options.config.access_log = true,
            "--max-corpus-bytes" => {
                options.config.max_corpus_bytes =
                    parse_num(&value("--max-corpus-bytes"), "--max-corpus-bytes")
            }
            "--max-corpora" => {
                options.config.max_corpora = parse_num(&value("--max-corpora"), "--max-corpora")
            }
            "--data-dir" => {
                options.config.data_dir = Some(std::path::PathBuf::from(value("--data-dir")))
            }
            "--max-disk-bytes" => {
                options.config.max_disk_bytes =
                    parse_num(&value("--max-disk-bytes"), "--max-disk-bytes")
            }
            "--no-persist" => options.config.persist = false,
            "--corpus-ttl-secs" => {
                options.config.corpus_ttl_secs =
                    Some(parse_num(&value("--corpus-ttl-secs"), "--corpus-ttl-secs"))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    options
}

/// A `--prewarm` spec: a bare generator seed, or `corpus=<digest>`.
fn parse_prewarm_spec(s: &str) -> PrewarmSpec {
    if let Some(digest) = s.strip_prefix("corpus=") {
        if digest.is_empty() {
            eprintln!("bad value for --prewarm: empty corpus digest");
            usage();
        }
        return PrewarmSpec::Corpus(digest.to_string());
    }
    PrewarmSpec::Seed(parse_num(s, "--prewarm"))
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    match s.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("bad value for {flag}: {s:?}");
            usage();
        }
    }
}

fn main() {
    let options = parse_options();
    let server = match ServerHandle::start(options.config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to start on {}: {e}", options.config.addr);
            std::process::exit(1);
        }
    };
    if let Some(dir) = &options.config.data_dir {
        println!(
            "snapshot store at {} ({})",
            dir.display(),
            if options.config.persist {
                "read-write"
            } else {
                "read-only"
            },
        );
    }
    if !options.prewarm.is_empty() {
        eprintln!("prewarming {} atlas(es)...", options.prewarm.len());
        handle::prewarm_specs(server.state(), &options.prewarm);
        eprintln!("prewarm done ({} built cold)", server.build_count());
    }
    println!(
        "atlas-serve listening on http://{} ({} workers, cache capacity {})",
        server.addr(),
        options.config.workers,
        options.config.cache_capacity,
    );
    println!("try: curl http://{}/health", server.addr());
    println!("     curl http://{}/metrics", server.addr());
    // Serve until the process is killed; the handle joins on drop.
    loop {
        std::thread::park();
    }
}
