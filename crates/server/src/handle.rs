//! Running servers: the accept loop, per-connection handling, and the
//! in-process [`ServerHandle`] used by tests, examples, and the CLI.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use crate::api::{self, AppState};
use crate::error::ApiError;
use crate::http::{read_body, read_head, BodyLimits, ParseError};
use crate::pool::WorkerPool;
use crate::router::Router;
use crate::ServerConfig;

/// How long a keep-alive connection may sit idle before being closed,
/// how long any one read may wait, and how long a request's line and
/// headers may take to arrive after its first byte.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Requests served per connection before forcing a close.
const MAX_REQUESTS_PER_CONNECTION: usize = 256;
/// Accept-loop back-off after a failed accept (e.g. `EMFILE`), so a
/// persistent error cannot spin the thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Most bytes drained (and discarded) from an over-cap request body so
/// the 413 response survives the close; see `http::drain_body`.
const DRAIN_CAP: usize = 8 * 1024 * 1024;

/// A running server: owns its listener thread and worker pool, exposes
/// the bound address, and shuts down gracefully on [`ServerHandle::shutdown`]
/// or drop.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Bind and start serving. With `addr` port 0 an ephemeral port is
    /// chosen; read it back via [`ServerHandle::addr`].
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        // A data dir makes the server persistent: snapshots are served
        // warm from disk and (unless --no-persist) written through. A
        // writing server owns the dir until shutdown; opening one that
        // another live server owns fails here.
        let store = match &config.data_dir {
            Some(dir) => Some(Arc::new(atlas_store::SnapshotStore::open(
                atlas_store::StoreConfig {
                    root: dir.clone(),
                    max_disk_bytes: config.max_disk_bytes,
                    read_only: !config.persist,
                    // Lets the crash-consistency harness inject faults
                    // into real spawned servers; unset in production.
                    faults: atlas_store::FaultPlan::from_env("ATLAS_STORE_FAULT"),
                },
            )?)),
            None => None,
        };
        let state = Arc::new(AppState::with_persistence(
            config.cache_capacity,
            config.workers,
            config.build_threads,
            config.max_corpora,
            store,
            config.corpus_ttl_secs.map(Duration::from_secs),
        ));
        let stop = Arc::new(AtomicBool::new(false));

        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let workers = config.workers;
        let queue_cap = config.queue_cap;
        let access_log = config.access_log;
        let limits = BodyLimits {
            corpus_bytes: config.max_corpus_bytes,
            ..BodyLimits::default()
        };
        let accept_thread = std::thread::Builder::new()
            .name("atlas-accept".to_string())
            .spawn(move || {
                accept_loop(
                    listener,
                    accept_state,
                    accept_stop,
                    workers,
                    queue_cap,
                    access_log,
                    limits,
                );
            })?;

        Ok(ServerHandle {
            addr,
            state,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for inspecting cache/build counters in tests.
    pub fn state(&self) -> &AppState {
        &self.state
    }

    /// Number of atlas builds performed so far.
    pub fn build_count(&self) -> usize {
        self.state.build_count()
    }

    /// Minimal blocking client: `GET` a path (query string included,
    /// already percent-encoded) and return `(status, body)`.
    pub fn get(&self, path_and_query: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.request("GET", path_and_query, None)
    }

    /// Minimal blocking client: `POST` a JSON body to a path and return
    /// `(status, body)`.
    pub fn post(&self, path_and_query: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.request("POST", path_and_query, Some(body))
    }

    /// Minimal blocking client: `DELETE` a path and return
    /// `(status, body)`.
    pub fn delete(&self, path_and_query: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.request("DELETE", path_and_query, None)
    }

    /// One request on a fresh `Connection: close` connection; a body is
    /// sent as JSON with its `Content-Length`.
    fn request(
        &self,
        method: &str,
        path_and_query: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        let framing = match body {
            Some(body) => format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ),
            None => String::new(),
        };
        write!(
            stream,
            "{method} {path_and_query} HTTP/1.1\r\nHost: atlas\r\n{framing}Connection: close\r\n\r\n"
        )?;
        // The server may reject the request from its headers alone (413)
        // and respond before the body is through — keep the write error,
        // if any, and still try to collect that response.
        let written = stream.write_all(body.unwrap_or_default());
        let mut raw = Vec::new();
        let read = stream.read_to_end(&mut raw);
        if raw.is_empty() {
            written?;
            read?;
        }
        parse_client_response(&raw)
    }

    /// Stop accepting, drain in-flight connections, join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); this connection wakes it
        // so it sees the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Split a raw HTTP/1.1 response into status code and body.
fn parse_client_response(raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head = std::str::from_utf8(&raw[..header_end]).map_err(|_| bad("non-UTF-8 headers"))?;
    let status_line = head.lines().next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    Ok((status, raw[header_end + 4..].to_vec()))
}

/// Accept connections until stopped, handing each to the worker pool
/// stamped with its accept time so queue wait is measurable.
fn accept_loop(
    listener: TcpListener,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    workers: usize,
    queue_cap: usize,
    access_log: bool,
    limits: BodyLimits,
) {
    // The pool lives (and dies) with the accept loop: when the loop
    // exits, dropping the pool drains queued connections and joins the
    // workers, so `ServerHandle::shutdown` only has to join this thread.
    let router = api::router();
    let handler_stop = Arc::clone(&stop);
    let handler_state = Arc::clone(&state);
    let pool = WorkerPool::new(
        workers,
        queue_cap,
        move |(stream, accepted): (TcpStream, Instant)| {
            let metrics = handler_state.metrics();
            metrics.record_connection();
            metrics.record_queue_wait(accepted.elapsed());
            handle_connection(
                stream,
                &router,
                handler_state.as_ref(),
                handler_stop.as_ref(),
                access_log,
                limits,
            );
        },
    );
    loop {
        match listener.accept() {
            // Shutdown sets the flag, then connects to wake this loop.
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _)) => {
                if let Err(crate::pool::Rejected((mut stream, _))) =
                    pool.try_execute((stream, Instant::now()))
                {
                    // Load shedding: the queue is full, so tell the
                    // client instead of letting connections pile up.
                    state.metrics().record_shed();
                    let resp = api::error_response(&ApiError::unavailable(
                        "server saturated, retry later",
                    ));
                    let _ = resp.write_to(&mut stream, false);
                }
            }
            // std retries EINTR itself, so an error here is real.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// The read side of a connection. Every read waits at most
/// [`READ_TIMEOUT`]; while a request head is being read, reads also stop
/// at the head's deadline, so a client that drips header bytes loses the
/// worker [`READ_TIMEOUT`] after the request's first byte.
struct Socket {
    stream: TcpStream,
    head: HeadClock,
    /// The read timeout currently set on `stream`.
    timeout: Duration,
}

/// The deadline for reading one request's line and headers.
enum HeadClock {
    /// Not reading a head (idle between requests, or reading a body).
    Off,
    /// Reading a head whose first byte has not arrived yet.
    Armed,
    /// Reading a head that must be complete by this instant.
    Until(Instant),
}

impl Socket {
    /// Start the head clock for the next request: now, if its first
    /// bytes are already buffered, else when they arrive.
    fn start_head(&mut self, buffered: bool) {
        self.head = if buffered {
            HeadClock::Until(Instant::now() + READ_TIMEOUT)
        } else {
            HeadClock::Armed
        };
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let timeout = match self.head {
            HeadClock::Until(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "request head not complete in time",
                    ));
                }
                left
            }
            HeadClock::Off | HeadClock::Armed => READ_TIMEOUT,
        };
        if timeout != self.timeout {
            self.stream.set_read_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        let n = self.stream.read(buf)?;
        if n > 0 && matches!(self.head, HeadClock::Armed) {
            self.head = HeadClock::Until(Instant::now() + READ_TIMEOUT);
        }
        Ok(n)
    }
}

/// Serve requests on one connection until it closes, errors, times out,
/// or the server stops, recording metrics (and optionally a JSON-lines
/// access-log entry) for every request.
fn handle_connection(
    stream: TcpStream,
    router: &Router<AppState>,
    state: &AppState,
    stop: &AtomicBool,
    access_log: bool,
    limits: BodyLimits,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(stream) => Socket {
            stream,
            head: HeadClock::Off,
            timeout: READ_TIMEOUT,
        },
        Err(_) => return,
    });
    let mut writer = stream;
    for served in 0.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let buffered = !reader.buffer().is_empty();
        reader.get_mut().start_head(buffered);
        let head = read_head(&mut reader);
        reader.get_mut().head = HeadClock::Off;
        let read = head.and_then(|mut request| {
            read_body(&mut reader, &mut request, &limits).map(|()| request)
        });
        let request = match read {
            Ok(request) => request,
            Err(ParseError::ConnectionClosed) => break,
            Err(ParseError::Malformed(msg)) => {
                state.metrics().record_parse_error();
                let resp = api::error_response(&ApiError::bad_request(msg));
                let _ = resp.write_to(&mut writer, false);
                break;
            }
            Err(ParseError::BodyTooLarge {
                path,
                limit,
                advertised,
            }) => {
                state.metrics().record_parse_error();
                if path == "/corpus" || path.starts_with("/corpus/") {
                    state.metrics().record_corpus_reject();
                }
                let resp = api::error_response(&ApiError::payload_too_large(format!(
                    "body for {path} exceeds the {limit}-byte limit"
                )));
                let _ = resp.write_to(&mut writer, false);
                // Drain what the client advertised (bounded) before
                // closing: an unread body would turn the close into a
                // TCP reset that can destroy the 413 mid-flight. Truly
                // huge uploads are cut off at the cap and reset anyway.
                crate::http::drain_body(&mut reader, advertised.min(DRAIN_CAP));
                break;
            }
        };
        let keep_alive = request.wants_keep_alive() && served + 1 < MAX_REQUESTS_PER_CONNECTION;
        let started = Instant::now();
        let dispatched = catch_unwind(AssertUnwindSafe(|| {
            router.dispatch_labeled(state, &request)
        }));
        let Ok((label, result)) = dispatched else {
            // The panic hook has already printed the payload. Answer the
            // client instead of dropping the connection on it.
            state.metrics().record_handler_panic();
            let resp = api::error_response(&ApiError::internal("handler panicked"));
            let _ = resp.write_to(&mut writer, false);
            break;
        };
        let response = match result {
            Ok(response) => response,
            Err(err) => api::error_response(&err),
        };
        let handler = started.elapsed();
        // Recorded after the handler ran, so a /metrics response never
        // includes its own request; the next scrape does.
        state
            .metrics()
            .record_request(label, response.status, handler);
        if access_log {
            write_access_log(
                &request,
                label,
                response.status,
                response.body.len(),
                handler,
            );
        }
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}

/// Render one structured access-log line:
/// `{"ts_ms":...,"method":"GET","path":"/table1","endpoint":"/table1",
///   "status":200,"bytes":5301,"handler_ms":0.412}`.
fn access_log_line(
    request: &crate::http::Request,
    label: Option<&str>,
    status: u16,
    bytes: usize,
    handler: Duration,
) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    serde_json::json!({
        "ts_ms": ts_ms,
        "method": (request.method.as_str()),
        "path": (request.path.as_str()),
        "endpoint": (label.unwrap_or(crate::metrics::UNROUTED_LABEL)),
        "status": status,
        "bytes": bytes,
        "handler_ms": (handler.as_secs_f64() * 1e3),
    })
    .to_string()
}

/// Emit one access-log line to stdout.
fn write_access_log(
    request: &crate::http::Request,
    label: Option<&str>,
    status: u16,
    bytes: usize,
    handler: Duration,
) {
    let line = access_log_line(request, label, status, bytes, handler);
    // One locked write per line keeps concurrent workers' lines whole.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "{line}");
}

/// One `--prewarm` spec: a generator seed, or `corpus=<digest>` naming
/// an uploaded corpus restored from the snapshot store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrewarmSpec {
    /// Warm the quick synthetic atlas for this seed. Always a build:
    /// generated atlases are never stored, even with a data dir.
    Seed(u64),
    /// Warm the default-config atlas over a registered corpus digest,
    /// restored from its stored atlas when there is one.
    Corpus(String),
}

/// Prewarm from parsed `--prewarm` specs. A `corpus=` digest that is
/// not registered (nothing restored it from the store) is skipped with
/// a warning rather than failing startup.
pub fn prewarm_specs(state: &AppState, specs: &[PrewarmSpec]) {
    for spec in specs {
        match spec {
            PrewarmSpec::Seed(seed) => {
                let _ = state.atlas(&cuisine_atlas::pipeline::AtlasConfig::quick(*seed));
            }
            PrewarmSpec::Corpus(digest) => match state.corpora().get(digest) {
                Some(info) => {
                    let config = cuisine_atlas::pipeline::AtlasConfig::quick(23);
                    let _ = state.atlas_for(Some(&info), &config);
                }
                None => eprintln!("prewarm: unknown corpus {digest:?}, skipping"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    #[test]
    fn client_response_parser_handles_status_and_body() {
        let (status, body) =
            parse_client_response(b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno")
                .unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, b"no");
        assert!(parse_client_response(b"garbage").is_err());
    }

    #[test]
    fn access_log_lines_are_json_with_the_request_fields() {
        let request = crate::http::Request {
            method: "GET".to_string(),
            path: "/tree/pattern/cosine".to_string(),
            query: vec![("seed".to_string(), "7".to_string())],
            headers: Vec::new(),
            body: Vec::new(),
        };
        let line = access_log_line(
            &request,
            Some("/tree/pattern/:metric"),
            200,
            5301,
            Duration::from_micros(412),
        );
        let parsed = serde_json::parse_value(&line).expect("access log line is valid JSON");
        let get = |k: &str| {
            parsed
                .get(k)
                .unwrap_or_else(|| panic!("missing {k}: {line}"))
        };
        assert_eq!(get("method").as_str(), Some("GET"));
        assert_eq!(get("path").as_str(), Some("/tree/pattern/cosine"));
        assert_eq!(get("endpoint").as_str(), Some("/tree/pattern/:metric"));
        assert_eq!(get("status").as_f64(), Some(200.0));
        assert_eq!(get("bytes").as_f64(), Some(5301.0));
        assert!(get("handler_ms").as_f64().unwrap() > 0.0);
        assert!(get("ts_ms").as_f64().unwrap() > 0.0);
    }

    #[test]
    fn start_serve_health_and_shutdown() {
        let server = ServerHandle::start(ServerConfig::default()).unwrap();
        let (status, body) = server.get("/health").unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"status\""));
        assert_eq!(server.build_count(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_of_a_wildcard_bind_returns_promptly() {
        let server = ServerHandle::start(ServerConfig {
            addr: "0.0.0.0:0".to_string(),
            ..ServerConfig::default()
        })
        .unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(2)).is_ok(),
            "shutdown must wake the blocking accept"
        );
    }

    /// Write raw bytes on one connection and read until the server
    /// closes it.
    fn exchange(addr: SocketAddr, raw: &str) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        out
    }

    #[test]
    fn a_smuggled_second_request_gets_no_response() {
        let server = ServerHandle::start(ServerConfig::default()).unwrap();
        let smuggled = "GET /cuisines HTTP/1.1\r\n\r\n";
        for headers in [
            "Transfer-Encoding: chunked\r\n",
            "Content-Length: 0\r\nContent-Length: 26\r\n",
        ] {
            let raw = exchange(
                server.addr(),
                &format!("GET /health HTTP/1.1\r\n{headers}\r\n{smuggled}"),
            );
            let responses = raw.windows(9).filter(|w| w == b"HTTP/1.1 ").count();
            assert_eq!(responses, 1, "{}", String::from_utf8_lossy(&raw));
            assert_eq!(parse_client_response(&raw).unwrap().0, 400);
        }
        let text = server.state().metrics().render_prometheus("");
        assert!(text.contains("atlas_parse_errors_total 2\n"), "{text}");
        server.shutdown();
    }

    #[test]
    fn a_handler_panic_is_answered_500_and_counted() {
        let router: Router<AppState> = Router::new()
            .get("/boom", |_, _, _| panic!("handler failed"))
            .get("/ok", |_, _, _| Ok(crate::http::Response::json(200, "{}")));
        let state = AppState::new(1, 1, 1);
        let stop = AtomicBool::new(false);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = std::thread::scope(|s| {
            s.spawn(|| {
                let (stream, _) = listener.accept().unwrap();
                handle_connection(stream, &router, &state, &stop, false, BodyLimits::default());
            });
            // Two keep-alive requests: the connection must close after the
            // 500, so /ok is never answered.
            exchange(addr, "GET /boom HTTP/1.1\r\n\r\nGET /ok HTTP/1.1\r\n\r\n")
        });
        let head = String::from_utf8_lossy(&raw);
        assert!(head.starts_with("HTTP/1.1 500 "), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert_eq!(head.matches("HTTP/1.1 ").count(), 1, "{head}");
        let text = state.metrics().render_prometheus("");
        assert!(text.contains("atlas_handler_panics_total 1\n"), "{text}");
    }

    #[test]
    fn a_dripping_client_cannot_hold_the_only_worker() {
        let server = ServerHandle::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        // One header line every 500 ms: each read succeeds well inside
        // READ_TIMEOUT, so only a deadline on the whole head ends it.
        let dripper = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let pace = Duration::from_millis(500);
            stream.set_read_timeout(Some(pace)).unwrap();
            stream.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
            let started = Instant::now();
            let mut raw = Vec::new();
            let mut chunk = [0u8; 4096];
            for line in 1.. {
                // Waiting for an answer paces the drip; once one arrives,
                // read it to the end instead of writing more.
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => raw.extend_from_slice(&chunk[..n]),
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => break,
                }
                if raw.is_empty() {
                    let sent = stream.write_all(format!("X-Drip: {line}\r\n").as_bytes());
                    if sent.is_err() || started.elapsed() >= 3 * READ_TIMEOUT {
                        break;
                    }
                }
            }
            raw
        });
        // Let the dripper take the worker first.
        std::thread::sleep(Duration::from_millis(200));
        let started = Instant::now();
        let (status, _) = server.get("/health").unwrap();
        let waited = started.elapsed();
        assert_eq!(status, 200);
        assert!(
            waited < READ_TIMEOUT + Duration::from_millis(1500),
            "/health waited {waited:?} behind a dripping client"
        );
        let raw = dripper.join().unwrap();
        assert_eq!(parse_client_response(&raw).unwrap().0, 400);
        let text = server.state().metrics().render_prometheus("");
        assert!(text.contains("atlas_parse_errors_total 1\n"), "{text}");
        server.shutdown();
    }

    #[test]
    fn unknown_route_is_404_bad_method_405() {
        let server = ServerHandle::start(ServerConfig::default()).unwrap();
        assert_eq!(server.get("/nope").unwrap().0, 404);
        // Raw request with a different method to check 405 mapping.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "DELETE /health HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        assert_eq!(parse_client_response(&raw).unwrap().0, 405);
        server.shutdown();
    }
}
