//! A minimal, defensive HTTP/1.1 layer over blocking streams.
//!
//! Covers exactly what the atlas API needs: request-line + header
//! parsing with hard size limits, percent-decoding, query-string
//! splitting, `Content-Length` bodies, keep-alive negotiation, and
//! response writing. Anything outside that (any `Transfer-Encoding`,
//! more than one `Content-Length`, multi-line headers) is rejected with
//! a 400: a body whose length this parser could read differently from a
//! proxy in front of it would let one request smuggle a second.

use std::io::{BufRead, Write};

/// Hard limit on the request line (method + target + version).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Hard limit on a single header line.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Hard limit on header count.
const MAX_HEADERS: usize = 64;
/// Default hard limit on request bodies.
const MAX_BODY: usize = 1024 * 1024;
/// Bodies are drained in chunks of this size so an over-cap upload is
/// rejected after at most one chunk past the limit, not after buffering
/// the whole advertised length.
const BODY_CHUNK: usize = 64 * 1024;

/// Per-path request-body caps.
///
/// Corpus uploads are legitimately large (a full RecipeDB snapshot),
/// every other endpoint takes at most a small JSON document — so the
/// limit is chosen by path prefix before the body is read.
#[derive(Debug, Clone, Copy)]
pub struct BodyLimits {
    /// Cap for `POST /corpus` bodies, in bytes.
    pub corpus_bytes: usize,
    /// Cap for every other request body, in bytes.
    pub default_bytes: usize,
}

impl Default for BodyLimits {
    fn default() -> Self {
        BodyLimits {
            corpus_bytes: MAX_BODY,
            default_bytes: MAX_BODY,
        }
    }
}

impl BodyLimits {
    fn for_path(&self, path: &str) -> usize {
        if path == "/corpus" || path.starts_with("/corpus/") {
            self.corpus_bytes
        } else {
            self.default_bytes
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, ...).
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Header `(name-lowercase, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// A header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open
    /// (HTTP/1.1 default yes, overridden by `Connection: close`).
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => !v.eq_ignore_ascii_case("close"),
            None => true,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed before sending a request line — normal end of a
    /// keep-alive session, not an error to report.
    ConnectionClosed,
    /// The bytes were not valid HTTP; the message goes into a 400 body.
    Malformed(String),
    /// The body exceeded the cap for its path; becomes a 413. The
    /// connection is closed afterwards — after a bounded drain of the
    /// unread body, so the client can collect the response instead of
    /// hitting a TCP reset.
    BodyTooLarge {
        /// The request path the limit was chosen for.
        path: String,
        /// The cap that was exceeded, in bytes.
        limit: usize,
        /// The Content-Length the client advertised.
        advertised: usize,
    },
}

/// Read one request from a buffered stream with the default body caps.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, ParseError> {
    read_request_limited(reader, &BodyLimits::default())
}

/// Read and discard up to `n` body bytes in bounded chunks, stopping
/// early on any I/O error. Used after an over-cap body is rejected:
/// closing a socket with unread data makes the kernel send a TCP reset,
/// which can destroy the 413 response before the client reads it — a
/// bounded drain lets the rejection actually reach the peer.
pub fn drain_body<R: BufRead>(reader: &mut R, n: usize) {
    let mut scratch = [0u8; 4096];
    let mut remaining = n;
    while remaining > 0 {
        let want = remaining.min(scratch.len());
        match std::io::Read::read(reader, &mut scratch[..want]) {
            Ok(0) | Err(_) => break,
            Ok(got) => remaining -= got,
        }
    }
}

/// Read one request from a buffered stream, capping the body by path.
pub fn read_request_limited<R: BufRead>(
    reader: &mut R,
    limits: &BodyLimits,
) -> Result<Request, ParseError> {
    let mut request = read_head(reader)?;
    read_body(reader, &mut request, limits)?;
    Ok(request)
}

/// Read a request's line and headers; the returned request's body is
/// still empty (see [`read_body`]).
pub(crate) fn read_head<R: BufRead>(reader: &mut R) -> Result<Request, ParseError> {
    let line = read_line(reader, MAX_REQUEST_LINE)?;
    if line.is_empty() {
        return Err(ParseError::ConnectionClosed);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing HTTP version".into()))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!("bad request line: {line}")));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !raw_path.starts_with('/') {
        return Err(ParseError::Malformed(format!(
            "bad request target: {target}"
        )));
    }
    let path = percent_decode(raw_path)
        .ok_or_else(|| ParseError::Malformed("bad percent-encoding in path".into()))?;
    let query = match raw_query {
        Some(q) => parse_query(q)
            .ok_or_else(|| ParseError::Malformed("bad percent-encoding in query".into()))?,
        None => Vec::new(),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, MAX_HEADER_LINE)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::Malformed("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("bad header: {line}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    })
}

/// Read the body that `request`'s headers announce, capped by its path.
pub(crate) fn read_body<R: BufRead>(
    reader: &mut R,
    request: &mut Request,
    limits: &BodyLimits,
) -> Result<(), ParseError> {
    let headers = &request.headers;
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ParseError::Malformed(
            "transfer-encoding is not supported".into(),
        ));
    }
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let content_length = lengths.next();
    if lengths.next().is_some() {
        return Err(ParseError::Malformed("duplicate content-length".into()));
    }
    request.body = match content_length {
        Some((_, v)) => {
            let len: usize = v
                .parse()
                .map_err(|_| ParseError::Malformed(format!("bad content-length: {v}")))?;
            let limit = limits.for_path(&request.path);
            if len > limit {
                return Err(ParseError::BodyTooLarge {
                    path: request.path.clone(),
                    limit,
                    advertised: len,
                });
            }
            // Drain in bounded chunks: the advertised length is already
            // under the cap, but never trust it enough to allocate the
            // whole body before any byte arrives.
            let mut buf = Vec::with_capacity(len.min(BODY_CHUNK));
            let mut remaining = len;
            while remaining > 0 {
                let chunk = remaining.min(BODY_CHUNK);
                let start = buf.len();
                buf.resize(start + chunk, 0);
                std::io::Read::read_exact(reader, &mut buf[start..])
                    .map_err(|e| ParseError::Malformed(format!("short body: {e}")))?;
                remaining -= chunk;
            }
            buf
        }
        None => Vec::new(),
    };
    Ok(())
}

/// Read a CRLF- (or LF-) terminated line; empty string at EOF.
fn read_line<R: BufRead>(reader: &mut R, max: usize) -> Result<String, ParseError> {
    let mut buf = Vec::new();
    // Every byte counts against `max`, including the `\r`s that are not
    // kept: otherwise a line of endless `\r` would never hit the cap.
    let mut read = 0;
    loop {
        let mut byte = [0u8; 1];
        match std::io::Read::read(reader, &mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if byte[0] != b'\r' {
                    buf.push(byte[0]);
                }
                read += 1;
                if read > max {
                    return Err(ParseError::Malformed("line too long".into()));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Malformed(format!("read error: {e}"))),
        }
    }
    String::from_utf8(buf).map_err(|_| ParseError::Malformed("non-UTF-8 request".into()))
}

/// Decode `%XX` escapes (and `+` as space); `None` on malformed escapes.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex(*bytes.get(i + 1)?)?;
                let lo = hex(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Split a query string into decoded key/value pairs.
pub(crate) fn parse_query(q: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    for pair in q.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Some(out)
}

/// A response ready to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// Write the response, announcing whether the connection stays open.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            connection,
        )?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let r = parse(
            "GET /tree/pattern/euclidean?seed=7&scale=0.05 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/tree/pattern/euclidean");
        assert_eq!(r.query_param("seed"), Some("7"));
        assert_eq!(r.query_param("scale"), Some("0.05"));
        assert_eq!(r.header("host"), Some("x"));
        assert!(!r.wants_keep_alive());
    }

    #[test]
    fn percent_decoding_in_path_and_query() {
        let r = parse("GET /fingerprint/Indian%20Subcontinent?x=a%2Bb HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/fingerprint/Indian Subcontinent");
        assert_eq!(r.query_param("x"), Some("a+b"));
        assert_eq!(percent_decode("a+b"), Some("a b".into()));
        assert_eq!(percent_decode("%GG"), None);
        assert_eq!(percent_decode("%2"), None);
    }

    #[test]
    fn eof_is_connection_closed_and_garbage_is_malformed() {
        assert_eq!(parse("").unwrap_err(), ParseError::ConnectionClosed);
        assert!(matches!(
            parse("garbage\r\n\r\n").unwrap_err(),
            ParseError::Malformed(_)
        ));
        assert!(matches!(
            parse("GET /x HTTP/2.0\r\n\r\n").unwrap_err(),
            ParseError::Malformed(_)
        ));
        assert!(matches!(
            parse("GET noslash HTTP/1.1\r\n\r\n").unwrap_err(),
            ParseError::Malformed(_)
        ));
    }

    #[test]
    fn carriage_returns_count_against_the_line_cap() {
        // Dropped `\r`s used to cost nothing, so a line of them never
        // ended and an empty one read as the end of the headers.
        let raw = format!("GET / HTTP/1.1\r\n{}\n", "\r".repeat(16 * 1024));
        assert!(matches!(parse(&raw).unwrap_err(), ParseError::Malformed(_)));
    }

    #[test]
    fn keep_alive_defaults_on_for_http11() {
        let r = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.wants_keep_alive());
    }

    #[test]
    fn body_respects_content_length() {
        let r = parse("POST /upload HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.body, b"abcd");
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nabc").unwrap_err(),
            ParseError::Malformed(_)
        ));
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        // The smuggling shape: a chunked "body" that is really a second
        // request must not be left on the connection.
        for te in ["chunked", "gzip, chunked", "identity"] {
            let raw = format!(
                "GET /health HTTP/1.1\r\nTransfer-Encoding: {te}\r\n\r\n\
                 GET /cuisines HTTP/1.1\r\n\r\n"
            );
            assert!(
                matches!(parse(&raw).unwrap_err(), ParseError::Malformed(_)),
                "Transfer-Encoding: {te} accepted"
            );
        }
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        for (a, b) in [(0, 26), (26, 0), (4, 4)] {
            let raw = format!(
                "POST /batch HTTP/1.1\r\nContent-Length: {a}\r\nContent-Length: {b}\r\n\r\n\
                 GET /cuisines HTTP/1.1\r\n\r\n"
            );
            assert!(
                matches!(parse(&raw).unwrap_err(), ParseError::Malformed(_)),
                "Content-Length {a} then {b} accepted"
            );
        }
    }

    #[test]
    fn body_limits_are_chosen_by_path() {
        let limits = BodyLimits {
            corpus_bytes: 8,
            default_bytes: 2,
        };
        let parse_with =
            |raw: &str| read_request_limited(&mut BufReader::new(raw.as_bytes()), &limits);
        // Under the /corpus cap but over the default one.
        let r = parse_with("POST /corpus HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.body, b"abcd");
        assert!(matches!(
            parse_with("POST /batch HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap_err(),
            ParseError::BodyTooLarge { ref path, limit: 2, advertised: 4 } if path == "/batch"
        ));
        // Over even the /corpus cap — rejected before reading the body.
        assert!(matches!(
            parse_with("POST /corpus HTTP/1.1\r\nContent-Length: 9\r\n\r\n").unwrap_err(),
            ParseError::BodyTooLarge { limit: 8, .. }
        ));
    }

    #[test]
    fn large_bodies_are_read_in_chunks() {
        // Bigger than one BODY_CHUNK to exercise the chunked drain.
        let payload = vec![b'x'; BODY_CHUNK + 17];
        let mut raw = format!(
            "POST /corpus HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        )
        .into_bytes();
        raw.extend_from_slice(&payload);
        let limits = BodyLimits {
            corpus_bytes: 2 * BODY_CHUNK,
            default_bytes: MAX_BODY,
        };
        let r = read_request_limited(&mut BufReader::new(raw.as_slice()), &limits).unwrap();
        assert_eq!(r.body, payload);
    }

    #[test]
    fn response_writes_status_line_and_length() {
        let mut buf = Vec::new();
        Response::json(200, r#"{"ok":true}"#)
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with(r#"{"ok":true}"#));
    }

    /// A well-formed request the mutation strategy starts from.
    fn valid_request(path: &str, body: &[u8]) -> Vec<u8> {
        let mut raw = format!(
            "POST {path}?seed=7 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    /// Parse arbitrary bytes under small caps. The parser must not
    /// panic, and an accepted body must fit the cap for its path.
    fn check_parse(raw: &[u8]) {
        let limits = BodyLimits {
            corpus_bytes: 64,
            default_bytes: 16,
        };
        match read_request_limited(&mut BufReader::new(raw), &limits) {
            Ok(request) => assert!(request.body.len() <= limits.for_path(&request.path)),
            Err(ParseError::BodyTooLarge {
                limit, advertised, ..
            }) => assert!(advertised > limit),
            Err(ParseError::ConnectionClosed | ParseError::Malformed(_)) => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(raw in prop::collection::vec(0u8..=255, 0..256)) {
            check_parse(&raw);
        }

        #[test]
        fn mutated_requests_never_panic(
            path in prop_oneof![Just("/corpus"), Just("/batch")],
            body in prop::collection::vec(0u8..=255, 0..80),
            edits in prop::collection::vec((0usize..512, 0u8..=255, 0u8..3), 0..6),
        ) {
            let mut raw = valid_request(path, &body);
            // Overwrite, insert or delete single bytes at arbitrary offsets.
            for (at, byte, op) in edits {
                let at = at % (raw.len() + 1);
                match op {
                    0 if at < raw.len() => raw[at] = byte,
                    1 => raw.insert(at, byte),
                    _ if at < raw.len() => {
                        raw.remove(at);
                    }
                    _ => {}
                }
            }
            check_parse(&raw);
        }
    }
}
