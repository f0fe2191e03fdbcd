//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for
//! the compile-and-simulate service: request line + headers +
//! `Content-Length` bodies (a `Transfer-Encoding` is a `501`, and
//! conflicting lengths a `400`), explicit size limits, and HTTP/1.1
//! **keep-alive** semantics. A connection serves a sequence of
//! requests through one caller-owned [`BufRead`] (so pipelined bytes
//! buffered past one request survive into the next read), and the
//! `Connection:` header plus protocol version decide whether the
//! socket persists: HTTP/1.1 defaults to keep-alive, HTTP/1.0 to
//! close, and an explicit `Connection: close` / `keep-alive` token
//! overrides either way.

use std::io::{self, BufRead, Write};

/// Upper bound on the request line plus all header bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default upper bound on a request body (`413` beyond it).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Absolute path, query string included if any.
    pub path: String,
    /// `true` for `HTTP/1.1` (and later 1.x), `false` for `HTTP/1.0`
    /// — decides the default connection semantics.
    pub http11: bool,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header named `name` (ASCII case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` if it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Whether the connection should stay open after this request:
    /// an explicit `Connection:` token wins, otherwise HTTP/1.1
    /// defaults to keep-alive and HTTP/1.0 to close.
    pub fn persistent(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value) — `Retry-After`, `Allow`, ….
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (the `/metrics` exposition format).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// `400` with a JSON error body.
    pub fn bad_request(message: &str) -> Response {
        Response::json(400, error_body(message))
    }

    /// `404` for an unknown path.
    pub fn not_found(path: &str) -> Response {
        Response::json(404, error_body(&format!("no such endpoint: {path}")))
    }

    /// `405` naming the allowed method.
    pub fn method_not_allowed(allow: &'static str) -> Response {
        let mut r = Response::json(
            405,
            error_body(&format!("method not allowed (use {allow})")),
        );
        r.headers.push(("Allow", allow.to_string()));
        r
    }

    /// `413` for an oversized body.
    pub fn too_large(limit: usize) -> Response {
        Response::json(413, error_body(&format!("body exceeds {limit} bytes")))
    }

    /// `429` with `Retry-After` — the backpressure response for a full
    /// job queue.
    pub fn busy(retry_after_secs: u32) -> Response {
        let mut r = Response::json(429, error_body("job queue full, retry later"));
        r.headers
            .push(("Retry-After", retry_after_secs.to_string()));
        r
    }

    /// `500` with a JSON error body.
    pub fn internal(message: &str) -> Response {
        Response::json(500, error_body(message))
    }
}

/// `{"error":...}` with proper escaping.
pub fn error_body(message: &str) -> String {
    let mut out = String::new();
    let mut w = sentinel_trace::json::ObjWriter::new(&mut out);
    w.str("error", message);
    w.close();
    out
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ReadError {
    /// Protocol-level problem; answer with this response, then close.
    Bad(Response),
    /// Transport-level problem (peer went away, timeout); just close.
    Io(io::Error),
    /// The peer closed (or idled past the read deadline) cleanly
    /// *between* requests — end of a keep-alive session, not an error.
    Closed,
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// Reads one request from `reader`, enforcing [`MAX_HEAD_BYTES`] and
/// `max_body`.
///
/// The reader is caller-owned so a keep-alive connection can feed a
/// sequence of requests through one buffer — bytes a pipelining client
/// sent ahead stay buffered for the next call instead of being
/// dropped with a throwaway `BufReader`.
///
/// # Errors
///
/// [`ReadError::Bad`] carries the 4xx response to send;
/// [`ReadError::Io`] means the connection is not worth answering;
/// [`ReadError::Closed`] is the clean end of a keep-alive session (EOF
/// or idle timeout before the first byte of a next request).
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, ReadError> {
    let mut head_bytes = 0usize;

    let request_line = match read_line(reader, &mut head_bytes) {
        Ok(line) => line,
        // Nothing of a request arrived: a clean close, not a truncation.
        Err(ReadError::Io(e)) if head_bytes == 0 => {
            return Err(match e.kind() {
                io::ErrorKind::UnexpectedEof
                | io::ErrorKind::WouldBlock
                | io::ErrorKind::TimedOut
                | io::ErrorKind::ConnectionReset => ReadError::Closed,
                _ => ReadError::Io(e),
            });
        }
        Err(e) => return Err(e),
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Bad(Response::bad_request(
            "malformed request line",
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(Response::bad_request(
            "unsupported protocol version",
        )));
    }
    let http11 = version != "HTTP/1.0";

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut head_bytes)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Bad(Response::bad_request("malformed header")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let req = Request {
        method: method.to_string(),
        path: path.to_string(),
        http11,
        headers,
        body: Vec::new(),
    };
    let body_len = body_length(&req.headers)?;
    if body_len > max_body {
        return Err(ReadError::Bad(Response::too_large(max_body)));
    }
    let mut body = vec![0u8; body_len];
    io::Read::read_exact(reader, &mut body)?;
    Ok(Request { body, ..req })
}

/// The body length the head declares (RFC 9112 §6.3): `0` without a
/// `Content-Length`. Any `Transfer-Encoding` is a `501` (this server
/// reads no chunked bodies), and a `Content-Length` that is not all
/// digits, or that disagrees with another, is a `400`. Either way the
/// body's extent is unknown, so the caller must close after answering.
fn body_length(headers: &[(String, String)]) -> Result<usize, ReadError> {
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ReadError::Bad(Response::json(
            501,
            error_body("Transfer-Encoding is not supported; send Content-Length"),
        )));
    }
    let mut len = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(ReadError::Bad(Response::bad_request("bad Content-Length"))),
        };
        if len.is_some_and(|prev| prev != n) {
            return Err(ReadError::Bad(Response::bad_request(
                "conflicting Content-Length headers",
            )));
        }
        len = Some(n);
    }
    Ok(len.unwrap_or(0))
}

/// Reads one CRLF- (or bare-LF-) terminated line, charging its bytes
/// against the head budget.
fn read_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, ReadError> {
    let mut line = Vec::new();
    let budget = (MAX_HEAD_BYTES - *head_bytes) as u64 + 1;
    let n = io::Read::take(reader, budget).read_until(b'\n', &mut line)?;
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(ReadError::Bad(Response::bad_request(
            "request head too large",
        )));
    }
    if !line.ends_with(b"\n") {
        return Err(ReadError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-head",
        )));
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line)
        .map_err(|_| ReadError::Bad(Response::bad_request("non-UTF-8 request head")))
}

/// Serializes `resp` onto `stream` in one write, advertising whether
/// the server will keep the connection open (`Connection: keep-alive`)
/// or drop it (`Connection: close`) afterwards.
///
/// # Errors
///
/// Propagates transport errors; on error the caller drops the
/// connection regardless of `close`.
pub fn write_response(stream: &mut impl Write, resp: &Response, close: bool) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut out = Vec::with_capacity(128 + resp.body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    )?;
    for (name, value) in &resp.headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&resp.body);
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut raw.as_bytes(), DEFAULT_MAX_BODY_BYTES)
    }

    #[test]
    fn parses_get_without_body() {
        let req = read("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length() {
        let req = read("POST /v1/compile HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.body_str(), Some("{\"a\""));
        // Repeats that agree name one length.
        let req =
            read("POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nhi").unwrap();
        assert_eq!(req.body_str(), Some("hi"));
    }

    #[test]
    fn accepts_bare_lf_lines() {
        let req = read("GET / HTTP/1.1\nX-A: b\n\n").unwrap();
        assert_eq!(req.header("x-a"), Some("b"));
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        // HTTP/1.1 defaults to keep-alive, 1.0 to close; an explicit
        // token overrides either default.
        assert!(read("GET / HTTP/1.1\r\n\r\n").unwrap().persistent());
        assert!(!read("GET / HTTP/1.0\r\n\r\n").unwrap().persistent());
        assert!(!read("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .persistent());
        assert!(read("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .persistent());
    }

    #[test]
    fn pipelined_requests_survive_in_one_reader() {
        // Two requests sent back to back: the shared reader must hand
        // over the second intact after parsing the first.
        let raw = "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                   GET /b HTTP/1.1\r\n\r\n";
        let mut reader = raw.as_bytes();
        let first = read_request(&mut reader, DEFAULT_MAX_BODY_BYTES).unwrap();
        assert_eq!((first.path.as_str(), first.body_str()), ("/a", Some("hi")));
        let second = read_request(&mut reader, DEFAULT_MAX_BODY_BYTES).unwrap();
        assert_eq!(second.path, "/b");
        // Then a clean EOF between requests reads as Closed.
        assert!(matches!(
            read_request(&mut reader, DEFAULT_MAX_BODY_BYTES),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn rejects_malformed_heads() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: wat\r\n\r\n",
            // Only digits: a sign is not part of the grammar.
            "POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi",
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhey",
        ] {
            match read(raw) {
                Err(ReadError::Bad(resp)) => assert_eq!(resp.status, 400, "{raw:?}"),
                other => panic!("{raw:?}: expected Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn any_transfer_encoding_is_a_501() {
        // Chunked alone, and chunked beside a Content-Length (which the
        // Transfer-Encoding would override): either way the body's
        // extent is unknown to this reader.
        for raw in [
            "POST /v1/simulate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}",
            "GET / HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n",
        ] {
            match read(raw) {
                Err(ReadError::Bad(resp)) => {
                    assert_eq!(resp.status, 501, "{raw:?}");
                    let mut out = Vec::new();
                    write_response(&mut out, &resp, true).unwrap();
                    let text = String::from_utf8(out).unwrap();
                    assert!(
                        text.starts_with("HTTP/1.1 501 Not Implemented\r\n"),
                        "{text}"
                    );
                }
                other => panic!("{raw:?}: expected Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_oversized_body_with_413() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        match read_request(&mut raw.as_bytes(), 10) {
            Err(ReadError::Bad(resp)) => assert_eq!(resp.status, 413),
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_head() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES));
        match read(&raw) {
            Err(ReadError::Bad(resp)) => assert_eq!(resp.status, 400),
            other => panic!("expected 400, got {other:?}"),
        }
    }

    #[test]
    fn truncated_head_is_io_error() {
        assert!(matches!(
            read("GET / HTTP/1.1\r\nHos"),
            Err(ReadError::Io(_))
        ));
    }

    #[test]
    fn truncated_body_is_io_error() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(read(raw), Err(ReadError::Io(_))));
    }

    #[test]
    fn writes_responses_with_extra_headers() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::busy(1), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(
            text.ends_with("{\"error\":\"job queue full, retry later\"}"),
            "{text}"
        );
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into()), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn a_response_is_one_write() {
        /// Records the length of every `write` call.
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let resp = Response::busy(1);
        let mut writes = Writes(Vec::new());
        write_response(&mut writes, &resp, true).unwrap();
        let mut bytes = Vec::new();
        write_response(&mut bytes, &resp, true).unwrap();
        assert_eq!(writes.0, vec![bytes.len()]);
    }

    #[test]
    fn canned_responses_carry_status() {
        assert_eq!(Response::not_found("/x").status, 404);
        assert_eq!(Response::method_not_allowed("POST").status, 405);
        assert_eq!(Response::too_large(10).status, 413);
        assert_eq!(Response::internal("boom").status, 500);
        let allow = Response::method_not_allowed("GET");
        assert!(allow
            .headers
            .iter()
            .any(|(n, v)| *n == "Allow" && v == "GET"));
    }
}
