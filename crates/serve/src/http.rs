//! A hand-rolled, incremental HTTP/1.1 request parser and response
//! encoder.
//!
//! This is deliberately a *server-side subset* of HTTP/1.1: enough for
//! JSON request/response bodies over loopback or a trusted LAN, with
//! strict size limits so a malformed or hostile peer can never make the
//! server allocate unboundedly or hang forever. Unsupported protocol
//! features (chunked transfer encoding, continuation lines) are
//! rejected with the documented 4xx status rather than misparsed.
//!
//! The parser is a pure function over a byte buffer: the event loop
//! accumulates whatever the socket had and calls [`parse_request`],
//! which either yields a complete request (with how many bytes it
//! consumed — the remainder is the next pipelined request), asks for
//! more bytes, or rejects. No I/O happens here, which is what lets the
//! nonblocking event loop and the tests share the exact same
//! protocol semantics.
//!
//! Keep-alive: HTTP/1.1 requests persist by default and `Connection:
//! close` (or HTTP/1.0 without `keep-alive`) closes after the response.
//! Every *error* response closes the connection — after a protocol
//! violation the byte stream can no longer be trusted to frame a next
//! request.

use lotusx_obs::{push_json_str, u64_decimal};

/// Size limits the parser enforces while reading a request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes in the request line (`GET /path HTTP/1.1`).
    pub max_request_line: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum bytes in one header line.
    pub max_header_line: usize,
    /// Maximum bytes in the request body (`Content-Length` above this is
    /// rejected with 413 before reading the body).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 4096,
            max_headers: 64,
            max_header_line: 8192,
            max_body_bytes: 256 * 1024,
        }
    }
}

impl Limits {
    /// How many buffered-but-unparsed bytes a connection may hold
    /// before the event loop stops reading from it (read-side
    /// backpressure for pipelining): one maximal request head + body,
    /// plus a little slack for the next pipelined head.
    pub fn input_buffer_cap(&self) -> usize {
        self.max_request_line + self.max_headers * self.max_header_line + self.max_body_bytes + 4096
    }
}

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method verb, as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request path (query strings are kept verbatim).
    pub path: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request was rejected before (or instead of) being handled.
///
/// `status == 0` means the connection died in a way that cannot be
/// answered (peer reset); no response should be attempted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reject {
    /// The HTTP status to answer with (400, 408, 411, 413, 431, …).
    pub status: u16,
    /// A short human-readable reason, sent in the JSON error body.
    pub reason: String,
}

impl Reject {
    /// A rejection with `status` and `reason`.
    pub fn new(status: u16, reason: impl Into<String>) -> Self {
        Reject {
            status,
            reason: reason.into(),
        }
    }

    /// True when the connection is already dead and writing a response
    /// is pointless.
    pub fn connection_dead(&self) -> bool {
        self.status == 0
    }
}

/// A successfully parsed request plus its framing metadata.
#[derive(Clone, Debug)]
pub struct ParsedRequest {
    /// The request itself.
    pub request: Request,
    /// Bytes of the input buffer this request occupied; everything
    /// after `consumed` belongs to the next pipelined request.
    pub consumed: usize,
    /// The connection must close after the response (explicit
    /// `Connection: close`, or an HTTP/1.0 peer without `keep-alive`).
    pub close: bool,
}

/// The outcome of one [`parse_request`] attempt.
#[derive(Clone, Debug)]
pub enum ParseStatus {
    /// A complete request was framed.
    Complete(Box<ParsedRequest>),
    /// More bytes are needed. If the peer instead closes the
    /// connection here, answer with `on_eof` (unless nothing at all
    /// was received on an already-used keep-alive connection).
    Partial {
        /// The rejection to send if EOF arrives in this state.
        on_eof: Reject,
    },
    /// The bytes can never become a valid request.
    Failed(Reject),
}

/// Finds one `\n`-terminated line starting at `pos`, enforcing `cap`.
///
/// Returns `Ok(Some((line, next_pos)))` with `\r` stripped, `Ok(None)`
/// when the line is still incomplete (and within cap), or the
/// documented rejection when the line over-runs `cap` or holds invalid
/// UTF-8.
fn take_line(
    buf: &[u8],
    pos: usize,
    cap: usize,
    over_cap_status: u16,
) -> Result<Option<(String, usize)>, Reject> {
    match buf[pos..].iter().position(|&b| b == b'\n') {
        Some(nl) => {
            let mut line = &buf[pos..pos + nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.len() > cap {
                return Err(Reject::new(over_cap_status, "line too long"));
            }
            let text = std::str::from_utf8(line)
                .map_err(|_| Reject::new(400, "non-UTF-8 bytes in request head"))?
                .to_string();
            Ok(Some((text, pos + nl + 1)))
        }
        None => {
            // Count line bytes, not buffered bytes: a trailing `\r`
            // still awaiting its `\n` is framing, so a line of exactly
            // `cap` bytes is accepted no matter how the CRLF split
            // across reads.
            let line_so_far = (buf.len() - pos) - usize::from(buf.last() == Some(&b'\r'));
            if line_so_far > cap {
                return Err(Reject::new(over_cap_status, "line too long"));
            }
            Ok(None)
        }
    }
}

/// Does a `Connection` header value name `token` (comma-separated,
/// case-insensitive)?
fn connection_has(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|part| part.trim().eq_ignore_ascii_case(token))
}

/// The body length the `Content-Length` headers frame (RFC 9112 §6.3):
/// `1*DIGIT` only — no sign, no list — and a repeat must say exactly
/// what the first one said. Anything else is the `400` a proxy in front
/// of this server would have to agree on, or smuggle a request past.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, Reject> {
    let mut values = headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .map(|(_, value)| value.as_str());
    let Some(first) = values.next() else {
        return Ok(None);
    };
    let digits = !first.is_empty() && first.bytes().all(|b| b.is_ascii_digit());
    match first.parse() {
        Ok(n) if digits && values.all(|v| v == first) => Ok(Some(n)),
        _ => Err(Reject::new(400, "bad content-length")),
    }
}

/// Attempts to frame one request out of `buf` under `limits`.
///
/// Pure and restartable: call it again with more bytes appended after a
/// [`ParseStatus::Partial`]. Rejection statuses and reasons are part of
/// the wire contract (the protocol test suite pins them byte-for-byte).
pub fn parse_request(buf: &[u8], limits: &Limits) -> ParseStatus {
    let partial = |on_eof: Reject| ParseStatus::Partial { on_eof };
    let truncated = || Reject::new(400, "truncated request");

    let (request_line, mut pos) = match take_line(buf, 0, limits.max_request_line, 400) {
        Ok(Some(line)) => line,
        Ok(None) => return partial(truncated()),
        Err(reject) => return ParseStatus::Failed(reject),
    };
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return ParseStatus::Failed(Reject::new(400, "malformed request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return ParseStatus::Failed(Reject::new(400, "malformed method"));
    }
    if !path.starts_with('/') {
        return ParseStatus::Failed(Reject::new(400, "path must start with '/'"));
    }
    if !version.starts_with("HTTP/1.") {
        return ParseStatus::Failed(Reject::new(400, "unsupported protocol version"));
    }
    // HTTP/1.1 (and later 1.x) defaults to keep-alive; 1.0 to close.
    let keep_alive_default = version != "HTTP/1.0";

    let mut headers = Vec::new();
    loop {
        let (line, next) = match take_line(buf, pos, limits.max_header_line, 431) {
            Ok(Some(line)) => line,
            Ok(None) => return partial(truncated()),
            Err(reject) => return ParseStatus::Failed(reject),
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return ParseStatus::Failed(Reject::new(431, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return ParseStatus::Failed(Reject::new(400, "malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return ParseStatus::Failed(Reject::new(400, "transfer-encoding is not supported"));
    }

    let close = match request.header("connection") {
        Some(v) if connection_has(v, "close") => true,
        Some(v) if connection_has(v, "keep-alive") => false,
        _ => !keep_alive_default,
    };

    let body_len = match content_length(&request.headers) {
        Ok(Some(n)) => {
            if n > limits.max_body_bytes {
                return ParseStatus::Failed(Reject::new(413, "body exceeds the size cap"));
            }
            n
        }
        Ok(None) if request.method == "POST" => {
            return ParseStatus::Failed(Reject::new(411, "POST requires content-length"));
        }
        Ok(None) => 0,
        Err(reject) => return ParseStatus::Failed(reject),
    };

    if buf.len() - pos < body_len {
        return partial(Reject::new(400, "body shorter than content-length"));
    }
    let body = buf[pos..pos + body_len].to_vec();
    ParseStatus::Complete(Box::new(ParsedRequest {
        request: Request { body, ..request },
        consumed: pos + body_len,
        close,
    }))
}

/// The canonical reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Encodes one complete response. `keep_alive` controls the
/// `Connection` header — the writer must actually close the connection
/// when it says `close`.
pub fn encode_response(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    encode_response_into(&mut out, status, content_type, body, keep_alive);
    out
}

/// [`encode_response`], appended to `out` — the event loop encodes
/// straight into a connection's output buffer with it.
pub fn encode_response_into(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    let mut digits = [0; 20];
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(u64_decimal(status.into(), &mut digits).as_bytes());
    out.push(b' ');
    out.extend_from_slice(status_reason(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    out.extend_from_slice(u64_decimal(body.len() as u64, &mut digits).as_bytes());
    out.extend_from_slice(b"\r\nConnection: ");
    out.extend_from_slice(if keep_alive { b"keep-alive" } else { b"close" });
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Encodes the JSON error body for a rejected request. Error responses
/// always close the connection.
pub fn encode_error(status: u16, reason: &str) -> Vec<u8> {
    let mut out = Vec::new();
    encode_error_into(&mut out, status, reason);
    out
}

/// [`encode_error`], appended to `out`.
pub fn encode_error_into(out: &mut Vec<u8>, status: u16, reason: &str) {
    let mut body = String::with_capacity(reason.len() + 16);
    body.push_str("{\"error\":");
    push_json_str(&mut body, reason);
    body.push_str("}\n");
    encode_response_into(out, status, "application/json", body.as_bytes(), false);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits::default()
    }

    #[test]
    fn incremental_parse_completes_byte_by_byte() {
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}extra";
        for cut in 0..raw.len() - 5 {
            match parse_request(&raw[..cut], &limits()) {
                ParseStatus::Partial { .. } => {}
                other => panic!("prefix of {cut} bytes must be partial, got {other:?}"),
            }
        }
        match parse_request(raw, &limits()) {
            ParseStatus::Complete(parsed) => {
                assert_eq!(parsed.request.method, "POST");
                assert_eq!(parsed.request.body, b"{}");
                assert_eq!(parsed.consumed, raw.len() - 5);
                assert!(!parsed.close, "HTTP/1.1 defaults to keep-alive");
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn connection_close_and_http10_default() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        match parse_request(raw, &limits()) {
            ParseStatus::Complete(p) => assert!(p.close),
            other => panic!("{other:?}"),
        }
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        match parse_request(raw, &limits()) {
            ParseStatus::Complete(p) => assert!(p.close),
            other => panic!("{other:?}"),
        }
        let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        match parse_request(raw, &limits()) {
            ParseStatus::Complete(p) => assert!(!p.close),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_rejects_distinguish_head_from_body() {
        match parse_request(b"GET /health", &limits()) {
            ParseStatus::Partial { on_eof } => assert_eq!(on_eof.reason, "truncated request"),
            other => panic!("{other:?}"),
        }
        match parse_request(
            b"POST /q HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}",
            &limits(),
        ) {
            ParseStatus::Partial { on_eof } => {
                assert_eq!(on_eof.reason, "body shorter than content-length");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn line_cap_does_not_depend_on_read_split() {
        let line = "GET /a HTTP/1.1";
        let tight = Limits {
            max_request_line: line.len(),
            ..limits()
        };
        // A read split right after the `\r` buffers cap + 1 bytes, but
        // the line itself is exactly at cap: still partial, not 400.
        match parse_request(b"GET /a HTTP/1.1\r", &tight) {
            ParseStatus::Partial { .. } => {}
            other => panic!("cap-length line split after \\r must stay partial, got {other:?}"),
        }
        match parse_request(b"GET /a HTTP/1.1\r\n\r\n", &tight) {
            ParseStatus::Complete(p) => assert_eq!(p.request.path, "/a"),
            other => panic!("{other:?}"),
        }
        // One byte of real line content over the cap still rejects
        // without waiting for the newline.
        match parse_request(b"GET /ab HTTP/1.1", &tight) {
            ParseStatus::Failed(r) => {
                assert_eq!((r.status, r.reason.as_str()), (400, "line too long"))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn content_length_is_digits_and_repeats_must_agree() {
        let framed = |headers: &str| {
            let raw = format!("POST /q HTTP/1.1\r\n{headers}\r\n{{}}");
            match parse_request(raw.as_bytes(), &limits()) {
                ParseStatus::Complete(p) => Ok(p.request.body.len()),
                ParseStatus::Failed(r) => Err((r.status, r.reason)),
                other => panic!("{headers:?}: {other:?}"),
            }
        };
        let bad = Err((400, "bad content-length".to_string()));
        for headers in [
            "Content-Length: +2\r\n",
            "Content-Length: -2\r\n",
            "Content-Length: 2, 2\r\n",
            "Content-Length: \r\n",
            "Content-Length: 2\r\nContent-Length: 3\r\n",
            "Content-Length: 2\r\ncontent-length: 02\r\n",
        ] {
            assert_eq!(framed(headers), bad, "{headers:?}");
        }
        assert_eq!(framed("Content-Length: 2\r\n"), Ok(2));
        assert_eq!(framed("Content-Length: 2\r\nCONTENT-LENGTH: 2\r\n"), Ok(2));
        assert_eq!(framed("Content-Length: 0002\r\n"), Ok(2));
    }

    #[test]
    fn head_and_error_bodies_keep_their_bytes() {
        assert_eq!(
            encode_response(200, "text/plain", b"ok\n", true),
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\
              Connection: keep-alive\r\n\r\nok\n"
        );
        assert_eq!(
            encode_error(431, "a \"b\"\u{1}"),
            b"HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Type: application/json\r\n\
              Content-Length: 26\r\nConnection: close\r\n\r\n{\"error\":\"a \\\"b\\\"\\u0001\"}\n"
        );
    }

    #[test]
    fn oversized_lines_reject_before_eof() {
        let tight = Limits {
            max_request_line: 16,
            ..limits()
        };
        // No newline yet, but already over the cap: reject immediately.
        match parse_request(b"GET /aaaaaaaaaaaaaaaaaaaaaaaa", &tight) {
            ParseStatus::Failed(r) => {
                assert_eq!((r.status, r.reason.as_str()), (400, "line too long"))
            }
            other => panic!("{other:?}"),
        }
    }
}
