//! A minimal blocking HTTP/1.1 client for tests, smoke checks, and the
//! `--probe`/`--stop` modes of the `lotusx-serve` binary.
//!
//! Like the server, it speaks a small subset of HTTP/1.1 and depends on
//! nothing outside `std::net`. [`get`]/[`post`] send `Connection:
//! close` one-shots; [`Conn`] holds a keep-alive connection open for
//! multiple (optionally pipelined) requests. It is *not* a
//! general-purpose client — it exists so the end-to-end test suite and
//! the CI smoke stage can exercise the real wire protocol without curl.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body, exactly as received.
    pub body: Vec<u8>,
}

impl Response {
    /// The first value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Default client-side socket timeout.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Sends one `GET` request and reads the full response.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, None)
}

/// Sends one `POST` request with a body and reads the full response.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<Response> {
    request(addr, "POST", path, Some(body.as_bytes()))
}

/// Sends one request (body optional) and reads the full response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: lotusx\r\n");
    if let Some(body) = body {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("Connection: close\r\n\r\n");
    let mut out = head.into_bytes();
    if let Some(body) = body {
        out.extend_from_slice(body);
    }
    stream.write_all(&out)?;
    read_response(&mut stream)
}

/// Writes raw byte `chunks` to a fresh connection, sleeping the paired
/// duration after each chunk, then reads whatever response comes back.
///
/// This is the hardening-suite workhorse: truncated request lines,
/// invalid bytes, and slow-loris drips are all just chunk schedules.
/// Returns `Ok(None)` when the server closed the connection without a
/// parseable response.
pub fn raw_request(
    addr: SocketAddr,
    chunks: &[(&[u8], Duration)],
    read_timeout: Duration,
) -> io::Result<Option<Response>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    for (bytes, pause) in chunks {
        if !bytes.is_empty() {
            // The server may have rejected us already; a write error
            // just means the response (if any) is ready to read.
            if stream
                .write_all(bytes)
                .and_then(|_| stream.flush())
                .is_err()
            {
                break;
            }
        }
        if !pause.is_zero() {
            std::thread::sleep(*pause);
        }
    }
    // Present EOF so a truncated request is seen as truncated (400)
    // rather than merely stalled (408).
    let _ = stream.shutdown(std::net::Shutdown::Write);
    match read_response(&mut stream) {
        Ok(response) => Ok(Some(response)),
        Err(_) => Ok(None),
    }
}

/// Reads one complete HTTP response from `stream` (the server always
/// closes after responding, so "read to EOF" terminates; the declared
/// `Content-Length` is honoured when present).
pub fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();

    let mut body = buf[header_end + 4..].to_vec();
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    match content_length {
        Some(n) => {
            while body.len() < n {
                let read = stream.read(&mut chunk)?;
                if read == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "body shorter than content-length",
                    ));
                }
                body.extend_from_slice(&chunk[..read]);
            }
            body.truncate(n);
        }
        None => {
            // Read to EOF.
            loop {
                let read = stream.read(&mut chunk)?;
                if read == 0 {
                    break;
                }
                body.extend_from_slice(&chunk[..read]);
            }
        }
    }

    Ok(Response {
        status,
        headers,
        body,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Attempts to parse one complete response out of `buf`.
///
/// Returns the response and how many bytes it occupied (the remainder
/// belongs to the next pipelined response), or `None` when more bytes
/// are needed. Responses from this server always carry
/// `Content-Length`, so framing never needs EOF.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(header_end) = find_header_end(buf) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "response without content-length",
            )
        })?;
    let body_start = header_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let body = buf[body_start..body_start + content_length].to_vec();
    Ok(Some((
        Response {
            status,
            headers,
            body,
        },
        body_start + content_length,
    )))
}

/// A keep-alive connection: multiple requests over one socket, with
/// support for pipelining (send several, then read the responses in
/// order). Requests are sent *without* `Connection: close`, so an
/// HTTP/1.1 server keeps the socket open between them.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with the default client timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Conn::connect_timeout(addr, CLIENT_TIMEOUT)
    }

    /// Connects with an explicit socket read/write timeout.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one keep-alive request without waiting for the response
    /// (pipelining = several `send`s before the first `read_one`).
    pub fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<()> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: lotusx\r\n");
        if let Some(body) = body {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        if let Some(body) = body {
            out.extend_from_slice(body);
        }
        self.send_raw(&out)
    }

    /// Writes raw bytes as-is (for protocol tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads the next in-order response, leaving any pipelined
    /// follow-up bytes buffered for the next call.
    pub fn read_one(&mut self) -> io::Result<Response> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((response, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                return Ok(response);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Half-closes the write side (tells the server "no more
    /// requests"); buffered responses can still be read.
    pub fn shutdown_write(&self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    /// Was the connection closed by the server? Reads one byte
    /// (blocking up to the socket timeout): `Ok(true)` on clean EOF.
    pub fn at_eof(&mut self) -> io::Result<bool> {
        let mut byte = [0u8; 1];
        match self.stream.read(&mut byte) {
            Ok(0) => Ok(true),
            Ok(n) => {
                self.buf.extend_from_slice(&byte[..n]);
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Bytes received that no [`Conn::read_one`] has returned yet — a
    /// non-empty remainder after a failed read is a torn response.
    pub fn buffered(&self) -> &[u8] {
        &self.buf
    }

    /// The underlying stream (for timeout tweaks in tests).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}
