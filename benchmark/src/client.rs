//! The generator's HTTP client: one blocking keep-alive socket that
//! sends pre-rendered request bytes and digests the response as it
//! arrives.
//!
//! It is deliberately leaner than `lotusx_serve::client`: the generator
//! shares the pinned CPU with the server, so every allocation it makes
//! per request is throughput taken from the system under test. Nothing
//! here allocates after the buffer has grown to the largest response.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout: far above any operation of any workload, so a hit
/// means the server hung, and the operation is counted as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the measured phase keeps of one response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub status: u16,
    /// Body length in bytes.
    pub len: u32,
    /// FNV-1a of the body.
    pub fnv: u64,
}

impl Digest {
    pub fn of(status: u16, body: &[u8]) -> Digest {
        Digest {
            status,
            len: body.len() as u32,
            fnv: fnv1a(body),
        }
    }
}

fn protocol(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Splits a complete response head (`buf` up to, not including, the
/// blank line) into status code and declared body length.
pub fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let text = std::str::from_utf8(head).map_err(|_| protocol("non-UTF-8 response head"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| protocol("bad status line"))?;
    let length = lines
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| protocol("response without content-length"))?;
    Ok((status, length))
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    /// Response storage, grown on demand and never shrunk; only
    /// `buf[..filled]` holds received bytes.
    buf: Vec<u8>,
    filled: usize,
    body_start: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: vec![0; 16 * 1024],
            filled: 0,
            body_start: 0,
        })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads exactly one response. The closed loop never pipelines, so
    /// bytes beyond the declared body are a protocol error. The body
    /// stays readable through [`Conn::body`] until the next call.
    pub fn recv(&mut self) -> io::Result<Digest> {
        self.filled = 0;
        self.body_start = 0;
        let mut scanned = 0;
        let head_end = loop {
            if let Some(pos) = find_blank_line(&self.buf[..self.filled], scanned) {
                break pos;
            }
            scanned = self.filled.saturating_sub(3);
            self.fill()?;
        };
        let (status, length) = parse_head(&self.buf[..head_end])?;
        self.body_start = head_end + 4;
        let total = self.body_start + length;
        while self.filled < total {
            self.fill()?;
        }
        if self.filled != total {
            return Err(protocol("bytes after the response body"));
        }
        Ok(Digest::of(status, self.body()))
    }

    /// The body of the response [`Conn::recv`] returned last.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..self.filled]
    }

    /// After a `Connection: close` exchange: true when the server closed
    /// the socket cleanly (EOF, no stray bytes, no reset).
    pub fn closed_cleanly(&mut self) -> bool {
        let mut byte = [0u8; 1];
        matches!(self.stream.read(&mut byte), Ok(0))
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.stream.read(&mut self.buf[self.filled..])? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            n => {
                self.filled += n;
                Ok(())
            }
        }
    }
}

fn find_blank_line(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + from)
}

/// Renders one request. `Host` is mandatory in HTTP/1.1; `tenant` adds
/// the header the registry's header rule routes on; `close` asks the
/// server to close after answering.
pub fn render_request(
    method: &str,
    path: &str,
    tenant: Option<&str>,
    close: bool,
    body: &str,
) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: lotusx\r\n");
    if let Some(tenant) = tenant {
        out.push_str(&format!("X-LotusX-Tenant: {tenant}\r\n"));
    }
    if close {
        out.push_str("Connection: close\r\n");
    }
    if method == "POST" {
        out.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn head_parsing() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 42\r\nConnection: keep-alive";
        assert_eq!(parse_head(head).unwrap(), (200, 42));
        let head = b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 7";
        assert_eq!(parse_head(head).unwrap(), (429, 7));
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nConnection: close").is_err());
        assert!(parse_head(b"garbage").is_err());
    }

    #[test]
    fn rendered_requests_parse_on_the_server_side() {
        let raw = render_request(
            "POST",
            "/t/tb/query",
            Some("bib"),
            true,
            "{\"text\":\"//a\"}",
        );
        match lotusx_serve::http::parse_request(&raw, &lotusx_serve::Limits::default()) {
            lotusx_serve::http::ParseStatus::Complete(p) => {
                assert_eq!(p.consumed, raw.len());
                assert!(p.close);
                assert_eq!(p.request.header("x-lotusx-tenant"), Some("bib"));
                assert_eq!(p.request.body, b"{\"text\":\"//a\"}");
            }
            other => panic!("{other:?}"),
        }
        let raw = render_request("GET", "/stats", None, false, "");
        assert!(raw.ends_with(b"\r\n\r\n"));
        assert!(!raw.windows(14).any(|w| w == b"Content-Length"));
    }

    #[test]
    fn digest_of_body() {
        let d = Digest::of(200, b"foobar");
        assert_eq!((d.status, d.len, d.fnv), (200, 6, 0x8594_4171_f739_67e8));
    }
}
