//! Minimal HTTP/1.1 client for the load generator: keep-alive connections,
//! `Content-Length` framing, pipelined bytes carried over between responses.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Where one complete response sits in a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Status code from the status line.
    pub status: u16,
    /// Byte offset where the body starts.
    pub body_start: usize,
    /// Byte offset one past the response's last byte.
    pub end: usize,
}

/// Result of trying to frame a response at the start of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Framing {
    /// A whole response is buffered.
    Complete(Frame),
    /// More bytes are needed.
    Partial,
    /// The bytes are not a response this client understands.
    Bad(&'static str),
}

/// Largest header block accepted before the response is declared bad.
const MAX_HEADER: usize = 16 * 1024;

/// Frames the response at the start of `buf`.
pub fn frame(buf: &[u8]) -> Framing {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > MAX_HEADER {
            Framing::Bad("header block too long")
        } else {
            Framing::Partial
        };
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Framing::Bad("header is not UTF-8");
    };
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Framing::Bad("not an HTTP/1.x status line");
    }
    let Some(status) = parts.next().and_then(|s| s.parse::<u16>().ok()) else {
        return Framing::Bad("unparsable status code");
    };
    let mut length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Framing::Bad("header line without a colon");
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            match value.trim().parse::<usize>() {
                Ok(n) => length = Some(n),
                Err(_) => return Framing::Bad("unparsable Content-Length"),
            }
        }
    }
    let Some(length) = length else {
        return Framing::Bad("response without Content-Length");
    };
    let body_start = head_end + 4;
    let end = body_start + length;
    if buf.len() < end {
        return Framing::Partial;
    }
    Framing::Complete(Frame {
        status,
        body_start,
        end,
    })
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` consumed by responses already returned.
    consumed: usize,
}

impl Conn {
    /// Connects with Nagle's algorithm off (requests are single writes).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            consumed: 0,
        })
    }

    /// Writes one complete request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads until one whole response is buffered; returns its status and
    /// body. The body borrows the connection's buffer until the next call.
    pub fn recv(&mut self) -> io::Result<(u16, &[u8])> {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        loop {
            match frame(&self.buf) {
                Framing::Complete(f) => {
                    self.consumed = f.end;
                    return Ok((f.status, &self.buf[f.body_start..f.end]));
                }
                Framing::Bad(why) => return Err(io::Error::new(io::ErrorKind::InvalidData, why)),
                Framing::Partial => {}
            }
            let len = self.buf.len();
            self.buf.resize(len + 16 * 1024, 0);
            let n = self.stream.read(&mut self.buf[len..])?;
            self.buf.truncate(len + n);
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
        }
    }

    /// One request, one response, with the body copied out.
    pub fn call(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.send(request)?;
        let (status, body) = self.recv()?;
        Ok((status, body.to_vec()))
    }
}

/// The bytes of a keep-alive `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// The bytes of a keep-alive `POST` carrying `body`.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\nConnection: keep-alive\r\n\r\n{\"a\":1}";

    #[test]
    fn frames_a_complete_response() {
        match frame(OK) {
            Framing::Complete(f) => {
                assert_eq!(f.status, 200);
                assert_eq!(&OK[f.body_start..f.end], b"{\"a\":1}");
                assert_eq!(f.end, OK.len());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn every_strict_prefix_is_partial() {
        for cut in 0..OK.len() {
            assert_eq!(frame(&OK[..cut]), Framing::Partial, "prefix {cut}");
        }
    }

    #[test]
    fn pipelined_responses_frame_one_at_a_time() {
        let two = [OK, b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}"].concat();
        let Framing::Complete(first) = frame(&two) else {
            panic!("first response frames");
        };
        assert_eq!(first.end, OK.len());
        let Framing::Complete(second) = frame(&two[first.end..]) else {
            panic!("second response frames");
        };
        assert_eq!(second.status, 404);
        assert_eq!(&two[first.end + second.body_start..], b"{}");
    }

    #[test]
    fn malformed_responses_are_bad() {
        assert!(matches!(frame(b"SMTP 200\r\n\r\n"), Framing::Bad(_)));
        assert!(matches!(frame(b"HTTP/1.1 2x0 OK\r\n\r\n"), Framing::Bad(_)));
        assert!(matches!(frame(b"HTTP/1.1 200 OK\r\n\r\n"), Framing::Bad(_)));
        assert!(matches!(
            frame(b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"),
            Framing::Bad(_)
        ));
        assert!(matches!(
            frame(&vec![b'x'; MAX_HEADER + 1]),
            Framing::Bad(_)
        ));
    }

    #[test]
    fn request_bytes_are_well_formed() {
        assert_eq!(
            get("/health"),
            b"GET /health HTTP/1.1\r\nHost: bench\r\n\r\n"
        );
        let p = post("/x", b"abc");
        assert!(p.ends_with(b"Content-Length: 3\r\n\r\nabc"));
    }
}
