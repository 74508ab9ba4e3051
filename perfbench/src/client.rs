//! A minimal HTTP/1.1 client: one request per connection, as the
//! server answers with `Connection: close`. It times the TCP connect
//! apart from the whole exchange.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// TCP connect time.
    pub connect: Duration,
}

/// The bytes of a `GET` request for `target`, exactly as sent.
pub fn request_bytes(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n").into_bytes()
}

/// `GET target` on a fresh connection; reads until the server closes.
pub fn get(addr: SocketAddr, target: &str) -> io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let connect = start.elapsed();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(&request_bytes(target))?;
    let mut raw = Vec::with_capacity(16 * 1024);
    stream.read_to_end(&mut raw)?;
    let (status, body) = split_response(raw)?;
    Ok(Reply {
        status,
        body,
        connect,
    })
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Status and body of a complete response; the body must be exactly
/// `Content-Length` bytes.
fn split_response(mut raw: Vec<u8>) -> io::Result<(u16, Vec<u8>)> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without a header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 header"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("no Content-Length"))?;
    let body_start = head_end + 4;
    if raw.len() - body_start != length {
        return Err(bad(format!(
            "body is {} bytes, Content-Length says {length}",
            raw.len() - body_start
        )));
    }
    raw.drain(..body_start);
    Ok((status, raw))
}
