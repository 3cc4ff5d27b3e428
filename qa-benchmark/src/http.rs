//! A minimal blocking HTTP/1.1 client: one connection per request,
//! `Connection: close`, body read to EOF. The benchmark's load side owns
//! this code, so changes to the program's own client never move the
//! client half of a measured latency.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Status and body of one response.
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Body with the headers stripped.
    pub body: String,
}

/// Per-socket-operation deadline; a request that stalls this long counts
/// as a transport failure.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Send one request and read the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let text = String::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no numeric status"))?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}

/// The numbers of the JSON array under `key` in `body`, e.g. the
/// `"selected": [...]` of a query answer. A scan, not a JSON parse: the
/// answers are flat and this runs on every response.
pub fn u32_array(body: &str, key: &str) -> Option<Vec<u32>> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = body[start..].trim_start().strip_prefix('[')?;
    let end = rest.find(']')?;
    rest[..end]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().ok())
        .collect()
}

/// The unsigned integer under `key` in `body`.
pub fn u64_field(body: &str, key: &str) -> Option<u64> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = body[start..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_flat_answers() {
        let body = r#"{"doc":"d","sigma":4,"count":3,"selected":[1,5,9],"micros":12}"#;
        assert_eq!(u32_array(body, "selected"), Some(vec![1, 5, 9]));
        assert_eq!(u64_field(body, "sigma"), Some(4));
        assert_eq!(u32_array(r#"{"selected": []}"#, "selected"), Some(vec![]));
        assert_eq!(u32_array(body, "missing"), None);
    }
}
