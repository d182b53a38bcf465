//! A minimal HTTP/1.1 keep-alive client for the serving workload.
//!
//! Each request leaves in a single `write_all` on a socket with
//! `TCP_NODELAY` set. Written as head then body without `TCP_NODELAY`,
//! Nagle's algorithm holds the body until the server's delayed ACK:
//! warming 32 seeds took 1.45 s (45 ms a request) instead of 0.08 s.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with `TCP_NODELAY` set.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads its response: (status, body).
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        send(&mut self.writer, request)?;
        read_response(&mut self.reader)
    }
}

/// The whole request — head and body — as one buffer.
pub fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: fdip-benchmark\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Writes a request built by [`request`] in a single `write_all`.
pub fn send(w: &mut impl Write, request: &[u8]) -> io::Result<()> {
    w.write_all(request)
}

/// Reads one response with a `content-length` body.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Counts `write` calls.
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_leaves_in_one_write() {
        let body = r#"{"workload": {"profile": "client", "seed": 1}}"#;
        let req = request("POST", "/v1/run", body);
        let mut w = Counting {
            writes: 0,
            bytes: Vec::new(),
        };
        send(&mut w, &req).unwrap();
        assert_eq!(w.writes, 1);
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(text.starts_with("POST /v1/run HTTP/1.1\r\n"));
        assert!(text.contains(&format!("content-length: {}\r\n\r\n", body.len())));
        assert!(text.ends_with(body));
    }

    #[test]
    fn connections_set_nodelay_and_exchange_keep_alive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..2 {
                let mut len = 0;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if let Some(v) = line.strip_prefix("content-length: ") {
                        len = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; len];
                reader.read_exact(&mut body).unwrap();
                let reply = format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\n");
                writer.write_all(reply.as_bytes()).unwrap();
                writer.write_all(&body).unwrap();
            }
        });
        let mut conn = Conn::connect(addr).unwrap();
        assert!(conn.writer.nodelay().unwrap());
        for body in ["first", "second"] {
            let (status, echoed) = conn.exchange(&request("POST", "/echo", body)).unwrap();
            assert_eq!((status, echoed.as_slice()), (200, body.as_bytes()));
        }
        server.join().unwrap();
    }
}
