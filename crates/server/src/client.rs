//! A minimal blocking HTTP/1.1 client for loopback use — `trasyn-loadgen`
//! and the integration tests drive the server through this, so the test
//! traffic is the same bytes real clients send.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: HashMap<String, String>,
    /// Body as text (all server responses are UTF-8).
    pub body: String,
}

impl Response {
    /// `true` when the server will keep the connection open.
    pub fn keep_alive(&self) -> bool {
        !matches!(
            self.headers.get("connection").map(|s| s.as_str()),
            Some(c) if c.eq_ignore_ascii_case("close")
        )
    }
}

/// One keep-alive connection to the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with a read timeout (covers slow responses and lost
    /// servers alike).
    pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request with [`Conn::send`] and reads the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        self.send(method, path, body)?;
        self.read_response()
    }

    /// Sends one request without waiting for the response — the pipelining
    /// half of [`Conn::read_response`]. An HTTP/1.1 server must answer
    /// pipelined requests in order, so `send` × N followed by
    /// `read_response` × N exercises exactly that contract. `body` implies
    /// `Content-Type: application/json`.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> std::io::Result<()> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: trasyn\r\nContent-Length: {}\r\n{}\r\n",
            body.len(),
            if body.is_empty() {
                ""
            } else {
                "Content-Type: application/json\r\n"
            },
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()
    }

    /// Sends every request back-to-back on the wire, then reads the
    /// responses in order. Returns one response per request.
    pub fn pipeline(
        &mut self,
        reqs: &[(&str, &str, Option<&str>)],
    ) -> std::io::Result<Vec<Response>> {
        for (method, path, body) in reqs {
            self.send(method, path, *body)?;
        }
        reqs.iter().map(|_| self.read_response()).collect()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Reads the next in-order response off the connection. Public so
    /// callers that pipelined with [`Conn::send`] can collect replies.
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed status line: {status_line:?}"),
                )
            })?;
        let mut headers = HashMap::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
            }
        }
        let len = headers
            .get("content-length")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response body")
        })?;
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}
