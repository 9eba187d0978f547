//! A minimal blocking HTTP/1.1 client for the serving wire.
//!
//! Used by the loopback test suite, the serving example and `kg-loadgen`
//! — anywhere this workspace needs to talk to `kg-serve` without an
//! external HTTP crate. One [`HttpClient`] owns one keep-alive
//! connection; requests on it are sequential (open one client per
//! concurrent caller, as the load generator does).

use crate::json::{Json, JsonError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One keep-alive client connection.
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One parsed response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response headers, lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Json, JsonError> {
        Json::parse(&self.body)
    }
}

/// Serializes one request and sends it as one buffer — head and body
/// leave in a single `write`, so under `TCP_NODELAY` the server is woken
/// once, with the whole request.
fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(128 + body.len());
    write!(
        message,
        "{method} {path} HTTP/1.1\r\nHost: kg-serve\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.write_all(&message)?;
    stream.flush()
}

impl HttpClient {
    /// Connects with a 30-second read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient { stream, reader })
    }

    /// Sends a `GET`.
    pub fn get(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, None)
    }

    /// Sends a `POST` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", path, Some(body))
    }

    /// Sends one request and reads its response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        write_request(&mut self.stream, method, path, body.unwrap_or(""))?;
        self.read_response()
    }

    /// Writes raw bytes on the connection — the fault-injection tests use
    /// this to send deliberately malformed requests.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one response off the connection (public for use after
    /// [`send_raw`](Self::send_raw)).
    pub fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let mut parts = line.trim_end().splitn(3, ' ');
        let (Some(_version), Some(status)) = (parts.next(), parts.next()) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed status line {line:?}"),
            ));
        };
        let status: u16 = status.parse().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("non-numeric status in {line:?}"),
            )
        })?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_owned();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "response body is not UTF-8")
        })?;
        Ok(HttpResponse { status, headers, body })
    }
}

#[cfg(test)]
mod tests {
    use super::write_request;
    use crate::http::tests::CountingWriter;

    #[test]
    fn a_request_is_one_write_of_the_same_bytes_as_ever() {
        let mut out = CountingWriter::default();
        write_request(&mut out, "POST", "/query", "{\"source\":\"v0\"}").unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "POST /query HTTP/1.1\r\nHost: kg-serve\r\nContent-Type: application/json\r\n\
             Content-Length: 15\r\n\r\n{\"source\":\"v0\"}"
        );

        let mut out = CountingWriter::default();
        write_request(&mut out, "GET", "/healthz", "").unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "GET /healthz HTTP/1.1\r\nHost: kg-serve\r\nContent-Type: application/json\r\n\
             Content-Length: 0\r\n\r\n"
        );
    }
}
