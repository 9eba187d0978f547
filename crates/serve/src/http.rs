//! Hand-rolled HTTP/1.1 framing over blocking TCP streams.
//!
//! The same offline discipline as `vendor/`: no external HTTP crate, just
//! the subset of RFC 9112 the serving wire needs — request-line + header
//! parsing with hard size caps, `Content-Length`-framed bodies,
//! keep-alive, `Expect: 100-continue`, and response serialization. Chunked
//! transfer encoding is deliberately rejected (`501`): every client this
//! protocol targets (curl, the bundled [`client`](crate::client), the
//! load generator) sends sized bodies, and refusing the feature keeps the
//! parser small enough to audit.
//!
//! Robustness posture (exercised by the fault-injection suite in
//! `tests/serving.rs`): every malformed input is a typed
//! [`HttpError`] mapped to a 4xx/5xx response, never a panic; header and
//! body byte caps bound per-connection memory; read timeouts bound how
//! long a half-sent ("slowloris") request can pin a connection thread.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard caps applied while reading one request.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Request line + headers may not exceed this many bytes.
    pub max_head_bytes: usize,
    /// `Content-Length` may not exceed this many bytes.
    pub max_body_bytes: usize,
    /// Socket read timeout while a request is being received.
    pub read_timeout: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// The decoded body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly before sending anything —
    /// the normal end of a keep-alive session, not an error to report.
    ConnectionClosed,
    /// Malformed request line or headers → `400`.
    BadRequest(String),
    /// `Content-Length` exceeds [`HttpLimits::max_body_bytes`] → `413`.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The request head exceeds [`HttpLimits::max_head_bytes`] → `431`.
    HeadTooLarge,
    /// `Transfer-Encoding` was requested → `501` (sized bodies only).
    UnsupportedTransferEncoding,
    /// The peer stopped sending mid-request (timeout or truncation) →
    /// `408`.
    Timeout,
    /// Any other socket failure; the connection is dropped.
    Io(std::io::Error),
}

impl HttpError {
    /// The response status this error maps to (`None`: drop silently).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::ConnectionClosed => None,
            HttpError::BadRequest(_) => Some(400),
            HttpError::BodyTooLarge { .. } => Some(413),
            HttpError::HeadTooLarge => Some(431),
            HttpError::UnsupportedTransferEncoding => Some(501),
            HttpError::Timeout => Some(408),
            HttpError::Io(_) => None,
        }
    }

    /// Human-readable description for the error envelope.
    pub fn message(&self) -> String {
        match self {
            HttpError::ConnectionClosed => "connection closed".into(),
            HttpError::BadRequest(m) => m.clone(),
            HttpError::BodyTooLarge { declared, limit } => {
                format!("request body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::HeadTooLarge => "request headers exceed the size limit".into(),
            HttpError::UnsupportedTransferEncoding => {
                "Transfer-Encoding is not supported; send a Content-Length body".into()
            }
            HttpError::Timeout => "timed out waiting for the request".into(),
            HttpError::Io(e) => format!("socket error: {e}"),
        }
    }
}

/// Reads and parses one request from `reader`.
///
/// `reader` must wrap a stream whose read timeout was set to
/// [`HttpLimits::read_timeout`] (see [`apply_read_timeout`]); this
/// function maps `WouldBlock`/`TimedOut` to [`HttpError::Timeout`].
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    limits: &HttpLimits,
) -> Result<Request, HttpError> {
    let head = read_head(reader, limits)?;
    let mut lines = head.split(|&b| b == b'\n').map(|l| l.strip_suffix(b"\r").unwrap_or(l));
    let request_line = lines.next().unwrap_or(b"");
    let request_line = std::str::from_utf8(request_line)
        .map_err(|_| HttpError::BadRequest("request line is not UTF-8".into()))?;
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!("malformed request line '{request_line}'")));
    };
    // A target that is all query (`?x`) or fragment has no path to route.
    let path = target.split(['?', '#']).next().unwrap_or(target);
    if parts.next().is_some() || method.is_empty() || path.is_empty() {
        return Err(HttpError::BadRequest(format!("malformed request line '{request_line}'")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v => return Err(HttpError::BadRequest(format!("unsupported protocol '{v}'"))),
    };

    let mut content_length = 0usize;
    let mut keep_alive = http11; // HTTP/1.1 defaults to persistent
    let mut expect_continue = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| HttpError::BadRequest("header is not UTF-8".into()))?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header '{line}'")));
        };
        let value = value.trim();
        if name.ends_with(' ') || name.ends_with('\t') {
            return Err(HttpError::BadRequest("whitespace before header colon".into()));
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length '{value}'")))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::UnsupportedTransferEncoding);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: limits.max_body_bytes,
        });
    }
    if expect_continue && content_length > 0 {
        // curl sends Expect for larger bodies and waits ~1s for this
        // interim response before transmitting.
        reader.get_ref().write_all(b"HTTP/1.1 100 Continue\r\n\r\n").map_err(HttpError::Io)?;
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            std::io::ErrorKind::UnexpectedEof => {
                HttpError::BadRequest("body shorter than Content-Length".into())
            }
            _ => HttpError::Io(e),
        })?;
    }
    Ok(Request { method: method.to_ascii_uppercase(), path: path.to_owned(), body, keep_alive })
}

/// Reads up to and including the blank line terminating the header block,
/// returning everything before it.
///
/// The scan runs over the `BufReader`'s own buffer and consumes exactly
/// the bytes up to the terminator, so it can never overshoot into the
/// body however the peer fragmented the request. Both `\r\n\r\n` and
/// bare `\n\n` terminators are accepted (hand-typed clients); header
/// lines are `\r`-stripped individually by the caller.
fn read_head(reader: &mut BufReader<TcpStream>, limits: &HttpLimits) -> Result<Vec<u8>, HttpError> {
    let mut head: Vec<u8> = Vec::with_capacity(256);
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle keep-alive connections time out quietly; a
                // half-sent request head is a slowloris-style fault.
                return Err(if head.is_empty() {
                    HttpError::ConnectionClosed
                } else {
                    HttpError::Timeout
                });
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if available.is_empty() {
            // EOF: clean between requests, truncation mid-request.
            return Err(if head.is_empty() {
                HttpError::ConnectionClosed
            } else {
                HttpError::BadRequest("connection closed mid-headers".into())
            });
        }
        // Take `available` a line at a time: only a `\n` can end the
        // head, so each line is copied whole and checked once. A
        // terminator split across two reads is found on the second, once
        // its `\n` arrives after the head so far.
        let mut taken = 0;
        while taken < available.len() {
            let line_end = available[taken..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(available.len(), |at| taken + at + 1);
            head.extend_from_slice(&available[taken..line_end]);
            taken = line_end;
            let terminator = if head.ends_with(b"\r\n\r\n") {
                4
            } else if head.ends_with(b"\n\n") {
                2
            } else {
                0
            };
            // The head may end at byte `max_head_bytes` and no later.
            if terminator > 0 && head.len() <= limits.max_head_bytes {
                reader.consume(taken);
                head.truncate(head.len() - terminator);
                return Ok(head);
            }
            if head.len() >= limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
        }
        reader.consume(taken);
    }
}

/// Writes `resp` to `stream` as one buffer — head and body leave in a
/// single `write`, so under `TCP_NODELAY` they are one segment and one
/// wake-up for the peer.
pub fn write_response(stream: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(160 + resp.body.len());
    write!(
        message,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    )?;
    if let Some(secs) = resp.retry_after {
        write!(message, "Retry-After: {secs}\r\n")?;
    }
    message.extend_from_slice(if resp.close {
        b"Connection: close\r\n\r\n"
    } else {
        b"Connection: keep-alive\r\n\r\n"
    });
    message.extend_from_slice(&resp.body);
    stream.write_all(&message)?;
    stream.flush()
}

/// One response to serialize.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Optional `Retry-After` (seconds) — set on shed responses.
    pub retry_after: Option<u32>,
    /// Close the connection after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
            close: false,
        }
    }
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Applies the serving read timeout to a freshly accepted stream.
pub fn apply_read_timeout(stream: &TcpStream, limits: &HttpLimits) -> std::io::Result<()> {
    stream.set_read_timeout(Some(limits.read_timeout))?;
    stream.set_nodelay(true)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Accepts every `write` whole, counting the calls.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The server end of a loopback connection whose client sent `bytes`
    /// and closed its side, read through a buffer of `capacity` bytes —
    /// so each `fill_buf` sees at most that many.
    fn loopback(bytes: &[u8], capacity: usize) -> BufReader<TcpStream> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(bytes).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        BufReader::with_capacity(capacity, server)
    }

    #[test]
    fn a_terminator_split_across_reads_ends_the_head_and_takes_no_body_byte() {
        // The body opens with what would be a terminator; the next request
        // ends in a bare `\n\n`.
        let wire = b"POST /query?x=1 HTTP/1.1\r\nContent-Length: 7\r\n\r\n\r\n\r\n{}\nGET /healthz HTTP/1.1\nHost: kg\n\n";
        for capacity in [1, 2, 3, 4, 5, 7, 16, 47, 48, 49, 8192] {
            let mut reader = loopback(wire, capacity);
            let req = read_request(&mut reader, &HttpLimits::default()).unwrap();
            assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/query"));
            assert_eq!(req.body, b"\r\n\r\n{}\n", "capacity {capacity}");
            let next = read_request(&mut reader, &HttpLimits::default()).unwrap();
            assert_eq!((next.method.as_str(), next.path.as_str()), ("GET", "/healthz"));
            assert!(next.body.is_empty() && next.keep_alive);
            assert!(matches!(
                read_request(&mut reader, &HttpLimits::default()),
                Err(HttpError::ConnectionClosed)
            ));
        }
    }

    #[test]
    fn a_head_may_end_exactly_at_the_limit_and_no_later() {
        let head = "GET /healthz HTTP/1.1\r\nX-Pad: abcdefgh\r\n\r\n";
        for terminator in ["\r\n\r\n", "\n\n"] {
            let head = head.replace("\r\n\r\n", terminator);
            for capacity in [1, 3, 8, 8192] {
                let at_limit = HttpLimits { max_head_bytes: head.len(), ..HttpLimits::default() };
                let mut reader = loopback(head.as_bytes(), capacity);
                assert_eq!(read_request(&mut reader, &at_limit).unwrap().path, "/healthz");
                let under = HttpLimits { max_head_bytes: head.len() - 1, ..at_limit };
                let err = read_request(&mut loopback(head.as_bytes(), capacity), &under);
                assert_eq!(err.unwrap_err().status(), Some(431), "capacity {capacity}");
            }
        }
    }

    #[test]
    fn a_cut_head_is_a_typed_error() {
        let wire = b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        for cut in 0..wire.len() {
            match read_request(&mut loopback(&wire[..cut], 4), &HttpLimits::default()) {
                Err(HttpError::ConnectionClosed) => assert_eq!(cut, 0),
                Err(HttpError::BadRequest(_)) => assert!(cut > 0),
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_response_is_one_write_of_the_same_bytes_as_ever() {
        let mut out = CountingWriter::default();
        write_response(&mut out, &Response::json(200, "{\"answer\":true}".into())).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\
             Connection: keep-alive\r\n\r\n{\"answer\":true}"
        );

        let body = "{\"error\":{\"code\":\"overloaded\",\"message\":\"retry later\"}}";
        let mut shed = Response::json(429, body.into());
        shed.retry_after = Some(1);
        let mut out = CountingWriter::default();
        write_response(&mut out, &shed).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            format!(
                "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nRetry-After: 1\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            )
        );

        // The refusal at the connection cap: `503`, `Retry-After`, close.
        let mut full = Response::text(503, "busy".into());
        full.retry_after = Some(1);
        full.close = true;
        let mut out = CountingWriter::default();
        write_response(&mut out, &full).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\n\
             Content-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: 4\r\n\
             Retry-After: 1\r\nConnection: close\r\n\r\nbusy"
        );
    }
}
