//! A deliberately small HTTP/1.1 server-side codec over `std::net`.
//!
//! Scope: exactly what `swact-serve` needs — request line + headers +
//! `Content-Length` bodies in, fixed-length or `Transfer-Encoding:
//! chunked` responses out, one request per connection (`Connection:
//! close`). No keep-alive, no pipelining, no TLS: the service sits behind
//! loopback or a fronting proxy, and one estimate per connection keeps
//! admission accounting trivially correct.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body (4 MiB): generous for inline `.bench`
/// netlists, small enough that a hostile `Content-Length` cannot balloon
/// the handler.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 << 10;

/// A parsed request: method, path, lowercase-keyed headers, raw body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client per RFC; matched
    /// exactly).
    pub method: String,
    /// The request target, query string included, e.g. `/v1/estimate`.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if it is.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::bad("body is not valid UTF-8"))
    }
}

/// Why a request could not be read. `Io` covers the socket dying; the
/// rest are client errors that deserve a 400 before closing.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (peer reset, timeout).
    Io(io::Error),
    /// Malformed request; the message is safe to echo to the client.
    BadRequest(String),
}

impl HttpError {
    pub(crate) fn bad(message: impl Into<String>) -> HttpError {
        HttpError::BadRequest(message.into())
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads one request from the stream. Any byte sequence yields a
/// [`Request`] or a typed [`HttpError`]; no body larger than
/// [`MAX_BODY_BYTES`] is ever allocated.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    read_line_bounded(&mut reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::bad("request line has no target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad(format!("unsupported version `{version}`")));
    }

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        line.clear();
        read_line_bounded(&mut reader, &mut line)?;
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::bad("request head too large"));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| HttpError::bad(format!("malformed header `{trimmed}`")))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // This codec only reads fixed-length bodies. A `Transfer-Encoding`
    // header (chunked or otherwise) would make the framing ambiguous —
    // the classic request-smuggling vector — so it is rejected outright
    // rather than ignored.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::bad("Transfer-Encoding is not supported"));
    }
    // Likewise, two `Content-Length` headers (even agreeing ones) mean the
    // peer and any intermediary may disagree on where the body ends.
    // RFC 9110 allows only `1*DIGIT`; `usize::from_str` would also take a
    // leading `+`, which another parser on the path may read differently.
    let mut content_lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = content_lengths
        .next()
        .map(|(_, v)| match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => Ok(n),
            _ => Err(HttpError::bad("bad Content-Length")),
        })
        .transpose()?
        .unwrap_or(0);
    if content_lengths.next().is_some() {
        return Err(HttpError::bad("duplicate Content-Length"));
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Reads one head line with the head-size bound applied per line, so a
/// client feeding an endless unterminated line cannot grow memory
/// unboundedly. The line is read as bytes: a head that is not UTF-8 is a
/// client error, not a socket failure. A head cut off by end of stream is
/// [`HttpError::Io`], like a short body: it is never parsed as complete.
fn read_line_bounded<R: Read>(
    reader: &mut BufReader<&mut R>,
    line: &mut String,
) -> Result<(), HttpError> {
    let mut bytes = Vec::new();
    let n = reader
        .take(MAX_HEAD_BYTES as u64 + 1)
        .read_until(b'\n', &mut bytes)?;
    if n > MAX_HEAD_BYTES {
        return Err(HttpError::bad("header line too large"));
    }
    if bytes.last() != Some(&b'\n') {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| HttpError::bad("request head is not valid UTF-8"))?;
    line.push_str(text);
    Ok(())
}

/// Canonical reason phrases for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Writes a complete fixed-length response and flushes.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response in progress: one chunk per
/// [`chunk`](ChunkedWriter::chunk) call, terminated by
/// [`finish`](ChunkedWriter::finish). Used by `/v1/sweep` to stream one
/// JSON line per scenario as it completes.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the writer.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> io::Result<ChunkedWriter<'a>> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one chunk and flushes it, so the client sees each scenario's
    /// line as soon as it is computed.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            // An empty chunk would terminate the stream early.
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the chunk stream.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips one raw request through a real socket pair.
    fn exchange(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("send");
            s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let result = read_request(&mut stream);
        client.join().expect("client thread");
        result
    }

    #[test]
    fn parses_post_with_body_and_lowercases_header_names() {
        let req = exchange(
            b"POST /v1/estimate HTTP/1.1\r\nHost: x\r\nX-Swact-Client: tokeN\r\nContent-Length: 4\r\n\r\nbody",
        )
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/estimate");
        assert_eq!(req.header("x-swact-client"), Some("tokeN"));
        assert_eq!(req.body, b"body");
        assert_eq!(req.body_utf8().unwrap(), "body");
    }

    #[test]
    fn parses_get_without_body() {
        let req = exchange(b"GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(
            exchange(b"NONSENSE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            exchange(b"GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            exchange(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        for length in ["ten", "+4"] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\nbody");
            assert!(
                matches!(exchange(raw.as_bytes()), Err(HttpError::BadRequest(_))),
                "Content-Length: {length}"
            );
        }
        // A byte that is not UTF-8 in the request line or a header gets a
        // 400, not a silent close.
        for raw in [
            &b"GET /\xff HTTP/1.1\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nX-Name: \xfe\xff\r\n\r\n",
        ] {
            assert!(
                matches!(exchange(raw), Err(HttpError::BadRequest(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn rejects_duplicate_content_length() {
        // Conflicting lengths are ambiguous framing.
        assert!(matches!(
            exchange(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nbody"),
            Err(HttpError::BadRequest(_))
        ));
        // Even agreeing duplicates are rejected: an intermediary may have
        // seen different values than we do.
        assert!(matches!(
            exchange(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_transfer_encoding_requests() {
        assert!(matches!(
            exchange(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nbody\r\n0\r\n\r\n"
            ),
            Err(HttpError::BadRequest(_))
        ));
        // Transfer-Encoding alongside Content-Length is the smuggling
        // shape proper; it must not fall back to the Content-Length.
        assert!(matches!(
            exchange(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\nbody"
            ),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            exchange(huge.as_bytes()),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn chunked_writer_emits_well_formed_framing() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut w = ChunkedWriter::start(&mut stream, 200, "application/json").expect("start");
            w.chunk(b"{\"i\":0}\n").expect("chunk");
            w.chunk(b"").expect("empty chunk is a no-op");
            w.chunk(b"{\"i\":1}\n").expect("chunk");
            w.finish().expect("finish");
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        let mut raw = String::new();
        client.read_to_string(&mut raw).expect("read");
        server.join().expect("server thread");
        let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("Transfer-Encoding: chunked"));
        assert_eq!(body, "8\r\n{\"i\":0}\n\r\n8\r\n{\"i\":1}\n\r\n0\r\n\r\n");
    }
}
