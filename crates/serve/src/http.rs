//! A minimal HTTP/1.1 request reader and response writer.
//!
//! Just enough of RFC 9112 for a hermetic job server: request line,
//! headers, `Content-Length` bodies, keep-alive, and chunked transfer
//! encoding for streamed responses ([`ChunkedWriter`] /
//! [`read_chunked_body`]). No TLS, no compression — job specs and result
//! documents are small JSON bodies over loopback or a trusted network.

use crate::error::{ApiError, ErrorCode};
use baryon_compress::crc::crc32;
use baryon_sim::faultfs;
use baryon_sim::json::Json;
use std::io::{self, BufRead, Read, Write};

/// Longest accepted request line or header line, and the cap on total
/// header bytes. Oversized requests are malformed by definition here.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Largest accepted request body (job specs are tiny; result documents
/// only ever travel in responses).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// The body-integrity header every [`Response`] carries: the CRC-32 of
/// the body, in lower-case fixed-width hex. Peers that know the header
/// (the fleet coordinator) verify it; everyone else ignores it.
pub const CRC_HEADER: &str = "x-baryon-crc";

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target, e.g. `/v1/jobs/7`.
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default, overridden by `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn malformed(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one line up to CRLF (or bare LF), without the terminator.
fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut limited = r.take(MAX_HEAD_BYTES as u64 + 1);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None); // clean EOF before any bytes
    }
    if buf.len() > MAX_HEAD_BYTES {
        return Err(malformed("header line too long"));
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| malformed("header line is not UTF-8"))
}

/// Reads one request from the stream.
///
/// Returns `Ok(None)` on a clean EOF before the request line (the peer
/// closed an idle keep-alive connection).
///
/// # Errors
///
/// `InvalidData` for malformed or oversized requests; other I/O errors
/// pass through (including timeouts).
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(line) = read_line(r)? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(malformed(format!("malformed request line: {line:?}"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(malformed(format!("unsupported protocol {version:?}")));
    }
    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let Some(line) = read_line(r)? else {
            return Err(malformed("connection closed inside headers"));
        };
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(malformed("request head too large"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed(format!("malformed header line: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let mut request = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body: Vec::new(),
    };
    // HTTP/1.0 defaults to close; record that as an explicit header so
    // `keep_alive` stays a pure function of the headers.
    if version == "HTTP/1.0" && request.header("connection").is_none() {
        request.headers.push(("connection".into(), "close".into()));
    }
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| malformed(format!("bad Content-Length {len:?}")))?;
        if len > MAX_BODY_BYTES {
            return Err(malformed(format!("body of {len} bytes exceeds limit")));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)
            .map_err(|_| malformed("body shorter than Content-Length"))?;
        request.body = body;
    }
    Ok(Some(request))
}

/// A response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (`200`, `404`, ...).
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// The JSON body.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: &Json) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.render(),
        }
    }

    /// The uniform error envelope:
    /// `{"error": {"code": "...", "message": "..."}}`.
    pub fn error(status: u16, code: ErrorCode, message: &str) -> Response {
        Response::json(status, &ApiError::new(code, message).to_json())
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Serializes the response; `close` controls the `Connection` header.
    ///
    /// Every response carries an [`CRC_HEADER`] integrity header — the
    /// CRC-32 of the body as rendered. It is stamped *before* the chaos
    /// layer's response corruption fires (see
    /// [`baryon_sim::faultfs::corrupt_response`]), which is exactly what
    /// lets a coordinator detect a lying shard instead of gathering
    /// garbage.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> io::Result<()> {
        let crc = crc32(self.body.as_bytes());
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n{CRC_HEADER}: {crc:08x}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        if faultfs::global().is_some() {
            // The lying shard: flip a body byte after the CRC was stamped.
            let mut body = self.body.clone().into_bytes();
            let _ = faultfs::corrupt_response(&mut body);
            w.write_all(&body)?;
        } else {
            w.write_all(self.body.as_bytes())?;
        }
        w.flush()
    }
}

/// A `Transfer-Encoding: chunked` response body writer for endpoints whose
/// length is unknown up front (streamed job events). Each [`chunk`] is one
/// HTTP chunk, flushed immediately so the peer sees events as they happen;
/// [`finish`] writes the zero-length terminator. The connection always
/// closes after a streamed response — mixing a stream into keep-alive
/// pipelining buys nothing over loopback and complicates the reader.
///
/// [`chunk`]: ChunkedWriter::chunk
/// [`finish`]: ChunkedWriter::finish
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head (status + `Transfer-Encoding: chunked` +
    /// `Connection: close` + any extra headers) and returns the body
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn begin(mut w: W, status: u16, headers: &[(&str, &str)]) -> io::Result<ChunkedWriter<W>> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
            status,
            reason(status),
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Writes one chunk and flushes it. Empty payloads are skipped — a
    /// zero-length chunk would terminate the stream. Like a plain
    /// response's [`CRC_HEADER`], every chunk carries the CRC-32 of its
    /// payload, as a `crc` chunk extension (`<size>;crc=<hex>`, ignored by
    /// readers that do not check it), stamped before the chaos layer's
    /// response corruption fires — so a reader can drop a chunk flipped
    /// in flight instead of trusting it.
    ///
    /// # Errors
    ///
    /// Propagates writer errors (a disconnected peer shows up here).
    pub fn chunk(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x};crc={:08x}\r\n", payload.len(), crc32(payload))?;
        if faultfs::global().is_some() {
            let mut body = payload.to_vec();
            let _ = faultfs::corrupt_response(&mut body);
            self.w.write_all(&body)?;
        } else {
            self.w.write_all(payload)?;
        }
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Writes the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

/// Decodes a complete chunked body (everything between the blank line after
/// the headers and the zero-length terminator) from a reader. Used by the
/// typed client and by stream proxies.
///
/// # Errors
///
/// `InvalidData` on malformed chunk framing; other I/O errors pass through.
pub fn read_chunked_body(r: &mut impl BufRead, max: usize) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let Some(line) = read_line(r)? else {
            return Err(malformed("connection closed inside chunked body"));
        };
        let size_str = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| malformed(format!("bad chunk size {line:?}")))?;
        if size == 0 {
            // Trailer section: consume lines until the blank terminator.
            loop {
                match read_line(r)? {
                    Some(l) if l.is_empty() => return Ok(body),
                    Some(_) => continue,
                    None => return Err(malformed("connection closed inside trailers")),
                }
            }
        }
        if body.len() + size > max {
            return Err(malformed(format!("chunked body exceeds {max} bytes")));
        }
        let at = body.len();
        body.resize(at + size, 0);
        r.read_exact(&mut body[at..])
            .map_err(|_| malformed("chunk shorter than its size"))?;
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)
            .map_err(|_| malformed("chunk missing terminator"))?;
        if &crlf != b"\r\n" {
            return Err(malformed("chunk not terminated by CRLF"));
        }
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> io::Result<Option<Request>> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("well-formed")
            .expect("not EOF");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{} \n")
            .expect("well-formed")
            .expect("not EOF");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{} \n");
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let req = parse(b"GET / HTTP/1.1\nA: b\n\n")
            .expect("well-formed")
            .expect("not EOF");
        assert_eq!(req.header("a"), Some("b"));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").expect("clean EOF").is_none());
    }

    #[test]
    fn malformed_requests_rejected() {
        for bad in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET /\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET path HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"GET / HTTP/1.1\r\n",
        ] {
            assert!(
                parse(bad).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn oversized_head_and_body_rejected() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES));
        assert!(parse(long.as_bytes()).is_err());
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(parse(big.as_bytes()).is_err());
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut out = Vec::new();
        Response::json(200, &Json::obj([("ok", Json::Bool(true))]))
            .header("Retry-After", "1")
            .write_to(&mut out, true)
            .expect("vec write");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }

    #[test]
    fn responses_carry_a_matching_body_crc() {
        let mut out = Vec::new();
        Response::json(200, &Json::obj([("ok", Json::Bool(true))]))
            .write_to(&mut out, true)
            .expect("vec write");
        let text = String::from_utf8(out).expect("ascii");
        let stamped = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{CRC_HEADER}: ")))
            .expect("integrity header present");
        let body = text.split("\r\n\r\n").nth(1).expect("body");
        assert_eq!(stamped, format!("{:08x}", crc32(body.as_bytes())));
    }

    #[test]
    fn chunked_round_trip() {
        let mut out = Vec::new();
        let mut cw =
            ChunkedWriter::begin(&mut out, 200, &[("x-baryon-job", "7")]).expect("vec write");
        cw.chunk(b"{\"event\":\"progress\"}\n").expect("chunk");
        cw.chunk(b"").expect("empty chunk skipped");
        cw.chunk(b"{\"event\":\"end\"}\n").expect("chunk");
        cw.finish().expect("terminator");
        let text = String::from_utf8(out.clone()).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("x-baryon-job: 7\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
        let frame = format!("15;crc={:08x}\r\n", crc32(b"{\"event\":\"progress\"}\n"));
        assert!(text.contains(&frame), "chunks carry their CRC: {text}");
        // Strip the head and decode the body back.
        let split = text.find("\r\n\r\n").expect("head terminator") + 4;
        let mut r = BufReader::new(&out[split..]);
        let body = read_chunked_body(&mut r, MAX_BODY_BYTES).expect("well-formed");
        assert_eq!(
            String::from_utf8(body).expect("utf8"),
            "{\"event\":\"progress\"}\n{\"event\":\"end\"}\n"
        );
    }

    #[test]
    fn chunked_decoder_rejects_malformed_framing() {
        for bad in [
            b"zz\r\nhello\r\n0\r\n\r\n".as_slice(),
            b"5\r\nhel",
            b"5\r\nhelloXX0\r\n\r\n",
            b"5\r\nhello\r\n",
            b"",
        ] {
            let mut r = BufReader::new(bad);
            assert!(
                read_chunked_body(&mut r, MAX_BODY_BYTES).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(bad)
            );
        }
        // Size cap enforced before allocation.
        let mut r = BufReader::new(b"ffffff\r\n".as_slice());
        assert!(read_chunked_body(&mut r, 16).is_err());
    }

    #[test]
    fn error_shape_is_uniform() {
        let r = Response::error(404, ErrorCode::NotFound, "no such job");
        assert_eq!(
            r.body,
            r#"{"error":{"code":"not_found","message":"no such job"}}"#
        );
        assert_eq!(
            ApiError::from_body(&r.body),
            Some(ApiError::new(ErrorCode::NotFound, "no such job"))
        );
        assert_eq!(reason(404), "Not Found");
        assert_eq!(reason(599), "Unknown");
    }
}
