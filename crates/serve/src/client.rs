//! A tiny one-shot HTTP client for smoke tests and examples.
//!
//! Deliberately minimal: one request per connection, `Content-Length`
//! bodies only — the mirror image of what [`crate::http`] serves. The
//! end-to-end tests and the README's example session both use it, so the
//! documented workflow is the tested workflow.
//!
//! [`Client`] adds the knobs the bare [`request`] helper hides:
//! configurable connect and read timeouts (builder methods, or the
//! `BARYON_CLIENT_CONNECT_TIMEOUT_MS` / `BARYON_CLIENT_READ_TIMEOUT_MS`
//! environment variables), errors typed by phase so callers can tell a
//! dead server ([`ClientError::Connect`]) from a stalled one
//! ([`ClientError::Timeout`]), and [`Client::request_with_retry`] —
//! exponential backoff with deterministic jitter on `503` backpressure
//! and read timeouts, honouring the server's `Retry-After` header.

use crate::error::{ApiError, ErrorCode};
use baryon_compress::crc::crc32;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a request failed, split by phase so callers can react differently
/// to "server unreachable" and "server accepted the connection but never
/// answered in time". Servers that answered with the uniform error
/// envelope surface as [`ClientError::Api`], carrying the typed
/// [`ErrorCode`] instead of raw status text.
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed or timed out: the server is down, the port is
    /// wrong, or the listener's backlog is not being drained.
    Connect(io::Error),
    /// The connection succeeded but the response did not arrive within
    /// the read timeout.
    Timeout(io::Error),
    /// The connection died after the request went out — reset, aborted,
    /// or closed mid-response-body. The server may or may not have
    /// processed the request, so this is retryable for idempotent (GET)
    /// requests only; [`Client::request_with_retry`] honours exactly
    /// that.
    Interrupted(io::Error),
    /// Any other I/O or parse failure after connecting (malformed
    /// response, ...).
    Io(io::Error),
    /// The server answered with an error envelope; the HTTP status plus
    /// the decoded `{code, message}`.
    Api {
        /// The HTTP status code of the error response.
        status: u16,
        /// The decoded envelope.
        error: ApiError,
    },
}

impl ClientError {
    /// The typed API error code, when the failure was an [`Api`] one.
    ///
    /// [`Api`]: ClientError::Api
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Api { error, .. } => Some(error.code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Timeout(e) => write!(f, "response timed out: {e}"),
            ClientError::Interrupted(e) => write!(f, "connection broke mid-response: {e}"),
            ClientError::Io(e) => write!(f, "request failed: {e}"),
            ClientError::Api { status, error } => write!(f, "server said {status} {error}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Connect(e)
            | ClientError::Timeout(e)
            | ClientError::Interrupted(e)
            | ClientError::Io(e) => Some(e),
            ClientError::Api { error, .. } => Some(error),
        }
    }
}

impl From<ClientError> for io::Error {
    fn from(e: ClientError) -> io::Error {
        match e {
            ClientError::Connect(e)
            | ClientError::Timeout(e)
            | ClientError::Interrupted(e)
            | ClientError::Io(e) => e,
            ClientError::Api { .. } => io::Error::other(e.to_string()),
        }
    }
}

/// A configured client for one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    connect_timeout: Duration,
    read_timeout: Duration,
    retries: u32,
    backoff_base: Duration,
}

/// Upper bound on a single backoff sleep, so a long `Retry-After` or a
/// deep retry chain cannot park the caller for minutes.
const BACKOFF_CAP: Duration = Duration::from_secs(10);

fn env_ms(name: &str) -> Option<Duration> {
    std::env::var(name)
        .ok()?
        .trim()
        .parse::<u64>()
        .ok()
        .map(Duration::from_millis)
}

impl Client {
    /// A client with default timeouts (5 s connect, 60 s read), overridden
    /// by `BARYON_CLIENT_CONNECT_TIMEOUT_MS` / `BARYON_CLIENT_READ_TIMEOUT_MS`
    /// when set to a millisecond count. Retries are off (`retries == 0`)
    /// until enabled via [`Client::retries`].
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            connect_timeout: env_ms("BARYON_CLIENT_CONNECT_TIMEOUT_MS")
                .unwrap_or(Duration::from_secs(5)),
            read_timeout: env_ms("BARYON_CLIENT_READ_TIMEOUT_MS")
                .unwrap_or(Duration::from_secs(60)),
            retries: 0,
            backoff_base: Duration::from_millis(100),
        }
    }

    /// Sets the TCP connect timeout.
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> Client {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the response read timeout.
    #[must_use]
    pub fn read_timeout(mut self, timeout: Duration) -> Client {
        self.read_timeout = timeout;
        self
    }

    /// Sets how many times [`Client::request_with_retry`] retries after
    /// `503` or a timeout (so it attempts at most `retries + 1` times).
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Client {
        self.retries = retries;
        self
    }

    /// Sets the first backoff delay; each retry doubles it (capped).
    #[must_use]
    pub fn backoff_base(mut self, base: Duration) -> Client {
        self.backoff_base = base;
        self
    }

    /// Sends one request and reads the full response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the TCP connect fails or exceeds the
    /// connect timeout, [`ClientError::Timeout`] when the response does
    /// not arrive within the read timeout, [`ClientError::Interrupted`]
    /// when the connection resets or closes mid-response,
    /// [`ClientError::Io`] otherwise.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)
            .map_err(ClientError::Connect)?;
        let exchange = || -> io::Result<ClientResponse> {
            stream.set_read_timeout(Some(self.read_timeout))?;
            let mut writer = stream.try_clone()?;
            let body = body.unwrap_or("");
            // One buffer, one write: a server that answers-and-closes
            // early must not break a multi-syscall request mid-stream.
            let request = format!(
                "{method} {path} HTTP/1.1\r\nHost: baryon\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            writer.write_all(request.as_bytes())?;
            writer.flush()?;
            read_response(&mut BufReader::new(&stream))
        };
        exchange().map_err(typed_io_error)
    }

    /// Liveness probe against `GET /v1/healthz` — the cheap endpoint that
    /// allocates no metrics snapshot, so supervisors can poll it at high
    /// frequency without perturbing `serve.*` counters or scrape load.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; a down shard shows up as
    /// [`ClientError::Connect`], a wedged one as [`ClientError::Timeout`].
    pub fn healthz(&self) -> Result<(), ClientError> {
        self.request("GET", "/v1/healthz", None)?
            .into_result()
            .map(|_| ())
    }

    /// `GET /v1/admin/config` — the coordinator's slot-machine state
    /// document (slots, active generation, rollback history).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; non-2xx answers decode into
    /// [`ClientError::Api`].
    pub fn admin_config(&self) -> Result<ClientResponse, ClientError> {
        self.request("GET", "/v1/admin/config", None)?.into_result()
    }

    /// `POST /v1/admin/config/stage` — validates and persists a candidate
    /// policy document into the non-active slot.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with `invalid_json` / `invalid_config` on a
    /// bad candidate, `conflict` while a rollout is in flight.
    pub fn admin_stage(&self, policy_json: &str) -> Result<ClientResponse, ClientError> {
        self.request("POST", "/v1/admin/config/stage", Some(policy_json))?
            .into_result()
    }

    /// `POST /v1/admin/config/commit` — rolling-restarts the fleet onto
    /// the staged slot; auto-rolls-back on a failed health probe/canary.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with `conflict` when nothing is staged or a
    /// rollout is in flight, `rollout_failed` when the fleet rolled back.
    pub fn admin_commit(&self) -> Result<ClientResponse, ClientError> {
        self.request("POST", "/v1/admin/config/commit", None)?
            .into_result()
    }

    /// `POST /v1/admin/config/rollback` — rolling-restarts the fleet back
    /// onto the previous slot.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with `conflict` when there is no previous slot
    /// or a rollout is in flight.
    pub fn admin_rollback(&self) -> Result<ClientResponse, ClientError> {
        self.request("POST", "/v1/admin/config/rollback", None)?
            .into_result()
    }

    /// Opens a streamed (chunked transfer encoding) GET and invokes
    /// `on_line` with each newline-terminated event line as it arrives,
    /// returning once the server terminates the stream. A non-chunked
    /// response is treated as the API refusing to stream: its body is
    /// decoded into [`ClientError::Api`]. Chunks failing their `crc`
    /// extension are dropped unread (see [`Client::stream_checked`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] / [`ClientError::Timeout`] / [`ClientError::Io`]
    /// as for [`Client::request`]; [`ClientError::Api`] when the server
    /// answered with a plain (error) response instead of a stream.
    pub fn stream(&self, path: &str, on_line: &mut dyn FnMut(&str)) -> Result<(), ClientError> {
        self.stream_checked(path, &mut 0, on_line)
    }

    /// [`Client::stream`], adding to `dropped` every chunk whose payload
    /// does not hash to the CRC-32 in its `crc` chunk extension (a body
    /// flipped in flight). Such chunks are discarded, never passed to
    /// `on_line`; chunks without the extension are trusted.
    ///
    /// # Errors
    ///
    /// As for [`Client::stream`]; `dropped` still counts what was
    /// discarded before the error.
    pub fn stream_checked(
        &self,
        path: &str,
        dropped: &mut u64,
        on_line: &mut dyn FnMut(&str),
    ) -> Result<(), ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)
            .map_err(ClientError::Connect)?;
        let mut exchange = || -> io::Result<Result<(), ClientResponse>> {
            stream.set_read_timeout(Some(self.read_timeout))?;
            let mut writer = stream.try_clone()?;
            let request = format!(
                "GET {path} HTTP/1.1\r\nHost: baryon\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
            );
            writer.write_all(request.as_bytes())?;
            writer.flush()?;
            let mut reader = BufReader::new(&stream);
            let (status, headers) = read_response_head(&mut reader)?;
            let chunked = headers
                .iter()
                .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
            if !chunked {
                let body = read_response_body(&mut reader, &headers)?;
                return Ok(Err(ClientResponse {
                    status,
                    headers,
                    body,
                }));
            }
            let mut pending = String::new();
            loop {
                let mut size_line = String::new();
                if reader.read_line(&mut size_line)? == 0 {
                    return Err(malformed("connection closed inside chunked stream"));
                }
                let mut fields = size_line.trim().split(';');
                let size_str = fields.next().unwrap_or("").trim();
                let crc = fields.find_map(|ext| ext.trim().strip_prefix("crc="));
                let size =
                    usize::from_str_radix(size_str, 16).map_err(|_| malformed("bad chunk size"))?;
                if size == 0 {
                    break;
                }
                let mut chunk = vec![0u8; size + 2]; // payload + CRLF
                reader.read_exact(&mut chunk)?;
                if &chunk[size..] != b"\r\n" {
                    return Err(malformed("chunk not terminated by CRLF"));
                }
                chunk.truncate(size);
                if crc.is_some_and(|claimed| claimed != format!("{:08x}", crc32(&chunk))) {
                    *dropped += 1;
                    continue;
                }
                pending.push_str(
                    std::str::from_utf8(&chunk).map_err(|_| malformed("chunk is not UTF-8"))?,
                );
                while let Some(pos) = pending.find('\n') {
                    on_line(pending[..pos].trim_end_matches('\r'));
                    pending.drain(..=pos);
                }
            }
            if !pending.is_empty() {
                on_line(&pending);
            }
            Ok(Ok(()))
        };
        match exchange() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(response)) => response.into_result().map(|_| ()),
            Err(e) => Err(typed_io_error(e)),
        }
    }

    /// Like [`Client::request`], but retries on `503` responses and read
    /// timeouts with exponential backoff and deterministic jitter. A `503`
    /// carrying `Retry-After: <seconds>` sleeps that long instead of the
    /// backoff (both capped at 10 s). An interrupted response
    /// ([`ClientError::Interrupted`] — reset or close mid-body) is retried
    /// for `GET` only: the server may have already processed the request,
    /// and replaying a `POST` could apply its effect twice. Connect, I/O,
    /// and parse errors are returned immediately — retrying cannot fix a
    /// dead server.
    ///
    /// # Errors
    ///
    /// The last attempt's error, or the final `503` response (as an `Ok`)
    /// once retries are exhausted.
    pub fn request_with_retry(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let mut attempt = 0u32;
        loop {
            let wait = match self.request(method, path, body) {
                Ok(r) if r.status == 503 && attempt < self.retries => r
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .map(Duration::from_secs),
                Ok(r) => return Ok(r),
                Err(ClientError::Timeout(_)) if attempt < self.retries => None,
                Err(ClientError::Interrupted(_)) if method == "GET" && attempt < self.retries => {
                    None
                }
                Err(e) => return Err(e),
            };
            let delay = wait.unwrap_or_else(|| backoff_delay(self.backoff_base, attempt));
            std::thread::sleep(delay.min(BACKOFF_CAP) + jitter(self.addr, attempt));
            attempt += 1;
        }
    }
}

/// Classifies an I/O failure that happened after the connect succeeded.
///
/// Both `WouldBlock` and `TimedOut` appear in the wild for a read-timeout
/// errno (WouldBlock on Unix, TimedOut on Windows). Reset/abort/EOF kinds
/// mean the peer dropped the connection after the request went out — the
/// retryable-for-GET [`ClientError::Interrupted`] case.
fn typed_io_error(e: io::Error) -> ClientError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout(e),
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => ClientError::Interrupted(e),
        _ => ClientError::Io(e),
    }
}

/// `base << attempt`, saturating, capped at [`BACKOFF_CAP`].
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
        .min(BACKOFF_CAP)
}

/// Deterministic 0–15 ms jitter so a herd of clients hashing different
/// source state desynchronises without any wall-clock randomness.
fn jitter(addr: SocketAddr, attempt: u32) -> Duration {
    let seed = (u64::from(addr.port()) << 32) ^ u64::from(attempt);
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    Duration::from_millis(mixed >> 60)
}

/// A parsed response: status code, headers, body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl ClientResponse {
    /// First header value for `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Decodes the uniform error envelope, when this is a non-2xx
    /// response carrying one.
    pub fn api_error(&self) -> Option<ApiError> {
        if self.status < 400 {
            return None;
        }
        ApiError::from_body(&self.body)
    }

    /// Converts a non-2xx response into a typed [`ClientError::Api`]
    /// (falling back to [`ErrorCode::Internal`] with the raw body when
    /// the server did not send a decodable envelope), and passes 2xx
    /// responses through.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] for every status outside `200..300`.
    pub fn into_result(self) -> Result<ClientResponse, ClientError> {
        if (200..300).contains(&self.status) {
            return Ok(self);
        }
        let error = self
            .api_error()
            .unwrap_or_else(|| ApiError::new(ErrorCode::Internal, self.body.clone()));
        Err(ClientError::Api {
            status: self.status,
            error,
        })
    }
}

/// Sends one request with default timeouts and reads the full response.
/// Shorthand for [`Client::new`]`(addr).request(...)` with the typed
/// error flattened back to `io::Error`.
///
/// # Errors
///
/// Propagates connection and I/O failures; a malformed response is
/// `InvalidData`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    Client::new(addr)
        .request(method, path, body)
        .map_err(io::Error::from)
}

fn malformed(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads the status line and headers, leaving the reader at the body.
fn read_response_head(reader: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    // "HTTP/1.1 200 OK"
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| malformed("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(malformed("connection closed inside headers"));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    Ok((status, headers))
}

/// Reads a `Content-Length` body (or to EOF without one).
fn read_response_body(
    reader: &mut impl BufRead,
    headers: &[(String, String)],
) -> io::Result<String> {
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| malformed("bad Content-Length"))
        })
        .transpose()?;
    match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf)?;
            String::from_utf8(buf).map_err(|_| malformed("body is not UTF-8"))
        }
        None => {
            let mut buf = String::new();
            reader.read_to_string(&mut buf)?;
            Ok(buf)
        }
    }
}

fn read_response(reader: &mut impl BufRead) -> io::Result<ClientResponse> {
    let (status, headers) = read_response_head(reader)?;
    let body = read_response_body(reader, &headers)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_with_content_length() {
        let raw =
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 5\r\n\r\nhello";
        let r = read_response(&mut BufReader::new(&raw[..])).expect("well-formed");
        assert_eq!(r.status, 503);
        assert_eq!(r.header("retry-after"), Some("1"));
        assert_eq!(r.header("Retry-After"), Some("1"));
        assert_eq!(r.body, "hello");
    }

    #[test]
    fn parses_a_response_without_content_length_to_eof() {
        let raw = b"HTTP/1.1 200 OK\r\n\r\nrest";
        let r = read_response(&mut BufReader::new(&raw[..])).expect("well-formed");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "rest");
    }

    #[test]
    fn malformed_responses_rejected() {
        for bad in [
            b"NOPE\r\n\r\n".as_slice(),
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nbad-header\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
        ] {
            assert!(read_response(&mut BufReader::new(bad)).is_err());
        }
    }

    /// Serves each canned response to one connection, in order, without
    /// reading the request (small requests fit the socket buffer).
    fn canned_server(responses: &'static [&'static str]) -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for resp in responses {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                // Consume the whole request (up to the header terminator;
                // these tests send empty bodies) before answering, so
                // closing the socket cannot RST unread data away.
                let mut buf = Vec::new();
                let mut chunk = [0u8; 256];
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    match std::io::Read::read(&mut stream, &mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                let _ = stream.write_all(resp.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn connect_failure_is_typed() {
        // Bind then drop to get a loopback port that refuses connections.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let err = Client::new(addr)
            .connect_timeout(Duration::from_millis(500))
            .request("GET", "/v1/healthz", None)
            .expect_err("nobody is listening");
        assert!(matches!(err, ClientError::Connect(_)), "{err}");
    }

    #[test]
    fn silent_server_is_a_read_timeout() {
        // The listener accepts into its backlog but never answers.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let err = Client::new(addr)
            .read_timeout(Duration::from_millis(50))
            .request("GET", "/v1/healthz", None)
            .expect_err("no response ever comes");
        assert!(matches!(err, ClientError::Timeout(_)), "{err}");
    }

    #[test]
    fn retry_recovers_from_backpressure() {
        let addr = canned_server(&[
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        ]);
        let r = Client::new(addr)
            .retries(2)
            .backoff_base(Duration::from_millis(1))
            .request_with_retry("GET", "/v1/metrics", None)
            .expect("second attempt succeeds");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "ok");
    }

    #[test]
    fn reset_mid_body_is_a_typed_interrupted_error() {
        // The harness promises 10 body bytes, sends 3, and drops the
        // connection — the client must type this as Interrupted, not as
        // a generic I/O or parse failure.
        let addr = canned_server(&["HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhel"]);
        let err = Client::new(addr)
            .request("GET", "/v1/metrics", None)
            .expect_err("body cut short mid-flight");
        assert!(matches!(err, ClientError::Interrupted(_)), "{err:?}");
    }

    #[test]
    fn get_retry_recovers_from_a_mid_body_reset() {
        let addr = canned_server(&[
            "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhel",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        ]);
        let r = Client::new(addr)
            .retries(2)
            .backoff_base(Duration::from_millis(1))
            .request_with_retry("GET", "/v1/metrics", None)
            .expect("second attempt completes");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "ok");
    }

    #[test]
    fn post_is_never_replayed_after_an_interrupted_response() {
        // Same two-act harness as above, but a POST: the first (broken)
        // response must surface as Interrupted without touching the
        // second connection — replaying could apply the effect twice.
        let addr = canned_server(&[
            "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhel",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        ]);
        let err = Client::new(addr)
            .retries(2)
            .backoff_base(Duration::from_millis(1))
            .request_with_retry("POST", "/v1/jobs", Some("{}"))
            .expect_err("POST must not retry an interrupted exchange");
        assert!(matches!(err, ClientError::Interrupted(_)), "{err:?}");
    }

    #[test]
    fn exhausted_retries_surface_the_final_503() {
        let addr = canned_server(&[
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
        ]);
        let r = Client::new(addr)
            .retries(1)
            .backoff_base(Duration::from_millis(1))
            .request_with_retry("GET", "/v1/metrics", None)
            .expect("a 503 response is still a response");
        assert_eq!(r.status, 503);
    }

    #[test]
    fn envelopes_decode_into_typed_api_errors() {
        let body = r#"{"error":{"code":"queue_full","message":"queue full, retry later"}}"#;
        let raw = format!(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let r = read_response(&mut BufReader::new(raw.as_bytes())).expect("well-formed");
        assert_eq!(
            r.api_error(),
            Some(ApiError::new(
                ErrorCode::QueueFull,
                "queue full, retry later"
            ))
        );
        let err = r.into_result().expect_err("503 is an error");
        assert_eq!(err.code(), Some(ErrorCode::QueueFull));
        assert!(err.to_string().contains("queue_full"), "{err}");

        // A 2xx passes through untouched; a bare-body error falls back to
        // `internal` instead of being dropped.
        let ok = ClientResponse {
            status: 200,
            headers: Vec::new(),
            body: "{}".into(),
        };
        assert!(ok.api_error().is_none());
        assert!(ok.into_result().is_ok());
        let legacy = ClientResponse {
            status: 500,
            headers: Vec::new(),
            body: "oops".into(),
        };
        let err = legacy.into_result().expect_err("500 is an error");
        assert_eq!(err.code(), Some(ErrorCode::Internal));
    }

    #[test]
    fn healthz_maps_status_to_result() {
        let addr = canned_server(&[
            "HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\":true}",
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
        ]);
        let client = Client::new(addr);
        client.healthz().expect("first probe healthy");
        let err = client.healthz().expect_err("second probe unhealthy");
        assert!(matches!(err, ClientError::Api { status: 503, .. }), "{err}");
    }

    #[test]
    fn stream_decodes_chunked_event_lines() {
        let addr = canned_server(&[
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
             3\r\na\nb\r\n2\r\nc\n\r\n0\r\n\r\n",
        ]);
        let mut lines = Vec::new();
        Client::new(addr)
            .stream("/v1/jobs/1/events", &mut |line| lines.push(line.to_owned()))
            .expect("stream completes");
        assert_eq!(lines, ["a", "bc"]);
    }

    #[test]
    fn stream_checked_drops_chunks_failing_their_crc() {
        // "a\n" framed with its true CRC, then "b\n" framed with the CRC
        // of "c\n" (a byte flipped in flight), then an unframed "d\n".
        let raw: &'static str = Box::leak(
            format!(
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                 2;crc={:08x}\r\na\n\r\n2;crc={:08x}\r\nb\n\r\n2\r\nd\n\r\n0\r\n\r\n",
                crc32(b"a\n"),
                crc32(b"c\n"),
            )
            .into_boxed_str(),
        );
        let addr = canned_server(Box::leak(Box::new([raw])));
        let (mut lines, mut dropped) = (Vec::new(), 0);
        Client::new(addr)
            .stream_checked("/v1/jobs/1/events", &mut dropped, &mut |line| {
                lines.push(line.to_owned());
            })
            .expect("stream completes");
        assert_eq!(lines, ["a", "d"]);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn stream_surfaces_plain_error_responses_as_api_errors() {
        let body = r#"{"error":{"code":"not_found","message":"no such job"}}"#;
        let raw: &'static str = Box::leak(
            format!(
                "HTTP/1.1 404 Not Found\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_boxed_str(),
        );
        let addr = canned_server(Box::leak(Box::new([raw])));
        let err = Client::new(addr)
            .stream("/v1/jobs/999/events", &mut |_| {})
            .expect_err("404 is not a stream");
        assert_eq!(err.code(), Some(ErrorCode::NotFound));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(100);
        assert_eq!(backoff_delay(base, 0), Duration::from_millis(100));
        assert_eq!(backoff_delay(base, 1), Duration::from_millis(200));
        assert_eq!(backoff_delay(base, 3), Duration::from_millis(800));
        assert_eq!(backoff_delay(base, 20), BACKOFF_CAP);
        // A shift past 31 saturates instead of wrapping back to short waits.
        assert_eq!(backoff_delay(base, 64), BACKOFF_CAP);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let addr: SocketAddr = "127.0.0.1:8677".parse().expect("addr");
        for attempt in 0..8 {
            let j = jitter(addr, attempt);
            assert_eq!(j, jitter(addr, attempt), "same inputs, same jitter");
            assert!(j < Duration::from_millis(16), "{j:?}");
        }
    }

    #[test]
    fn env_overrides_parse_milliseconds() {
        assert_eq!(env_ms("BARYON_CLIENT_TEST_UNSET_VAR"), None);
        // Builder overrides always win over defaults.
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let c = Client::new(addr)
            .connect_timeout(Duration::from_millis(7))
            .read_timeout(Duration::from_millis(9));
        assert_eq!(c.connect_timeout, Duration::from_millis(7));
        assert_eq!(c.read_timeout, Duration::from_millis(9));
    }
}
