//! A hand-rolled HTTP/1.1 server core for the simulation daemon.
//!
//! The workspace builds fully offline, so the service layer gets the
//! same treatment as the JSON, VCD, and trace writers: a small,
//! dependency-free implementation of exactly the subset we serve.
//! [`read_request`] parses one request (request line, headers, and a
//! `Content-Length`-delimited body) off any [`Read`]; [`Response`]
//! renders one `Content-Length`-framed response whose `Connection`
//! header the caller picks at write time. Connections are persistent
//! by HTTP/1.1 default — scrapers poll `/metrics` every few seconds
//! and batch submitters page job results, so reusing the connection
//! skips a TCP handshake per request — and the explicit
//! `Content-Length` framing makes responses self-delimiting, so
//! keep-alive needs no chunked encoding.
//!
//! Hard limits make the parser safe on untrusted sockets: the request
//! head (request line + headers) is capped at [`MAX_HEAD_BYTES`], the
//! body at a caller-chosen ceiling, and both reject early with a typed
//! [`HttpError`] that maps onto a 4xx status. Socket timeouts surface
//! as their own variants so the connection loop can tell an idle peer
//! (reap silently) from a slowloris mid-head stall (answer 408).

use std::io::{self, Read, Write};

use crate::telemetry::json::Json;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The request/response trace-correlation header: clients may send one
/// to stamp their own id on a request; the daemon echoes it (or a
/// generated id) on every response and in its request log and trace
/// stream.
pub const TRACE_ID_HEADER: &str = "x-uds-trace-id";

/// Maximum characters of an inbound trace id kept after sanitization.
pub const TRACE_ID_MAX_LEN: usize = 64;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path plus any query string).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this
    /// one: HTTP/1.1 defaults to keep-alive unless the client sent
    /// `Connection: close`; HTTP/1.0 requires an explicit
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The inbound [`TRACE_ID_HEADER`], sanitized for safe echoing:
    /// only `[A-Za-z0-9._-]` survives (anything else drops), capped at
    /// [`TRACE_ID_MAX_LEN`] characters. `None` when the header is
    /// absent or nothing survives — the server then mints its own id.
    pub fn trace_id(&self) -> Option<String> {
        let raw = self.header(TRACE_ID_HEADER)?;
        let id: String = raw
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
            .take(TRACE_ID_MAX_LEN)
            .collect();
        (!id.is_empty()).then_some(id)
    }
}

/// Why a request could not be read. Each variant maps onto the 4xx
/// status the server should answer with.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing.
    Bad(String),
    /// Request head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Declared body length exceeded the server's ceiling.
    BodyTooLarge { declared: u64, limit: u64 },
    /// A body-bearing method arrived without `Content-Length`.
    LengthRequired,
    /// The peer closed the connection cleanly before sending any
    /// byte of a request — the normal end of a keep-alive exchange,
    /// not a protocol violation. No response is owed.
    Closed,
    /// The socket read timed out. `mid_request` distinguishes a
    /// slowloris-style stall (bytes arrived, then silence — answer
    /// 408) from a connection that simply sat idle between requests
    /// (reap silently).
    TimedOut {
        /// Whether any bytes of the request had arrived.
        mid_request: bool,
    },
    /// The socket failed or closed mid-request.
    Io(io::Error),
}

impl HttpError {
    /// The HTTP status this error answers with. [`HttpError::Closed`]
    /// and an idle [`HttpError::TimedOut`] owe no response at all —
    /// the connection loop checks [`HttpError::deserves_response`]
    /// first.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Bad(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::LengthRequired => 411,
            HttpError::Closed => 400,
            HttpError::TimedOut { .. } => 408,
            HttpError::Io(_) => 400,
        }
    }

    /// Whether the peer should be sent an error response before the
    /// connection closes. A clean close or an idle timeout means the
    /// peer walked away — writing to it is wasted (or impossible).
    pub fn deserves_response(&self) -> bool {
        !matches!(
            self,
            HttpError::Closed | HttpError::TimedOut { mid_request: false } | HttpError::Io(_)
        )
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Bad(what) => write!(f, "bad request: {what}"),
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::LengthRequired => write!(f, "Content-Length required"),
            HttpError::Closed => write!(f, "connection closed between requests"),
            HttpError::TimedOut { mid_request: true } => write!(f, "read timed out mid-request"),
            HttpError::TimedOut { mid_request: false } => write!(f, "connection idled out"),
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads the request head byte-by-byte until the blank line. One-byte
/// reads are fine here: callers hand in a buffered stream, and the head
/// is at most [`MAX_HEAD_BYTES`]. A clean close or a timeout before
/// the first byte is the peer idling out, not a malformed request.
fn read_head(stream: &mut impl Read) -> Result<String, HttpError> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    loop {
        let n = match stream.read(&mut byte) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                return Err(HttpError::TimedOut {
                    mid_request: !head.is_empty(),
                })
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            if head.is_empty() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::Bad("connection closed mid-head".to_owned()));
        }
        head.push(byte[0]);
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
    }
    String::from_utf8(head).map_err(|_| HttpError::Bad("head is not UTF-8".to_owned()))
}

/// Reads one HTTP/1.x request from `stream`. Bodies are accepted only
/// with `Content-Length` (no chunked encoding) and only up to
/// `max_body` bytes.
///
/// # Errors
///
/// Any framing violation, over-limit head or body, or socket failure.
pub fn read_request(stream: &mut impl Read, max_body: u64) -> Result<Request, HttpError> {
    let head = read_head(stream)?;
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Bad("empty request".to_owned()))?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(HttpError::Bad(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported version `{version}`")));
    }

    let mut headers = Vec::new();
    for line in lines.take_while(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Bad(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut request = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body: Vec::new(),
        keep_alive: false,
    };
    request.keep_alive = match request.header("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => version != "HTTP/1.0", // 1.1+ is persistent by default
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Bad(
            "chunked bodies are not supported".to_owned(),
        ));
    }
    let declared = match request.header("content-length") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| HttpError::Bad(format!("bad Content-Length `{v}`")))?,
        None if request.method == "POST" || request.method == "PUT" => {
            return Err(HttpError::LengthRequired)
        }
        None => 0,
    };
    if declared > max_body {
        return Err(HttpError::BodyTooLarge {
            declared,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; declared as usize];
    stream.read_exact(&mut body).map_err(|e| {
        if matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            HttpError::TimedOut { mid_request: true }
        } else {
            HttpError::Io(e)
        }
    })?;
    Ok(Request { body, ..request })
}

/// One response, rendered with explicit `Content-Length` framing and
/// the `Connection` disposition the caller picks at write time.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers beyond the framing set (`Retry-After`,
    /// `Location`, …), in write order.
    pub extra_headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response: `document`, rendered, and a
    /// newline.
    pub fn json(status: u16, document: Json) -> Response {
        let mut body = document.render();
        body.push('\n');
        Response {
            content_type: "application/json",
            ..Response::text(status, body)
        }
    }

    /// Adds one extra header (builder style). The value must already
    /// be a legal header value — no folding or escaping happens here.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Writes the response (status line, headers, body) to `stream`,
    /// announcing `Connection: keep-alive` or `close` per the caller's
    /// decision — the caller, not the response, knows whether the
    /// connection loop will read another request.
    ///
    /// # Errors
    ///
    /// Socket write failures pass through.
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.extra_headers {
            write!(stream, "{name}: {value}\r\n")?;
        }
        stream.write_all(b"\r\n")?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// The canonical reason phrase for the status codes the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()), 1024)
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_content_length() {
        let req = parse("POST /simulate HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn trace_ids_sanitize_and_cap() {
        let req = parse("GET / HTTP/1.1\r\nX-Uds-Trace-Id: load-42.b\r\n\r\n").unwrap();
        assert_eq!(req.trace_id().as_deref(), Some("load-42.b"));
        // Hostile characters drop; what remains is still usable.
        let req = parse("GET / HTTP/1.1\r\nx-uds-trace-id: a\"b{c}d\r\n\r\n").unwrap();
        assert_eq!(req.trace_id().as_deref(), Some("abcd"));
        // Nothing left after sanitizing → no id at all.
        let req = parse("GET / HTTP/1.1\r\nx-uds-trace-id: \"{}\"\r\n\r\n").unwrap();
        assert_eq!(req.trace_id(), None);
        let req = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.trace_id(), None);
        // Over-long ids truncate to the cap.
        let raw = format!(
            "GET / HTTP/1.1\r\nx-uds-trace-id: {}\r\n\r\n",
            "x".repeat(200)
        );
        assert_eq!(
            parse(&raw).unwrap().trace_id().unwrap().len(),
            TRACE_ID_MAX_LEN
        );
    }

    #[test]
    fn post_without_length_is_411() {
        let err = parse("POST /simulate HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 411);
    }

    #[test]
    fn oversized_body_is_413_before_reading_it() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_head_is_431() {
        let raw = format!(
            "GET /x HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        let err = read_request(&mut Cursor::new(raw.into_bytes()), 1024).unwrap_err();
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?}");
        }
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let req = parse("GET /metrics HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/metrics");
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_header() {
        let cases = [
            ("GET / HTTP/1.1\r\n\r\n", true),
            ("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n", true),
            ("GET / HTTP/1.0\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, expected) in cases {
            assert_eq!(parse(raw).unwrap().keep_alive, expected, "{raw:?}");
        }
    }

    #[test]
    fn clean_eof_before_any_byte_is_closed_not_bad() {
        let err = parse("").unwrap_err();
        assert!(matches!(err, HttpError::Closed), "{err:?}");
        assert!(!err.deserves_response());
        // But EOF after a partial head is a protocol violation.
        let err = parse("GET / HT").unwrap_err();
        assert!(matches!(err, HttpError::Bad(_)), "{err:?}");
        assert!(err.deserves_response());
    }

    #[test]
    fn timeouts_split_idle_from_slowloris() {
        struct TimesOut(Vec<u8>);
        impl Read for TimesOut {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Err(io::Error::from(io::ErrorKind::WouldBlock));
                }
                buf[0] = self.0.remove(0);
                Ok(1)
            }
        }
        let idle = read_request(&mut TimesOut(Vec::new()), 1024).unwrap_err();
        assert!(
            matches!(idle, HttpError::TimedOut { mid_request: false }),
            "{idle:?}"
        );
        assert!(!idle.deserves_response(), "idle peers are reaped silently");
        let stalled = read_request(&mut TimesOut(b"GET / H".to_vec()), 1024).unwrap_err();
        assert!(
            matches!(stalled, HttpError::TimedOut { mid_request: true }),
            "{stalled:?}"
        );
        assert_eq!(stalled.status(), 408);
        assert!(stalled.deserves_response());
    }

    #[test]
    fn response_renders_status_line_headers_and_body() {
        let mut out = Vec::new();
        Response::json(200, Json::Obj(Vec::new()))
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }

    #[test]
    fn response_can_keep_alive_and_carry_extra_headers() {
        let mut out = Vec::new();
        Response::text(429, "busy")
            .with_header("Retry-After", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\nbusy"));
    }
}
