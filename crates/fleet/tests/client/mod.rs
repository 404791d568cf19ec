//! Chaos-harness support: a minimal blocking HTTP/JSONL client for the
//! fleet server, with a retrying wrapper.
//!
//! The server sheds load under pressure (`503` with a `retry_after_ms`
//! hint) and cuts off stalled sockets (`408`) — a client that treats
//! either as fatal turns graceful degradation back into hard failure.
//! [`RetryClient`] closes the loop: exponential backoff with
//! *decorrelated jitter* (each sleep is drawn uniformly from
//! `[base, 3 × previous]`, clamped to a cap — spreading retries out so a
//! shed herd does not re-arrive in lockstep), with the server's
//! `retry_after_ms` hint respected as a floor. The jitter stream is
//! seeded, so a harness replay issues byte-identical schedules.

use otem_fleet::protocol::json_uint;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed HTTP response: status line plus the JSONL body split into
/// lines (close-delimited, as the server writes it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (`200`, `503`, ...).
    pub status: u16,
    /// Body lines, in arrival order, without trailing newlines.
    pub lines: Vec<String>,
}

impl Response {
    /// The `retry_after_ms` hint from a shed (`503`) body, if present.
    pub fn retry_after_ms(&self) -> Option<u64> {
        self.lines
            .first()
            .and_then(|l| json_uint(l, "retry_after_ms").ok().flatten())
    }
}

/// Issues one request and reads the response to EOF (the server closes
/// the connection after each response).
///
/// # Errors
///
/// Connect/read/write failures, or a response head that is not HTTP.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    request_with_timeout(addr, method, path, body, None)
}

/// [`request`] with an optional socket read/write timeout — the chaos
/// harness bounds every probe so a wedged server fails a test instead
/// of hanging it.
///
/// # Errors
///
/// Connect/read/write failures, or a response head that is not HTTP.
pub fn request_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Option<Duration>,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: fleet\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    reader.read_line(&mut head)?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("not an HTTP status line: {head:?}"),
            )
        })?;
    // Skip response headers up to the blank line, then collect the body.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
    }
    let mut lines = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if !trimmed.is_empty() {
            lines.push(trimmed.to_string());
        }
    }
    Ok(Response { status, lines })
}

/// Backoff schedule for [`RetryClient`]: decorrelated jitter over a
/// seeded `splitmix64` stream, so two clients with different seeds
/// desynchronise and one client replays identically.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// First (and minimum) sleep, milliseconds.
    pub base_ms: u64,
    /// Sleep ceiling, milliseconds.
    pub cap_ms: u64,
    /// Total attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Jitter stream seed.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base_ms: 10,
            cap_ms: 1_000,
            max_attempts: 8,
            seed: 0x5eed_f1ee,
        }
    }
}

/// One step of the `splitmix64` stream: the backoff jitter, and the
/// seeded payload order of the chaos sweep.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A client that retries transient failures: connect/IO errors, `503`
/// (shed) and `408` (timeout) responses. Other statuses — including
/// `4xx` client errors — are returned as-is; retrying a malformed
/// request would never succeed.
#[derive(Debug)]
pub struct RetryClient {
    addr: SocketAddr,
    policy: BackoffPolicy,
    rng: u64,
    prev_sleep_ms: u64,
    /// Attempts spent by the last [`RetryClient::send`] call.
    pub last_attempts: u32,
}

impl RetryClient {
    /// A client for `addr` with the given policy.
    pub fn new(addr: SocketAddr, policy: BackoffPolicy) -> Self {
        Self {
            addr,
            policy,
            rng: policy.seed,
            prev_sleep_ms: policy.base_ms,
            last_attempts: 0,
        }
    }

    /// Next sleep: uniform in `[base, 3 × previous]`, clamped to the
    /// cap, with the server's `retry_after_ms` hint (if any) as a floor.
    fn next_sleep(&mut self, hint_ms: Option<u64>) -> Duration {
        let base = self.policy.base_ms.max(1);
        let upper = (self.prev_sleep_ms.saturating_mul(3)).max(base + 1);
        let span = upper - base;
        let drawn = base + splitmix64(&mut self.rng) % span;
        let clamped = drawn.min(self.policy.cap_ms).max(hint_ms.unwrap_or(0));
        self.prev_sleep_ms = clamped.max(base);
        Duration::from_millis(clamped)
    }

    /// Sends the request, retrying per the policy.
    ///
    /// # Errors
    ///
    /// The last transport error once attempts are exhausted; a final
    /// `503`/`408` surfaces as the [`Response`] itself (an `Ok`), so
    /// callers can distinguish "server kept shedding" from "server
    /// unreachable".
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let attempts = self.policy.max_attempts.max(1);
        self.last_attempts = 0;
        let mut last: Option<io::Result<Response>> = None;
        for attempt in 0..attempts {
            self.last_attempts = attempt + 1;
            let outcome = request_with_timeout(
                self.addr,
                method,
                path,
                body,
                Some(Duration::from_millis(self.policy.cap_ms.max(1_000) * 10)),
            );
            let hint = match &outcome {
                Ok(resp) if resp.status != 503 && resp.status != 408 => return outcome,
                Ok(resp) => resp.retry_after_ms(),
                Err(_) => None,
            };
            last = Some(outcome);
            if attempt + 1 < attempts {
                std::thread::sleep(self.next_sleep(hint));
            }
        }
        last.expect("at least one attempt ran")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let policy = BackoffPolicy {
            base_ms: 10,
            cap_ms: 200,
            max_attempts: 4,
            seed: 99,
        };
        let mut a = RetryClient::new(addr, policy);
        let mut b = RetryClient::new(addr, policy);
        for _ in 0..16 {
            let (da, db) = (a.next_sleep(None), b.next_sleep(None));
            assert_eq!(da, db, "same seed, same schedule");
            assert!(da >= Duration::from_millis(policy.base_ms));
            assert!(da <= Duration::from_millis(policy.cap_ms));
        }
    }

    #[test]
    fn retry_after_hint_is_a_floor() {
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let mut c = RetryClient::new(addr, BackoffPolicy::default());
        let sleep = c.next_sleep(Some(400));
        assert!(sleep >= Duration::from_millis(400));
    }

    #[test]
    fn shed_response_exposes_the_hint() {
        let resp = Response {
            status: 503,
            lines: vec!["{\"error\":\"overloaded\",\"retry_after_ms\":100}".into()],
        };
        assert_eq!(resp.retry_after_ms(), Some(100));
    }
}
