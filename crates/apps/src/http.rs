//! Apache-style web serving and ApacheBench-style load generation.
//!
//! Paper Sec. 5.1, "Webserver": "Using the ApacheBench tool from the LG, we
//! benchmarked the respective tenant webservers by requesting a static
//! 11.3 KB web page from four clients (one for each webserver). Each client
//! made up to 1,000 concurrent connections for 100 s."
//!
//! ApacheBench's default is HTTP/1.0 without keep-alive: one request per
//! connection, then close, then the closed-loop client opens a fresh one.

use crate::traits::{App, AppCtx, ConnId};
use mts_sim::{Dur, FastHashMap, Time};
use std::net::Ipv4Addr;

/// HTTP port.
pub const HTTP_PORT: u16 = 80;
/// Bytes of a GET request for the benchmark page.
const REQUEST_BYTES: u64 = 120;
/// The static page: 11.3 KB, as in the paper.
const PAGE_BYTES: u64 = 11_571;
/// Response headers.
const RESPONSE_HEADER_BYTES: u64 = 250;
/// Total response size.
const RESPONSE_BYTES: u64 = PAGE_BYTES + RESPONSE_HEADER_BYTES;

/// Per-request CPU cost of the server (parse + sendfile syscall path).
const SERVICE_COST: Dur = Dur::micros(18);

/// A static-file web server (one page, HTTP/1.0 semantics).
#[derive(Default)]
pub struct HttpServer {
    pending: FastHashMap<ConnId, u64>,
    served: u64,
}

impl HttpServer {
    /// Creates the server.
    pub fn new() -> Self {
        HttpServer::default()
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl App for HttpServer {
    fn on_start(&mut self, _now: Time, _ctx: &mut dyn AppCtx) {}

    fn on_connected(&mut self, conn: ConnId, _now: Time, _ctx: &mut dyn AppCtx) {
        self.pending.insert(conn, 0);
    }

    fn on_data(&mut self, conn: ConnId, bytes: u64, _now: Time, ctx: &mut dyn AppCtx) {
        let got = self.pending.entry(conn).or_insert(0);
        *got += bytes;
        if *got >= REQUEST_BYTES {
            *got -= REQUEST_BYTES;
            self.served += 1;
            ctx.consume_cpu(SERVICE_COST);
            ctx.send(conn, RESPONSE_BYTES);
            ctx.count("http_responses", 1);
            // HTTP/1.0: close after the response is flushed.
            ctx.close(conn);
        }
    }

    fn on_closed(&mut self, conn: ConnId, _now: Time, _ctx: &mut dyn AppCtx) {
        self.pending.remove(&conn);
    }
}

/// State of one in-flight ApacheBench request.
struct InFlight {
    started: Time,
    received: u64,
}

/// A closed-loop concurrent HTTP client (ApacheBench).
pub struct AbClient {
    server: Ipv4Addr,
    concurrency: u32,
    inflight: FastHashMap<ConnId, InFlight>,
    completed: u64,
}

impl AbClient {
    /// Creates a client issuing to `server` with `concurrency` connections.
    pub fn new(server: Ipv4Addr, concurrency: u32) -> Self {
        AbClient {
            server,
            concurrency,
            inflight: FastHashMap::default(),
            completed: 0,
        }
    }

    /// Completed requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn open_one(&mut self, now: Time, ctx: &mut dyn AppCtx) {
        let conn = ctx.connect(self.server, HTTP_PORT);
        self.inflight.insert(
            conn,
            InFlight {
                started: now,
                received: 0,
            },
        );
    }
}

impl App for AbClient {
    fn on_start(&mut self, now: Time, ctx: &mut dyn AppCtx) {
        for _ in 0..self.concurrency {
            self.open_one(now, ctx);
        }
    }

    fn on_connected(&mut self, conn: ConnId, _now: Time, ctx: &mut dyn AppCtx) {
        if self.inflight.contains_key(&conn) {
            ctx.send(conn, REQUEST_BYTES);
        }
    }

    fn on_data(&mut self, conn: ConnId, bytes: u64, now: Time, ctx: &mut dyn AppCtx) {
        let done = match self.inflight.get_mut(&conn) {
            Some(st) => {
                st.received += bytes;
                st.received >= RESPONSE_BYTES
            }
            None => false,
        };
        if done {
            // lint:allow(no-unwrap): `done` is only true when the entry exists
            let st = self.inflight.remove(&conn).expect("checked above");
            self.completed += 1;
            ctx.record_latency((now - st.started).as_nanos());
            ctx.count("http_requests_done", 1);
            ctx.close(conn);
            // Closed loop: immediately replace the finished connection.
            self.open_one(now, ctx);
        }
    }

    fn on_closed(&mut self, conn: ConnId, now: Time, ctx: &mut dyn AppCtx) {
        // A close before the full response is an error; keep concurrency up.
        if self.inflight.remove(&conn).is_some() {
            ctx.count("http_errors", 1);
            self.open_one(now, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_ctx::RecordingCtx;

    #[test]
    fn server_answers_when_the_request_completes() {
        let mut ctx = RecordingCtx::new();
        let mut s = HttpServer::new();
        s.on_connected(ConnId(1), Time::ZERO, &mut ctx);
        // Request arrives in two chunks.
        s.on_data(ConnId(1), 60, Time::ZERO, &mut ctx);
        assert!(ctx.sent.is_empty());
        s.on_data(ConnId(1), 60, Time::ZERO, &mut ctx);
        assert_eq!(ctx.sent[&ConnId(1)], RESPONSE_BYTES);
        assert_eq!(ctx.closed, vec![ConnId(1)]);
        assert_eq!(s.served(), 1);
        assert!(ctx.cpu > Dur::ZERO);
    }

    #[test]
    fn ab_maintains_concurrency() {
        let mut ctx = RecordingCtx::new();
        let mut ab = AbClient::new(Ipv4Addr::new(10, 0, 1, 1), 100);
        ab.on_start(Time::ZERO, &mut ctx);
        assert_eq!(ctx.connects.len(), 100);
    }

    #[test]
    fn ab_measures_latency_and_replaces_connections() {
        let mut ctx = RecordingCtx::new();
        let mut ab = AbClient::new(Ipv4Addr::new(10, 0, 1, 1), 1);
        ab.on_start(Time::ZERO, &mut ctx);
        let conn = ConnId(1001);
        ab.on_connected(conn, Time::ZERO, &mut ctx);
        assert_eq!(ctx.sent[&conn], REQUEST_BYTES);
        ab.on_data(conn, RESPONSE_BYTES / 2, Time::from_nanos(500), &mut ctx);
        assert_eq!(ab.completed(), 0);
        ab.on_data(
            conn,
            RESPONSE_BYTES / 2 + 1,
            Time::from_nanos(1_000),
            &mut ctx,
        );
        assert_eq!(ab.completed(), 1);
        assert_eq!(ctx.latencies, vec![1_000]);
        // Connection replaced: two connects total.
        assert_eq!(ctx.connects.len(), 2);
        // The finished connection was closed.
        assert_eq!(ctx.closed, vec![conn]);
    }

    #[test]
    fn ab_counts_premature_close_as_error() {
        let mut ctx = RecordingCtx::new();
        let mut ab = AbClient::new(Ipv4Addr::new(10, 0, 1, 1), 1);
        ab.on_start(Time::ZERO, &mut ctx);
        let conn = ConnId(1001);
        ab.on_connected(conn, Time::ZERO, &mut ctx);
        ab.on_closed(conn, Time::from_nanos(5), &mut ctx);
        assert_eq!(ctx.counter("http_errors"), 1);
        assert_eq!(ctx.connects.len(), 2, "concurrency is restored");
        // A close after completion is not an error.
        let conn2 = ConnId(1002);
        ab.on_connected(conn2, Time::ZERO, &mut ctx);
        ab.on_data(conn2, RESPONSE_BYTES, Time::from_nanos(9), &mut ctx);
        ab.on_closed(conn2, Time::from_nanos(10), &mut ctx);
        assert_eq!(ctx.counter("http_errors"), 1);
    }
}
