//! A DNS-style request/response server and a dnsperf-style resolver client.
//!
//! ROADMAP item 5's richer traffic mix: small queries, small-but-larger
//! responses, high transaction rate — the opposite corner of the workload
//! space from memcached's fat SETs. Carried over TCP (RFC 7766 style) so
//! the testbed's connection machinery applies; queries are size-framed the
//! same way memslap operations are: with one outstanding query per
//! connection the framing is exact.
//!
//! The fuzz harness (`mts-fuzz` live mode) uses this app as background
//! workload while injecting hostile frames: a request/response protocol
//! with tight framing notices datapath corruption that a bulk stream
//! would absorb silently.

use crate::traits::{App, AppCtx, ConnId};
use mts_sim::{Dur, FastHashMap, Time};
use std::net::Ipv4Addr;

/// DNS-over-TCP port.
pub const DNS_PORT: u16 = 53;
/// Bytes of an A query: 2 B length prefix + 12 B header + ~24 B qname + 4 B.
pub const A_QUERY_BYTES: u64 = 42;
/// Bytes of a PTR query (in-addr.arpa qnames are longer).
pub const PTR_QUERY_BYTES: u64 = 58;
/// Bytes of an A response (question echo + one A record).
pub const A_RESPONSE_BYTES: u64 = 58;
/// Bytes of a PTR response (question echo + one PTR record).
pub const PTR_RESPONSE_BYTES: u64 = 90;
/// Fraction of queries that are A lookups (the rest are PTR).
pub const A_FRACTION: f64 = 0.8;
/// Fraction of lookups missing the server's cache (recursive resolution).
pub const MISS_FRACTION: f64 = 0.1;
/// Connections per resolver client.
pub const DNS_CONNECTIONS: u32 = 32;

/// Server-side CPU for a cache hit (parse + hash + encode).
const HIT_COST: Dur = Dur::micros(2);
/// Extra CPU for a cache miss (upstream resolution, modeled as local work).
const MISS_COST: Dur = Dur::micros(12);

/// The kind of DNS query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    /// Forward lookup (name → address).
    A,
    /// Reverse lookup (address → name).
    Ptr,
}

impl QueryKind {
    /// Query size on the wire.
    pub fn query_bytes(self) -> u64 {
        match self {
            QueryKind::A => A_QUERY_BYTES,
            QueryKind::Ptr => PTR_QUERY_BYTES,
        }
    }

    /// Response size on the wire.
    pub fn response_bytes(self) -> u64 {
        match self {
            QueryKind::A => A_RESPONSE_BYTES,
            QueryKind::Ptr => PTR_RESPONSE_BYTES,
        }
    }
}

/// A DNS-style server: answers size-framed queries, charging more CPU for
/// the fraction that miss its cache.
#[derive(Default)]
pub struct DnsServer {
    buffered: FastHashMap<ConnId, u64>,
    a_queries: u64,
    ptr_queries: u64,
    misses: u64,
}

impl DnsServer {
    /// Creates the server.
    pub fn new() -> Self {
        DnsServer::default()
    }

    /// Queries served: `(a, ptr)`.
    pub fn queries(&self) -> (u64, u64) {
        (self.a_queries, self.ptr_queries)
    }

    /// Cache misses resolved.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn answer(&mut self, kind: QueryKind, conn: ConnId, ctx: &mut dyn AppCtx) {
        let mut cost = HIT_COST;
        if ctx.random() < MISS_FRACTION {
            self.misses += 1;
            cost += MISS_COST;
            ctx.count("dns_misses", 1);
        }
        ctx.consume_cpu(cost);
        ctx.send(conn, kind.response_bytes());
        match kind {
            QueryKind::A => {
                self.a_queries += 1;
                ctx.count("dns_a_queries", 1);
            }
            QueryKind::Ptr => {
                self.ptr_queries += 1;
                ctx.count("dns_ptr_queries", 1);
            }
        }
    }
}

impl App for DnsServer {
    fn on_start(&mut self, _now: Time, _ctx: &mut dyn AppCtx) {}

    fn on_connected(&mut self, conn: ConnId, _now: Time, _ctx: &mut dyn AppCtx) {
        self.buffered.insert(conn, 0);
    }

    fn on_data(&mut self, conn: ConnId, bytes: u64, _now: Time, ctx: &mut dyn AppCtx) {
        let mut buf = match self.buffered.get(&conn) {
            Some(b) => *b + bytes,
            None => bytes,
        };
        // Drain complete queries; one outstanding per connection, but be
        // robust to batched arrivals.
        loop {
            if buf >= PTR_QUERY_BYTES {
                buf -= PTR_QUERY_BYTES;
                self.answer(QueryKind::Ptr, conn, ctx);
            } else if buf == A_QUERY_BYTES {
                // Anything strictly between A and PTR sizes is a partial
                // PTR — wait for the rest.
                buf = 0;
                self.answer(QueryKind::A, conn, ctx);
            } else {
                break;
            }
        }
        self.buffered.insert(conn, buf);
    }

    fn on_closed(&mut self, conn: ConnId, _now: Time, _ctx: &mut dyn AppCtx) {
        self.buffered.remove(&conn);
    }
}

/// One connection's outstanding query.
struct Outstanding {
    kind: QueryKind,
    started: Time,
    received: u64,
}

/// A dnsperf-style closed-loop resolver client.
pub struct DnsClient {
    server: Ipv4Addr,
    connections: u32,
    outstanding: FastHashMap<ConnId, Option<Outstanding>>,
    completed: u64,
}

impl DnsClient {
    /// Creates a client with the default connection pool.
    pub fn new(server: Ipv4Addr) -> Self {
        Self::with_connections(server, DNS_CONNECTIONS)
    }

    /// Creates a client with a custom pool size.
    pub fn with_connections(server: Ipv4Addr, connections: u32) -> Self {
        DnsClient {
            server,
            connections,
            outstanding: FastHashMap::default(),
            completed: 0,
        }
    }

    /// Completed queries.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn issue(&mut self, conn: ConnId, now: Time, ctx: &mut dyn AppCtx) {
        let kind = if ctx.random() < A_FRACTION {
            QueryKind::A
        } else {
            QueryKind::Ptr
        };
        ctx.send(conn, kind.query_bytes());
        self.outstanding.insert(
            conn,
            Some(Outstanding {
                kind,
                started: now,
                received: 0,
            }),
        );
    }
}

impl App for DnsClient {
    fn on_start(&mut self, _now: Time, ctx: &mut dyn AppCtx) {
        for _ in 0..self.connections {
            let conn = ctx.connect(self.server, DNS_PORT);
            self.outstanding.insert(conn, None);
        }
    }

    fn on_connected(&mut self, conn: ConnId, now: Time, ctx: &mut dyn AppCtx) {
        if self.outstanding.contains_key(&conn) {
            self.issue(conn, now, ctx);
        }
    }

    fn on_data(&mut self, conn: ConnId, bytes: u64, now: Time, ctx: &mut dyn AppCtx) {
        let finished = match self.outstanding.get_mut(&conn) {
            Some(Some(q)) => {
                q.received += bytes;
                q.received >= q.kind.response_bytes()
            }
            _ => false,
        };
        if finished {
            let q = match self.outstanding.insert(conn, None).flatten() {
                Some(q) => q,
                None => return, // unreachable: `finished` implies presence
            };
            self.completed += 1;
            ctx.record_latency((now - q.started).as_nanos());
            ctx.count("dns_queries_done", 1);
            // Closed loop: next query on the same connection.
            self.issue(conn, now, ctx);
        }
    }

    fn on_closed(&mut self, conn: ConnId, now: Time, ctx: &mut dyn AppCtx) {
        // Reopen a died connection to keep the pool full.
        if self.outstanding.remove(&conn).is_some() {
            let newc = ctx.connect(self.server, DNS_PORT);
            self.outstanding.insert(newc, None);
            let _ = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_ctx::RecordingCtx;

    #[test]
    fn server_frames_queries_by_size() {
        let mut ctx = RecordingCtx::new();
        let mut s = DnsServer::new();
        s.on_connected(ConnId(1), Time::ZERO, &mut ctx);
        // An A query arriving in two chunks.
        s.on_data(ConnId(1), 20, Time::ZERO, &mut ctx);
        assert_eq!(s.queries(), (0, 0));
        s.on_data(ConnId(1), A_QUERY_BYTES - 20, Time::ZERO, &mut ctx);
        assert_eq!(s.queries(), (1, 0));
        assert_eq!(ctx.sent[&ConnId(1)], A_RESPONSE_BYTES);
        // A PTR query.
        s.on_data(ConnId(1), PTR_QUERY_BYTES, Time::ZERO, &mut ctx);
        assert_eq!(s.queries(), (1, 1));
        assert_eq!(ctx.sent[&ConnId(1)], A_RESPONSE_BYTES + PTR_RESPONSE_BYTES);
        // A partial PTR (between the two sizes) waits.
        s.on_data(ConnId(1), A_QUERY_BYTES + 1, Time::ZERO, &mut ctx);
        assert_eq!(s.queries(), (1, 1));
    }

    #[test]
    fn server_charges_extra_for_misses() {
        let mut ctx = RecordingCtx::new();
        let mut s = DnsServer::new();
        s.on_connected(ConnId(1), Time::ZERO, &mut ctx);
        for _ in 0..200 {
            s.on_data(ConnId(1), A_QUERY_BYTES, Time::ZERO, &mut ctx);
        }
        assert_eq!(s.queries().0, 200);
        assert!(s.misses() > 0, "some queries miss the cache");
        assert!(s.misses() < 100, "most queries hit");
        assert_eq!(ctx.counter("dns_misses"), s.misses());
    }

    #[test]
    fn client_opens_pool_and_issues() {
        let mut ctx = RecordingCtx::new();
        let mut c = DnsClient::with_connections(Ipv4Addr::new(10, 0, 1, 1), 8);
        c.on_start(Time::ZERO, &mut ctx);
        assert_eq!(ctx.connects.len(), 8);
        assert!(ctx.connects.iter().all(|(_, p)| *p == DNS_PORT));
        let conn = ConnId(1001);
        c.on_connected(conn, Time::ZERO, &mut ctx);
        let sent = ctx.sent[&conn];
        assert!(sent == A_QUERY_BYTES || sent == PTR_QUERY_BYTES);
    }

    #[test]
    fn closed_loop_reissues_and_measures() {
        let mut ctx = RecordingCtx::new();
        let mut c = DnsClient::with_connections(Ipv4Addr::new(10, 0, 1, 1), 1);
        c.on_start(Time::ZERO, &mut ctx);
        let conn = ConnId(1001);
        c.on_connected(conn, Time::ZERO, &mut ctx);
        let first_sent = ctx.sent[&conn];
        let resp = if first_sent == A_QUERY_BYTES {
            A_RESPONSE_BYTES
        } else {
            PTR_RESPONSE_BYTES
        };
        c.on_data(conn, resp, Time::from_nanos(555), &mut ctx);
        assert_eq!(c.completed(), 1);
        assert_eq!(ctx.latencies, vec![555]);
        assert!(ctx.sent[&conn] > first_sent);
    }

    #[test]
    fn mix_is_roughly_eighty_twenty() {
        let mut ctx = RecordingCtx::new();
        let mut c = DnsClient::with_connections(Ipv4Addr::new(10, 0, 1, 1), 1);
        c.on_start(Time::ZERO, &mut ctx);
        let conn = ConnId(1001);
        c.on_connected(conn, Time::ZERO, &mut ctx);
        let mut a = 0u32;
        let mut ptr = 0u32;
        let mut last_total = 0u64;
        for i in 0..1000u64 {
            let sent_now = ctx.sent[&conn] - last_total;
            last_total = ctx.sent[&conn];
            let resp = if sent_now == A_QUERY_BYTES {
                a += 1;
                A_RESPONSE_BYTES
            } else {
                ptr += 1;
                PTR_RESPONSE_BYTES
            };
            c.on_data(conn, resp, Time::from_nanos(i), &mut ctx);
        }
        let a_frac = f64::from(a) / f64::from(a + ptr);
        assert!((0.75..=0.85).contains(&a_frac), "A fraction {a_frac}");
    }

    #[test]
    fn dead_connection_is_replaced() {
        let mut ctx = RecordingCtx::new();
        let mut c = DnsClient::with_connections(Ipv4Addr::new(10, 0, 1, 1), 1);
        c.on_start(Time::ZERO, &mut ctx);
        c.on_closed(ConnId(1001), Time::ZERO, &mut ctx);
        assert_eq!(ctx.connects.len(), 2);
    }
}
