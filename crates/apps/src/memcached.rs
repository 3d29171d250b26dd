//! Memcached and a memslap-style load generator.
//!
//! Paper Sec. 5.1, "Key-value store": "We opted for the open-source
//! Memcached key-value store as it also has an open-source benchmarking
//! tool libMemcached-memslap. We used the default Set/Get ratio of 90/10
//! for the measurements."
//!
//! memslap's defaults: 1 KB values, a fixed connection pool, one
//! outstanding operation per connection (closed loop).

use crate::traits::{App, AppCtx, ConnId};
use mts_sim::{Dur, FastHashMap, Time};
use std::net::Ipv4Addr;

/// Memcached port.
pub const MEMCACHED_PORT: u16 = 11211;
/// Bytes of a SET request: command line + 64 B key + 1 KB value + CRLFs.
pub const SET_REQUEST_BYTES: u64 = 1_130;
/// Bytes of a GET request.
pub const GET_REQUEST_BYTES: u64 = 72;
/// Bytes of a SET response ("STORED\r\n").
pub const SET_RESPONSE_BYTES: u64 = 8;
/// Bytes of a GET response (VALUE header + 1 KB value + END).
pub const GET_RESPONSE_BYTES: u64 = 1_062;
/// memslap's default Set fraction.
pub const SET_FRACTION: f64 = 0.9;
/// Connections per memslap instance (its default thread×connection pool).
pub const MEMSLAP_CONNECTIONS: u32 = 64;

/// Server-side CPU per operation (hash + slab access).
const OP_COST: Dur = Dur::micros(4);

/// The kind of key-value operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Store a value.
    Set,
    /// Fetch a value.
    Get,
}

impl OpKind {
    /// Request size on the wire.
    pub fn request_bytes(self) -> u64 {
        match self {
            OpKind::Set => SET_REQUEST_BYTES,
            OpKind::Get => GET_REQUEST_BYTES,
        }
    }

    /// Response size on the wire.
    pub fn response_bytes(self) -> u64 {
        match self {
            OpKind::Set => SET_RESPONSE_BYTES,
            OpKind::Get => GET_RESPONSE_BYTES,
        }
    }
}

/// A Memcached server.
///
/// Distinguishes SETs from GETs by request size: with one outstanding
/// operation per connection (memslap's behaviour) the framing is exact.
#[derive(Default)]
pub struct MemcachedServer {
    buffered: FastHashMap<ConnId, u64>,
    sets: u64,
    gets: u64,
}

impl MemcachedServer {
    /// Creates the server.
    pub fn new() -> Self {
        MemcachedServer::default()
    }

    /// Operations served: `(sets, gets)`.
    pub fn ops(&self) -> (u64, u64) {
        (self.sets, self.gets)
    }
}

impl App for MemcachedServer {
    fn on_start(&mut self, _now: Time, _ctx: &mut dyn AppCtx) {}

    fn on_connected(&mut self, conn: ConnId, _now: Time, _ctx: &mut dyn AppCtx) {
        self.buffered.insert(conn, 0);
    }

    fn on_data(&mut self, conn: ConnId, bytes: u64, _now: Time, ctx: &mut dyn AppCtx) {
        let buf = self.buffered.entry(conn).or_insert(0);
        *buf += bytes;
        // Drain complete requests (one outstanding per connection, but be
        // robust to batched arrivals).
        loop {
            if *buf >= SET_REQUEST_BYTES {
                *buf -= SET_REQUEST_BYTES;
                self.sets += 1;
                ctx.consume_cpu(OP_COST);
                ctx.send(conn, SET_RESPONSE_BYTES);
                ctx.count("memcached_sets", 1);
            } else if *buf >= GET_REQUEST_BYTES && *buf < SET_REQUEST_BYTES {
                // A lone GET; anything between GET and SET sizes that is
                // not exactly a GET would be a partial SET — wait for it.
                if *buf == GET_REQUEST_BYTES {
                    *buf = 0;
                    self.gets += 1;
                    ctx.consume_cpu(OP_COST);
                    ctx.send(conn, GET_RESPONSE_BYTES);
                    ctx.count("memcached_gets", 1);
                } else {
                    break;
                }
            } else {
                break;
            }
        }
    }

    fn on_closed(&mut self, conn: ConnId, _now: Time, _ctx: &mut dyn AppCtx) {
        self.buffered.remove(&conn);
    }
}

/// One connection's outstanding operation.
struct Outstanding {
    kind: OpKind,
    started: Time,
    received: u64,
}

/// A memslap-style closed-loop key-value client.
pub struct MemslapClient {
    server: Ipv4Addr,
    connections: u32,
    outstanding: FastHashMap<ConnId, Option<Outstanding>>,
    completed: u64,
}

impl MemslapClient {
    /// Creates a client with the default connection pool.
    pub fn new(server: Ipv4Addr) -> Self {
        Self::with_connections(server, MEMSLAP_CONNECTIONS)
    }

    /// Creates a client with a custom pool size.
    pub fn with_connections(server: Ipv4Addr, connections: u32) -> Self {
        MemslapClient {
            server,
            connections,
            outstanding: FastHashMap::default(),
            completed: 0,
        }
    }

    /// Completed operations.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn issue(&mut self, conn: ConnId, now: Time, ctx: &mut dyn AppCtx) {
        let kind = if ctx.random() < SET_FRACTION {
            OpKind::Set
        } else {
            OpKind::Get
        };
        ctx.send(conn, kind.request_bytes());
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

impl App for MemslapClient {
    fn on_start(&mut self, _now: Time, ctx: &mut dyn AppCtx) {
        for _ in 0..self.connections {
            let conn = ctx.connect(self.server, MEMCACHED_PORT);
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
            Some(Some(op)) => {
                op.received += bytes;
                op.received >= op.kind.response_bytes()
            }
            _ => false,
        };
        if finished {
            let op = self
                .outstanding
                .insert(conn, None)
                .flatten()
                // lint:allow(no-unwrap): `finished` is only true when the op exists
                .expect("checked above");
            self.completed += 1;
            ctx.record_latency((now - op.started).as_nanos());
            ctx.count("memcached_ops_done", 1);
            // Closed loop: issue the next operation on the same connection.
            self.issue(conn, now, ctx);
        }
    }

    fn on_closed(&mut self, conn: ConnId, now: Time, ctx: &mut dyn AppCtx) {
        // Memcached connections are long-lived; reopen if one dies.
        if self.outstanding.remove(&conn).is_some() {
            let newc = ctx.connect(self.server, MEMCACHED_PORT);
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
    fn server_frames_sets_and_gets_by_size() {
        let mut ctx = RecordingCtx::new();
        let mut s = MemcachedServer::new();
        s.on_connected(ConnId(1), Time::ZERO, &mut ctx);
        // A SET arriving in two chunks.
        s.on_data(ConnId(1), 1_000, Time::ZERO, &mut ctx);
        assert_eq!(s.ops(), (0, 0));
        s.on_data(ConnId(1), SET_REQUEST_BYTES - 1_000, Time::ZERO, &mut ctx);
        assert_eq!(s.ops(), (1, 0));
        assert_eq!(ctx.sent[&ConnId(1)], SET_RESPONSE_BYTES);
        // A lone GET.
        s.on_data(ConnId(1), GET_REQUEST_BYTES, Time::ZERO, &mut ctx);
        assert_eq!(s.ops(), (1, 1));
        assert_eq!(
            ctx.sent[&ConnId(1)],
            SET_RESPONSE_BYTES + GET_RESPONSE_BYTES
        );
    }

    #[test]
    fn client_opens_pool_and_issues() {
        let mut ctx = RecordingCtx::new();
        let mut c = MemslapClient::with_connections(Ipv4Addr::new(10, 0, 1, 1), 8);
        c.on_start(Time::ZERO, &mut ctx);
        assert_eq!(ctx.connects.len(), 8);
        let conn = ConnId(1001);
        c.on_connected(conn, Time::ZERO, &mut ctx);
        let sent = ctx.sent[&conn];
        assert!(sent == SET_REQUEST_BYTES || sent == GET_REQUEST_BYTES);
    }

    #[test]
    fn closed_loop_reissues_and_measures() {
        let mut ctx = RecordingCtx::new();
        let mut c = MemslapClient::with_connections(Ipv4Addr::new(10, 0, 1, 1), 1);
        c.on_start(Time::ZERO, &mut ctx);
        let conn = ConnId(1001);
        c.on_connected(conn, Time::ZERO, &mut ctx);
        let first_sent = ctx.sent[&conn];
        let resp = if first_sent == SET_REQUEST_BYTES {
            SET_RESPONSE_BYTES
        } else {
            GET_RESPONSE_BYTES
        };
        c.on_data(conn, resp, Time::from_nanos(777), &mut ctx);
        assert_eq!(c.completed(), 1);
        assert_eq!(ctx.latencies, vec![777]);
        // A new request went out on the same connection.
        assert!(ctx.sent[&conn] > first_sent);
    }

    #[test]
    fn mix_is_roughly_ninety_ten() {
        let mut ctx = RecordingCtx::new();
        let mut c = MemslapClient::with_connections(Ipv4Addr::new(10, 0, 1, 1), 1);
        c.on_start(Time::ZERO, &mut ctx);
        let conn = ConnId(1001);
        c.on_connected(conn, Time::ZERO, &mut ctx);
        let mut sets = 0;
        let mut gets = 0;
        let mut last_total = 0u64;
        for i in 0..1000u64 {
            let sent_now = ctx.sent[&conn] - last_total;
            last_total = ctx.sent[&conn];
            let resp = if sent_now == SET_REQUEST_BYTES {
                sets += 1;
                SET_RESPONSE_BYTES
            } else {
                gets += 1;
                GET_RESPONSE_BYTES
            };
            c.on_data(conn, resp, Time::from_nanos(i), &mut ctx);
        }
        let set_frac = f64::from(sets) / f64::from(sets + gets);
        assert!((0.85..=0.95).contains(&set_frac), "set fraction {set_frac}");
    }

    #[test]
    fn dead_connection_is_replaced() {
        let mut ctx = RecordingCtx::new();
        let mut c = MemslapClient::with_connections(Ipv4Addr::new(10, 0, 1, 1), 1);
        c.on_start(Time::ZERO, &mut ctx);
        c.on_closed(ConnId(1001), Time::ZERO, &mut ctx);
        assert_eq!(ctx.connects.len(), 2);
    }
}
