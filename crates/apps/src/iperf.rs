//! iperf3-style bulk TCP throughput (paper Sec. 5.1, "Iperf").
//!
//! "To compare the maximum achievable TCP throughput, we ran Iperf clients
//! for 100 s with a single stream from the LG to the respective Iperf
//! servers in the DUT's tenant VM. The aggregate throughput was then
//! reported as the sum of throughput for each client-server."

use crate::traits::{App, AppCtx, ConnId};
use mts_sim::{FastHashMap, Time};
use std::net::Ipv4Addr;

/// The iperf3 control/data port.
pub const IPERF_PORT: u16 = 5201;

/// An iperf server: accepts one or more streams and counts bytes.
#[derive(Default)]
pub struct IperfServer {
    received: FastHashMap<ConnId, u64>,
    first_byte: Option<Time>,
    last_byte: Option<Time>,
}

impl IperfServer {
    /// Creates a sink server.
    pub fn new() -> Self {
        IperfServer::default()
    }

    /// Total bytes received across streams.
    pub fn total_received(&self) -> u64 {
        self.received.values().sum()
    }

    /// Goodput in bits/second over the observed interval.
    pub fn goodput_bps(&self) -> f64 {
        match (self.first_byte, self.last_byte) {
            (Some(a), Some(b)) if b > a => {
                self.total_received() as f64 * 8.0 / (b - a).as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

impl App for IperfServer {
    fn on_start(&mut self, _now: Time, _ctx: &mut dyn AppCtx) {}

    fn on_connected(&mut self, conn: ConnId, _now: Time, _ctx: &mut dyn AppCtx) {
        self.received.entry(conn).or_insert(0);
    }

    fn on_data(&mut self, conn: ConnId, bytes: u64, now: Time, ctx: &mut dyn AppCtx) {
        *self.received.entry(conn).or_insert(0) += bytes;
        ctx.count("iperf_bytes", bytes);
        self.first_byte.get_or_insert(now);
        self.last_byte = Some(now);
    }

    fn on_closed(&mut self, _conn: ConnId, _now: Time, _ctx: &mut dyn AppCtx) {}
}

/// An iperf client: opens one stream per configured server and saturates it.
pub struct IperfClient {
    servers: Vec<Ipv4Addr>,
    /// Bytes queued per established stream when it opens. Large enough to
    /// outlast any measurement window; TCP pacing does the rest.
    pub bytes_per_stream: u64,
    started: bool,
}

impl IperfClient {
    /// Creates a client that will stream to each server in `servers`.
    pub fn new(servers: Vec<Ipv4Addr>) -> Self {
        IperfClient {
            servers,
            bytes_per_stream: 1 << 62,
            started: false,
        }
    }
}

impl App for IperfClient {
    fn on_start(&mut self, _now: Time, ctx: &mut dyn AppCtx) {
        if self.started {
            return;
        }
        self.started = true;
        for &ip in &self.servers {
            let _ = ctx.connect(ip, IPERF_PORT);
        }
    }

    fn on_connected(&mut self, conn: ConnId, _now: Time, ctx: &mut dyn AppCtx) {
        ctx.send(conn, self.bytes_per_stream);
        ctx.count("iperf_streams", 1);
    }

    fn on_data(&mut self, _conn: ConnId, _bytes: u64, _now: Time, _ctx: &mut dyn AppCtx) {}

    fn on_closed(&mut self, _conn: ConnId, _now: Time, _ctx: &mut dyn AppCtx) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_ctx::RecordingCtx;

    #[test]
    fn client_opens_one_stream_per_server() {
        let mut ctx = RecordingCtx::new();
        let servers = vec![Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1)];
        let mut c = IperfClient::new(servers.clone());
        c.on_start(Time::ZERO, &mut ctx);
        assert_eq!(ctx.connects.len(), 2);
        assert!(ctx.connects.iter().all(|(_, p)| *p == IPERF_PORT));
        // Restart must not duplicate streams.
        c.on_start(Time::ZERO, &mut ctx);
        assert_eq!(ctx.connects.len(), 2);
    }

    #[test]
    fn client_floods_on_establish() {
        let mut ctx = RecordingCtx::new();
        let mut c = IperfClient::new(vec![Ipv4Addr::new(10, 0, 1, 1)]);
        c.on_start(Time::ZERO, &mut ctx);
        c.on_connected(ConnId(1), Time::ZERO, &mut ctx);
        assert_eq!(ctx.sent[&ConnId(1)], 1 << 62);
        assert_eq!(ctx.counter("iperf_streams"), 1);
    }

    #[test]
    fn server_measures_goodput() {
        let mut ctx = RecordingCtx::new();
        let mut s = IperfServer::new();
        s.on_connected(ConnId(1), Time::ZERO, &mut ctx);
        s.on_data(ConnId(1), 1_000_000, Time::from_nanos(0), &mut ctx);
        s.on_data(
            ConnId(1),
            1_000_000,
            Time::from_nanos(1_000_000_000),
            &mut ctx,
        );
        assert_eq!(s.total_received(), 2_000_000);
        // 2 MB over 1 s = 16 Mbit/s.
        assert!((s.goodput_bps() - 16_000_000.0).abs() < 1.0);
        assert_eq!(ctx.counter("iperf_bytes"), 2_000_000);
    }

    #[test]
    fn empty_server_reports_zero() {
        let s = IperfServer::new();
        assert_eq!(s.goodput_bps(), 0.0);
        assert_eq!(s.total_received(), 0);
    }
}
