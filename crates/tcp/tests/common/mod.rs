//! The transfer both lossy-channel suites drive: two stacks exchange
//! segments through a channel with seeded random loss, an optional dark
//! window, and a fixed one-way delay; timers are driven faithfully.

use mts_net::TcpSegment;
use mts_sim::{DetRng, Dur, Time};
use mts_tcp::{Connection, TcpConfig};

pub struct Channel {
    /// Every segment sent in `[dark.0, dark.1)` is lost.
    pub dark: (Time, Time),
    /// Loss probability outside the dark window, per-mille.
    pub loss_permille: u16,
    /// Loss draws. Random, not periodic: a strictly periodic drop pattern
    /// can phase-lock with the retransmission exchange (every
    /// retransmitted ACK landing on a drop slot forever), a livelock no
    /// real channel produces and no TCP can beat.
    pub rng: DetRng,
    /// One-way delay.
    pub delay: Dur,
}

impl Channel {
    fn deliver(&mut self, now: Time) -> bool {
        let dark = now >= self.dark.0 && now < self.dark.1;
        !dark && self.rng.below(1000) >= u64::from(self.loss_permille)
    }
}

pub struct Outcome {
    /// Bytes the server delivered in order, summed call by call.
    pub delivered: u64,
    /// The server's own count of delivered bytes.
    pub server_total: u64,
    /// The client reset (its retry budget ran out).
    pub client_closed: bool,
}

/// Sends `bytes` from client to server over `ch` until they all arrive,
/// the client closes, nothing is left to do, or `max_steps` pass.
pub fn run_transfer(bytes: u64, cfg: TcpConfig, mut ch: Channel, max_steps: u32) -> Outcome {
    let mut now = Time::ZERO;
    // Handshake out of band, so the connection always opens (the property
    // under test is data transfer, not SYN retry behaviour).
    let (mut client, out) = Connection::client(cfg, 40_000, 80, 7, now);
    let (mut server, sout) =
        Connection::server_from_syn(cfg, &out.segments[0], 99, now).expect("syn accepted");
    let ack = client.on_segment(&sout.segments[0], now);
    let _ = server.on_segment(&ack.segments[0], now);

    let mut delivered = 0u64;
    let mut to_server: Vec<TcpSegment> = client.send(bytes, now).segments;
    let mut to_client: Vec<TcpSegment> = Vec::new();
    for _ in 0..max_steps {
        if delivered >= bytes || client.is_closed() {
            break;
        }
        now += ch.delay;
        // Server absorbs the surviving client segments.
        let mut new_to_client = Vec::new();
        for seg in to_server.drain(..) {
            if ch.deliver(now) {
                let o = server.on_segment(&seg, now);
                delivered += o.delivered;
                new_to_client.extend(o.segments);
            }
        }
        // Client absorbs the surviving server segments.
        let mut new_to_server = Vec::new();
        for seg in to_client.drain(..) {
            if ch.deliver(now) {
                new_to_server.extend(client.on_segment(&seg, now).segments);
            }
        }
        to_client = new_to_client;
        to_server.extend(new_to_server);

        // If the exchange went quiet, fire the earliest pending timer.
        if to_server.is_empty() && to_client.is_empty() {
            match (client.next_timer(), server.next_timer()) {
                (Some(a), b) if b.is_none_or(|b| a <= b) => {
                    now = now.max(a);
                    to_server.extend(client.on_timer(now).segments);
                }
                (_, Some(b)) => {
                    now = now.max(b);
                    to_client.extend(server.on_timer(now).segments);
                }
                _ => break,
            }
        }
    }
    Outcome {
        delivered,
        server_total: server.stats().bytes_delivered,
        client_closed: client.is_closed(),
    }
}
