//! Property: an `_into` entry point appends exactly what its `Output` form
//! returns, and leaves what the caller's buffer already held alone.
//!
//! Twin connection pairs run the same transfer over one seeded lossy,
//! reordering channel, then close (or abort) it. One pair is driven through
//! the `Output` forms, a fresh `Vec` per call; the other appends into one
//! long-lived buffer that starts with sentinel segments and keeps earlier
//! calls' output. After every call the twins must have emitted the same
//! segments and reported the same progress, counters and next timer, and
//! the buffer's earlier contents must be unchanged.

use mts_fuzz::prop::check;
use mts_net::{TcpFlags, TcpSegment};
use mts_sim::{DetRng, Dur, Time};
use mts_tcp::{Connection, Output, Progress, TcpConfig};

const CLIENT: usize = 0;
const SERVER: usize = 1;

/// Segments no connection emits (no connection uses port 1).
fn sentinels() -> Vec<TcpSegment> {
    (0..3)
        .map(|i| TcpSegment {
            sport: 1,
            dport: 1,
            seq: i,
            ack: !i,
            flags: TcpFlags::RST | TcpFlags::PSH,
            window: 0,
            payload_len: 0,
        })
        .collect()
}

struct Twins {
    /// `[client, server]`, driven through the `Output` forms.
    fresh: [Connection; 2],
    /// The same pair, driven through the `_into` forms.
    into: [Connection; 2],
    /// The long-lived buffer `into` appends to.
    buf: Vec<TcpSegment>,
    /// Calls checked so far.
    calls: u64,
}

impl Twins {
    /// Runs one entry point on side `i` of both pairs, checks that the twins
    /// agree, and returns the segments emitted.
    fn call(
        &mut self,
        i: usize,
        fresh: impl FnOnce(&mut Connection) -> Output,
        into: impl FnOnce(&mut Connection, &mut Vec<TcpSegment>) -> Progress,
    ) -> Vec<TcpSegment> {
        let before = self.buf.clone();
        let out = fresh(&mut self.fresh[i]);
        let p = into(&mut self.into[i], &mut self.buf);
        self.check(i, &before, &out.segments);
        let expected = Progress {
            delivered: out.delivered,
            connected: out.connected,
            closed: out.closed,
        };
        assert_eq!(p, expected, "call {}: progress", self.calls);
        self.calls += 1;
        // Keep the buffer long-lived but bounded: drop all but the
        // sentinels now and then, never on every call.
        if self.buf.len() > 64 {
            self.buf.truncate(sentinels().len());
        }
        out.segments
    }

    fn check(&self, i: usize, before: &[TcpSegment], emitted: &[TcpSegment]) {
        let n = self.calls;
        assert_eq!(
            &self.buf[..before.len()],
            before,
            "call {n}: prefix changed"
        );
        assert_eq!(&self.buf[before.len()..], emitted, "call {n}: segments");
        let (a, b) = (&self.fresh[i], &self.into[i]);
        assert_eq!(a.stats(), b.stats(), "call {n}: stats");
        assert_eq!(a.next_timer(), b.next_timer(), "call {n}: next timer");
        assert_eq!(a.state(), b.state(), "call {n}: state");
    }
}

/// The channel: each segment is lost with probability `loss` or arrives
/// 50–250 us after it was sent, so later segments overtake earlier ones.
struct Channel {
    /// (arrival, receiving side, segment).
    wire: Vec<(Time, usize, TcpSegment)>,
    rng: DetRng,
    loss: f64,
    now: Time,
}

impl Channel {
    fn send(&mut self, to: usize, segs: Vec<TcpSegment>) {
        for seg in segs {
            if !self.rng.chance(self.loss) {
                let at = self.now + Dur::micros(self.rng.between(50, 250));
                self.wire.push((at, to, seg));
            }
        }
    }

    /// Delivers segments and fires timers, in time order, until nothing is
    /// in flight and no timer is pending (or `max_steps` pass).
    fn run(&mut self, t: &mut Twins, max_steps: u32) {
        for _ in 0..max_steps {
            let next = (0..self.wire.len()).min_by_key(|&i| self.wire[i].0);
            let timers = [t.fresh[CLIENT].next_timer(), t.fresh[SERVER].next_timer()];
            let due = timers.iter().flatten().min().copied();
            match next {
                Some(k) if due.is_none_or(|d| self.wire[k].0 <= d) => {
                    let (at, to, seg) = self.wire.swap_remove(k);
                    self.now = at;
                    let segs = t.call(
                        to,
                        |c| c.on_segment(&seg, at),
                        |c, buf| c.on_segment_into(&seg, at, buf),
                    );
                    self.send(1 - to, segs);
                }
                _ => {
                    let Some(d) = due else {
                        return;
                    };
                    self.now = d;
                    for side in [CLIENT, SERVER] {
                        let segs =
                            t.call(side, |c| c.on_timer(d), |c, buf| c.on_timer_into(d, buf));
                        self.send(1 - side, segs);
                    }
                }
            }
        }
    }
}

fn run(bytes: u64, loss_permille: u64, seed: u64, abort: bool) -> u64 {
    let cfg = TcpConfig::default();
    let mut buf = sentinels();
    let (client, syn) = Connection::client(cfg, 40_000, 80, seed as u32, Time::ZERO);
    let client_into = Connection::client_into(cfg, 40_000, 80, seed as u32, Time::ZERO, &mut buf);
    let syn = syn.segments;
    assert_eq!(buf[sentinels().len()..], syn);
    let (server, syn_ack) =
        Connection::server_from_syn(cfg, &syn[0], 99, Time::ZERO).expect("a SYN");
    let server_into =
        Connection::server_from_syn_into(cfg, &syn[0], 99, Time::ZERO, &mut buf).expect("a SYN");
    assert_eq!(buf[sentinels().len() + 1..], syn_ack.segments);
    let mut t = Twins {
        fresh: [client, server],
        into: [client_into, server_into],
        buf,
        calls: 0,
    };
    let mut ch = Channel {
        wire: Vec::new(),
        rng: DetRng::new(seed),
        loss: loss_permille as f64 / 1000.0,
        now: Time::ZERO,
    };
    ch.send(CLIENT, syn_ack.segments);

    let now = ch.now;
    let segs = t.call(
        CLIENT,
        |c| c.send(bytes, now),
        |c, buf| c.send_into(bytes, now, buf),
    );
    ch.send(SERVER, segs);
    ch.run(&mut t, 20_000);
    assert_eq!(
        t.fresh[SERVER].stats().bytes_delivered,
        bytes,
        "transfer incomplete"
    );
    for side in [CLIENT, SERVER] {
        let now = ch.now;
        let segs = if abort && side == SERVER {
            t.call(side, |c| c.abort(), |c, buf| c.abort_into(buf))
        } else {
            t.call(side, |c| c.close(now), |c, buf| c.close_into(now, buf))
        };
        ch.send(1 - side, segs);
    }
    ch.run(&mut t, 20_000);
    assert_eq!(t.buf[..sentinels().len()], sentinels());
    t.calls
}

#[test]
fn into_calls_append_what_output_calls_return() {
    let gen = |rng: &mut DetRng| {
        let bytes = rng.between(1, 299_999);
        let loss_permille = rng.below(150);
        (
            bytes,
            loss_permille,
            rng.between(0, u64::MAX),
            rng.chance(0.5),
        )
    };
    let name = "into_calls_append_what_output_calls_return";
    check(name, 32, gen, |&(bytes, loss, seed, abort)| {
        let calls = run(bytes, loss, seed, abort);
        assert!(calls > 2, "only {calls} calls");
    });
}
