//! The TCP connection state machine (Reno).
//!
//! One [`Connection`] is one endpoint. It is a *poll-style* machine: every
//! entry point takes the current simulated time, appends the segments to
//! transmit to a buffer the caller owns and returns a [`Progress`]. The
//! caller (the `mts-core` runtime) keeps one buffer for all its
//! connections, wraps segments in IPv4/Ethernet frames, delivers the peer's
//! segments back via [`Connection::on_segment_into`], and drives
//! [`Connection::on_timer_into`] at [`Connection::next_timer`]. The
//! [`Output`]-returning forms collect the same segments into a fresh `Vec`,
//! for callers that keep no buffer.
//!
//! Sequence numbers are tracked internally as 64-bit *sequence-space
//! offsets* (offset 0 is the SYN, payload starts at offset 1) and wrapped
//! to 32 bits only on the wire, so transfers beyond 4 GB work.

use crate::config::TcpConfig;
use mts_net::{TcpFlags, TcpSegment};
use mts_sim::{Dur, Time};

/// Connection states (RFC 793, with `Reset` as a terminal error state).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum State {
    /// Active open sent SYN, awaiting SYN|ACK.
    SynSent,
    /// Passive open got SYN, sent SYN|ACK, awaiting ACK.
    SynReceived,
    /// Data transfer.
    Established,
    /// We sent FIN, awaiting its ACK.
    FinWait1,
    /// Our FIN is ACKed, awaiting the peer's FIN.
    FinWait2,
    /// Peer sent FIN; we may still send.
    CloseWait,
    /// Peer FIN seen and we sent FIN, awaiting its ACK.
    LastAck,
    /// Both FINs crossed; awaiting ACK of ours.
    Closing,
    /// Fully closed (TIME-WAIT collapsed — the simulation has no stray
    /// duplicates beyond the run).
    Closed,
    /// Terminated by RST.
    Reset,
}

/// Counters exposed for diagnostics and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Segments retransmitted (any reason).
    pub retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Payload bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Payload bytes delivered in order to the application.
    pub bytes_delivered: u64,
    /// Duplicate ACKs received.
    pub dup_acks: u64,
    /// Segments received out of order (buffered as ranges).
    pub ooo_segments: u64,
}

impl std::ops::AddAssign for ConnStats {
    fn add_assign(&mut self, o: ConnStats) {
        self.retransmits += o.retransmits;
        self.timeouts += o.timeouts;
        self.fast_retransmits += o.fast_retransmits;
        self.bytes_acked += o.bytes_acked;
        self.bytes_delivered += o.bytes_delivered;
        self.dup_acks += o.dup_acks;
        self.ooo_segments += o.ooo_segments;
    }
}

/// What a stack entry point did besides emitting segments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Payload bytes newly delivered in order to the application.
    pub delivered: u64,
    /// Became established during this call.
    pub connected: bool,
    /// Reached a fully-closed state during this call.
    pub closed: bool,
}

/// A [`Progress`] with the segments its call emitted, for callers that keep
/// no segment buffer.
#[derive(Clone, Debug, Default)]
pub struct Output {
    /// Segments to transmit, in order.
    pub segments: Vec<TcpSegment>,
    /// Payload bytes newly delivered in order to the application.
    pub delivered: u64,
    /// Became established during this call.
    pub connected: bool,
    /// Reached a fully-closed state during this call.
    pub closed: bool,
}

impl Output {
    /// Runs one `_into` call against a fresh buffer.
    fn collect(call: impl FnOnce(&mut Vec<TcpSegment>) -> Progress) -> Output {
        let mut segments = Vec::new();
        let p = call(&mut segments);
        Output {
            segments,
            delivered: p.delivered,
            connected: p.connected,
            closed: p.closed,
        }
    }
}

/// Window-scaling shift applied to the 16-bit wire window field.
const WINDOW_SHIFT: u32 = 6;

/// One TCP endpoint.
pub struct Connection {
    cfg: TcpConfig,
    state: State,
    sport: u16,
    dport: u16,

    // --- Send side (sequence-space offsets; 0 = SYN, payload from 1). ---
    iss: u32,
    snd_una: u64,
    snd_nxt: u64,
    /// Total payload bytes the application has queued (monotone).
    app_total: u64,
    fin_requested: bool,
    cwnd: u64,
    ssthresh: u64,
    dupacks: u32,
    /// Fast-recovery exit point (`snd_nxt` at entry), when in recovery.
    recover: Option<u64>,
    peer_window: u64,

    // --- RTT estimation (RFC 6298). ---
    srtt: Option<Dur>,
    rttvar: Dur,
    rto: Dur,
    rto_backoff: u32,
    /// Consecutive RTO expirations with no forward progress.
    rto_retries: u32,
    /// One timed segment: (sequence offset it covers up to, send time).
    rtt_probe: Option<(u64, Time)>,
    rto_deadline: Option<Time>,

    // --- Receive side. ---
    peer_iss: u32,
    rcv_nxt: u64,
    /// Out-of-order ranges `(start, end)` in peer sequence space, disjoint
    /// and sorted.
    ooo: Vec<(u64, u64)>,
    peer_fin: Option<u64>,
    /// Full segments received since the last ACK we sent.
    unacked_segs: u32,
    delack_deadline: Option<Time>,

    stats: ConnStats,
}

impl Connection {
    /// Opens a connection actively; appends its SYN to `out`.
    pub fn client_into(
        cfg: TcpConfig,
        sport: u16,
        dport: u16,
        iss: u32,
        now: Time,
        out: &mut Vec<TcpSegment>,
    ) -> Self {
        let mut c = Self::new(cfg, sport, dport, iss, State::SynSent);
        out.push(c.make_segment(0, TcpFlags::SYN, 0));
        c.snd_nxt = 1;
        c.arm_rto(now);
        c
    }

    /// [`Connection::client_into`] with a fresh buffer.
    pub fn client(cfg: TcpConfig, sport: u16, dport: u16, iss: u32, now: Time) -> (Self, Output) {
        let mut out = Output::default();
        (
            Self::client_into(cfg, sport, dport, iss, now, &mut out.segments),
            out,
        )
    }

    /// Opens a connection passively from a received SYN; appends its
    /// SYN|ACK to `out`.
    pub fn server_from_syn_into(
        cfg: TcpConfig,
        syn: &TcpSegment,
        iss: u32,
        now: Time,
        out: &mut Vec<TcpSegment>,
    ) -> Option<Self> {
        if !syn.flags.contains(TcpFlags::SYN) || syn.flags.contains(TcpFlags::ACK) {
            return None;
        }
        let mut c = Self::new(cfg, syn.dport, syn.sport, iss, State::SynReceived);
        c.peer_iss = syn.seq;
        c.rcv_nxt = 1; // consumed the SYN
        c.peer_window = u64::from(syn.window) << WINDOW_SHIFT;
        out.push(c.make_segment(0, TcpFlags::SYN | TcpFlags::ACK, 0));
        c.snd_nxt = 1;
        c.arm_rto(now);
        Some(c)
    }

    /// [`Connection::server_from_syn_into`] with a fresh buffer.
    pub fn server_from_syn(
        cfg: TcpConfig,
        syn: &TcpSegment,
        iss: u32,
        now: Time,
    ) -> Option<(Self, Output)> {
        let mut out = Output::default();
        Some((
            Self::server_from_syn_into(cfg, syn, iss, now, &mut out.segments)?,
            out,
        ))
    }

    fn new(cfg: TcpConfig, sport: u16, dport: u16, iss: u32, state: State) -> Self {
        Connection {
            cfg,
            state,
            sport,
            dport,
            iss,
            snd_una: 0,
            snd_nxt: 0,
            app_total: 0,
            fin_requested: false,
            cwnd: cfg.init_cwnd(),
            ssthresh: u64::MAX / 2,
            dupacks: 0,
            recover: None,
            peer_window: 1 << 20,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: cfg.rto_initial,
            rto_backoff: 0,
            rto_retries: 0,
            rtt_probe: None,
            rto_deadline: None,
            peer_iss: 0,
            rcv_nxt: 0,
            ooo: Vec::new(),
            peer_fin: None,
            unacked_segs: 0,
            delack_deadline: None,
            stats: ConnStats::default(),
        }
    }

    /// Returns the current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Returns whether data transfer is possible.
    fn is_established(&self) -> bool {
        matches!(
            self.state,
            State::Established | State::FinWait1 | State::FinWait2 | State::CloseWait
        )
    }

    /// Returns whether the connection is terminally closed.
    pub fn is_closed(&self) -> bool {
        matches!(self.state, State::Closed | State::Reset)
    }

    /// Returns the counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Bytes in flight.
    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Payload bytes queued but not yet transmitted.
    fn unsent(&self) -> u64 {
        (1 + self.app_total).saturating_sub(self.snd_nxt.max(1))
    }

    /// Queues `bytes` of application payload and transmits what fits.
    pub fn send_into(&mut self, bytes: u64, now: Time, out: &mut Vec<TcpSegment>) -> Progress {
        if !self.fin_requested && !self.is_closed() {
            self.app_total += bytes;
            self.pump(now, out);
        }
        Progress::default()
    }

    /// [`Connection::send_into`] with a fresh buffer.
    pub fn send(&mut self, bytes: u64, now: Time) -> Output {
        Output::collect(|out| self.send_into(bytes, now, out))
    }

    /// Requests a graceful close; the FIN goes out once data is flushed.
    pub fn close_into(&mut self, now: Time, out: &mut Vec<TcpSegment>) -> Progress {
        if !self.fin_requested && !self.is_closed() {
            self.fin_requested = true;
            self.pump(now, out);
        }
        Progress::default()
    }

    /// [`Connection::close_into`] with a fresh buffer.
    pub fn close(&mut self, now: Time) -> Output {
        Output::collect(|out| self.close_into(now, out))
    }

    /// Aborts the connection, emitting an RST.
    pub fn abort_into(&mut self, out: &mut Vec<TcpSegment>) -> Progress {
        if self.is_closed() {
            return Progress::default();
        }
        out.push(self.make_segment(self.snd_nxt, TcpFlags::RST | TcpFlags::ACK, 0));
        self.state = State::Reset;
        self.rto_deadline = None;
        self.delack_deadline = None;
        Progress {
            closed: true,
            ..Progress::default()
        }
    }

    /// [`Connection::abort_into`] with a fresh buffer.
    pub fn abort(&mut self) -> Output {
        Output::collect(|out| self.abort_into(out))
    }

    /// The earliest pending timer, if any.
    pub fn next_timer(&self) -> Option<Time> {
        self.rto_deadline
            .into_iter()
            .chain(self.delack_deadline)
            .min()
    }

    /// Fires any timers whose deadline is `<= now`.
    pub fn on_timer_into(&mut self, now: Time, out: &mut Vec<TcpSegment>) -> Progress {
        if self.delack_deadline.is_some_and(|d| d <= now) {
            self.delack_deadline = None;
            if self.unacked_segs > 0 {
                self.unacked_segs = 0;
                out.push(self.make_ack());
            }
        }
        if self.rto_deadline.is_some_and(|d| d <= now) {
            self.rto_deadline = None;
            if self.flight() > 0 || matches!(self.state, State::SynSent | State::SynReceived) {
                return self.on_rto(now, out);
            }
        }
        Progress::default()
    }

    /// [`Connection::on_timer_into`] with a fresh buffer.
    pub fn on_timer(&mut self, now: Time) -> Output {
        Output::collect(|out| self.on_timer_into(now, out))
    }

    fn on_rto(&mut self, now: Time, out: &mut Vec<TcpSegment>) -> Progress {
        self.stats.timeouts += 1;
        self.rto_retries += 1;
        if self.rto_retries > self.cfg.rto_max_retries {
            // Retry budget exhausted (Linux tcp_retries2): the path is
            // dead; fail cleanly instead of retransmitting forever.
            return self.abort_into(out);
        }
        // Karn: invalidate the RTT probe; collapse the window.
        self.rtt_probe = None;
        let flight = self.flight().max(u64::from(self.cfg.mss));
        self.ssthresh = (flight / 2).max(2 * u64::from(self.cfg.mss));
        self.cwnd = u64::from(self.cfg.mss);
        self.recover = None;
        self.dupacks = 0;
        self.rto_backoff = (self.rto_backoff + 1).min(10);
        self.retransmit_una(out);
        self.arm_rto(now);
        Progress::default()
    }

    /// Handles one incoming segment.
    pub fn on_segment_into(
        &mut self,
        seg: &TcpSegment,
        now: Time,
        out: &mut Vec<TcpSegment>,
    ) -> Progress {
        let mut p = Progress::default();
        if self.is_closed() {
            return p;
        }
        if seg.flags.contains(TcpFlags::RST) {
            self.state = State::Reset;
            self.rto_deadline = None;
            self.delack_deadline = None;
            p.closed = true;
            return p;
        }
        self.peer_window = u64::from(seg.window) << WINDOW_SHIFT;

        // --- Handshake progression. ---
        match self.state {
            State::SynSent => {
                if seg.flags.contains(TcpFlags::SYN) && seg.flags.contains(TcpFlags::ACK) {
                    self.peer_iss = seg.seq;
                    self.rcv_nxt = 1;
                    self.snd_una = 1;
                    self.state = State::Established;
                    self.rto_deadline = None;
                    self.rto_backoff = 0;
                    self.rto_retries = 0;
                    p.connected = true;
                    out.push(self.make_ack());
                    self.pump(now, out);
                }
                return p;
            }
            State::SynReceived => {
                if !seg.flags.contains(TcpFlags::ACK) || self.unwrap_ack(seg.ack) == 0 {
                    return p;
                }
                self.snd_una = self.snd_una.max(1);
                self.state = State::Established;
                self.rto_deadline = None;
                self.rto_backoff = 0;
                self.rto_retries = 0;
                p.connected = true;
                // Fall through: the ACK may carry data.
            }
            _ => {}
        }

        // --- ACK processing. ---
        if seg.flags.contains(TcpFlags::ACK) {
            self.process_ack(seg, now, out);
        }

        // --- Payload / FIN reception. ---
        if seg.seq_space() > 0 || seg.payload_len > 0 || seg.flags.contains(TcpFlags::FIN) {
            p.delivered = self.process_data(seg, now, out);
        }

        self.pump(now, out);
        // It was open on entry, so a closed state was reached by this call.
        p.closed = self.is_closed();
        p
    }

    /// [`Connection::on_segment_into`] with a fresh buffer.
    pub fn on_segment(&mut self, seg: &TcpSegment, now: Time) -> Output {
        Output::collect(|out| self.on_segment_into(seg, now, out))
    }

    fn process_ack(&mut self, seg: &TcpSegment, now: Time, out: &mut Vec<TcpSegment>) {
        let ack_off = self.unwrap_ack(seg.ack);
        if ack_off > self.snd_nxt {
            // Acks something we never sent; ignore.
            return;
        }
        if ack_off > self.snd_una {
            let newly = ack_off - self.snd_una;
            self.snd_una = ack_off;
            self.dupacks = 0;
            self.rto_backoff = 0;
            self.rto_retries = 0;
            // Payload-byte accounting (exclude SYN/FIN sequence slots).
            self.stats.bytes_acked +=
                payload_within(self.snd_una - newly, self.snd_una, self.app_total);
            // RTT sample (Karn-protected).
            if let Some((probe_off, sent_at)) = self.rtt_probe {
                if ack_off >= probe_off {
                    self.rtt_probe = None;
                    self.rtt_sample(now - sent_at);
                }
            }
            // Congestion control.
            if let Some(recover) = self.recover {
                if ack_off >= recover {
                    // Exit fast recovery.
                    self.recover = None;
                    self.cwnd = self.ssthresh;
                } else {
                    // Partial ACK (NewReno): retransmit the next hole.
                    self.retransmit_una(out);
                    self.cwnd = self.cwnd.saturating_sub(newly) + u64::from(self.cfg.mss);
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd += newly.min(u64::from(self.cfg.mss));
            } else {
                let add =
                    (u64::from(self.cfg.mss) * u64::from(self.cfg.mss) / self.cwnd.max(1)).max(1);
                self.cwnd += add;
            }
            // FIN-ACK state transitions.
            if self.fin_sent() && self.snd_una == self.fin_off() + 1 {
                match self.state {
                    State::FinWait1 => self.state = State::FinWait2,
                    State::Closing | State::LastAck => self.state = State::Closed,
                    _ => {}
                }
            }
            // Timer management.
            if self.flight() > 0 {
                self.arm_rto(now);
            } else {
                self.rto_deadline = None;
            }
        } else if ack_off == self.snd_una
            && seg.payload_len == 0
            && !seg.flags.contains(TcpFlags::SYN)
            && !seg.flags.contains(TcpFlags::FIN)
            && self.flight() > 0
        {
            // Duplicate ACK.
            self.stats.dup_acks += 1;
            self.dupacks += 1;
            if self.dupacks == 3 && self.recover.is_none() {
                // Fast retransmit + fast recovery.
                self.stats.fast_retransmits += 1;
                let flight = self.flight();
                self.ssthresh = (flight / 2).max(2 * u64::from(self.cfg.mss));
                self.recover = Some(self.snd_nxt);
                self.cwnd = self.ssthresh + 3 * u64::from(self.cfg.mss);
                self.rtt_probe = None;
                self.retransmit_una(out);
                self.arm_rto(now);
            } else if self.dupacks > 3 {
                // Window inflation during recovery.
                self.cwnd += u64::from(self.cfg.mss);
            }
        }
    }

    /// Returns the payload bytes newly delivered in order.
    fn process_data(&mut self, seg: &TcpSegment, now: Time, out: &mut Vec<TcpSegment>) -> u64 {
        let start = self.unwrap_seq(seg.seq);
        let space = u64::from(seg.seq_space())
            - u64::from(seg.flags.contains(TcpFlags::SYN)) // SYN slot already consumed pre-establishment
            ;
        let end = start + space;
        if seg.flags.contains(TcpFlags::FIN) {
            self.peer_fin = Some(end - 1);
        }
        if end <= self.rcv_nxt {
            // Complete duplicate: re-ACK immediately.
            out.push(self.make_ack());
            self.unacked_segs = 0;
            self.delack_deadline = None;
            return 0;
        }
        if start > self.rcv_nxt {
            // Out of order: buffer the range, send an immediate dup-ACK.
            self.stats.ooo_segments += 1;
            insert_range(&mut self.ooo, (start, end));
            out.push(self.make_ack());
            self.unacked_segs = 0;
            self.delack_deadline = None;
            return 0;
        }
        // In order (possibly overlapping the left edge).
        let before = self.rcv_nxt;
        self.rcv_nxt = end;
        // Absorb the now-contiguous buffered ranges: a sorted prefix.
        let mut absorbed = 0;
        while let Some(&(_, e)) = self.ooo.get(absorbed).filter(|r| r.0 <= self.rcv_nxt) {
            self.rcv_nxt = self.rcv_nxt.max(e);
            absorbed += 1;
        }
        self.ooo.drain(..absorbed);
        let delivered = payload_within_recv(before, self.rcv_nxt, self.peer_fin);
        self.stats.bytes_delivered += delivered;

        // Did we consume the peer's FIN?
        let fin_consumed = self.peer_fin.is_some_and(|f| self.rcv_nxt > f);
        if fin_consumed {
            match self.state {
                State::Established => self.state = State::CloseWait,
                State::FinWait1 => {
                    // Simultaneous close; our FIN not yet acked.
                    self.state = State::Closing;
                }
                State::FinWait2 => self.state = State::Closed,
                _ => {}
            }
            // FIN is always acked immediately.
            out.push(self.make_ack());
            self.unacked_segs = 0;
            self.delack_deadline = None;
            return delivered;
        }

        // Delayed-ACK policy: ACK every second segment, else arm the timer.
        self.unacked_segs += 1;
        if self.unacked_segs >= 2 {
            self.unacked_segs = 0;
            self.delack_deadline = None;
            out.push(self.make_ack());
        } else if self.delack_deadline.is_none() {
            self.delack_deadline = Some(now + self.cfg.delack);
        }
        delivered
    }

    /// Transmits whatever the window allows (new data, then FIN).
    fn pump(&mut self, now: Time, out: &mut Vec<TcpSegment>) {
        if !self.is_established() && self.state != State::Closing && self.state != State::LastAck {
            return;
        }
        let mss = u64::from(self.cfg.mss);
        let wnd = self.cwnd.min(self.peer_window.max(mss));
        let payload_end = 1 + self.app_total;
        let mut sent_any = false;
        while self.flight() < wnd {
            let nxt = self.snd_nxt.max(1);
            let budget = wnd - self.flight();
            let avail = payload_end.saturating_sub(nxt);
            let len = avail.min(mss).min(budget);
            if len > 0 {
                let mut flags = TcpFlags::ACK;
                if nxt + len == payload_end && self.unsent() == len {
                    flags |= TcpFlags::PSH;
                }
                let seg = self.make_segment(nxt, flags, len as u32);
                self.snd_nxt = nxt + len;
                if self.rtt_probe.is_none() {
                    self.rtt_probe = Some((self.snd_nxt, now));
                }
                out.push(seg);
                sent_any = true;
                continue;
            }
            // Data exhausted: maybe send FIN.
            if self.fin_requested && !self.fin_sent() && self.snd_nxt == payload_end {
                let seg = self.make_segment(self.snd_nxt, TcpFlags::FIN | TcpFlags::ACK, 0);
                self.snd_nxt += 1;
                match self.state {
                    State::Established => self.state = State::FinWait1,
                    State::CloseWait => self.state = State::LastAck,
                    _ => {}
                }
                out.push(seg);
                sent_any = true;
            }
            break;
        }
        if sent_any && self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
    }

    /// Retransmits one segment starting at `snd_una`.
    fn retransmit_una(&mut self, out: &mut Vec<TcpSegment>) {
        self.stats.retransmits += 1;
        self.rtt_probe = None; // Karn's algorithm
        let mss = u64::from(self.cfg.mss);
        let una = self.snd_una;
        let seg = if una == 0 {
            // Retransmit SYN (or SYN|ACK).
            let flags = match self.state {
                State::SynReceived => TcpFlags::SYN | TcpFlags::ACK,
                _ => TcpFlags::SYN,
            };
            self.make_segment(0, flags, 0)
        } else {
            let payload_end = 1 + self.app_total;
            if una >= payload_end && self.fin_sent() {
                self.make_segment(una, TcpFlags::FIN | TcpFlags::ACK, 0)
            } else {
                let len = (payload_end - una).min(mss).min(self.snd_nxt - una).max(1);
                self.make_segment(una, TcpFlags::ACK, len as u32)
            }
        };
        out.push(seg);
    }

    fn fin_off(&self) -> u64 {
        1 + self.app_total
    }

    fn fin_sent(&self) -> bool {
        self.fin_requested && self.snd_nxt > self.fin_off()
    }

    fn rtt_sample(&mut self, rtt: Dur) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RFC 6298 with alpha=1/8, beta=1/4, in integer ns.
                let diff = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = Dur::nanos((3 * self.rttvar.as_nanos() + diff.as_nanos()) / 4);
                self.srtt = Some(Dur::nanos((7 * srtt.as_nanos() + rtt.as_nanos()) / 8));
            }
        }
        let base = self.srtt.unwrap_or(self.cfg.rto_initial) + self.rttvar * 4;
        self.rto = base.max(self.cfg.rto_min).min(self.cfg.rto_max);
    }

    fn arm_rto(&mut self, now: Time) {
        let backoff = self.rto * (1 << self.rto_backoff.min(10));
        self.rto_deadline = Some(now + backoff.min(self.cfg.rto_max));
    }

    fn make_segment(&self, soff: u64, flags: TcpFlags, payload_len: u32) -> TcpSegment {
        let ack_valid = flags.contains(TcpFlags::ACK);
        TcpSegment {
            sport: self.sport,
            dport: self.dport,
            seq: self.iss.wrapping_add(soff as u32),
            ack: if ack_valid {
                self.peer_iss.wrapping_add(self.rcv_nxt as u32)
            } else {
                0
            },
            flags,
            window: (self.cfg.recv_window >> WINDOW_SHIFT).min(u32::from(u16::MAX)) as u16,
            payload_len,
        }
    }

    fn make_ack(&self) -> TcpSegment {
        self.make_segment(self.snd_nxt, TcpFlags::ACK, 0)
    }

    /// Unwraps a wire ACK number into send-side sequence space.
    fn unwrap_ack(&self, wire: u32) -> u64 {
        unwrap_near(wire, self.iss, self.snd_una)
    }

    /// Unwraps a wire SEQ number into receive-side sequence space.
    fn unwrap_seq(&self, wire: u32) -> u64 {
        unwrap_near(wire, self.peer_iss, self.rcv_nxt)
    }
}

/// Unwraps `wire` (32-bit) to the 64-bit offset nearest `reference`.
fn unwrap_near(wire: u32, iss: u32, reference: u64) -> u64 {
    let ref_wire = iss.wrapping_add(reference as u32);
    let delta = wire.wrapping_sub(ref_wire) as i32;
    let v = reference as i64 + i64::from(delta);
    v.max(0) as u64
}

/// Payload bytes within the send-side sequence range `[from, to)`, where
/// payload occupies offsets `1..=app_total`.
fn payload_within(from: u64, to: u64, app_total: u64) -> u64 {
    let lo = from.max(1);
    let hi = to.min(1 + app_total);
    hi.saturating_sub(lo)
}

/// Payload bytes within receive-side `[from, to)` given an optional FIN
/// offset (the FIN slot carries no payload).
fn payload_within_recv(from: u64, to: u64, fin: Option<u64>) -> u64 {
    let lo = from.max(1);
    let mut hi = to;
    if let Some(f) = fin {
        hi = hi.min(f);
    }
    hi.saturating_sub(lo)
}

/// Inserts a range into a sorted range set whose members neither overlap
/// nor touch, merging it with every member it overlaps or touches, in
/// place.
fn insert_range(set: &mut Vec<(u64, u64)>, (s, e): (u64, u64)) {
    // Members `lo..hi` are the ones with end >= s and start <= e: a
    // contiguous run, since both starts and ends ascend.
    let lo = set.partition_point(|&(_, end)| end < s);
    let hi = lo + set[lo..].partition_point(|&(start, _)| start <= e);
    if lo == hi {
        set.insert(lo, (s, e));
    } else {
        set[lo] = (set[lo].0.min(s), set[hi - 1].1.max(e));
        set.drain(lo + 1..hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1448;

    fn pair(now: Time) -> (Connection, Connection, Vec<TcpSegment>) {
        let cfg = TcpConfig::default();
        let (mut client, out) = Connection::client(cfg, 40000, 80, 1_000_000, now);
        let syn = &out.segments[0];
        let (mut server, sout) = Connection::server_from_syn(cfg, syn, 99, now).unwrap();
        let ack = client.on_segment(&sout.segments[0], now);
        assert!(ack.connected);
        let fin = server.on_segment(&ack.segments[0], now);
        assert!(fin.connected);
        assert!(client.is_established());
        assert!(server.is_established());
        (client, server, Vec::new())
    }

    /// Delivers all of `segs` from `from` to `to`, returning replies.
    fn deliver(to: &mut Connection, segs: &[TcpSegment], now: Time) -> (Vec<TcpSegment>, u64) {
        let mut replies = Vec::new();
        let mut delivered = 0;
        for s in segs {
            let out = to.on_segment(s, now);
            replies.extend(out.segments);
            delivered += out.delivered;
        }
        (replies, delivered)
    }

    /// Ping-pongs segments until both sides go quiet; returns bytes the
    /// server delivered to its app.
    fn run_to_quiescence(
        client: &mut Connection,
        server: &mut Connection,
        mut from_client: Vec<TcpSegment>,
        now: Time,
    ) -> u64 {
        let mut total = 0;
        for _ in 0..1000 {
            if from_client.is_empty() {
                // Fire any pending delayed-ACK on the server and keep going.
                match server.next_timer() {
                    Some(deadline) => {
                        let out = server.on_timer(deadline);
                        if out.segments.is_empty() {
                            break;
                        }
                        let (next, _) = deliver(client, &out.segments, now);
                        from_client = next;
                        continue;
                    }
                    None => break,
                }
            }
            let (to_client, d) = deliver(server, &from_client, now);
            total += d;
            let (next, _) = deliver(client, &to_client, now);
            from_client = next;
        }
        total
    }

    #[test]
    fn three_way_handshake() {
        let (c, s, _) = pair(Time::ZERO);
        assert_eq!(c.state(), State::Established);
        assert_eq!(s.state(), State::Established);
    }

    #[test]
    fn server_rejects_non_syn() {
        let seg = TcpSegment {
            sport: 1,
            dport: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 100,
            payload_len: 0,
        };
        assert!(Connection::server_from_syn(TcpConfig::default(), &seg, 1, Time::ZERO).is_none());
    }

    #[test]
    fn small_send_is_delivered() {
        let now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let out = c.send(500, now);
        assert_eq!(out.segments.len(), 1);
        assert_eq!(out.segments[0].payload_len, 500);
        let (_, delivered) = deliver(&mut s, &out.segments, now);
        assert_eq!(delivered, 500);
    }

    #[test]
    fn bulk_send_respects_initial_cwnd() {
        let now = Time::ZERO;
        let (mut c, _s, _) = pair(now);
        let out = c.send(1_000_000, now);
        // init cwnd = 10 segments.
        assert_eq!(out.segments.len(), 10);
        assert_eq!(c.flight(), 10 * MSS);
        assert!(c.unsent() > 0);
    }

    #[test]
    fn acks_open_the_window() {
        let now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let out = c.send(1_000_000, now);
        let before = c.cwnd;
        let (acks, _) = deliver(&mut s, &out.segments, now);
        assert!(!acks.is_empty());
        let (more, _) = deliver(&mut c, &acks, now + Dur::millis(1));
        assert!(c.cwnd > before, "slow start must grow cwnd");
        assert!(!more.is_empty(), "new data flows on ACK");
    }

    #[test]
    fn full_transfer_reaches_the_app() {
        let now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let total_bytes = 200_000u64;
        let first = c.send(total_bytes, now);
        let delivered = run_to_quiescence(&mut c, &mut s, first.segments, now);
        assert_eq!(delivered, total_bytes);
        assert_eq!(c.flight(), 0);
        assert_eq!(s.stats().bytes_delivered, total_bytes);
        assert_eq!(c.stats().bytes_acked, total_bytes);
    }

    #[test]
    fn lost_segment_triggers_fast_retransmit() {
        let now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let out = c.send(20 * MSS, now);
        assert!(out.segments.len() >= 5);
        // Drop the first data segment; deliver the rest.
        let (dupacks, delivered) = deliver(&mut s, &out.segments[1..], now);
        assert_eq!(delivered, 0, "nothing in order yet");
        assert!(dupacks.len() >= 3, "every OOO segment produces a dup-ACK");
        let (retx, _) = deliver(&mut c, &dupacks, now + Dur::micros(100));
        assert_eq!(c.stats().fast_retransmits, 1);
        assert!(retx.iter().any(|r| r.seq == out.segments[0].seq));
        // Deliver the retransmission: the whole prefix is released at once.
        let (_, late) = deliver(&mut s, &retx, now + Dur::micros(200));
        assert!(late >= 9 * MSS, "reassembly released {late}");
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let now = Time::ZERO;
        let (mut c, _s, _) = pair(now);
        let _ = c.send(3 * MSS, now);
        let t1 = c.next_timer().expect("rto armed");
        let out = c.on_timer(t1);
        assert_eq!(c.stats().timeouts, 1);
        assert_eq!(out.segments.len(), 1);
        assert_eq!(c.cwnd, MSS, "RTO collapses cwnd to 1 MSS");
        let t2 = c.next_timer().expect("rto re-armed");
        assert!(t2 - t1 > t1 - Time::ZERO, "exponential backoff");
    }

    #[test]
    fn rtt_estimation_converges() {
        let mut now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let rtt = Dur::micros(500);
        for _ in 0..20 {
            // Two full segments so the receiver ACKs immediately.
            let out = c.send(2 * MSS, now);
            now += rtt;
            let (acks, _) = deliver(&mut s, &out.segments, now);
            let _ = deliver(&mut c, &acks, now);
            now += Dur::millis(50);
        }
        let srtt = c.srtt.expect("sampled");
        let err = srtt.as_nanos() as f64 / rtt.as_nanos() as f64;
        assert!((0.8..=1.2).contains(&err), "srtt {srtt} vs rtt {rtt}");
    }

    #[test]
    fn graceful_close_both_sides() {
        let now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let fin = c.close(now);
        assert_eq!(c.state(), State::FinWait1);
        let (ack_and_more, _) = deliver(&mut s, &fin.segments, now);
        assert_eq!(s.state(), State::CloseWait);
        let _ = deliver(&mut c, &ack_and_more, now);
        assert_eq!(c.state(), State::FinWait2);
        // Server closes its side.
        let sfin = s.close(now);
        assert_eq!(s.state(), State::LastAck);
        let (last_ack, _) = deliver(&mut c, &sfin.segments, now);
        assert!(c.is_closed());
        let _ = deliver(&mut s, &last_ack, now);
        assert!(s.is_closed());
    }

    #[test]
    fn close_flushes_pending_data_first() {
        let now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let mut segs = c.send(3 * MSS, now).segments;
        segs.extend(c.close(now).segments);
        // FIN must be the last segment, after all data.
        assert!(segs.last().unwrap().flags.contains(TcpFlags::FIN));
        let delivered = run_to_quiescence(&mut c, &mut s, segs, now);
        assert_eq!(delivered, 3 * MSS);
        assert_eq!(s.state(), State::CloseWait);
    }

    #[test]
    fn rst_kills_the_connection() {
        let now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let rst = c.abort();
        assert!(c.is_closed());
        let out = deliver(&mut s, &rst.segments, now);
        assert!(s.is_closed());
        assert_eq!(s.state(), State::Reset);
        assert!(out.0.is_empty());
    }

    #[test]
    fn delayed_ack_single_segment() {
        let now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let out = c.send(100, now);
        let reply = s.on_segment(&out.segments[0], now);
        // One small segment: no immediate ACK, delack timer armed.
        assert!(reply.segments.is_empty());
        let deadline = s.next_timer().expect("delack armed");
        let fired = s.on_timer(deadline);
        assert_eq!(fired.segments.len(), 1);
        assert!(fired.segments[0].flags.contains(TcpFlags::ACK));
    }

    #[test]
    fn every_second_segment_acks_immediately() {
        let now = Time::ZERO;
        let (mut c, mut s, _) = pair(now);
        let out = c.send(2 * MSS, now);
        assert_eq!(out.segments.len(), 2);
        let r1 = s.on_segment(&out.segments[0], now);
        assert!(r1.segments.is_empty());
        let r2 = s.on_segment(&out.segments[1], now);
        assert_eq!(r2.segments.len(), 1);
    }

    #[test]
    fn sequence_wraparound_survives() {
        // Start near the top of the 32-bit space.
        let now = Time::ZERO;
        let cfg = TcpConfig::default();
        let (mut c, out) = Connection::client(cfg, 1, 2, u32::MAX - 2000, now);
        let (mut s, sout) =
            Connection::server_from_syn(cfg, &out.segments[0], u32::MAX - 5, now).unwrap();
        let ack = c.on_segment(&sout.segments[0], now);
        let _ = s.on_segment(&ack.segments[0], now);
        let first = c.send(100_000, now);
        let delivered = run_to_quiescence(&mut c, &mut s, first.segments, now);
        assert_eq!(delivered, 100_000);
    }

    #[test]
    fn range_insertion_merges() {
        let mut set = Vec::new();
        insert_range(&mut set, (10, 20));
        insert_range(&mut set, (30, 40));
        insert_range(&mut set, (15, 32));
        assert_eq!(set, vec![(10, 40)]);
        insert_range(&mut set, (50, 60));
        assert_eq!(set, vec![(10, 40), (50, 60)]);
        insert_range(&mut set, (40, 50));
        assert_eq!(set, vec![(10, 60)]);
    }

    /// The implementation `insert_range` replaced: append, sort, and merge
    /// into a fresh `Vec`.
    fn insert_range_by_sorting(set: &mut Vec<(u64, u64)>, (s, e): (u64, u64)) {
        set.push((s, e));
        set.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(set.len());
        for &(s, e) in set.iter() {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        *set = merged;
    }

    #[test]
    fn range_insertion_matches_the_sorting_implementation() {
        for seed in 0..500 {
            let mut rng = mts_sim::DetRng::new(seed);
            let (mut in_place, mut sorted) = (Vec::new(), Vec::new());
            for _ in 0..60 {
                // Empty ranges too: a bare SYN in sequence space is one.
                let s = rng.below(400);
                let range = (s, s + rng.below(120));
                insert_range(&mut in_place, range);
                insert_range_by_sorting(&mut sorted, range);
                assert_eq!(in_place, sorted, "seed {seed}, inserting {range:?}");
            }
        }
    }

    #[test]
    fn unwrap_near_handles_wrap() {
        // reference 100, iss such that wire(100) = u32::MAX - 1.
        let iss = (u32::MAX - 1).wrapping_sub(100);
        assert_eq!(unwrap_near(u32::MAX - 1, iss, 100), 100);
        assert_eq!(unwrap_near(u32::MAX, iss, 100), 101);
        // Wrapping past zero.
        assert_eq!(unwrap_near(3, iss, 100), 105);
        // Slightly behind.
        assert_eq!(unwrap_near(u32::MAX - 3, iss, 100), 98);
    }

    #[test]
    fn syn_retransmit_on_timeout() {
        let now = Time::ZERO;
        let cfg = TcpConfig::default();
        let (mut c, _out) = Connection::client(cfg, 1, 2, 7, now);
        let deadline = c.next_timer().expect("syn rto");
        let out = c.on_timer(deadline);
        assert_eq!(out.segments.len(), 1);
        assert!(out.segments[0].flags.contains(TcpFlags::SYN));
        assert_eq!(c.stats().timeouts, 1);
    }
}
