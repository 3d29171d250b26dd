//! TCP endpoint hosting: connections + applications on simulated machines.
//!
//! A [`TcpHostRt`] is one TCP/IP endpoint — the load generator's benchmark
//! clients or a tenant VM's server — wired into the [`World`]: its segments
//! travel the same simulated datapath as everything else, and its per-
//! segment CPU cost is charged to the owning VM's cores. Applications (the
//! [`mts_apps::App`] implementations) interact through a buffered
//! [`mts_apps::AppCtx`], so all side effects flow deterministically through
//! the event engine.
//!
//! Per the paper's system support (Sec. 3.2), address resolution is static:
//! each host is configured with routes mapping remote IPs to next-hop MACs
//! (the tenant's Gw VF, or the compartment's In/Out VF from the LG side).

use crate::runtime::{wire_inject, with_scratch, Charge, CoreEvent, Sim, World};
use mts_apps::{App, AppCtx, ConnId};
use mts_net::{Frame, Ipv4Packet, MacAddr, Payload, TcpFlags, TcpSegment, Transport};
use mts_nic::{NicPort, PfId, VfId};
#[cfg(test)]
use mts_sim::Time;
use mts_sim::{CoreId, DetRng, Dur, FastHashMap, FastHashSet, Histogram, UNTAGGED_EVENT};
use mts_tcp::{ConnStats, Connection, Progress, TcpConfig};
use mts_telemetry::DropCause;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// How a host's frames reach the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostAttach {
    /// External machine on the wire of a physical port (the LG).
    Wire(PfId),
    /// A tenant VM's SR-IOV VF (MTS).
    Vf(PfId, VfId),
    /// A tenant VM's vhost channel (Baseline), routed to the vswitch that
    /// owns the `(tenant, side)` port.
    Vhost(u8, u8),
}

/// Connection key: (local port, remote ip, remote port). The local IP is
/// the host's own address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Quad {
    /// Local TCP port.
    pub lport: u16,
    /// Remote IPv4 address.
    pub rip: Ipv4Addr,
    /// Remote TCP port.
    pub rport: u16,
}

struct ConnRt {
    conn: Connection,
    id: ConnId,
    timer_gen: u64,
}

/// One TCP/IP endpoint plus its application.
pub struct TcpHostRt {
    /// Host name (diagnostics).
    pub name: String,
    /// The host's IP address.
    pub ip: Ipv4Addr,
    /// The host's MAC address.
    pub mac: MacAddr,
    /// Attachment to the datapath.
    pub attach: HostAttach,
    /// Static routes: remote IP → next-hop MAC.
    pub routes: Vec<(Ipv4Addr, MacAddr)>,
    /// Next-hop MAC for unlisted destinations.
    pub default_route: MacAddr,
    /// Cores to charge (None: the LG, assumed unconstrained).
    pub cores: Option<[CoreId; 2]>,
    /// CPU cost per TCP segment processed or emitted.
    pub per_segment: Dur,
    /// TCP parameters.
    pub tcp_cfg: TcpConfig,
    /// Ports with listening applications.
    pub listeners: FastHashSet<u16>,
    /// Application latency samples (ns).
    pub latencies: Histogram,
    /// Application counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// When set (and `default_route` is unset), the host resolves its
    /// gateway with real ARP — answered by the vswitch's proxy-ARP
    /// responder (paper Sec. 3.2's alternative to static entries).
    pub gw_ip: Option<Ipv4Addr>,
    arp_pending: Vec<(Quad, TcpSegment)>,
    arp_in_flight: bool,
    app: Option<Box<dyn App>>,
    conns: FastHashMap<Quad, ConnRt>,
    by_id: FastHashMap<ConnId, Quad>,
    /// Counters of the connections already reaped.
    closed_stats: ConnStats,
    next_conn: u64,
    next_ephemeral: u16,
    rng: DetRng,
    scratch: Scratch,
}

/// The buffers one host event reuses; empty between events. An entry point
/// takes them with [`with_host_scratch`], the runtime's one scratch helper,
/// which puts them back on every path out (host handlers never re-enter one
/// another, as with `World`'s scratch).
#[derive(Default)]
struct Scratch {
    /// Segments the stack appended in its last call.
    segs: Vec<TcpSegment>,
    /// Segments to transmit, in order, with their connection.
    emits: Vec<(Quad, TcpSegment)>,
    /// App events not yet delivered.
    events: Vec<AppEvent>,
    /// Commands the app queued during one pass.
    cmds: Vec<Cmd>,
    /// Connections whose timers a pass of commands touched.
    timer_quads: Vec<Quad>,
}

impl TcpHostRt {
    /// Creates a host; `seed_rng` drives ISS selection and app randomness.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        ip: Ipv4Addr,
        mac: MacAddr,
        attach: HostAttach,
        cores: Option<[CoreId; 2]>,
        app: Box<dyn App>,
        seed_rng: DetRng,
    ) -> TcpHostRt {
        TcpHostRt {
            name: name.into(),
            ip,
            mac,
            attach,
            routes: Vec::new(),
            default_route: MacAddr::ZERO,
            cores,
            per_segment: Dur::nanos(1_500),
            tcp_cfg: TcpConfig::default(),
            listeners: FastHashSet::default(),
            latencies: Histogram::new(),
            counters: BTreeMap::new(),
            gw_ip: None,
            arp_pending: Vec::new(),
            arp_in_flight: false,
            app: Some(app),
            conns: FastHashMap::default(),
            by_id: FastHashMap::default(),
            closed_stats: ConnStats::default(),
            next_conn: 1,
            next_ephemeral: 32768,
            rng: seed_rng,
            scratch: Scratch::default(),
        }
    }

    /// Adds a static route.
    pub fn add_route(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.routes.push((ip, mac));
    }

    /// Resolves the next-hop MAC for a destination.
    pub fn route(&self, ip: Ipv4Addr) -> MacAddr {
        self.routes
            .iter()
            .find(|(r, _)| *r == ip)
            .map(|(_, m)| *m)
            .unwrap_or(self.default_route)
    }

    /// A counter value.
    pub fn counter(&self, what: &str) -> u64 {
        self.counters.get(what).copied().unwrap_or(0)
    }

    /// TCP counters summed over every connection the host has had, closed
    /// ones included.
    pub fn tcp_stats(&self) -> ConnStats {
        let mut s = self.closed_stats;
        // lint:allow(hashmap-iter): commutative += aggregation, order-insensitive
        for c in self.conns.values() {
            s += c.conn.stats();
        }
        s
    }

    fn alloc_conn_id(&mut self) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        id
    }

    fn alloc_ephemeral(&mut self) -> u16 {
        // Skip ports already in use; wraps within the ephemeral range.
        for _ in 0..30000 {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p >= 65500 { 32768 } else { p + 1 };
            if !self.conns.keys().any(|q| q.lport == p) {
                return p;
            }
        }
        32768
    }
}

/// Application context: sends and closes are queued for the runtime to
/// apply after the callbacks return; connects are scheduled, and latencies
/// and counts recorded, as they come.
struct CtxBuf<'a> {
    cmds: &'a mut Vec<Cmd>,
    latencies: &'a mut Histogram,
    counters: &'a mut BTreeMap<&'static str, u64>,
    e: &'a mut Sim,
    h: usize,
    /// Connects so far in this pass of callbacks.
    connects: u64,
    cpu: Dur,
    rng: DetRng,
    next_conn: u64,
}

enum Cmd {
    Send(ConnId, u64),
    Close(ConnId),
}

impl AppCtx for CtxBuf<'_> {
    fn send(&mut self, conn: ConnId, bytes: u64) {
        self.cmds.push(Cmd::Send(conn, bytes));
    }
    fn close(&mut self, conn: ConnId) {
        self.cmds.push(Cmd::Close(conn));
    }
    fn connect(&mut self, rip: Ipv4Addr, rport: u16) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        // Batched opens are paced (~250 us apart), as real closed-loop
        // benchmark tools ramp their connection pools; an instantaneous SYN
        // burst would only measure rx-ring overflow and RTO recovery.
        let at = self.e.now() + Dur::micros(250) * self.connects;
        self.connects += 1;
        let h = self.h;
        let ev = CoreEvent::HostConnect { h, id, rip, rport };
        self.e.schedule_event(at, UNTAGGED_EVENT, ev);
        id
    }
    fn record_latency(&mut self, ns: u64) {
        self.latencies.record(ns);
    }
    fn count(&mut self, what: &'static str, n: u64) {
        *self.counters.entry(what).or_insert(0) += n;
    }
    fn consume_cpu(&mut self, cost: Dur) {
        self.cpu += cost;
    }
    fn random(&mut self) -> f64 {
        self.rng.unit()
    }
}

/// An application-visible event.
enum AppEvent {
    Started,
    Connected(ConnId),
    Data(ConnId, u64),
    Closed(ConnId),
}

/// Runs `f` on host `h` (if it exists) with the host's scratch taken out.
fn with_host_scratch(
    w: &mut World,
    e: &mut Sim,
    h: usize,
    f: impl FnOnce(&mut World, &mut Sim, &mut Scratch),
) {
    if h < w.hosts.len() {
        with_scratch(w, e, |w| &mut w.hosts[h].scratch, f);
    }
}

/// Boots host `h`: starts its application.
pub fn host_start(w: &mut World, e: &mut Sim, h: usize) {
    with_host_scratch(w, e, h, |w, e, s| {
        s.events.push(AppEvent::Started);
        run_app_events_then_emit(w, e, h, s);
    });
}

/// A frame arrives at host `h` (already delivered to its NIC/VF).
pub fn host_rx(w: &mut World, e: &mut Sim, h: usize, frame: Frame) {
    let now = e.now();
    let Some(host) = w.hosts.get(h) else {
        let fid = frame.id;
        w.drop_frame_traced(now, fid, DropCause::NoSuchHost);
        return;
    };
    // Charge the per-segment receive cost (GRO-amortized for bulk data),
    // then process at grant end.
    match host.cores {
        Some(cores) => {
            let core = cores[(frame.flow_hash() % 2) as usize];
            let cost = host.per_segment / crate::runtime::tso_factor(&frame);
            let grant = w.grant(core, now, Charge::Host(h), cost);
            e.schedule_event(grant.end, UNTAGGED_EVENT, CoreEvent::HostExec { h, frame });
        }
        None => host_exec(w, e, h, frame),
    }
}

/// Finds the host for an externally-delivered frame by destination IP.
pub fn external_host_rx(w: &mut World, e: &mut Sim, h_default: usize, frame: Frame) {
    let dst = frame.dst_ip();
    let h = dst
        .and_then(|ip| {
            w.hosts
                .iter()
                .position(|host| host.ip == ip && matches!(host.attach, HostAttach::Wire(_)))
        })
        .unwrap_or(h_default);
    host_rx(w, e, h, frame);
}

/// Host `h`'s stack processes a received frame (its rx grant has ended).
pub(crate) fn host_exec(w: &mut World, e: &mut Sim, h: usize, frame: Frame) {
    with_host_scratch(w, e, h, |w, e, s| {
        let now = e.now();
        let host = &mut w.hosts[h];
        // Gateway ARP replies complete dynamic resolution and flush queued
        // segments.
        if let mts_net::Payload::Arp(arp) = frame.payload.get() {
            if arp.op == mts_net::ArpOp::Reply && host.gw_ip == Some(arp.sender_ip) {
                host.default_route = arp.sender_mac;
                host.arp_in_flight = false;
                s.emits.append(&mut host.arp_pending);
                emit_segments(w, e, h, s);
            }
            return;
        }
        let Some(ip) = frame.ipv4() else {
            return;
        };
        if ip.dst != host.ip {
            w.drop_frame_traced(now, frame.id, DropCause::HostMisaddressed);
            return;
        }
        let Transport::Tcp(seg) = ip.transport else {
            return;
        };
        let quad = Quad {
            lport: seg.dport,
            rip: ip.src,
            rport: seg.sport,
        };
        if let Some(rt) = host.conns.get_mut(&quad) {
            let p = rt.conn.on_segment_into(&seg, now, &mut s.segs);
            collect(host, quad, p, s);
        } else if seg.flags.contains(TcpFlags::SYN)
            && !seg.flags.contains(TcpFlags::ACK)
            && host.listeners.contains(&seg.dport)
        {
            let iss = host.rng.below(u64::from(u32::MAX)) as u32;
            if let Some(conn) =
                Connection::server_from_syn_into(host.tcp_cfg, &seg, iss, now, &mut s.segs)
            {
                let id = host.alloc_conn_id();
                host.conns.insert(
                    quad,
                    ConnRt {
                        conn,
                        id,
                        timer_gen: 0,
                    },
                );
                host.by_id.insert(id, quad);
                collect(host, quad, Progress::default(), s);
            }
        } else if !seg.flags.contains(TcpFlags::RST) {
            // Unknown connection: a real stack answers with RST.
            s.emits.push((
                quad,
                TcpSegment {
                    sport: seg.dport,
                    dport: seg.sport,
                    seq: seg.ack,
                    ack: seg.seq_end(),
                    flags: TcpFlags::RST | TcpFlags::ACK,
                    window: 0,
                    payload_len: 0,
                },
            ));
        }
        run_app_events_then_emit(w, e, h, s);
        arm_conn_timer(w, e, h, quad);
    });
}

/// Moves the stack's segments into the emits and its progress into app
/// events, reaping closed conns.
fn collect(host: &mut TcpHostRt, quad: Quad, p: Progress, s: &mut Scratch) {
    s.emits.extend(s.segs.drain(..).map(|seg| (quad, seg)));
    let Some(id) = host.conns.get(&quad).map(|rt| rt.id) else {
        return;
    };
    if p.connected {
        s.events.push(AppEvent::Connected(id));
    }
    if p.delivered > 0 {
        s.events.push(AppEvent::Data(id, p.delivered));
    }
    if p.closed {
        s.events.push(AppEvent::Closed(id));
        if let Some(rt) = host.conns.remove(&quad) {
            host.closed_stats += rt.conn.stats();
        }
        host.by_id.remove(&id);
    }
}

/// Delivers app events, applies the app's queued commands, then emits.
fn run_app_events_then_emit(w: &mut World, e: &mut Sim, h: usize, s: &mut Scratch) {
    run_app(w, e, h, s);
    emit_segments(w, e, h, s);
}

/// Runs app callbacks for the queued events, appending the segments their
/// commands produce to the emits.
fn run_app(w: &mut World, e: &mut Sim, h: usize, s: &mut Scratch) {
    let now = e.now();
    let mut guard = 0;
    while !s.events.is_empty() {
        guard += 1;
        if guard > 64 {
            s.events.clear();
            break; // Defensive bound against app/command ping-pong.
        }
        // Phase 1: call the app; it records into the host directly.
        let cpu = {
            let host = &mut w.hosts[h];
            // lint:allow(no-unwrap): the app is re-stored before returning
            let mut app = host.app.take().expect("app present");
            let mut ctx = CtxBuf {
                cmds: &mut s.cmds,
                latencies: &mut host.latencies,
                counters: &mut host.counters,
                e: &mut *e,
                h,
                connects: 0,
                cpu: Dur::ZERO,
                rng: host.rng.derive("app"),
                next_conn: host.next_conn,
            };
            for ev in s.events.drain(..) {
                match ev {
                    AppEvent::Started => app.on_start(now, &mut ctx),
                    AppEvent::Connected(id) => app.on_connected(id, now, &mut ctx),
                    AppEvent::Data(id, n) => app.on_data(id, n, now, &mut ctx),
                    AppEvent::Closed(id) => app.on_closed(id, now, &mut ctx),
                }
            }
            let cpu = ctx.cpu;
            host.next_conn = ctx.next_conn;
            host.app = Some(app);
            // The derived app rng advanced; fold it back so draws differ
            // next time.
            host.rng = host.rng.derive("fold");
            cpu
        };
        // Phase 2: apply side effects.
        if !cpu.is_zero() {
            if let Some(cores) = w.hosts[h].cores {
                w.grant(cores[0], now, Charge::Host(h), cpu);
            }
        }
        let mut cmds = std::mem::take(&mut s.cmds);
        for cmd in cmds.drain(..) {
            let host = &mut w.hosts[h];
            let (Cmd::Send(id, _) | Cmd::Close(id)) = cmd;
            let Some(quad) = host.by_id.get(&id).copied() else {
                continue;
            };
            let Some(rt) = host.conns.get_mut(&quad) else {
                continue;
            };
            let p = match cmd {
                Cmd::Send(_, bytes) => rt.conn.send_into(bytes, now, &mut s.segs),
                Cmd::Close(_) => rt.conn.close_into(now, &mut s.segs),
            };
            collect(host, quad, p, s);
            s.timer_quads.push(quad);
        }
        s.cmds = cmds;
        for quad in s.timer_quads.drain(..) {
            arm_conn_timer(w, e, h, quad);
        }
    }
}

/// Opens a staggered client connection (see `CtxBuf::connect`).
pub(crate) fn open_client_conn(
    w: &mut World,
    e: &mut Sim,
    h: usize,
    id: ConnId,
    rip: Ipv4Addr,
    rport: u16,
) {
    with_host_scratch(w, e, h, |w, e, s| {
        let host = &mut w.hosts[h];
        let lport = host.alloc_ephemeral();
        let quad = Quad { lport, rip, rport };
        let iss = host.rng.below(u64::from(u32::MAX)) as u32;
        let conn = Connection::client_into(host.tcp_cfg, lport, rport, iss, e.now(), &mut s.segs);
        host.conns.insert(
            quad,
            ConnRt {
                conn,
                id,
                timer_gen: 0,
            },
        );
        host.by_id.insert(id, quad);
        collect(host, quad, Progress::default(), s);
        run_app_events_then_emit(w, e, h, s);
        arm_conn_timer(w, e, h, quad);
    });
}

/// Transmits (drains) the emits of host `h` into the datapath.
fn emit_segments(w: &mut World, e: &mut Sim, h: usize, s: &mut Scratch) {
    let emits = &mut s.emits;
    if emits.is_empty() {
        return;
    }
    let now = e.now();
    let host = &mut w.hosts[h];
    // Dynamic ARP: queue segments until the gateway resolves, sending one
    // who-has request (answered by the vswitch proxy-ARP responder).
    if host.gw_ip.is_some() && host.default_route == MacAddr::ZERO {
        host.arp_pending.append(emits);
        if let (Some(gw_ip), false) = (host.gw_ip, host.arp_in_flight) {
            host.arp_in_flight = true;
            let req = mts_net::ArpPacket::request(host.mac, host.ip, gw_ip);
            let (frame, attach) = (Frame::arp(host.mac, req), host.attach);
            dispatch_frame(w, e, attach, frame);
        }
        return;
    }
    // Charge tx CPU (tenant hosts only) and compute the departure time.
    let depart = match host.cores {
        Some(cores) => {
            // GSO: bulk data segments cost less per segment to emit.
            let per_segment = host.per_segment.as_nanos();
            let cost = emits
                .iter()
                .map(|(_, seg)| per_segment / if seg.payload_len >= 1_000 { 8 } else { 1 })
                .sum();
            w.grant(cores[1], now, Charge::Host(h), Dur::nanos(cost))
                .end
        }
        None => now,
    };
    let host = &w.hosts[h];
    for (quad, seg) in emits.drain(..) {
        let frame = Frame::new(
            host.mac,
            host.route(quad.rip),
            Payload::Ipv4(Ipv4Packet {
                src: host.ip,
                dst: quad.rip,
                ttl: 64,
                tos: 0,
                transport: Transport::Tcp(seg),
            }),
        )
        .stamped(now.as_nanos());
        let attach = host.attach;
        e.schedule_event(depart, UNTAGGED_EVENT, CoreEvent::HostTx { attach, frame });
    }
}

/// Sends one frame into the datapath via a host attachment.
pub(crate) fn dispatch_frame(w: &mut World, e: &mut Sim, attach: HostAttach, frame: Frame) {
    match attach {
        HostAttach::Wire(pf) => wire_inject(w, e, pf, frame),
        HostAttach::Vf(pf, vf) => {
            let arr = w.nic.dma(e.now(), u64::from(frame.wire_len()));
            let port = NicPort::Vf(vf);
            e.schedule_event(arr, UNTAGGED_EVENT, CoreEvent::NicRx { pf, port, frame });
        }
        HostAttach::Vhost(tenant, side) => {
            // The vswitch port is looked up on arrival, and the frame
            // dropped as `VhostUnrouted` if the channel has none.
            let arr = e.now() + w.cfg.host_notify;
            e.schedule_event(
                arr,
                UNTAGGED_EVENT,
                CoreEvent::VhostTx {
                    tenant,
                    side,
                    frame,
                },
            );
        }
    }
}

/// (Re-)arms the retransmission/delayed-ACK timer of one connection.
fn arm_conn_timer(w: &mut World, e: &mut Sim, h: usize, quad: Quad) {
    let Some(host) = w.hosts.get_mut(h) else {
        return;
    };
    let Some(rt) = host.conns.get_mut(&quad) else {
        return;
    };
    rt.timer_gen += 1;
    let gen = rt.timer_gen;
    let Some(deadline) = rt.conn.next_timer() else {
        return;
    };
    let ev = CoreEvent::ConnTimer { h, quad, gen };
    e.schedule_event(deadline, UNTAGGED_EVENT, ev);
}

/// A connection timer armed at generation `gen` fires.
pub(crate) fn conn_timer_fire(w: &mut World, e: &mut Sim, h: usize, quad: Quad, gen: u64) {
    with_host_scratch(w, e, h, |w, e, s| {
        let host = &mut w.hosts[h];
        let Some(rt) = host.conns.get_mut(&quad) else {
            return;
        };
        if rt.timer_gen != gen {
            return; // Superseded by later activity.
        }
        let p = rt.conn.on_timer_into(e.now(), &mut s.segs);
        collect(host, quad, p, s);
        run_app_events_then_emit(w, e, h, s);
        arm_conn_timer(w, e, h, quad);
    });
}

/// Registers a tenant-hosted server: creates the host, binds the listener,
/// marks the tenant VM as an endpoint, and wires VF/vhost ownership.
#[allow(clippy::too_many_arguments)]
pub fn add_tenant_server(
    w: &mut World,
    tenant: u8,
    listen_port: u16,
    app: Box<dyn App>,
    per_segment: Dur,
) -> usize {
    let t = &w.plan.tenants[tenant as usize];
    let attach = if w.spec.level.compartmentalized() {
        let (vf, _) = t.vf[0];
        HostAttach::Vf(vf.pf, vf.vf)
    } else {
        HostAttach::Vhost(tenant, 0)
    };
    let comp = w.spec.compartment_of_tenant(tenant) as usize;
    let gw_mac = if w.spec.level.compartmentalized() {
        w.plan.compartments[comp]
            .gw_for(tenant, 0)
            .map(|(_, m)| m)
            .unwrap_or(MacAddr::ZERO)
    } else {
        // Baseline: the vswitch routes on IP; any dmac works. Use the
        // host-side router MAC for realism.
        crate::controller::Controller::baseline_router_mac(0)
    };
    let cores = w.tenants[tenant as usize].cores;
    let rng = w.rng.derive(&format!("host-t{tenant}"));
    let mut host = TcpHostRt::new(
        format!("tenant{tenant}"),
        t.ip,
        t.vf[0].1,
        attach,
        Some(cores),
        app,
        rng,
    );
    host.per_segment = per_segment;
    host.default_route = gw_mac;
    host.listeners.insert(listen_port);
    let h = w.hosts.len();
    w.hosts.push(host);
    w.tenants[tenant as usize].kind = crate::runtime::TenantKind::Endpoint(h);
    // Claim the tenant's VF for this endpoint (MTS).
    if let HostAttach::Vf(pf, vf) = attach {
        w.vf_owner.insert(
            (pf.0, vf.0),
            crate::runtime::Owner::Tenant(tenant as usize, 0),
        );
    }
    h
}

/// Registers an external (LG-side) client host on the wire of port 0.
pub fn add_lg_client(
    w: &mut World,
    name: &str,
    ip: Ipv4Addr,
    app: Box<dyn App>,
    routes: Vec<(Ipv4Addr, MacAddr)>,
) -> usize {
    let rng = w.rng.derive(&format!("lg-{name}"));
    let mut host = TcpHostRt::new(
        name,
        ip,
        w.plan.lg_mac,
        HostAttach::Wire(PfId(0)),
        None,
        app,
        rng,
    );
    host.routes = routes;
    host.default_route = w.route_mac(0);
    let h = w.hosts.len();
    w.hosts.push(host);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
    use crate::runtime::{RuntimeCfg, WireEnd};
    use crate::spec::{DeploymentSpec, Scenario, SecurityLevel};
    use mts_apps::{IperfClient, IperfServer};
    use mts_host::ResourceMode;
    use mts_vswitch::DatapathKind;

    fn iperf_world(level: SecurityLevel) -> (World, Sim) {
        let spec = DeploymentSpec::mts(
            level,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let d = Controller::deploy_workload(spec).unwrap();
        let mut cfg = RuntimeCfg::for_spec(&spec);
        cfg.offered_pps = 0.0;
        let mut w = World::new(d, cfg, 123);
        // One tenant server; one LG client streaming to it.
        let t = 0u8;
        add_tenant_server(
            &mut w,
            t,
            mts_apps::iperf::IPERF_PORT,
            Box::new(IperfServer::new()),
            Dur::nanos(1_500),
        );
        let server_ip = w.plan.tenants[0].ip;
        let comp_mac = w.route_mac(0);
        let lg_ip = w.plan.lg_ip;
        add_lg_client(
            &mut w,
            "iperf-client",
            lg_ip,
            Box::new(IperfClient::new(vec![server_ip])),
            vec![(server_ip, comp_mac)],
        );
        w.wire_ends = vec![WireEnd::Host(1)];
        (w, Sim::new())
    }

    #[test]
    fn iperf_stream_flows_end_to_end() {
        let (mut w, mut e) = iperf_world(SecurityLevel::Level1);
        host_start(&mut w, &mut e, 1);
        e.run_until(&mut w, Time::from_nanos(50_000_000)); // 50 ms
        let server = &w.hosts[0];
        let bytes = server.counter("iperf_bytes");
        assert!(
            bytes > 100_000,
            "iperf moved only {bytes} bytes; drops {:?}",
            w.drops
        );
        // Goodput within 10G: bytes in 50 ms.
        let gbps = bytes as f64 * 8.0 / 0.05 / 1e9;
        assert!(gbps < 10.5, "goodput {gbps} exceeds the link");
    }

    #[test]
    fn rst_for_closed_ports() {
        let (mut w, mut e) = iperf_world(SecurityLevel::Level1);
        // Client connects to a port nobody listens on.
        let server_ip = w.plan.tenants[0].ip;
        let comp_mac = w.route_mac(0);
        let h = add_lg_client(
            &mut w,
            "stray",
            Ipv4Addr::new(10, 255, 0, 99),
            Box::new(IperfClient::new(vec![server_ip])),
            vec![(server_ip, comp_mac)],
        );
        // Point the stray client at a dead port by rebinding the listener.
        w.hosts[0].listeners.clear();
        host_start(&mut w, &mut e, h);
        e.run_until(&mut w, Time::from_nanos(20_000_000));
        // The client connection was reset, not established.
        assert_eq!(w.hosts[h].counter("iperf_streams"), 0);
        assert_eq!(w.hosts[0].counter("iperf_bytes"), 0);
    }

    #[test]
    fn ephemeral_ports_do_not_collide() {
        let rng = DetRng::new(1);
        let mut host = TcpHostRt::new(
            "x",
            Ipv4Addr::new(1, 1, 1, 1),
            MacAddr::local(1),
            HostAttach::Wire(PfId(0)),
            None,
            Box::new(IperfServer::new()),
            rng,
        );
        let a = host.alloc_ephemeral();
        // Simulate the port being taken.
        host.conns.insert(
            Quad {
                lport: a,
                rip: Ipv4Addr::new(2, 2, 2, 2),
                rport: 80,
            },
            ConnRt {
                conn: Connection::client(TcpConfig::default(), a, 80, 1, Time::ZERO).0,
                id: ConnId(99),
                timer_gen: 0,
            },
        );
        let b = host.alloc_ephemeral();
        assert_ne!(a, b);
    }

    #[test]
    fn dynamic_arp_resolves_via_proxy_arp_and_traffic_flows() {
        // Like the iperf world, but the tenant server starts with an
        // unresolved gateway: its first segments queue behind a who-has
        // request that the vswitch's proxy-ARP responder answers.
        let (mut w, mut e) = iperf_world(SecurityLevel::Level1);
        let gw_ip = w.plan.tenants[0].gw_ip;
        {
            let server = &mut w.hosts[0];
            server.default_route = MacAddr::ZERO;
            server.gw_ip = Some(gw_ip);
        }
        host_start(&mut w, &mut e, 1);
        e.run_until(&mut w, Time::from_nanos(50_000_000));
        let server = &w.hosts[0];
        assert_ne!(
            server.default_route,
            MacAddr::ZERO,
            "gateway must resolve via proxy ARP (drops {:?})",
            w.drops
        );
        let bytes = server.counter("iperf_bytes");
        assert!(bytes > 100_000, "iperf moved only {bytes} bytes after ARP");
    }

    /// A small Baseline Apache world: tenant 0 serves, one ApacheBench
    /// client on the load generator (host 1) keeps `concurrency` requests
    /// in flight over the vhost path.
    fn apache_world(concurrency: u32) -> (World, Sim) {
        use mts_apps::{http::HTTP_PORT, AbClient, HttpServer};
        let spec =
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
        let d = Controller::deploy_workload(spec).unwrap();
        let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 5);
        let mut e = Sim::new();
        let server = Box::new(HttpServer::new());
        add_tenant_server(&mut w, 0, HTTP_PORT, server, Dur::nanos(1_500));
        let server_ip = w.plan.tenants[0].ip;
        let client = add_lg_client(
            &mut w,
            "ab",
            Ipv4Addr::new(10, 255, 0, 10),
            Box::new(AbClient::new(server_ip, concurrency)),
            vec![(server_ip, Controller::baseline_router_mac(0))],
        );
        w.wire_ends = vec![WireEnd::Host(client)];
        host_start(&mut w, &mut e, client);
        (w, e)
    }

    #[test]
    fn typed_host_events_keep_the_closures_dispatch_tags() {
        let (mut w, mut e) = apache_world(4);
        // The connect ramp is all that `host_start` schedules: one
        // `HostConnect` per connection, 250 us apart.
        assert_eq!(e.pending(), 4);
        e.run_until(&mut w, Time::from_nanos(20_000_000));
        let done = w.hosts[1].counter("http_requests_done");
        assert!(done > 0, "no request completed; drops {:?}", w.drops);
        // Exactly the kinds and counts that fired in this run when host
        // events, the connect ramp's and every re-connect's included, were
        // boxed closures: the typed ones keep the closures' tag, instant
        // and order.
        let counts: Vec<(&str, u64)> = e.dispatch_counts().collect();
        assert_eq!(
            counts,
            [
                ("dma", 5245),
                (UNTAGGED_EVENT, 10731),
                ("nic.rx", 5239),
                ("vhost.deliver", 2233),
                ("vswitch.exec", 5239),
                ("vswitch.rx", 2249),
                ("wire.rx", 2988),
                ("wire.tx", 2989)
            ]
        );
        let total: u64 = e.dispatch_counts().map(|(_, n)| n).sum();
        assert_eq!(total, e.events_fired());
    }

    #[test]
    fn superseded_conn_timer_does_nothing() {
        use mts_sim::Event;
        let (mut w, mut e) = apache_world(2);
        e.run_until(&mut w, Time::from_nanos(5_000_000));
        let h = 1;
        let (quad, live) = w.hosts[h]
            .conns
            .iter()
            .map(|(q, rt)| (*q, rt.timer_gen))
            .next()
            .expect("a live connection");
        let pending = e.pending();
        let stats = w.hosts[h].conns[&quad].conn.stats();
        CoreEvent::ConnTimer {
            h,
            quad,
            gen: live - 1,
        }
        .fire(&mut w, &mut e);
        assert_eq!(w.hosts[h].conns[&quad].timer_gen, live);
        assert_eq!(w.hosts[h].conns[&quad].conn.stats(), stats);
        assert_eq!(e.pending(), pending, "a stale timer scheduled something");
        // The live generation runs the stack's timer and re-arms.
        CoreEvent::ConnTimer { h, quad, gen: live }.fire(&mut w, &mut e);
        assert_eq!(w.hosts[h].conns[&quad].timer_gen, live + 1);
    }

    #[test]
    fn routes_resolve_with_default_fallback() {
        let rng = DetRng::new(1);
        let mut host = TcpHostRt::new(
            "x",
            Ipv4Addr::new(1, 1, 1, 1),
            MacAddr::local(1),
            HostAttach::Wire(PfId(0)),
            None,
            Box::new(IperfServer::new()),
            rng,
        );
        host.default_route = MacAddr::local(0xdd);
        host.add_route(Ipv4Addr::new(10, 0, 1, 1), MacAddr::local(0xaa));
        assert_eq!(host.route(Ipv4Addr::new(10, 0, 1, 1)), MacAddr::local(0xaa));
        assert_eq!(host.route(Ipv4Addr::new(9, 9, 9, 9)), MacAddr::local(0xdd));
    }
}
