//! Network terminals (network interfaces).
//!
//! Each terminal injects request packets according to a geometric process
//! with configurable rate, generates the matching reply one cycle after a
//! request's tail arrives, and gives replies strict priority over the
//! injection of new requests (§3.2). Ejection-side buffering is an ideal
//! sink: credits return to the router as soon as a flit arrives.

use crate::packet::{Flit, PacketKind, RouteState};
use crate::routing::{injection_class, route_at, ugal_choose, CongestionProbe, RoutingKind};
use crate::topology::Topology;
use crate::traffic::{TrafficGeometry, TrafficPattern};
use noc_core::VcAllocSpec;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A packet waiting in a terminal queue.
#[derive(Clone, Copy, Debug)]
pub struct PendingPacket {
    /// Packet kind.
    pub kind: PacketKind,
    /// Destination terminal.
    pub dest: usize,
    /// Creation cycle (start of latency measurement).
    pub birth: u64,
}

/// A packet currently streaming its flits into the router.
#[derive(Clone, Debug)]
struct ActivePacket {
    flits: Vec<Flit>,
    next: usize,
    /// Router-input VC it occupies.
    vc: usize,
}

/// One network terminal.
pub struct Terminal {
    /// Terminal id.
    pub id: usize,
    /// Attached router.
    pub router: usize,
    /// Input/output port at that router.
    pub port: usize,
    /// Requests waiting to inject.
    pub src_queue: VecDeque<PendingPacket>,
    /// Replies waiting to inject (strict priority).
    pub reply_queue: VecDeque<PendingPacket>,
    /// In-flight packet per message class (requests and replies stream
    /// independently so reply priority is not blocked behind a stalled
    /// request).
    active: [Option<ActivePacket>; 2],
    /// Recycled flit buffer per message class from the last completed
    /// packet, so steady-state injection never allocates (a packet's flit
    /// count is bounded by the payload size, so one spare per class reaches
    /// a fixed point).
    spare_flits: [Vec<Flit>; 2],
    /// Credits per router-input VC at the terminal port.
    credits: Vec<usize>,
    /// VC busy flags (held by an active packet until its tail is sent).
    vc_busy: Vec<bool>,
    rng: rand::rngs::StdRng,
    spec: VcAllocSpec,
    routing: RoutingKind,
    /// Monotonic per-terminal packet sequence number; combined with the
    /// terminal id it yields a collision-free packet id for any run length
    /// (the old `(id << 40) | (now << 8) | class` packing aliased across
    /// terminals once `now` reached 2^32, and within a terminal whenever
    /// more than 256 packets shared a cycle).
    next_seq: u64,
    /// Flits injected (for offered-load accounting).
    pub flits_injected: u64,
    /// Packets fully received at this terminal.
    pub packets_received: u64,
    /// Packets started on a minimal route (UGAL bookkeeping).
    pub minimal_started: u64,
    /// Packets started on a non-minimal (Valiant) route.
    pub nonminimal_started: u64,
    /// Debug-build tracking of partially received packets, to assert
    /// per-packet in-order, gap-free delivery.
    #[cfg(debug_assertions)]
    receiving: std::collections::HashMap<u64, usize>,
}

/// What a terminal did in one cycle.
#[derive(Clone, Debug, Default)]
pub struct TerminalOutputs {
    /// At most one flit entering the injection link: `(vc, flit)`.
    pub flit: Option<(usize, Flit)>,
}

impl Terminal {
    /// Creates an idle terminal.
    pub fn new(
        id: usize,
        topo: &Topology,
        spec: &VcAllocSpec,
        routing: RoutingKind,
        buf_depth: usize,
        seed: u64,
    ) -> Self {
        let (router, port) = topo.terminal_attach(id);
        let v = spec.total_vcs();
        Terminal {
            id,
            router,
            port,
            src_queue: VecDeque::new(),
            reply_queue: VecDeque::new(),
            active: [None, None],
            spare_flits: [Vec::new(), Vec::new()],
            credits: vec![buf_depth; v],
            vc_busy: vec![false; v],
            rng: rand::rngs::StdRng::seed_from_u64(
                seed ^ (id as u64).wrapping_mul(0x9e3779b97f4a7c15),
            ),
            spec: spec.clone(),
            routing,
            next_seq: 0,
            flits_injected: 0,
            packets_received: 0,
            minimal_started: 0,
            nonminimal_started: 0,
            // At most `v` packets interleave at the ejection port (one per
            // VC), so sizing for several times that keeps the map's load
            // below the in-place-rehash threshold forever: tombstone cleanup
            // never takes the allocating resize path, and the debug tracking
            // stays compatible with the steady-state zero-alloc audit.
            #[cfg(debug_assertions)]
            receiving: std::collections::HashMap::with_capacity(4 * v),
        }
    }

    /// Returns a credit for router-input VC `vc`.
    pub fn accept_credit(&mut self, vc: usize) {
        self.credits[vc] += 1;
    }

    /// Credits currently held for router-input VC `vc` (used by the
    /// runtime credit-conservation audit).
    pub fn credits(&self, vc: usize) -> usize {
        self.credits[vc]
    }

    /// Handles an ejected flit; on a request tail, queues the reply for the
    /// next cycle. Returns the flit for stats processing.
    pub fn receive(&mut self, flit: &Flit, now: u64) {
        #[cfg(debug_assertions)]
        {
            // Flits of one packet must arrive in order without gaps
            // (wormhole VC routing never reorders within a packet).
            let next = self.receiving.entry(flit.packet_id).or_insert(0);
            assert_eq!(
                *next, flit.flit_index,
                "terminal {}: out-of-order flit for packet {}",
                self.id, flit.packet_id
            );
            *next += 1;
            if flit.tail {
                self.receiving.remove(&flit.packet_id);
            }
        }
        if flit.tail {
            self.packets_received += 1;
            if let Some(reply) = flit.kind.reply_kind() {
                // "a corresponding reply packet is generated in the next
                // cycle and sent back to the source terminal" (§3.2).
                self.reply_queue.push_back(PendingPacket {
                    kind: reply,
                    dest: flit.src,
                    birth: now + 1,
                });
            }
        }
    }

    /// Generates new request transactions for this cycle: a geometric
    /// process injecting read/write transactions (50/50) such that the
    /// total offered load (request + reply flits) equals `rate`
    /// flits/cycle/terminal; each transaction carries
    /// `PAYLOAD_FLITS + 2` = 6 flits total. With
    /// `burst` > 1 each transaction is a burst of `burst` request packets
    /// to one destination (§5.4's DMA-like throughput-oriented workload),
    /// its firing probability scaled so the offered load stays `rate`.
    pub fn generate_traffic_burst(
        &mut self,
        rate: f64,
        pattern: TrafficPattern,
        geom: TrafficGeometry,
        now: u64,
        burst: usize,
    ) {
        let txn_flits = PacketKind::mean_transaction_flits();
        let p_txn = rate / (txn_flits * burst as f64);
        if p_txn > 0.0 && self.rng.gen_bool(p_txn.min(1.0)) {
            let dest = pattern.dest(self.id, geom, &mut self.rng);
            for _ in 0..burst {
                let kind = if self.rng.gen_bool(0.5) {
                    PacketKind::ReadRequest
                } else {
                    PacketKind::WriteRequest
                };
                self.src_queue.push_back(PendingPacket {
                    kind,
                    dest,
                    birth: now,
                });
            }
        }
    }

    /// Tries to start queued packets and sends at most one flit into the
    /// injection link. `probe` exposes the attached router's queue
    /// occupancy for the UGAL decision.
    pub fn step(
        &mut self,
        topo: &Topology,
        probe: &dyn CongestionProbe,
        now: u64,
    ) -> TerminalOutputs {
        // Start new packets (one slot per message class); replies first.
        for class in [1usize, 0] {
            if self.active[class].is_some() {
                continue;
            }
            let front = if class == 1 {
                self.reply_queue.front()
            } else {
                self.src_queue.front()
            };
            let Some(&pkt) = front else { continue };
            if pkt.birth > now {
                continue;
            }
            debug_assert_eq!(pkt.kind.msg_class(), class);
            if let Some(active) = self.try_start(topo, probe, pkt, now) {
                if class == 1 {
                    self.reply_queue.pop_front();
                } else {
                    self.src_queue.pop_front();
                }
                self.active[class] = Some(active);
            }
        }
        // Send one flit; replies have priority when both classes could send.
        for class in [1usize, 0] {
            let Some(active) = self.active[class].as_mut() else {
                continue;
            };
            if self.credits[active.vc] == 0 {
                continue;
            }
            let mut flit = active.flits[active.next];
            flit.injected = now;
            active.next += 1;
            self.credits[active.vc] -= 1;
            self.flits_injected += 1;
            let vc = active.vc;
            if active.next == active.flits.len() {
                self.vc_busy[vc] = false;
                if let Some(mut done) = self.active[class].take() {
                    done.flits.clear();
                    self.spare_flits[class] = done.flits;
                }
            }
            return TerminalOutputs {
                flit: Some((vc, flit)),
            };
        }
        TerminalOutputs::default()
    }

    /// Builds the flits of `pkt` and claims an injection VC, if one of the
    /// right class is free with credits.
    fn try_start(
        &mut self,
        topo: &Topology,
        probe: &dyn CongestionProbe,
        pkt: PendingPacket,
        now: u64,
    ) -> Option<ActivePacket> {
        let m = pkt.kind.msg_class();
        // Routing decision (mesh: trivial; fbfly: UGAL at the source).
        let route_state = match self.routing {
            RoutingKind::DimensionOrder
            | RoutingKind::TorusDateline
            | RoutingKind::TorusNoDateline => RouteState::default(),
            RoutingKind::Ugal { threshold } => {
                let intermediate = self.rng.gen_range(0..topo.num_routers());
                ugal_choose(
                    topo,
                    threshold,
                    self.router,
                    pkt.dest,
                    m,
                    intermediate,
                    probe,
                )
            }
        };
        let base = self
            .spec
            .class_base(m, injection_class(self.routing, &route_state));
        let vc = (base..base + self.spec.vcs_per_class())
            .find(|&v| !self.vc_busy[v] && self.credits[v] > 0)?;
        if matches!(self.routing, RoutingKind::Ugal { .. }) {
            if route_state.intermediate.is_some() {
                self.nonminimal_started += 1;
            } else {
                self.minimal_started += 1;
            }
        }
        // Lookahead for the attached router.
        let (lookahead, route_state) =
            route_at(topo, self.routing, self.router, pkt.dest, route_state);
        let len = pkt.kind.len();
        // 16 bits of terminal id over a 48-bit per-terminal sequence: ids
        // stay unique for 2^48 packets per terminal, independent of the
        // cycle count or how many packets share a cycle.
        debug_assert!(self.id < 1 << 16 && self.next_seq < 1 << 48);
        let packet_id = (self.id as u64) << 48 | self.next_seq;
        self.next_seq += 1;
        let mut flits = std::mem::take(&mut self.spare_flits[m]);
        flits.clear();
        flits.extend((0..len).map(|i| Flit {
            packet_id,
            flit_index: i,
            head: i == 0,
            tail: i == len - 1,
            kind: pkt.kind,
            src: self.id,
            dest: pkt.dest,
            birth: pkt.birth,
            injected: now,
            lookahead,
            route_state,
        }));
        self.vc_busy[vc] = true;
        Some(ActivePacket { flits, next: 0, vc })
    }

    /// Flits queued but not yet injected (backlog indicator for saturation
    /// detection).
    pub fn backlog_packets(&self) -> usize {
        self.src_queue.len() + self.reply_queue.len() + self.active.iter().flatten().count()
    }
}

/// A no-congestion probe for tests and for mesh (where no adaptive decision
/// is made).
pub struct NullProbe;

impl CongestionProbe for NullProbe {
    fn occupancy(&self, _: usize, _: usize, _: usize) -> usize {
        0
    }
}

/// Probe over a real router.
pub struct RouterProbe<'a>(pub &'a crate::router::Router);

impl CongestionProbe for RouterProbe<'_> {
    fn occupancy(&self, out_port: usize, msg_class: usize, rc: usize) -> usize {
        self.0.output_occupancy(out_port, msg_class, rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RC_MIN;
    use crate::topology::TopologyKind;

    fn mesh_terminal() -> (Terminal, Topology) {
        let topo = TopologyKind::Mesh8x8.build();
        let spec = VcAllocSpec::mesh(1);
        let t = Terminal::new(5, &topo, &spec, RoutingKind::DimensionOrder, 8, 42);
        (t, topo)
    }

    #[test]
    fn injects_one_flit_per_cycle_with_serialization() {
        let (mut t, topo) = mesh_terminal();
        t.src_queue.push_back(PendingPacket {
            kind: PacketKind::WriteRequest,
            dest: 20,
            birth: 0,
        });
        let mut sent = 0;
        for now in 0..5 {
            let o = t.step(&topo, &NullProbe, now);
            assert!(o.flit.is_some(), "cycle {now}");
            sent += 1;
        }
        assert_eq!(sent, 5);
        assert!(t.step(&topo, &NullProbe, 5).flit.is_none());
        // Head and tail flags.
        assert_eq!(t.flits_injected, 5);
    }

    #[test]
    fn credits_stall_injection() {
        let (mut t, topo) = mesh_terminal();
        // Two 5-flit packets = 10 flits against 8 credits on the request VC.
        for dest in [20, 21] {
            t.src_queue.push_back(PendingPacket {
                kind: PacketKind::WriteRequest,
                dest,
                birth: 0,
            });
        }
        let mut total = 0;
        for now in 0..20 {
            if t.step(&topo, &NullProbe, now).flit.is_some() {
                total += 1;
            }
        }
        assert_eq!(total, 8, "8 credits bound injection");
        t.accept_credit(0);
        let mut more = 0;
        for now in 20..25 {
            if t.step(&topo, &NullProbe, now).flit.is_some() {
                more += 1;
            }
        }
        assert_eq!(more, 1);
    }

    #[test]
    fn replies_have_priority_over_requests() {
        let (mut t, topo) = mesh_terminal();
        t.src_queue.push_back(PendingPacket {
            kind: PacketKind::ReadRequest,
            dest: 20,
            birth: 0,
        });
        t.reply_queue.push_back(PendingPacket {
            kind: PacketKind::WriteReply,
            dest: 21,
            birth: 0,
        });
        let o = t.step(&topo, &NullProbe, 0);
        let (_, flit) = o.flit.unwrap();
        assert_eq!(flit.kind, PacketKind::WriteReply);
    }

    #[test]
    fn reply_generated_next_cycle_on_request_tail() {
        let (mut t, _) = mesh_terminal();
        let f = Flit {
            packet_id: 9,
            flit_index: 0,
            head: true,
            tail: true,
            kind: PacketKind::ReadRequest,
            src: 30,
            dest: 5,
            birth: 0,
            injected: 0,
            lookahead: crate::packet::Lookahead {
                out_port: 0,
                resource_class: 0,
            },
            route_state: RouteState::default(),
        };
        t.receive(&f, 100);
        assert_eq!(t.reply_queue.len(), 1);
        let r = t.reply_queue[0];
        assert_eq!(r.kind, PacketKind::ReadReply);
        assert_eq!(r.dest, 30);
        assert_eq!(r.birth, 101);
        // Not started before its birth cycle.
        let topo = TopologyKind::Mesh8x8.build();
        assert!(t.step(&topo, &NullProbe, 100).flit.is_none());
        assert!(t.step(&topo, &NullProbe, 101).flit.is_some());
    }

    #[test]
    fn traffic_generation_rate_is_calibrated() {
        let (mut t, _) = mesh_terminal();
        let cycles = 60_000u64;
        let geom = TopologyKind::Mesh8x8.build().geometry();
        for now in 0..cycles {
            t.generate_traffic_burst(0.3, TrafficPattern::UniformRandom, geom, now, 1);
        }
        // Expected transactions = rate/6 per cycle.
        let expect = 0.3 / 6.0 * cycles as f64;
        let got = t.src_queue.len() as f64;
        assert!(
            (got - expect).abs() < 0.1 * expect,
            "got {got}, expected ~{expect}"
        );
    }

    /// Data-bearing packets stream `PAYLOAD_FLITS + 1` flits when started.
    #[test]
    fn payload_length_sizes_streamed_packets() {
        let topo = TopologyKind::Mesh8x8.build();
        let spec = VcAllocSpec::mesh(1);
        let mut t = Terminal::new(5, &topo, &spec, RoutingKind::DimensionOrder, 16, 42);
        t.src_queue.push_back(PendingPacket {
            kind: PacketKind::WriteRequest,
            dest: 20,
            birth: 0,
        });
        let mut tail_at = None;
        for now in 0..16 {
            if let Some((_, flit)) = t.step(&topo, &NullProbe, now).flit {
                assert_eq!(flit.flit_index, now as usize);
                if flit.tail {
                    tail_at = Some(now);
                    break;
                }
            }
        }
        // Head + 4 payload flits = 5 flits, indices 0..=4.
        assert_eq!(tail_at, Some(crate::packet::PAYLOAD_FLITS as u64));
    }

    /// Regression: the old `(id << 40) | (now << 8) | class` packing
    /// collided across terminals on long runs — terminal 0 starting a
    /// packet at cycle 2^32 produced the same id as terminal 1 starting
    /// one at cycle 0. Ids must be unique regardless of the cycle.
    #[test]
    fn packet_ids_do_not_collide_on_long_runs() {
        let topo = TopologyKind::Mesh8x8.build();
        let spec = VcAllocSpec::mesh(1);
        let mut ids = std::collections::HashSet::new();
        for (term, now) in [(0usize, 1u64 << 32), (1, 0)] {
            let mut t = Terminal::new(term, &topo, &spec, RoutingKind::DimensionOrder, 8, 42);
            t.src_queue.push_back(PendingPacket {
                kind: PacketKind::WriteRequest,
                dest: 20,
                birth: 0,
            });
            let (_, flit) = t.step(&topo, &NullProbe, now).flit.unwrap();
            assert!(
                ids.insert(flit.packet_id),
                "terminal {term} at cycle {now} reused packet id {:#x}",
                flit.packet_id
            );
        }
    }

    /// Packet ids within one terminal are strictly increasing, even when
    /// several packets start in the same cycle window.
    #[test]
    fn packet_ids_are_monotonic_per_terminal() {
        let (mut t, topo) = mesh_terminal();
        for dest in [20usize, 21, 22] {
            t.src_queue.push_back(PendingPacket {
                kind: PacketKind::ReadRequest,
                dest,
                birth: 0,
            });
        }
        let mut last = None;
        for now in 0..3 {
            let (_, flit) = t.step(&topo, &NullProbe, now).flit.unwrap();
            assert!(last.is_none_or(|p| flit.packet_id > p), "ids not monotonic");
            last = Some(flit.packet_id);
        }
    }

    #[test]
    fn fbfly_injection_vc_class_matches_phase() {
        let topo = TopologyKind::FlattenedButterfly4x4.build();
        let spec = VcAllocSpec::fbfly(1);
        let mut t = Terminal::new(0, &topo, &spec, RoutingKind::Ugal { threshold: 3 }, 8, 7);
        // Zero congestion -> minimal -> injection VC in the minimal class.
        t.src_queue.push_back(PendingPacket {
            kind: PacketKind::ReadRequest,
            dest: 63,
            birth: 0,
        });
        let o = t.step(&topo, &NullProbe, 0);
        let (vc, flit) = o.flit.unwrap();
        assert_eq!(vc, spec.class_base(0, RC_MIN));
        assert_eq!(flit.lookahead.resource_class, RC_MIN);
    }
}
