//! The full network: routers, terminals, and links with credit channels.

use crate::config::SimConfig;
use crate::packet::Flit;
use crate::router::{Router, RouterConfig, RouterOutputs, RouterStats};
use crate::stats::NetStats;
use crate::terminal::{RouterProbe, Terminal};
use crate::topology::Topology;
use crate::verify::StrictChecker;
use noc_obs::{
    AnatomyCollector, FlightRecorder, FlitEvent, FlitEventKind, NopProfiler, NopSink, Phase,
    PhaseProfiler, RouterBreakdown, RouterObs, TraceSink, ANATOMY_CAPACITY,
};
use std::time::Instant;

/// One reverse-link entry: `(upstream router, its output port, latency)`
/// for a network input port, or `None` for terminal-facing ports.
type RevLink = Option<(usize, usize, u64)>;

/// An event in flight on a link or credit wire.
#[derive(Clone, Debug)]
enum Event {
    FlitToRouter {
        router: usize,
        port: usize,
        vc: usize,
        flit: Flit,
    },
    CreditToRouter {
        router: usize,
        port: usize,
        vc: usize,
    },
    FlitToTerminal {
        term: usize,
        /// Output VC the flit used at the ejecting router (for the credit).
        vc: usize,
        flit: Flit,
    },
    CreditToTerminal {
        term: usize,
        vc: usize,
    },
}

/// Fixed-latency event delivery (latencies are small: 1–3 cycles).
struct TimingWheel {
    slots: Vec<Vec<Event>>,
    /// Recycled slot buffer: [`TimingWheel::take`] hands out the current
    /// slot and replaces it with this spare; [`TimingWheel::recycle`]
    /// returns the drained buffer. Capacities converge to the high-water
    /// mark, so steady-state scheduling never allocates.
    spare: Vec<Event>,
}

impl TimingWheel {
    /// Pre-sizes every slot (and the recycled spare) to `cap` events. Each
    /// link direction delivers at most one flit and one credit per cycle
    /// and every slot drains once per wheel revolution, so a capacity of
    /// two events per port plus two per terminal makes steady-state
    /// scheduling allocation-free from the first cycle.
    fn with_slot_capacity(cap: usize) -> Self {
        TimingWheel {
            slots: (0..8).map(|_| Vec::with_capacity(cap)).collect(),
            spare: Vec::with_capacity(cap),
        }
    }

    fn schedule(&mut self, now: u64, delay: u64, ev: Event) {
        assert!(delay >= 1 && delay < self.slots.len() as u64);
        let idx = ((now + delay) % self.slots.len() as u64) as usize;
        self.slots[idx].push(ev);
    }

    fn take(&mut self, now: u64) -> Vec<Event> {
        let idx = (now % self.slots.len() as u64) as usize;
        std::mem::replace(&mut self.slots[idx], std::mem::take(&mut self.spare))
    }

    /// Returns a buffer obtained from [`TimingWheel::take`] for reuse.
    fn recycle(&mut self, mut events: Vec<Event>) {
        events.clear();
        self.spare = events;
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Vec::is_empty)
    }
}

/// A complete simulated network, generic over the trace sink. The default
/// [`NopSink`] compiles all flit-event instrumentation away.
pub struct Network<S: TraceSink = NopSink> {
    /// Topology in use.
    pub topo: Topology,
    cfg: SimConfig,
    routers: Vec<Router>,
    terminals: Vec<Terminal>,
    wheel: TimingWheel,
    /// Reverse link table: `rev[router][port]`, see [`RevLink`].
    rev: Vec<Vec<RevLink>>,
    /// The stepped router's products, drained into the timing wheel before
    /// the next router steps. Kept across cycles so steady-state stepping
    /// does not allocate.
    out: RouterOutputs,
    /// Current cycle.
    pub now: u64,
    /// Measurement statistics.
    pub stats: NetStats,
    /// Flit-event sink.
    pub sink: S,
    /// Opt-in windowed flight recorder (see
    /// [`Network::enable_telemetry`]).
    pub telemetry: Option<FlightRecorder>,
    /// Opt-in per-packet latency ledger (see
    /// [`Network::enable_anatomy`]). Hop records travel through
    /// [`RouterOutputs::hops`] and are ingested at commit in router-id
    /// order, ejections fold during delivery in wheel order — neither
    /// depends on which routers were skipped.
    pub anatomy: Option<AnatomyCollector>,
    /// Opt-in runtime invariant checker (see [`Network::enable_verify`]),
    /// audited after every cycle's commit.
    pub checker: Option<StrictChecker>,
}

impl Network<NopSink> {
    /// Builds an untraced network in its reset state.
    pub fn new(cfg: SimConfig) -> Self {
        Network::with_sink(cfg, NopSink)
    }
}

impl<S: TraceSink> Network<S> {
    /// Builds a network in its reset state, reporting flit events to
    /// `sink`.
    pub fn with_sink(cfg: SimConfig, sink: S) -> Self {
        let topo = cfg.topology.build();
        let spec = cfg.vc_spec();
        let routing = cfg.routing();
        let rcfg = RouterConfig {
            spec: spec.clone(),
            buf_depth: cfg.buf_depth,
            vca_kind: cfg.vca_kind,
            sa_kind: cfg.sa_kind,
            spec_mode: cfg.spec_mode,
            routing,
        };
        let routers: Vec<Router> = (0..topo.num_routers())
            .map(|r| Router::new(r, rcfg.clone()))
            .collect();
        let terminals: Vec<Terminal> = (0..topo.num_terminals())
            .map(|t| Terminal::new(t, &topo, &spec, routing, cfg.buf_depth, cfg.seed))
            .collect();
        // Reverse links for credit routing.
        let mut rev = vec![vec![None; topo.ports]; topo.num_routers()];
        for r in 0..topo.num_routers() {
            for p in 0..topo.ports {
                if let Some(l) = topo.link(r, p) {
                    rev[l.to_router][l.to_port] = Some((r, p, l.latency));
                }
            }
        }
        let mut stats = NetStats::default();
        stats.init_sources(topo.num_terminals());
        let out = RouterOutputs::with_capacity(topo.ports);
        let wheel_cap = 2 * routers.iter().map(Router::ports).sum::<usize>() + 2 * terminals.len();
        Network {
            topo,
            cfg,
            routers,
            terminals,
            wheel: TimingWheel::with_slot_capacity(wheel_cap),
            rev,
            out,
            now: 0,
            stats,
            sink,
            telemetry: None,
            anatomy: None,
            checker: None,
        }
    }

    /// Turns on the flight recorder `rec`, and with it matching-quality
    /// sampling in every router when the recorder asks for it: one exact
    /// maximum matching per router per `match_every` windows.
    pub fn enable_telemetry(&mut self, rec: FlightRecorder) {
        let period = rec.match_every() * rec.window();
        if period > 0 {
            for r in &mut self.routers {
                r.enable_match_sampling(period);
            }
        }
        self.telemetry = Some(rec);
    }

    /// Turns on the per-packet latency ledger: every router stamps its
    /// buffered heads each cycle, ejections fold into per-stage histograms
    /// ([`ANATOMY_CAPACITY`] bounds retained per-packet records, `top_k`
    /// the slowest waterfalls kept). Costs one branch per router per cycle
    /// when off.
    pub fn enable_anatomy(&mut self, top_k: usize) {
        self.anatomy = Some(AnatomyCollector::new(ANATOMY_CAPACITY, top_k));
        for r in &mut self.routers {
            r.enable_anatomy();
        }
    }

    /// Turns on the runtime invariant checker: after every cycle the
    /// per-router matching-legality invariants and a whole-network
    /// credit-conservation audit run against the committed state.
    pub fn enable_verify(&mut self) {
        self.checker = Some(StrictChecker::default());
    }

    /// Number of routers in the network.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable access to the configuration — e.g. to stop injection
    /// (`injection_rate = 0`) for drain phases.
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.cfg
    }

    /// Runs one network cycle.
    pub fn step(&mut self) {
        self.run(1);
    }

    /// Runs `cycles` network cycles, skipping idle routers.
    pub fn run(&mut self, cycles: u64) {
        self.run_in_order(cycles, true, &mut NopProfiler);
    }

    /// The cycle body, attributing wall time to pipeline phases through
    /// `prof` (with [`NopProfiler`] every clock read compiles away). Each
    /// cycle delivers and injects, then steps and commits router by router
    /// in router-id order, then does the post-commit bookkeeping.
    ///
    /// Production passes `skip_idle = true`, which is exact: an idle
    /// router's step produces no outputs, touches no allocator state and
    /// classifies no VC, so all that is left of it is the router's cycle
    /// count ([`Router::skip_cycle`]), from which the stall-cause read-outs
    /// ([`Network::router_obs`], [`Network::router_breakdowns`]) derive
    /// each VC's `empty` share. Only tests pass `false`: stepping every
    /// router is the reference of `tests/engine_equivalence.rs`.
    pub fn run_in_order<P: PhaseProfiler>(&mut self, cycles: u64, skip_idle: bool, prof: &mut P) {
        for _ in 0..cycles {
            self.deliver(prof);
            self.inject();
            // A step only touches the router itself and a commit only
            // schedules wheel events with delay >= 1, so nothing a router
            // sends is seen by a later router in the same cycle.
            for r in 0..self.routers.len() {
                if skip_idle && self.routers[r].is_idle() {
                    self.routers[r].skip_cycle();
                    continue;
                }
                self.routers[r].step_into(
                    &self.topo,
                    self.now,
                    &mut self.out,
                    &mut self.sink,
                    prof,
                );
                self.commit(r);
            }
            self.finish_cycle();
            self.now += 1;
        }
    }

    /// Delivers the link and credit events landing this cycle.
    fn deliver<P: PhaseProfiler>(&mut self, prof: &mut P) {
        let now = self.now;
        let wheel_timer = P::ACTIVE.then(Instant::now);
        let mut wheel_events = 0u64;
        // Take the slot, drain it, hand the buffer back: nothing schedules
        // into the *current* slot (delays are >= 1 and < the wheel size), so
        // the buffer is free to recycle once the loop ends.
        let mut events = self.wheel.take(now);
        for ev in events.drain(..) {
            wheel_events += 1;
            match ev {
                Event::FlitToRouter {
                    router,
                    port,
                    vc,
                    flit,
                } => {
                    self.routers[router].accept_flit(port, vc, flit, now);
                }
                Event::CreditToRouter { router, port, vc } => {
                    self.routers[router].accept_credit(port, vc);
                }
                Event::FlitToTerminal { term, vc, flit } => {
                    self.stats.record_flit_ejected(now);
                    if let Some(col) = &mut self.anatomy {
                        if flit.head {
                            col.eject_head(flit.packet_id, flit.birth, flit.injected, now);
                        }
                        if flit.tail {
                            col.eject_tail(
                                flit.packet_id,
                                flit.msg_class() as u8,
                                now,
                                self.stats.in_window(now),
                            );
                        }
                    }
                    if flit.tail {
                        self.stats
                            .record_packet_from(now, flit.birth, flit.msg_class(), flit.src);
                    }
                    self.terminals[term].receive(&flit, now);
                    // Ideal sink: return the credit immediately.
                    let (router, port) = self.topo.terminal_attach(term);
                    if S::ACTIVE {
                        self.sink.record(FlitEvent {
                            cycle: now,
                            kind: FlitEventKind::Eject,
                            router: router as u32,
                            port: port as u16,
                            vc: vc as u16,
                            packet_id: flit.packet_id,
                            flit_index: flit.flit_index as u32,
                        });
                    }
                    self.wheel
                        .schedule(now, 1, Event::CreditToRouter { router, port, vc });
                }
                Event::CreditToTerminal { term, vc } => {
                    self.terminals[term].accept_credit(vc);
                }
            }
        }
        self.wheel.recycle(events);
        if let Some(t) = wheel_timer {
            prof.record(Phase::Credit, t.elapsed().as_nanos() as u64, wheel_events);
        }
    }

    /// Lets every terminal generate and (if possible) inject traffic.
    fn inject(&mut self) {
        let now = self.now;
        let (cfg, geom) = (&self.cfg, self.topo.geometry());
        for term in &mut self.terminals {
            term.generate_traffic_burst(cfg.injection_rate, cfg.pattern, geom, now, cfg.burst);
            // A terminal with nothing queued and nothing in flight cannot
            // inject and its step consumes no RNG, so skipping it is exact.
            if term.backlog_packets() == 0 {
                continue;
            }
            let (router, port) = (term.router, term.port);
            let out = term.step(&self.topo, &RouterProbe(&self.routers[router]), now);
            if let Some((vc, flit)) = out.flit {
                self.stats.record_flit_injected(now);
                if S::ACTIVE {
                    self.sink.record(FlitEvent {
                        cycle: now,
                        kind: FlitEventKind::Inject,
                        router: router as u32,
                        port: port as u16,
                        vc: vc as u16,
                        packet_id: flit.packet_id,
                        flit_index: flit.flit_index as u32,
                    });
                }
                self.wheel.schedule(
                    now,
                    1,
                    Event::FlitToRouter {
                        router,
                        port,
                        vc,
                        flit,
                    },
                );
            }
        }
    }

    /// Drains what router `r` just produced into the timing wheel. All
    /// scheduled events carry delay >= 1, so a commit never feeds back into
    /// the current cycle.
    fn commit(&mut self, r: usize) {
        let now = self.now;
        match &mut self.anatomy {
            Some(col) => {
                for h in self.out.hops.drain(..) {
                    col.ingest_hop(h);
                }
            }
            None => self.out.hops.clear(),
        }
        for of in self.out.flits.drain(..) {
            if let Some(term) = self.topo.port_terminal(r, of.port) {
                self.wheel.schedule(
                    now,
                    1,
                    Event::FlitToTerminal {
                        term,
                        vc: of.vc,
                        flit: of.flit,
                    },
                );
            } else {
                let Some(link) = self.topo.link(r, of.port) else {
                    unreachable!("flit sent to port {} of router {r} with no link", of.port)
                };
                self.wheel.schedule(
                    now,
                    link.latency,
                    Event::FlitToRouter {
                        router: link.to_router,
                        port: link.to_port,
                        vc: of.vc,
                        flit: of.flit,
                    },
                );
            }
        }
        for (in_port, in_vc) in self.out.credits.drain(..) {
            if let Some(term) = self.topo.port_terminal(r, in_port) {
                self.wheel
                    .schedule(now, 1, Event::CreditToTerminal { term, vc: in_vc });
            } else {
                let Some((ur, up, lat)) = self.rev[r][in_port] else {
                    unreachable!("credit return on port {in_port} of router {r} with no link")
                };
                self.wheel.schedule(
                    now,
                    lat,
                    Event::CreditToRouter {
                        router: ur,
                        port: up,
                        vc: in_vc,
                    },
                );
            }
        }
    }

    /// Post-commit bookkeeping: runtime invariant checks and flight-recorder
    /// window snapshots.
    fn finish_cycle(&mut self) {
        let now = self.now;
        if let Some(chk) = &mut self.checker {
            for r in &self.routers {
                r.check_invariants(chk);
            }
            audit_credit_conservation(
                &self.topo,
                self.cfg.buf_depth,
                &self.wheel,
                &self.routers,
                &self.terminals,
                now,
                chk,
            );
        } else if cfg!(debug_assertions) {
            // Debug builds run the (cheap) router-local invariants on the
            // ordinary step path too, so the whole test suite exercises
            // them; the credit audit stays opt-in via an attached checker.
            let mut strict = StrictChecker::default();
            for r in &self.routers {
                r.check_invariants(&mut strict);
            }
            assert!(
                strict.violations.is_empty(),
                "cycle {now}: router invariant violations: {:?}",
                strict.violations
            );
        }

        // Keyed purely on the cycle number, so the windows are the same
        // however the run is chunked and whichever routers were skipped.
        if let Some(rec) = &mut self.telemetry {
            if rec.due(now) {
                let injected: u64 = self.terminals.iter().map(|t| t.flits_injected).sum();
                rec.record(
                    now,
                    injected,
                    self.stats.total_flits_ejected,
                    self.routers.iter().map(Router::telemetry_counters),
                );
            }
        }
    }

    /// True when no flit is buffered, in flight, or queued anywhere.
    pub fn is_drained(&self) -> bool {
        self.wheel.is_empty()
            && self.routers.iter().all(Router::is_idle)
            && self.terminals.iter().all(|t| t.backlog_packets() == 0)
    }

    /// Aggregated router statistics (speculation counters etc.).
    pub fn router_stats(&self) -> RouterStats {
        let mut agg = RouterStats::default();
        for r in &self.routers {
            agg += r.stats;
        }
        agg
    }

    /// Snapshot of every router's observability counters, in router-id
    /// order (feeds the `noc-obs` exporters).
    pub fn router_obs(&self) -> Vec<RouterObs> {
        self.routers.iter().map(Router::obs).collect()
    }

    /// Per-router digests: link throughput since reset and the
    /// worst-stalled input port.
    pub fn router_breakdowns(&self) -> Vec<RouterBreakdown> {
        let cycles = self.now.max(1) as f64;
        self.routers
            .iter()
            .map(|r| {
                let (worst_port, worst_port_stall) = r.worst_port_stall();
                RouterBreakdown {
                    router: r.id,
                    throughput: r.total_out_flits() as f64 / cycles,
                    worst_port,
                    worst_port_stall,
                }
            })
            .collect()
    }

    /// Total request-queue backlog across terminals (saturation indicator).
    pub fn total_backlog(&self) -> usize {
        self.terminals.iter().map(Terminal::backlog_packets).sum()
    }

    /// Total flits injected since reset.
    pub fn total_flits_injected(&self) -> u64 {
        self.terminals.iter().map(|t| t.flits_injected).sum()
    }

    /// UGAL route-choice split since reset: `(minimal, non-minimal)`
    /// packets started.
    pub fn ugal_split(&self) -> (u64, u64) {
        (
            self.terminals.iter().map(|t| t.minimal_started).sum(),
            self.terminals.iter().map(|t| t.nonminimal_started).sum(),
        )
    }
}

/// Verifies credit conservation on every channel: upstream credits plus
/// in-flight flits plus downstream occupancy plus in-flight return
/// credits must equal the buffer depth, for router→router links,
/// terminal injection channels and terminal ejection channels alike.
fn audit_credit_conservation(
    topo: &Topology,
    depth: usize,
    wheel: &TimingWheel,
    routers: &[Router],
    terminals: &[Terminal],
    now: u64,
    chk: &mut StrictChecker,
) {
    use std::collections::HashMap;
    let Some(first) = routers.first() else {
        return;
    };
    let vcs = first.vcs();
    // One pass over the timing wheel counts every in-flight event.
    let mut flit_to_router: HashMap<(usize, usize, usize), usize> = HashMap::new();
    let mut credit_to_router: HashMap<(usize, usize, usize), usize> = HashMap::new();
    let mut flit_to_term: HashMap<(usize, usize), usize> = HashMap::new();
    let mut credit_to_term: HashMap<(usize, usize), usize> = HashMap::new();
    for slot in &wheel.slots {
        for ev in slot {
            match ev {
                Event::FlitToRouter {
                    router, port, vc, ..
                } => *flit_to_router.entry((*router, *port, *vc)).or_default() += 1,
                Event::CreditToRouter { router, port, vc } => {
                    *credit_to_router.entry((*router, *port, *vc)).or_default() += 1
                }
                Event::FlitToTerminal { term, vc, .. } => {
                    *flit_to_term.entry((*term, *vc)).or_default() += 1
                }
                Event::CreditToTerminal { term, vc } => {
                    *credit_to_term.entry((*term, *vc)).or_default() += 1
                }
            }
        }
    }
    let count3 = |m: &HashMap<(usize, usize, usize), usize>, k| m.get(&k).copied().unwrap_or(0);
    let count2 = |m: &HashMap<(usize, usize), usize>, k| m.get(&k).copied().unwrap_or(0);
    let mut checks = 0u64;
    for r in 0..routers.len() {
        for p in 0..topo.ports {
            if let Some(l) = topo.link(r, p) {
                for vc in 0..vcs {
                    checks += 1;
                    let total = routers[r].output_credits(p, vc)
                        + count3(&flit_to_router, (l.to_router, l.to_port, vc))
                        + routers[l.to_router].input_occupancy(l.to_port, vc)
                        + count3(&credit_to_router, (r, p, vc));
                    if total != depth {
                        chk.violation(format!(
                            "cycle {}: credit conservation broken on link \
                             {r}:{p} -> {}:{} vc {vc}: credits + in-flight + \
                             occupancy = {total}, buffer depth {depth}",
                            now, l.to_router, l.to_port
                        ));
                    }
                }
            } else if let Some(term) = topo.port_terminal(r, p) {
                for vc in 0..vcs {
                    checks += 2;
                    // Ejection channel (ideal sink: no terminal buffer).
                    let eject = routers[r].output_credits(p, vc)
                        + count2(&flit_to_term, (term, vc))
                        + count3(&credit_to_router, (r, p, vc));
                    if eject != depth {
                        chk.violation(format!(
                            "cycle {}: credit conservation broken on ejection \
                             channel {r}:{p} -> terminal {term} vc {vc}: \
                             credits + in-flight = {eject}, buffer depth {depth}",
                            now
                        ));
                    }
                    // Injection channel.
                    let inject = terminals[term].credits(vc)
                        + count3(&flit_to_router, (r, p, vc))
                        + routers[r].input_occupancy(p, vc)
                        + count2(&credit_to_term, (term, vc));
                    if inject != depth {
                        chk.violation(format!(
                            "cycle {}: credit conservation broken on injection \
                             channel terminal {term} -> {r}:{p} vc {vc}: \
                             credits + in-flight + occupancy = {inject}, \
                             buffer depth {depth}",
                            now
                        ));
                    }
                }
            }
        }
    }
    chk.add_checks(checks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    fn quick_cfg(topology: TopologyKind, c: usize, rate: f64) -> SimConfig {
        SimConfig {
            injection_rate: rate,
            ..SimConfig::paper_baseline(topology, c)
        }
    }

    #[test]
    fn mesh_delivers_all_traffic_and_drains() {
        let mut net = Network::new(quick_cfg(TopologyKind::Mesh8x8, 1, 0.1));
        net.stats.set_window(0, 3000);
        net.run(3000);
        let injected = net.total_flits_injected();
        assert!(injected > 500, "injected only {injected}");
        // Stop traffic and drain.
        let mut cfg = net.cfg.clone();
        cfg.injection_rate = 0.0;
        net.cfg = cfg;
        for _ in 0..4000 {
            net.step();
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained(), "network failed to drain");
    }

    #[test]
    fn fbfly_delivers_all_traffic_and_drains() {
        for c in [1usize, 2] {
            let mut net = Network::new(quick_cfg(TopologyKind::FlattenedButterfly4x4, c, 0.2));
            net.stats.set_window(0, 2000);
            net.run(2000);
            assert!(net.total_flits_injected() > 1000);
            net.cfg.injection_rate = 0.0;
            for _ in 0..4000 {
                net.step();
                if net.is_drained() {
                    break;
                }
            }
            assert!(net.is_drained(), "fbfly C={c} failed to drain");
        }
    }

    #[test]
    fn conservation_flits_in_equals_flits_out_after_drain() {
        let mut net = Network::new(quick_cfg(TopologyKind::Mesh8x8, 2, 0.15));
        net.stats.set_window(0, u64::MAX);
        net.run(2500);
        net.cfg.injection_rate = 0.0;
        for _ in 0..4000 {
            net.step();
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained());
        assert_eq!(
            net.total_flits_injected(),
            net.stats.flits_ejected,
            "flits lost or duplicated"
        );
    }

    #[test]
    fn zero_load_latency_is_sane_for_mesh() {
        // The 8x8 mesh's zero-load latency in closed form, each term read
        // off the model (latency is tail ejection minus packet birth):
        // - distance: uniform traffic picks one of the n - 1 other
        //   terminals (`traffic.rs`), whose mean Manhattan distance on a
        //   k x k mesh is 2k/3 = 16/3 links; a packet visits one router
        //   more than it crosses links.
        // - injection, 1 cycle: a terminal sends the head flit in the
        //   cycle the packet is born and the injection link delivers it
        //   to the router in the next.
        // - per router, the cycles from the head's arrival to its switch
        //   traversal: 1 with speculation (VA and SA in parallel in the
        //   arrival cycle, ST in the next), 2 without (VA, then SA).
        // - per link, 1 cycle: switch traversal schedules the flit one
        //   link latency ahead, and every mesh link is single-cycle
        //   (`Topology::mesh`).
        // - ejection, 1 cycle: the last router's traversal reaches the
        //   terminal in the next cycle.
        // - serialization, 2 cycles: the tail trails the head by one
        //   cycle per further flit, and every transaction is one 1-flit
        //   and one 5-flit packet (read request and reply, or write
        //   request and acknowledgement), so the mean is (0 + 4) / 2.
        let k = 8.0;
        let links = 2.0 * k / 3.0;
        let routers = links + 1.0;
        for (mode, per_router) in [
            (noc_core::SpecMode::Pessimistic, 1.0),
            (noc_core::SpecMode::NonSpeculative, 2.0),
        ] {
            let expect = 1.0 + routers * per_router + links * 1.0 + 1.0 + 2.0;
            let mut cfg = quick_cfg(TopologyKind::Mesh8x8, 1, 0.005);
            cfg.spec_mode = mode;
            let mut net = Network::new(cfg);
            net.stats.set_window(1_000, 61_000);
            net.run(61_000);
            let lat = net.stats.avg_latency();
            assert!(
                (lat - expect).abs() < 0.5,
                "{mode:?}: zero-load latency {lat}, closed form {expect}"
            );
        }
    }

    #[test]
    fn zero_load_latency_fbfly_below_mesh() {
        let mut mesh = Network::new(quick_cfg(TopologyKind::Mesh8x8, 1, 0.01));
        mesh.stats.set_window(1000, 6000);
        mesh.run(6000);
        let mut fb = Network::new(quick_cfg(TopologyKind::FlattenedButterfly4x4, 1, 0.01));
        fb.stats.set_window(1000, 6000);
        fb.run(6000);
        assert!(
            fb.stats.avg_latency() < mesh.stats.avg_latency(),
            "fbfly {} !< mesh {}",
            fb.stats.avg_latency(),
            mesh.stats.avg_latency()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut net = Network::new(quick_cfg(TopologyKind::Mesh8x8, 2, 0.2));
            net.stats.set_window(500, 2500);
            net.run(2500);
            (
                net.stats.latency_sum,
                net.stats.packets,
                net.stats.flits_ejected,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn speculation_reduces_zero_load_latency() {
        // §5.3.3: speculative switch allocation cuts mesh zero-load latency
        // (the paper reports up to 23%).
        let mut spec = Network::new(quick_cfg(TopologyKind::Mesh8x8, 1, 0.02));
        spec.stats.set_window(1000, 8000);
        spec.run(8000);
        let mut nonspec_cfg = quick_cfg(TopologyKind::Mesh8x8, 1, 0.02);
        nonspec_cfg.spec_mode = noc_core::SpecMode::NonSpeculative;
        let mut nons = Network::new(nonspec_cfg);
        nons.stats.set_window(1000, 8000);
        nons.run(8000);
        let (ls, ln) = (spec.stats.avg_latency(), nons.stats.avg_latency());
        assert!(ls < ln, "spec {ls} !< nonspec {ln}");
        let gain = (ln - ls) / ln;
        assert!(gain > 0.10, "speculation gain only {:.1}%", gain * 100.0);
    }
}
