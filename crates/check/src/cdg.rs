//! Channel-dependency-graph construction and cycle analysis.
//!
//! Dally–Seitz: a routing relation is deadlock-free iff its channel
//! dependency graph is acyclic. We extend the classic formulation across
//! the paper's sparse VC structure: a *channel* here is one input VC class
//! `(router, input port, resource class)` — the class banks of §4.2 are
//! interchangeable within a class (a request covers every free bank), so
//! collapsing them preserves cycles exactly, and message classes never mix
//! (§4.2), so the same graph describes each of the `M` message classes.
//!
//! Edges come from exhaustive route walks: for every source/destination
//! terminal pair (and, for UGAL, every Valiant intermediate) the walker
//! replays the simulator's own routing function hop by hop, recording the
//! channel-to-channel dependencies a packet on that route would create and
//! cross-checking every resource-class transition against the
//! [`VcAllocSpec`] mask.

use noc_core::VcAllocSpec;
use noc_sim::routing::injection_class;
use noc_sim::Topology;
use std::collections::{HashMap, HashSet};

use crate::model::{route_step, RouteModel};

/// One channel-to-channel dependency, with a witness route.
#[derive(Clone, Copy, Debug)]
pub struct Witness {
    /// Source terminal of the witness packet.
    pub src: usize,
    /// Destination terminal of the witness packet.
    pub dest: usize,
}

/// The channel-dependency graph of one (topology, routing, spec) design.
pub struct ChannelDependencyGraph {
    ports: usize,
    rcs: usize,
    routers: usize,
    label_kind: String,
    /// Deduplicated dependency edges.
    edges: HashSet<(u32, u32)>,
    /// First witness route per edge.
    witness: HashMap<(u32, u32), Witness>,
    /// Channels that exist in hardware (an upstream link or terminal
    /// injects into them), per `(router, port)` — classes share presence.
    present_port: Vec<bool>,
    /// Channels some route occupies.
    pub(crate) reachable: Vec<bool>,
    /// Channels from which some route ejects directly.
    escapes: Vec<bool>,
    /// Routing/spec mismatches found during the walks (illegal transitions,
    /// out-of-range classes, non-terminating routes, dateline violations).
    pub walk_errors: Vec<String>,
    /// Resource-class transitions the routing actually exercised.
    pub used_transitions: HashSet<(usize, usize)>,
}

/// A directed cycle in the channel-dependency graph.
#[derive(Clone, Debug)]
pub struct Cycle {
    /// The channels on the cycle, in dependency order.
    pub nodes: Vec<u32>,
    /// Human-readable rendering of the cycle.
    pub display: String,
}

impl ChannelDependencyGraph {
    /// Walks every route of `model` over `topo` and builds the dependency
    /// graph, validating each hop against `spec`'s transition mask.
    pub fn build(topo: &Topology, model: &RouteModel, spec: &VcAllocSpec) -> Self {
        let ports = topo.ports;
        let rcs = spec.resource_classes();
        let routers = topo.num_routers();
        let mut g = ChannelDependencyGraph {
            ports,
            rcs,
            routers,
            label_kind: topo.label().to_string(),
            edges: HashSet::new(),
            witness: HashMap::new(),
            present_port: vec![false; routers * ports],
            reachable: vec![false; routers * ports * rcs],
            escapes: vec![false; routers * ports * rcs],
            walk_errors: Vec::new(),
            used_transitions: HashSet::new(),
        };
        // Hardware channel presence: a port is an input channel when some
        // link or a terminal feeds it.
        for r in 0..routers {
            for p in 0..ports {
                if let Some(l) = topo.link(r, p) {
                    g.present_port[l.to_router * ports + l.to_port] = true;
                }
                if topo.port_terminal(r, p).is_some() {
                    g.present_port[r * ports + p] = true;
                }
            }
        }
        let terminals = topo.num_terminals();
        for src in 0..terminals {
            for dest in 0..terminals {
                if src == dest {
                    continue;
                }
                for state0 in model.initial_states(topo, src, dest) {
                    g.walk(topo, model, spec, src, dest, state0);
                }
            }
        }
        g
    }

    fn node(&self, router: usize, port: usize, rc: usize) -> u32 {
        ((router * self.ports + port) * self.rcs + rc) as u32
    }

    /// Human-readable channel name, e.g. `router 12 (4,1) in -x class 0`.
    pub fn node_label(&self, node: u32) -> String {
        let rc = node as usize % self.rcs;
        let rp = node as usize / self.rcs;
        let (router, port) = (rp / self.ports, rp % self.ports);
        let port_name = if self.ports == 5 {
            ["term", "+x", "-x", "+y", "-y"][port].to_string()
        } else {
            format!("p{port}")
        };
        format!("router {router} in {port_name} class {rc}")
    }

    fn walk(
        &mut self,
        topo: &Topology,
        model: &RouteModel,
        spec: &VcAllocSpec,
        src: usize,
        dest: usize,
        state0: noc_sim::packet::RouteState,
    ) {
        let (mut router, inj_port) = topo.terminal_attach(src);
        let mut rc = injection_class(model.routing(), &state0);
        if rc >= self.rcs {
            self.walk_errors.push(format!(
                "route {src}->{dest}: injection class {rc} out of range (R = {})",
                self.rcs
            ));
            return;
        }
        let mut node = self.node(router, inj_port, rc);
        self.reachable[node as usize] = true;
        let mut state = state0;
        let max_hops = 4 * (topo.width + topo.height) + 16;
        let is_torus = self.label_kind == "torus";
        for _hop in 0..max_hops {
            let (la, next_state) = route_step(topo, model, router, dest, rc, state);
            state = next_state;
            let next_rc = la.resource_class;
            if next_rc >= self.rcs {
                self.walk_errors.push(format!(
                    "route {src}->{dest} at router {router}: routing requests \
                     resource class {next_rc} but the spec has only {} classes",
                    self.rcs
                ));
                return;
            }
            if !spec.rc_legal(rc, next_rc) {
                self.walk_errors.push(format!(
                    "route {src}->{dest} at router {router}: routing requires \
                     transition {rc} -> {next_rc}, illegal under the spec's \
                     rc_succ mask (packet would stall forever)"
                ));
                return;
            }
            self.used_transitions.insert((rc, next_rc));
            if topo.port_terminal(router, la.out_port).is_some() {
                // Ejection: the ideal sink always drains, so the walk ends.
                self.escapes[node as usize] = true;
                return;
            }
            let Some(link) = topo.link(router, la.out_port) else {
                self.walk_errors.push(format!(
                    "route {src}->{dest} at router {router}: routing selected \
                     nonexistent output port {}",
                    la.out_port
                ));
                return;
            };
            // Torus dateline rule: any hop crossing a wraparound edge must
            // land in the post-dateline class.
            if is_torus && wraps(topo, router, la.out_port) && next_rc == 0 {
                self.walk_errors.push(format!(
                    "route {src}->{dest}: wraparound edge at router {router} \
                     crossed in pre-dateline class 0 (dateline violation)"
                ));
            }
            let next = self.node(link.to_router, link.to_port, next_rc);
            let e = (node, next);
            if self.edges.insert(e) {
                self.witness.entry(e).or_insert(Witness { src, dest });
            }
            self.reachable[next as usize] = true;
            node = next;
            router = link.to_router;
            rc = next_rc;
        }
        self.walk_errors.push(format!(
            "route {src}->{dest}: did not reach its destination within \
             {max_hops} hops (possible livelock)"
        ));
    }

    /// Number of deduplicated dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Hardware channels (per message class) and how many some route uses.
    pub fn channel_counts(&self) -> (usize, usize) {
        let total = self
            .present_port
            .iter()
            .filter(|&&p| p)
            .count()
            .saturating_mul(self.rcs);
        let used = self.reachable.iter().filter(|&&r| r).count();
        (total, used)
    }

    /// Hardware channels no route ever occupies.
    pub fn unreachable_channels(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for rp in 0..self.routers * self.ports {
            if !self.present_port[rp] {
                continue;
            }
            for rc in 0..self.rcs {
                let n = (rp * self.rcs + rc) as u32;
                if !self.reachable[n as usize] {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Channels some route occupies but from which no route suffix reaches
    /// an ejection port — packets there are starved of an escape path.
    pub fn starved_channels(&self) -> Vec<u32> {
        // Co-reachability to ejection over the dependency edges.
        let n = self.reachable.len();
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            rev[b as usize].push(a);
        }
        let mut can_escape = self.escapes.clone();
        let mut stack: Vec<u32> = (0..n as u32).filter(|&i| can_escape[i as usize]).collect();
        while let Some(v) = stack.pop() {
            for &u in &rev[v as usize] {
                if !can_escape[u as usize] {
                    can_escape[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        (0..n as u32)
            .filter(|&i| self.reachable[i as usize] && !can_escape[i as usize])
            .collect()
    }

    /// Finds a shortest cycle in the dependency graph, if any.
    pub fn find_cycle(&self) -> Option<Cycle> {
        let n = self.reachable.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b);
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        let sccs = tarjan_sccs(&adj);
        let cyclic: Vec<&Vec<u32>> = sccs.iter().filter(|s| s.len() > 1).collect();
        if cyclic.is_empty() {
            return None;
        }
        // Shortest cycle across the cyclic SCCs: BFS back to each start
        // node within its component (components are small; cap the starts).
        let mut best: Option<Vec<u32>> = None;
        for scc in cyclic {
            let members: HashSet<u32> = scc.iter().copied().collect();
            for &start in scc.iter().take(64) {
                if let Some(cyc) = bfs_cycle(&adj, &members, start) {
                    if best.as_ref().is_none_or(|b| cyc.len() < b.len()) {
                        best = Some(cyc);
                    }
                }
            }
        }
        let nodes = best?;
        let mut display = String::new();
        for (i, &v) in nodes.iter().enumerate() {
            if i > 0 {
                display.push_str("\n    -> ");
            } else {
                display.push_str("    ");
            }
            display.push_str(&self.node_label(v));
            let next = nodes[(i + 1) % nodes.len()];
            if let Some(w) = self.witness.get(&(v, next)) {
                display.push_str(&format!("  [route {}->{}]", w.src, w.dest));
            }
        }
        display.push_str(&format!(
            "\n    -> {} (cycle closes)",
            self.node_label(nodes[0])
        ));
        Some(Cycle { nodes, display })
    }
}

/// True if router `router`'s output `port` crosses a torus wraparound edge
/// (mesh/torus port convention: 1 = +x, 2 = -x, 3 = +y, 4 = -y).
fn wraps(topo: &Topology, router: usize, port: usize) -> bool {
    let (x, y) = topo.coords(router);
    match port {
        1 => x == topo.width - 1,
        2 => x == 0,
        3 => y == topo.height - 1,
        4 => y == 0,
        _ => false,
    }
}

/// Iterative Tarjan strongly-connected components.
fn tarjan_sccs(adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();
    // Explicit DFS frames: (node, next-child position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            let vu = v as usize;
            if *ci == 0 {
                index[vu] = next_index;
                low[vu] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vu] = true;
            }
            if let Some(&w) = adj[vu].get(*ci) {
                *ci += 1;
                let wu = w as usize;
                if index[wu] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(index[wu]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p as usize] = low[p as usize].min(low[vu]);
                }
                if low[vu] == index[vu] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Shortest cycle through `start` using only edges inside `members`.
fn bfs_cycle(adj: &[Vec<u32>], members: &HashSet<u32>, start: u32) -> Option<Vec<u32>> {
    let mut parent: HashMap<u32, u32> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v as usize] {
            if !members.contains(&w) {
                continue;
            }
            if w == start {
                // Reconstruct start -> ... -> v, cycle closes v -> start.
                let mut path = vec![v];
                let mut cur = v;
                while cur != start {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(w) {
                e.insert(v);
                queue.push_back(w);
            }
        }
    }
    None
}
