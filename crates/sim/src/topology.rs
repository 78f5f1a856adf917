//! The two 64-node topologies of the paper's evaluation (§3).

use noc_core::VcAllocSpec;

/// A directed router-to-router link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    /// Destination router.
    pub to_router: usize,
    /// Input port at the destination router.
    pub to_port: usize,
    /// Latency in cycles.
    pub latency: u64,
}

/// The topology kinds evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// 8×8 mesh, one terminal per router (P = 5).
    Mesh8x8,
    /// 4×4 two-dimensional flattened butterfly, concentration 4 (P = 10).
    FlattenedButterfly4x4,
    /// 8×8 torus, one terminal per router (P = 5) — the dateline-routing
    /// extension (§4.2 names torus datelines as the other resource-class
    /// example; the paper itself evaluates mesh and fbfly only).
    Torus8x8,
}

impl TopologyKind {
    /// Builds the topology.
    pub fn build(self) -> Topology {
        match self {
            TopologyKind::Mesh8x8 => Topology::mesh(8, 8),
            TopologyKind::FlattenedButterfly4x4 => Topology::flattened_butterfly(4, 4, 4),
            TopologyKind::Torus8x8 => Topology::torus(8, 8),
        }
    }

    /// Name used in figure captions.
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Mesh8x8 => "mesh",
            TopologyKind::FlattenedButterfly4x4 => "fbfly",
            TopologyKind::Torus8x8 => "torus",
        }
    }

    /// Parses a [`TopologyKind::label`] name.
    pub fn parse(s: &str) -> Option<TopologyKind> {
        match s {
            "mesh" => Some(TopologyKind::Mesh8x8),
            "fbfly" => Some(TopologyKind::FlattenedButterfly4x4),
            "torus" => Some(TopologyKind::Torus8x8),
            _ => None,
        }
    }

    /// The VC class structure of this topology's routers at `C` VCs per
    /// class (mesh 2x1xC, fbfly 2x2xC, torus 2x2xC).
    pub fn vc_spec(self, vcs_per_class: usize) -> VcAllocSpec {
        match self {
            TopologyKind::Mesh8x8 => VcAllocSpec::mesh(vcs_per_class),
            TopologyKind::FlattenedButterfly4x4 => VcAllocSpec::fbfly(vcs_per_class),
            TopologyKind::Torus8x8 => VcAllocSpec::torus(vcs_per_class),
        }
    }
}

/// Concrete topology description: router grid, terminal attachment and the
/// link table.
#[derive(Clone, Debug)]
pub struct Topology {
    kind_label: &'static str,
    /// Grid width (routers).
    pub width: usize,
    /// Grid height (routers).
    pub height: usize,
    /// Terminals per router.
    pub concentration: usize,
    /// Ports per router (terminal ports first, then network ports).
    pub ports: usize,
    /// `links[router][port]`: `None` for terminal ports.
    links: Vec<Vec<Option<Link>>>,
}

impl Topology {
    /// `w × h` mesh with one terminal per router; ports: 0 = terminal,
    /// 1 = +x, 2 = −x, 3 = +y, 4 = −y; all links are single-cycle (§3.2).
    pub fn mesh(w: usize, h: usize) -> Topology {
        let n = w * h;
        let mut links = vec![vec![None; 5]; n];
        for y in 0..h {
            for x in 0..w {
                let r = y * w + x;
                if x + 1 < w {
                    links[r][1] = Some(Link {
                        to_router: r + 1,
                        to_port: 2,
                        latency: 1,
                    });
                }
                if x > 0 {
                    links[r][2] = Some(Link {
                        to_router: r - 1,
                        to_port: 1,
                        latency: 1,
                    });
                }
                if y + 1 < h {
                    links[r][3] = Some(Link {
                        to_router: r + w,
                        to_port: 4,
                        latency: 1,
                    });
                }
                if y > 0 {
                    links[r][4] = Some(Link {
                        to_router: r - w,
                        to_port: 3,
                        latency: 1,
                    });
                }
            }
        }
        Topology {
            kind_label: "mesh",
            width: w,
            height: h,
            concentration: 1,
            ports: 5,
            links,
        }
    }

    /// `w × h` torus: the mesh with single-cycle wraparound links in both
    /// dimensions. Same port numbering as the mesh (0 = terminal, 1 = +x,
    /// 2 = −x, 3 = +y, 4 = −y); every port is connected.
    pub fn torus(w: usize, h: usize) -> Topology {
        assert!(w >= 3 && h >= 3, "degenerate rings alias ports");
        let n = w * h;
        let mut links = vec![vec![None; 5]; n];
        for y in 0..h {
            for x in 0..w {
                let r = y * w + x;
                let xp = y * w + (x + 1) % w;
                let xm = y * w + (x + w - 1) % w;
                let yp = ((y + 1) % h) * w + x;
                let ym = ((y + h - 1) % h) * w + x;
                links[r][1] = Some(Link {
                    to_router: xp,
                    to_port: 2,
                    latency: 1,
                });
                links[r][2] = Some(Link {
                    to_router: xm,
                    to_port: 1,
                    latency: 1,
                });
                links[r][3] = Some(Link {
                    to_router: yp,
                    to_port: 4,
                    latency: 1,
                });
                links[r][4] = Some(Link {
                    to_router: ym,
                    to_port: 3,
                    latency: 1,
                });
            }
        }
        Topology {
            kind_label: "torus",
            width: w,
            height: h,
            concentration: 1,
            ports: 5,
            links,
        }
    }

    /// `w × h` two-dimensional flattened butterfly with concentration `c`:
    /// every router connects to all others in its row and column. Ports:
    /// `0..c` terminals, then `w-1` row links, then `h-1` column links.
    /// Link latency equals grid distance, giving the paper's one-to-three
    /// cycle channel latencies (§3.2).
    pub fn flattened_butterfly(w: usize, h: usize, c: usize) -> Topology {
        let n = w * h;
        let ports = c + (w - 1) + (h - 1);
        let mut links = vec![vec![None; ports]; n];
        // Row port numbering: port c + k at router x connects to the k-th
        // other router in the row (in increasing x skipping self).
        for y in 0..h {
            for x in 0..w {
                let r = y * w + x;
                for (k, ox) in (0..w).filter(|&ox| ox != x).enumerate() {
                    let to = y * w + ox;
                    // Reverse port index at the destination: position of x
                    // in 0..w with ox skipped.
                    let back = if x < ox { x } else { x - 1 };
                    links[r][c + k] = Some(Link {
                        to_router: to,
                        to_port: c + back,
                        latency: x.abs_diff(ox) as u64,
                    });
                }
                for (k, oy) in (0..h).filter(|&oy| oy != y).enumerate() {
                    let to = oy * w + x;
                    let back = if y < oy { y } else { y - 1 };
                    links[r][c + (w - 1) + k] = Some(Link {
                        to_router: to,
                        to_port: c + (w - 1) + back,
                        latency: y.abs_diff(oy) as u64,
                    });
                }
            }
        }
        Topology {
            kind_label: "fbfly",
            width: w,
            height: h,
            concentration: c,
            ports,
            links,
        }
    }

    /// Short name (`mesh` / `fbfly`).
    pub fn label(&self) -> &'static str {
        self.kind_label
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.width * self.height
    }

    /// The terminal-space shape traffic patterns operate on.
    pub fn geometry(&self) -> crate::traffic::TrafficGeometry {
        crate::traffic::TrafficGeometry {
            width: self.width,
            height: self.height,
            concentration: self.concentration,
        }
    }

    /// Number of network terminals.
    pub fn num_terminals(&self) -> usize {
        self.num_routers() * self.concentration
    }

    /// Router and input port a terminal attaches to.
    pub fn terminal_attach(&self, t: usize) -> (usize, usize) {
        assert!(t < self.num_terminals());
        (t / self.concentration, t % self.concentration)
    }

    /// The terminal reached through ejection port `port` of `router`, if
    /// `port` is a terminal port.
    pub fn port_terminal(&self, router: usize, port: usize) -> Option<usize> {
        (port < self.concentration).then(|| router * self.concentration + port)
    }

    /// The link leaving `router` through `port` (`None` for terminal ports).
    pub fn link(&self, router: usize, port: usize) -> Option<Link> {
        self.links[router][port]
    }

    /// The network port at `from` that reaches `to` directly, if any.
    pub fn port_towards(&self, from: usize, to: usize) -> Option<usize> {
        (0..self.ports).find(|&p| self.links[from][p].is_some_and(|l| l.to_router == to))
    }

    /// Grid coordinates of a router.
    pub fn coords(&self, router: usize) -> (usize, usize) {
        (router % self.width, router / self.width)
    }

    /// Minimal router-to-router hop count.
    pub fn min_hops(&self, from: usize, to: usize) -> usize {
        let (x0, y0) = self.coords(from);
        let (x1, y1) = self.coords(to);
        match self.kind_label {
            "mesh" => x0.abs_diff(x1) + y0.abs_diff(y1),
            "torus" => {
                let dx = x0.abs_diff(x1);
                let dy = y0.abs_diff(y1);
                dx.min(self.width - dx) + dy.min(self.height - dy)
            }
            _ => (x0 != x1) as usize + (y0 != y1) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for k in [
            TopologyKind::Mesh8x8,
            TopologyKind::FlattenedButterfly4x4,
            TopologyKind::Torus8x8,
        ] {
            assert_eq!(TopologyKind::parse(k.label()), Some(k));
        }
        assert_eq!(TopologyKind::parse("hypercube"), None);
    }

    #[test]
    fn mesh_structure() {
        let t = TopologyKind::Mesh8x8.build();
        assert_eq!(t.num_routers(), 64);
        assert_eq!(t.num_terminals(), 64);
        assert_eq!(t.ports, 5);
        // Corner router 0: only +x and +y links.
        assert!(t.link(0, 1).is_some() && t.link(0, 3).is_some());
        assert!(t.link(0, 2).is_none() && t.link(0, 4).is_none());
        // All mesh links are 1 cycle and symmetric.
        for r in 0..64 {
            for p in 1..5 {
                if let Some(l) = t.link(r, p) {
                    assert_eq!(l.latency, 1);
                    let back = t.link(l.to_router, l.to_port).unwrap();
                    assert_eq!(back.to_router, r);
                    assert_eq!(back.to_port, p);
                }
            }
        }
    }

    #[test]
    fn fbfly_structure() {
        let t = TopologyKind::FlattenedButterfly4x4.build();
        assert_eq!(t.num_routers(), 16);
        assert_eq!(t.num_terminals(), 64);
        assert_eq!(t.ports, 10);
        // Every router reaches 3 row + 3 column peers.
        for r in 0..16 {
            let peers: Vec<usize> = (4..10).map(|p| t.link(r, p).unwrap().to_router).collect();
            assert_eq!(peers.len(), 6);
            // Links are symmetric and 1-3 cycles.
            for p in 4..10 {
                let l = t.link(r, p).unwrap();
                assert!((1..=3).contains(&l.latency), "latency {}", l.latency);
                let back = t.link(l.to_router, l.to_port).unwrap();
                assert_eq!((back.to_router, back.to_port), (r, p));
            }
        }
        // Distance-based latency: router 0 to router 3 (same row, dx=3).
        let p = t.port_towards(0, 3).unwrap();
        assert_eq!(t.link(0, p).unwrap().latency, 3);
    }

    #[test]
    fn terminal_attachment_roundtrip() {
        let t = TopologyKind::FlattenedButterfly4x4.build();
        for term in 0..64 {
            let (r, p) = t.terminal_attach(term);
            assert_eq!(t.port_terminal(r, p), Some(term));
        }
        assert_eq!(t.port_terminal(0, 4), None);
    }

    #[test]
    fn min_hops() {
        let mesh = TopologyKind::Mesh8x8.build();
        assert_eq!(mesh.min_hops(0, 63), 14);
        assert_eq!(mesh.min_hops(0, 0), 0);
        let fb = TopologyKind::FlattenedButterfly4x4.build();
        assert_eq!(fb.min_hops(0, 15), 2);
        assert_eq!(fb.min_hops(0, 3), 1);
        assert_eq!(fb.min_hops(5, 5), 0);
    }

    #[test]
    fn fbfly_all_pairs_reachable_within_two_hops() {
        let t = TopologyKind::FlattenedButterfly4x4.build();
        for a in 0..16 {
            for b in 0..16 {
                if a == b {
                    continue;
                }
                let h = t.min_hops(a, b);
                assert!(h <= 2);
                if h == 1 {
                    assert!(t.port_towards(a, b).is_some());
                }
            }
        }
    }
}
