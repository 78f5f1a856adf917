//! Always-on router counters with stall-cause attribution.

/// Per-input-VC cycle classification. Every simulated cycle, each input VC
/// falls into exactly one bucket, so for any VC
/// `active + credit_stall + vca_stall + sa_stall + empty == cycles` and
/// the stall *fractions* sum to at most 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallCounters {
    /// A flit left this VC through the switch this cycle.
    pub active: u64,
    /// Flit buffered, output VC held, but no downstream credit.
    pub credit_stall: u64,
    /// Head flit buffered and still waiting for an output VC (covers the
    /// VCA-request cycle itself and any speculative-SA losses riding on
    /// it, since those cycles end without an output VC to move through).
    pub vca_stall: u64,
    /// Flit buffered with an output VC and credit, but the switch
    /// allocator did not grant this VC.
    pub sa_stall: u64,
    /// No flit buffered.
    pub empty: u64,
}

impl StallCounters {
    /// Cycles observed.
    pub fn cycles(&self) -> u64 {
        self.active + self.credit_stall + self.vca_stall + self.sa_stall + self.empty
    }

    /// Fraction of observed cycles stalled for any cause (0 if never
    /// observed).
    pub fn stall_fraction(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            return 0.0;
        }
        (self.credit_stall + self.vca_stall + self.sa_stall) as f64 / c as f64
    }

    /// `(credit, vca, sa, empty)` fractions of observed cycles (all 0 if
    /// never observed).
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let c = self.cycles();
        if c == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let f = |x: u64| x as f64 / c as f64;
        (
            f(self.credit_stall),
            f(self.vca_stall),
            f(self.sa_stall),
            f(self.empty),
        )
    }

    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &StallCounters) {
        self.active += other.active;
        self.credit_stall += other.credit_stall;
        self.vca_stall += other.vca_stall;
        self.sa_stall += other.sa_stall;
        self.empty += other.empty;
    }
}

/// Always-on observability state of one router: per-output-port flit
/// counts and per-input-VC stall attribution.
#[derive(Clone, Debug, Default)]
pub struct RouterObs {
    /// Flits sent into each output port's link (switch traversals).
    pub out_flits: Vec<u64>,
    /// Stall counters per input VC, indexed `port * vcs + vc`.
    pub vc: Vec<StallCounters>,
    /// VCs per port (for index decoding in exports).
    pub vcs: usize,
}

impl RouterObs {
    /// Fresh counters for a `ports × vcs` router.
    pub fn new(ports: usize, vcs: usize) -> Self {
        RouterObs {
            out_flits: vec![0; ports],
            vc: vec![StallCounters::default(); ports * vcs],
            vcs,
        }
    }

    /// Total flits this router pushed into links.
    pub fn total_out_flits(&self) -> u64 {
        self.out_flits.iter().sum()
    }

    /// Stall counters aggregated over the VCs of one input port.
    pub fn port_stalls(&self, port: usize) -> StallCounters {
        let mut agg = StallCounters::default();
        for s in &self.vc[port * self.vcs..(port + 1) * self.vcs] {
            agg.merge(s);
        }
        agg
    }

    /// `(port, fraction)` of the input port with the highest stall
    /// fraction; `(0, 0.0)` for a router that observed nothing.
    pub fn worst_port_stall(&self) -> (usize, f64) {
        let ports = self.out_flits.len();
        (0..ports)
            .map(|p| (p, self.port_stalls(p).stall_fraction()))
            .fold(
                (0, 0.0),
                |best, cur| if cur.1 > best.1 { cur } else { best },
            )
    }
}

/// Per-router digest attached to simulation results.
#[derive(Clone, Copy, Debug)]
pub struct RouterBreakdown {
    /// Router id.
    pub router: usize,
    /// Flits/cycle this router pushed into links over the run.
    pub throughput: f64,
    /// Input port with the highest stall fraction.
    pub worst_port: usize,
    /// That port's stall fraction (stalled cycles / observed cycles).
    pub worst_port_stall: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_fractions_sum_to_one_with_activity() {
        let s = StallCounters {
            active: 10,
            credit_stall: 5,
            vca_stall: 3,
            sa_stall: 2,
            empty: 80,
        };
        assert_eq!(s.cycles(), 100);
        let (c, v, a, e) = s.fractions();
        assert!((c + v + a + e + 0.10 - 1.0).abs() < 1e-12);
        assert!((s.stall_fraction() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_give_zero_fractions() {
        let s = StallCounters::default();
        assert_eq!(s.stall_fraction(), 0.0);
        assert_eq!(s.fractions(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn worst_port_picks_the_maximum() {
        let mut obs = RouterObs::new(3, 2);
        obs.vc[2].sa_stall = 9; // port 1, vc 0
        obs.vc[2].empty = 1;
        obs.vc[3].empty = 10; // port 1, vc 1
        obs.vc[0].empty = 10;
        obs.vc[4].credit_stall = 1; // port 2, vc 0
        obs.vc[4].empty = 19;
        obs.vc[5].empty = 20;
        let (port, frac) = obs.worst_port_stall();
        assert_eq!(port, 1);
        assert!((frac - 9.0 / 20.0).abs() < 1e-12);
    }
}
