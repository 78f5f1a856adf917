//! Order-sensitive trace digests.
//!
//! [`DigestSink`] folds every [`FlitEvent`] into a running FNV-1a hash, so
//! two runs produced identical traces — same events, same order — exactly
//! when their digests match. The engine-equivalence and golden-trace test
//! layers compare digests instead of multi-megabyte event logs; with
//! per-cycle tracking enabled the sink also snapshots the cumulative hash
//! at every cycle boundary, so a mismatch can be narrowed to the first
//! diverging cycle.

use crate::event::{FlitEvent, TraceSink};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A [`TraceSink`] reducing the event stream to a 64-bit FNV-1a digest.
///
/// The digest covers every field of every event in emission order, so it
/// distinguishes reordered as well as altered traces. Construct with
/// [`DigestSink::with_cycle_digests`] to additionally record the
/// cumulative digest at each cycle boundary (then call
/// [`DigestSink::finish_cycles`] after the run so trailing event-free
/// cycles are represented too).
#[derive(Clone, Debug)]
pub struct DigestSink {
    hash: u64,
    events: u64,
    /// `cycle_digests[c]` = cumulative hash after all events of cycle `c`.
    cycle_digests: Vec<u64>,
    track_cycles: bool,
    /// Cycle currently being hashed (events arrive with non-decreasing
    /// cycle numbers).
    cur_cycle: u64,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink::new()
    }
}

impl DigestSink {
    /// A digest-only sink (no per-cycle snapshots).
    pub fn new() -> Self {
        DigestSink {
            hash: FNV_OFFSET,
            events: 0,
            cycle_digests: Vec::new(),
            track_cycles: false,
            cur_cycle: 0,
        }
    }

    /// A sink that also snapshots the cumulative digest per cycle.
    pub fn with_cycle_digests() -> Self {
        DigestSink {
            track_cycles: true,
            ..DigestSink::new()
        }
    }

    /// The digest over all events recorded so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Events recorded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Closes the per-cycle snapshot list for a run of `total` cycles:
    /// cycles after the last event repeat the final digest, so two runs of
    /// equal length always produce equal-length snapshot lists.
    pub fn finish_cycles(&mut self, total: u64) {
        if self.track_cycles {
            while (self.cycle_digests.len() as u64) < total {
                self.cycle_digests.push(self.hash);
            }
        }
    }

    /// Cumulative digest after each cycle (empty unless constructed with
    /// [`DigestSink::with_cycle_digests`]).
    pub fn cycle_digests(&self) -> &[u64] {
        &self.cycle_digests
    }

    /// First cycle at which two per-cycle snapshot lists disagree —
    /// including a length mismatch, which diverges at the shorter list's
    /// end. `None` means the traces are identical.
    pub fn first_divergence(a: &[u64], b: &[u64]) -> Option<u64> {
        let n = a.len().min(b.len());
        for c in 0..n {
            if a[c] != b[c] {
                return Some(c as u64);
            }
        }
        (a.len() != b.len()).then_some(n as u64)
    }
}

impl TraceSink for DigestSink {
    const ACTIVE: bool = true;

    #[inline]
    fn record(&mut self, ev: FlitEvent) {
        if self.track_cycles {
            debug_assert!(
                ev.cycle >= self.cur_cycle,
                "events must not go back in time"
            );
            while self.cur_cycle < ev.cycle {
                // Close out every cycle up to the event's: each keeps the
                // digest it ended with.
                if self.cycle_digests.len() as u64 == self.cur_cycle {
                    self.cycle_digests.push(self.hash);
                }
                self.cur_cycle += 1;
            }
        }
        let mut h = self.hash;
        h = fnv1a(h, &ev.cycle.to_le_bytes());
        h = fnv1a(h, &[ev.kind as u8]);
        h = fnv1a(h, &ev.router.to_le_bytes());
        h = fnv1a(h, &ev.port.to_le_bytes());
        h = fnv1a(h, &ev.vc.to_le_bytes());
        h = fnv1a(h, &ev.packet_id.to_le_bytes());
        h = fnv1a(h, &ev.flit_index.to_le_bytes());
        self.hash = h;
        self.events += 1;
        if self.track_cycles {
            // The running cycle's slot tracks the latest digest; it is
            // final once a later cycle's event (or finish_cycles) lands.
            if self.cycle_digests.len() as u64 == ev.cycle {
                self.cycle_digests.push(self.hash);
            } else {
                self.cycle_digests[ev.cycle as usize] = self.hash;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlitEventKind;

    fn ev(cycle: u64, packet: u64) -> FlitEvent {
        FlitEvent {
            cycle,
            kind: FlitEventKind::Inject,
            router: 3,
            port: 1,
            vc: 0,
            packet_id: packet,
            flit_index: 0,
        }
    }

    #[test]
    fn identical_streams_hash_identically() {
        let (mut a, mut b) = (DigestSink::new(), DigestSink::new());
        for c in 0..10 {
            a.record(ev(c, c));
            b.record(ev(c, c));
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.events(), 10);
    }

    #[test]
    fn any_field_change_changes_the_digest() {
        let (mut a, mut b) = (DigestSink::new(), DigestSink::new());
        a.record(ev(5, 7));
        b.record(ev(5, 8));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn reordering_changes_the_digest() {
        let (mut a, mut b) = (DigestSink::new(), DigestSink::new());
        a.record(ev(1, 1));
        a.record(ev(1, 2));
        b.record(ev(1, 2));
        b.record(ev(1, 1));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn cycle_digests_locate_the_first_divergence() {
        let (mut a, mut b) = (
            DigestSink::with_cycle_digests(),
            DigestSink::with_cycle_digests(),
        );
        for c in 0..4 {
            a.record(ev(c, c));
            b.record(ev(c, if c == 2 { 99 } else { c }));
        }
        a.finish_cycles(6);
        b.finish_cycles(6);
        assert_eq!(a.cycle_digests().len(), 6);
        assert_eq!(
            DigestSink::first_divergence(a.cycle_digests(), b.cycle_digests()),
            Some(2)
        );
        let same = a.clone();
        assert_eq!(
            DigestSink::first_divergence(a.cycle_digests(), same.cycle_digests()),
            None
        );
    }

    #[test]
    fn event_free_cycles_repeat_the_running_digest() {
        let mut s = DigestSink::with_cycle_digests();
        s.record(ev(0, 1));
        s.record(ev(3, 2));
        s.finish_cycles(5);
        let d = s.cycle_digests();
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        assert_ne!(d[2], d[3]);
        assert_eq!(d[3], d[4]);
    }
}
