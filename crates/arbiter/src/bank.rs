//! Struct-of-arrays banks of `u64`-kernel arbiters.
//!
//! The allocators instantiate many identical small arbiters — `P` input
//! arbiters, `P*V` output arbiters, `P*P` pre-selection arbiters — and the
//! original representation (`Vec<Box<dyn Arbiter + Send>>`) scatters their
//! priority state across the heap, one allocation per arbiter, with a
//! virtual call per decision. A bank stores the state of a whole family of
//! same-kind, same-width arbiters contiguously (pointer array for
//! round-robin, packed `u64` beat rows for matrix) and makes decisions
//! directly on `u64` request words via the kernel primitives in
//! [`crate::bits`]. Behaviour is bit-identical to the boxed arbiters — the
//! differential test layer in `noc-core` drives both representations on
//! identical request streams and asserts grant equality.

use crate::bits::{rr_pick, width_mask};
use crate::ArbiterKind;

/// A bank of `count` identical arbiters of `width <= 64` inputs each.
#[derive(Clone, Debug)]
pub struct ArbiterBank {
    kind: ArbiterKind,
    count: usize,
    width: usize,
    /// Round-robin: the priority pointer of each arbiter. Empty otherwise.
    ptrs: Vec<u32>,
    /// Matrix: `beats[a * width + i]` is row `i` of arbiter `a` — bit `j`
    /// set iff input `i` currently beats input `j`. Empty otherwise.
    beats: Vec<u64>,
}

impl ArbiterBank {
    /// Creates a bank of `count` fresh arbiters. Panics if `width` is 0 or
    /// exceeds the 64-bit kernel word.
    pub fn new(kind: ArbiterKind, count: usize, width: usize) -> Self {
        assert!(
            (1..=64).contains(&width),
            "ArbiterBank width {width} outside kernel range"
        );
        let mut bank = ArbiterBank {
            kind,
            count,
            width,
            ptrs: Vec::new(),
            beats: Vec::new(),
        };
        match kind {
            ArbiterKind::FixedPriority => {}
            ArbiterKind::RoundRobin => bank.ptrs = vec![0; count],
            ArbiterKind::Matrix => {
                bank.beats = vec![0; count * width];
                bank.reset();
            }
        }
        bank
    }

    /// Number of arbiters in the bank.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Inputs per arbiter.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Arbiter kind shared by the bank.
    pub fn kind(&self) -> ArbiterKind {
        self.kind
    }

    /// Combinationally selects a winner for arbiter `a` among the set bits
    /// of `requests` (which must have no bits at or above the width).
    /// Semantically identical to [`crate::Arbiter::arbitrate`] on the
    /// corresponding boxed arbiter.
    #[inline]
    pub fn arbitrate(&self, a: usize, requests: u64) -> Option<usize> {
        debug_assert!(a < self.count);
        debug_assert_eq!(requests & !width_mask(self.width), 0);
        match self.kind {
            ArbiterKind::FixedPriority => {
                if requests == 0 {
                    None
                } else {
                    Some(requests.trailing_zeros() as usize)
                }
            }
            ArbiterKind::RoundRobin => rr_pick(requests, self.ptrs[a] as usize),
            ArbiterKind::Matrix => {
                if requests == 0 {
                    return None;
                }
                let rows = &self.beats[a * self.width..(a + 1) * self.width];
                let mut cand = requests;
                while cand != 0 {
                    let i = cand.trailing_zeros() as usize;
                    cand &= cand - 1;
                    // `i` wins iff it beats every other requester.
                    if requests & !(rows[i] | 1 << i) == 0 {
                        return Some(i);
                    }
                }
                // The beat matrix always encodes a strict total order, so a
                // winner exists whenever any input requests.
                debug_assert!(false, "inconsistent matrix bank state");
                None
            }
        }
    }

    /// Commits a successful grant to `winner` on arbiter `a`, advancing its
    /// priority state exactly like [`crate::Arbiter::update`].
    #[inline]
    pub fn update(&mut self, a: usize, winner: usize) {
        debug_assert!(a < self.count && winner < self.width);
        match self.kind {
            ArbiterKind::FixedPriority => {}
            ArbiterKind::RoundRobin => {
                self.ptrs[a] = ((winner + 1) % self.width) as u32;
            }
            ArbiterKind::Matrix => {
                let rows = &mut self.beats[a * self.width..(a + 1) * self.width];
                let wbit = 1u64 << winner;
                // Winner beats nobody; everybody now beats the winner.
                for (i, row) in rows.iter_mut().enumerate() {
                    if i == winner {
                        *row = 0;
                    } else {
                        *row |= wbit;
                    }
                }
            }
        }
    }

    /// Restores the power-on priority state of every arbiter in the bank.
    pub fn reset(&mut self) {
        match self.kind {
            ArbiterKind::FixedPriority => {}
            ArbiterKind::RoundRobin => self.ptrs.fill(0),
            ArbiterKind::Matrix => {
                // Initial order 0 > 1 > ... > n-1: row i beats all j > i.
                for a in 0..self.count {
                    for i in 0..self.width {
                        self.beats[a * self.width + i] =
                            width_mask(self.width) & !(width_mask(i + 1));
                    }
                }
            }
        }
    }
}

/// A bank of two-level tree arbiters over `groups x group_size` inputs each
/// (`groups <= 64`, `group_size <= 64`, so up to 4096 inputs) — the
/// struct-of-arrays counterpart of [`crate::TreeArbiter`], used for the wide
/// `P*V:1` output arbiters of the VC allocators (§4.1). One root bank (width
/// = group count) plus one leaf bank (width = group size, `count * groups`
/// arbiters) hold the whole family's state in two contiguous allocations.
///
/// Requests arrive already split by group — one `group_size`-bit word per
/// leaf — which is both the shape the hardware tree consumes and what lets
/// the total width exceed a machine word.
#[derive(Clone, Debug)]
pub struct TreeBank {
    groups: usize,
    group_size: usize,
    root: ArbiterBank,
    leaves: ArbiterBank,
}

impl TreeBank {
    /// Creates a bank of `count` tree arbiters, each `groups x group_size`
    /// wide. Panics unless both dimensions are in `1..=64`.
    pub fn new(kind: ArbiterKind, count: usize, groups: usize, group_size: usize) -> Self {
        TreeBank {
            groups,
            group_size,
            root: ArbiterBank::new(kind, count, groups),
            leaves: ArbiterBank::new(kind, count * groups, group_size),
        }
    }

    /// Total inputs per tree arbiter.
    pub fn width(&self) -> usize {
        self.groups * self.group_size
    }

    /// Winner for tree arbiter `a`, where `requests[g]` holds the requests
    /// of group `g`, as `(group, index within the group)`. Flattened to
    /// `group * group_size + index` it is bit-identical to
    /// [`crate::TreeArbiter`] of the same kind and shape on the flattened
    /// request vector.
    #[inline]
    pub fn arbitrate(&self, a: usize, requests: &[u64]) -> Option<(usize, usize)> {
        debug_assert_eq!(requests.len(), self.groups);
        let mut active = 0u64;
        for (g, &leaf) in requests.iter().enumerate() {
            active |= u64::from(leaf != 0) << g;
        }
        let g = self.root.arbitrate(a, active)?;
        let local = self.leaves.arbitrate(a * self.groups + g, requests[g])?;
        Some((g, local))
    }

    /// Commits a grant to input `local` of group `g`: the root advances on
    /// the winning group, the winning group's leaf on the local index; other
    /// groups' leaves are untouched.
    #[inline]
    pub fn update(&mut self, a: usize, g: usize, local: usize) {
        self.root.update(a, g);
        self.leaves.update(a * self.groups + g, local);
    }

    /// Restores power-on state for every tree in the bank.
    pub fn reset(&mut self) {
        self.root.reset();
        self.leaves.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arbiter, Bits, TreeArbiter};

    fn kinds() -> [ArbiterKind; 3] {
        [
            ArbiterKind::FixedPriority,
            ArbiterKind::RoundRobin,
            ArbiterKind::Matrix,
        ]
    }

    /// Deterministic request-pattern stream (no RNG dependency here).
    fn patterns(width: usize, len: usize) -> Vec<u64> {
        let mut x = 0x9e3779b97f4a7c15u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 7) & width_mask(width)
            })
            .collect()
    }

    #[test]
    fn bank_matches_boxed_arbiters_on_committed_streams() {
        for kind in kinds() {
            for width in [1, 2, 3, 5, 7, 10, 16, 63, 64] {
                let count = 3;
                let mut bank = ArbiterBank::new(kind, count, width);
                let mut boxed: Vec<_> = (0..count).map(|_| kind.build(width)).collect();
                for (t, &p) in patterns(width, 200).iter().enumerate() {
                    let a = t % count;
                    let bits = Bits::from_indices(width, (0..width).filter(|i| p >> i & 1 != 0));
                    let got = bank.arbitrate(a, p);
                    let want = boxed[a].arbitrate(&bits);
                    assert_eq!(got, want, "{kind:?} w={width} t={t} p={p:b}");
                    if let Some(w) = got {
                        // Commit every other grant so losing grants are
                        // also exercised (the iSLIP no-update path).
                        if t % 2 == 0 {
                            bank.update(a, w);
                            boxed[a].update(w);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bank_reset_restores_power_on_state() {
        for kind in kinds() {
            let mut bank = ArbiterBank::new(kind, 2, 5);
            let fresh = ArbiterBank::new(kind, 2, 5);
            for w in [3usize, 1, 4] {
                bank.update(0, w);
                bank.update(1, (w + 1) % 5);
            }
            bank.reset();
            for p in 1u64..32 {
                assert_eq!(bank.arbitrate(0, p), fresh.arbitrate(0, p), "{kind:?}");
                assert_eq!(bank.arbitrate(1, p), fresh.arbitrate(1, p), "{kind:?}");
            }
        }
    }

    /// Tree shapes `(groups, group_size)`: narrow ones, the paper's VC
    /// output arbiters (5x4, 10x8 sparse fbfly, 10x16 dense fbfly = 160
    /// inputs), both sides of the one-word total (8x8 = 64, 5x13 = 65) and
    /// the extreme dimensions.
    const TREE_SHAPES: [(usize, usize); 10] = [
        (2, 2),
        (3, 4),
        (5, 4),
        (8, 8),
        (5, 13),
        (10, 8),
        (10, 16),
        (64, 2),
        (3, 64),
        (64, 64),
    ];

    /// Per-group request words for `len` rounds: about half the groups
    /// empty in any round, so the root regularly has to skip groups.
    fn group_patterns(groups: usize, group_size: usize, len: usize) -> Vec<Vec<u64>> {
        let mut x = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 7
        };
        (0..len)
            .map(|_| {
                (0..groups)
                    .map(|_| {
                        if next() & 1 == 0 {
                            0
                        } else {
                            next() & next() & width_mask(group_size)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    type TreeArbitrate = fn(&TreeBank, usize, &[u64]) -> Option<(usize, usize)>;
    type TreeUpdate = fn(&mut TreeBank, usize, usize, usize);

    /// Drives two trees of a bank through `arbitrate`/`update` (or mutants
    /// of them) against boxed [`TreeArbiter`]s on the flattened request
    /// vector; true iff every round agrees.
    fn tree_agrees(
        kind: ArbiterKind,
        (groups, group_size): (usize, usize),
        arbitrate: TreeArbitrate,
        update: TreeUpdate,
    ) -> bool {
        let width = groups * group_size;
        let mut bank = TreeBank::new(kind, 2, groups, group_size);
        let mut boxed = [
            TreeArbiter::new(groups, group_size, kind),
            TreeArbiter::new(groups, group_size, kind),
        ];
        for (t, words) in group_patterns(groups, group_size, 150).iter().enumerate() {
            let a = t % 2;
            let flat = (0..width).filter(|i| words[i / group_size] >> (i % group_size) & 1 != 0);
            let want = boxed[a].arbitrate(&Bits::from_indices(width, flat));
            let got = arbitrate(&bank, a, words);
            if got.map(|(g, local)| g * group_size + local) != want {
                return false;
            }
            if let (Some((g, local)), Some(w)) = (got, want) {
                // Leave every third grant uncommitted (the iSLIP path).
                if t % 3 != 2 {
                    update(&mut bank, a, g, local);
                    boxed[a].update(w);
                }
            }
        }
        true
    }

    #[test]
    fn tree_bank_matches_tree_arbiter_beyond_one_word() {
        for kind in kinds() {
            for shape in TREE_SHAPES {
                assert!(
                    tree_agrees(kind, shape, TreeBank::arbitrate, TreeBank::update),
                    "{kind:?} {shape:?}"
                );
            }
        }
    }

    // The mutant catalogue, as for the `bits` primitives: each miscoding of
    // the tree walk must be told apart from the boxed arbiter by some
    // kind and shape of the grid above, or the pinning test has no teeth.
    #[test]
    fn tree_bank_mutant_catalogue_is_rejected() {
        let mutants: [(&str, TreeArbitrate, TreeUpdate); 5] = [
            (
                "root sees empty groups as active",
                |t, a, req| {
                    let g = t.root.arbitrate(a, width_mask(t.groups))?;
                    Some((g, t.leaves.arbitrate(a * t.groups + g, req[g])?))
                },
                TreeBank::update,
            ),
            (
                "leaf index forgets the per-tree stride",
                |t, a, req| {
                    let active = (0..t.groups).fold(0, |m, g| m | u64::from(req[g] != 0) << g);
                    let g = t.root.arbitrate(a, active)?;
                    Some((g, t.leaves.arbitrate(g, req[g])?))
                },
                TreeBank::update,
            ),
            (
                "leaf arbitrates the root's request word",
                |t, a, req| {
                    let (g, _) = t.arbitrate(a, req)?;
                    let active = (0..t.groups).fold(0, |m, g| m | u64::from(req[g] != 0) << g);
                    let word = active & width_mask(t.group_size);
                    Some((g, t.leaves.arbitrate(a * t.groups + g, word)?))
                },
                TreeBank::update,
            ),
            (
                "update advances group 0's leaf, not the winner's",
                TreeBank::arbitrate,
                |t, a, g, local| {
                    t.root.update(a, g);
                    t.leaves.update(a * t.groups, local);
                },
            ),
            (
                "update leaves the root untouched",
                TreeBank::arbitrate,
                |t, a, g, local| t.leaves.update(a * t.groups + g, local),
            ),
        ];
        for (name, arbitrate, update) in mutants {
            let caught = kinds().iter().any(|&kind| {
                TREE_SHAPES
                    .iter()
                    .any(|&shape| !tree_agrees(kind, shape, arbitrate, update))
            });
            assert!(caught, "mutant '{name}' survives the pinning grid");
        }
    }

    #[test]
    fn matrix_bank_is_least_recently_served() {
        let mut bank = ArbiterBank::new(ArbiterKind::Matrix, 1, 4);
        bank.update(0, 0);
        bank.update(0, 2);
        // LRS among {0, 2, 3}: 3 (never served) wins; then 0 beats 2.
        assert_eq!(bank.arbitrate(0, 0b1101), Some(3));
        assert_eq!(bank.arbitrate(0, 0b0101), Some(0));
    }

    #[test]
    fn bank_arbiters_are_independent() {
        let mut bank = ArbiterBank::new(ArbiterKind::RoundRobin, 3, 4);
        bank.update(1, 2); // only arbiter 1 advances
        assert_eq!(bank.arbitrate(0, 0b1111), Some(0));
        assert_eq!(bank.arbitrate(1, 0b1111), Some(3));
        assert_eq!(bank.arbitrate(2, 0b1111), Some(0));
    }
}
