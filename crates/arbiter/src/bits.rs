//! A compact fixed-width bitset used for request and grant vectors.
//!
//! Allocator design points in this workspace go up to `P*V = 160` bits per
//! request vector (flattened butterfly, `P = 10`, `V = 16`), so a single
//! machine word is not enough. `Bits` stores an arbitrary fixed number of
//! bits — inline, for every width up to [`INLINE_WORDS`]` * 64`, so the
//! request/grant vectors built each cycle in the allocator kernels never
//! touch the heap (the `tests/zero_alloc.rs` audit counts on this), with
//! a `Vec<u64>` fallback for wider sets — and keeps all unused high bits
//! at zero, which lets the word-level operations (union, intersection,
//! popcount) stay branch-free.

/// Words stored inline before falling back to the heap: 192 bits, above
/// the widest vector any paper design point builds (160).
pub const INLINE_WORDS: usize = 3;

// ---------------------------------------------------------------------------
// u64 kernel primitives
//
// The bit-parallel allocator kernels treat a request vector of width
// `n <= 64` as a single machine word (wider sets are arrays of such words).
// The primitives below are the whole vocabulary those kernels need: a width
// mask, a mask-and-ctz round-robin pick, and the AND-NOT speculative kill.
// Each is deliberately tiny so the kernel-level unit tests can pin its
// semantics against a scalar oracle and against a catalogue of off-by-one
// mutants.
// ---------------------------------------------------------------------------

/// The lowest `n` bits set, for `1 <= n <= 64`.
#[inline]
pub fn width_mask(n: usize) -> u64 {
    debug_assert!((1..=64).contains(&n), "width {n} out of kernel range");
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Mask-and-ctz round-robin pick: the lowest set bit of `requests` at
/// position `ptr` or above, wrapping to the lowest set bit overall when the
/// masked pass comes up empty. Exactly the two-pass thermometer-mask
/// structure of [`crate::RoundRobinArbiter`], collapsed to two word ops.
///
/// `requests` must have no bits set at or above the arbiter width, and
/// `ptr` must be below it; under those preconditions the result is
/// bit-identical to the pointer-walk arbiter.
#[inline]
pub fn rr_pick(requests: u64, ptr: usize) -> Option<usize> {
    if requests == 0 {
        return None;
    }
    debug_assert!(ptr < 64);
    let masked = requests & (u64::MAX << ptr);
    let w = if masked != 0 { masked } else { requests };
    Some(w.trailing_zeros() as usize)
}

/// AND-NOT speculative kill: the speculative candidates of `spec` that do
/// not collide with any bit of `blocked`. The masking stage of §5.2 is this
/// single operation once port usage is expressed as a `u64` mask.
#[inline]
pub fn spec_kill(spec: u64, blocked: u64) -> u64 {
    spec & !blocked
}

#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// Fixed-width bit vector. The width is set at construction and never changes.
#[derive(Clone)]
pub struct Bits {
    len: usize,
    words: Words,
}

impl Bits {
    #[inline]
    fn nwords(len: usize) -> usize {
        len.div_ceil(64).max(1)
    }

    /// Creates an all-zero bit vector of width `len`.
    pub fn new(len: usize) -> Self {
        let n = Self::nwords(len);
        let words = if n <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0u64; n])
        };
        Bits { len, words }
    }

    /// The live words (exactly `nwords(len)` of them).
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(a) => &a[..Self::nwords(self.len)],
            Words::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let n = Self::nwords(self.len);
        match &mut self.words {
            Words::Inline(a) => &mut a[..n],
            Words::Heap(v) => v,
        }
    }

    /// Creates an all-ones bit vector of width `len`.
    pub fn ones(len: usize) -> Self {
        let mut b = Bits::new(len);
        for w in b.words_mut() {
            *w = u64::MAX;
        }
        b.mask_tail();
        b
    }

    /// Builds a bit vector from an iterator of bit positions to set.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Bits::new(len);
        for i in indices {
            b.set(i, true);
        }
        b
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has width zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`. Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words()[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Writes bit `i`. Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, s) = (i / 64, i % 64);
        if v {
            self.words_mut()[w] |= 1 << s;
        } else {
            self.words_mut()[w] &= !(1 << s);
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        for w in self.words_mut() {
            *w = 0;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// True if exactly one bit is set.
    pub fn is_one_hot(&self) -> bool {
        self.count_ones() == 1
    }

    /// Index of the lowest set bit, if any.
    pub fn first_set(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Index of the lowest set bit at position `from` or above, if any.
    pub fn first_set_from(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let words = self.words();
        let start_word = from / 64;
        let mut w = words[start_word] & (u64::MAX << (from % 64));
        let mut wi = start_word;
        loop {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
            wi += 1;
            if wi >= words.len() {
                return None;
            }
            w = words[wi];
        }
    }

    /// The vector as a single kernel word. Only meaningful for widths up to
    /// 64 (asserted in debug builds); this is the bridge the bit-parallel
    /// kernels use to lift a narrow `Bits` row into `u64` arithmetic.
    #[inline]
    pub fn low_word(&self) -> u64 {
        debug_assert!(self.len <= 64, "low_word on {}-bit vector", self.len);
        self.words()[0]
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_set(&self) -> SetBitsIter<'_> {
        let words = self.words();
        SetBitsIter {
            words,
            word_idx: 0,
            cur: words.first().copied().unwrap_or(0),
        }
    }

    /// Overwrites `self` with `other`. Panics on width mismatch.
    pub fn copy_from(&mut self, other: &Bits) {
        assert_eq!(self.len, other.len, "Bits width mismatch");
        self.words_mut().copy_from_slice(other.words());
    }

    /// In-place union with `other`. Panics on width mismatch.
    pub fn union_with(&mut self, other: &Bits) {
        assert_eq!(self.len, other.len, "Bits width mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`. Panics on width mismatch.
    pub fn intersect_with(&mut self, other: &Bits) {
        assert_eq!(self.len, other.len, "Bits width mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// In-place set difference (`self & !other`). Panics on width mismatch.
    pub fn subtract(&mut self, other: &Bits) {
        assert_eq!(self.len, other.len, "Bits width mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// True if every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &Bits) -> bool {
        assert_eq!(self.len, other.len, "Bits width mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        } else if self.len == 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last = 0;
            }
        }
    }
}

// Manual impls: two equal-width vectors compare by live words only, so an
// inline and a heap representation of the same set (impossible today, but
// cheap to be robust against) and the unused inline tail never leak into
// equality or hashing.
impl PartialEq for Bits {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}
impl Eq for Bits {}

impl std::hash::Hash for Bits {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl std::fmt::Debug for Bits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bits[{}]{{", self.len)?;
        let mut first = true;
        for i in self.iter_set() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Iterator over set-bit indices of a [`Bits`].
pub struct SetBitsIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    cur: u64,
}

impl Iterator for SetBitsIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero() {
        let b = Bits::new(100);
        assert_eq!(b.len(), 100);
        assert!(b.is_zero());
        assert_eq!(b.count_ones(), 0);
        assert!(!b.is_one_hot());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bits::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            b.set(i, true);
            assert!(b.get(i), "bit {i}");
        }
        assert_eq!(b.count_ones(), 8);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 7);
    }

    #[test]
    fn ones_respects_width() {
        let b = Bits::ones(70);
        assert_eq!(b.count_ones(), 70);
        let b = Bits::ones(64);
        assert_eq!(b.count_ones(), 64);
        let b = Bits::ones(1);
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn first_set_and_from() {
        let b = Bits::from_indices(150, [5, 70, 149]);
        assert_eq!(b.first_set(), Some(5));
        assert_eq!(b.first_set_from(0), Some(5));
        assert_eq!(b.first_set_from(5), Some(5));
        assert_eq!(b.first_set_from(6), Some(70));
        assert_eq!(b.first_set_from(71), Some(149));
        assert_eq!(b.first_set_from(150), None);
        assert_eq!(Bits::new(10).first_set(), None);
    }

    #[test]
    fn iter_set_matches_manual() {
        let idx = [0usize, 3, 63, 64, 100, 127];
        let b = Bits::from_indices(128, idx);
        let got: Vec<usize> = b.iter_set().collect();
        assert_eq!(got, idx);
    }

    #[test]
    fn set_algebra() {
        let a = Bits::from_indices(96, [1, 10, 80]);
        let b = Bits::from_indices(96, [10, 80, 90]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_set().collect::<Vec<_>>(), vec![1, 10, 80, 90]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_set().collect::<Vec<_>>(), vec![10, 80]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter_set().collect::<Vec<_>>(), vec![1]);
        assert!(i.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        d.copy_from(&b);
        assert_eq!(d, b);
    }

    #[test]
    fn one_hot() {
        assert!(Bits::from_indices(70, [69]).is_one_hot());
        assert!(!Bits::from_indices(70, [1, 69]).is_one_hot());
    }

    #[test]
    fn wide_vectors_fall_back_to_the_heap() {
        // Above INLINE_WORDS * 64 bits the heap representation takes over
        // with identical semantics.
        let wide = INLINE_WORDS * 64 + 37;
        let mut b = Bits::new(wide);
        assert!(b.is_zero());
        b.set(wide - 1, true);
        b.set(0, true);
        assert_eq!(b.count_ones(), 2);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![0, wide - 1]);
        assert_eq!(Bits::ones(wide).count_ones(), wide);
    }

    #[test]
    fn inline_boundary_widths_roundtrip() {
        for len in [63, 64, 65, 191, 192, 193] {
            let b = Bits::ones(len);
            assert_eq!(b.count_ones(), len, "width {len}");
            assert_eq!(b.iter_set().count(), len);
            assert_eq!(b, Bits::from_indices(len, 0..len));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        Bits::new(8).get(8);
    }
}

/// Kernel-primitive pinning tests, in the style of the `crates/mc` mutant
/// catalogue: every primitive is checked against a bit-at-a-time scalar
/// oracle over an exhaustive input grid, and a catalogue of deliberately
/// off-by-one mutants is then run over the *same* grid to prove the oracle
/// check has teeth — a mutant that no input distinguishes would mean the
/// pinning test could not catch that bug.
#[cfg(test)]
#[allow(clippy::type_complexity)]
mod kernel_tests {
    use super::*;

    /// Widths covering non-powers-of-two, the paper's port counts (5, 10),
    /// and the word boundary.
    const WIDTHS: [usize; 10] = [1, 2, 3, 5, 7, 8, 10, 16, 63, 64];

    fn patterns_for(n: usize) -> Vec<u64> {
        if n <= 10 {
            // Exhaustive for small widths.
            (0..(1u64 << n)).collect()
        } else {
            let mut x = 0x243f6a8885a308d3u64;
            (0..512)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 3) & width_mask(n)
                })
                .collect()
        }
    }

    /// Scalar oracle: pointer walk, exactly `RoundRobinArbiter::arbitrate`.
    fn oracle_rr(requests: u64, ptr: usize, n: usize) -> Option<usize> {
        for k in 0..n {
            let i = (ptr + k) % n;
            if requests >> i & 1 != 0 {
                return Some(i);
            }
        }
        None
    }

    /// Scalar oracle: per-bit speculative kill.
    fn oracle_kill(spec: u64, blocked: u64, n: usize) -> u64 {
        let mut out = 0;
        for j in 0..n {
            if spec >> j & 1 != 0 && blocked >> j & 1 == 0 {
                out |= 1 << j;
            }
        }
        out
    }

    #[test]
    fn rr_pick_matches_pointer_walk_for_all_states() {
        for &n in &WIDTHS {
            for ptr in 0..n {
                for &p in &patterns_for(n) {
                    assert_eq!(
                        rr_pick(p, ptr),
                        oracle_rr(p, ptr, n),
                        "n={n} ptr={ptr} p={p:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn spec_kill_matches_per_bit_oracle() {
        for &n in &WIDTHS {
            let pats = patterns_for(n.min(8));
            for &s in &pats {
                for &b in &pats {
                    assert_eq!(spec_kill(s, b), oracle_kill(s, b, 64), "s={s:#x} b={b:#x}");
                }
            }
        }
    }

    // --- the mutant catalogue -------------------------------------------
    //
    // Each mutant is an off-by-one (or operator-swap) variant of a kernel
    // primitive. The assertion is *existential*: some input in the pinning
    // grid must distinguish the mutant from the oracle. If a mutant ever
    // becomes indistinguishable, the corresponding pinning test has lost
    // its power and must be extended.

    type NamedMutant<F> = (&'static str, F);

    #[test]
    fn rr_pick_mutant_catalogue_is_rejected() {
        let mutants: Vec<NamedMutant<fn(u64, usize) -> Option<usize>>> = vec![
            // Thermometer mask starts one past the pointer, so the
            // highest-priority input itself is skipped.
            ("rr mask excludes the pointer", |r, ptr| {
                if r == 0 {
                    return None;
                }
                let masked = r & (u64::MAX << (ptr + 1).min(63));
                let w = if masked != 0 { masked } else { r };
                Some(w.trailing_zeros() as usize)
            }),
            // Takes the unmasked pass first, destroying rotation entirely.
            ("rr prefers the unmasked pass", |r, _ptr| {
                if r == 0 {
                    None
                } else {
                    Some(r.trailing_zeros() as usize)
                }
            }),
            // Uses leading_zeros: sweeps from the top instead of ctz order.
            ("rr sweeps from the msb", |r, ptr| {
                if r == 0 {
                    return None;
                }
                let masked = r & (u64::MAX << ptr);
                let w = if masked != 0 { masked } else { r };
                Some(63 - w.leading_zeros() as usize)
            }),
        ];
        for (name, mutant) in mutants {
            let mut caught = false;
            'search: for &n in &WIDTHS {
                for ptr in 0..n {
                    for &p in &patterns_for(n) {
                        if mutant(p, ptr) != oracle_rr(p, ptr, n) {
                            caught = true;
                            break 'search;
                        }
                    }
                }
            }
            assert!(caught, "mutant '{name}' survives the pinning grid");
        }
    }

    #[test]
    fn spec_kill_mutant_catalogue_is_rejected() {
        let mutants: Vec<NamedMutant<fn(u64, u64) -> u64>> = vec![
            // AND instead of AND-NOT: keeps exactly the colliding grants.
            ("kill keeps collisions", |s, b| s & b),
            // OR-NOT: resurrects grants that never existed.
            ("kill resurrects non-grants", |s, b| s | !b),
            // Kills against the mask shifted by one port.
            ("kill mask off by one port", |s, b| s & !(b << 1)),
        ];
        let pats = patterns_for(8);
        for (name, mutant) in mutants {
            let caught = pats
                .iter()
                .any(|&s| pats.iter().any(|&b| mutant(s, b) != oracle_kill(s, b, 64)));
            assert!(caught, "mutant '{name}' survives the pinning grid");
        }
    }
}
