//! Word-array bitset over small non-negative indices (stream ids, atom
//! indices).
//!
//! [`StreamSet`] is the planner's *reference* set type: a
//! sorted, deduplicated id vector that is pleasant to debug and cheap for
//! the handful of streams a single query touches. The planning hot paths —
//! the subset/placement dynamic program, subplan-cache keys, and the reuse
//! registry's containment checks — want the word-parallel operations of a
//! bitset instead, with no width cliff at 32 or 64 elements. `InputSet` is
//! that bitset: `Vec<u64>` words, canonical form (no trailing zero words),
//! so equality, hashing and ordering are straight word comparisons.
//!
//! The `proptest` suite at the bottom pins every operation against the
//! `StreamSet` reference implementation.

use crate::query::StreamSet;

/// A set of small indices stored one bit per element in `u64` words.
///
/// Canonical invariant: `words` never ends with a zero word. Every
/// constructor and mutator restores the invariant, which makes the derived
/// `PartialEq`/`Hash` structural equality also *set* equality.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct InputSet {
    words: Vec<u64>,
}

impl InputSet {
    /// The empty set.
    pub fn new() -> Self {
        InputSet { words: Vec::new() }
    }

    /// Bitset of a [`StreamSet`], one bit per raw stream id.
    pub fn from_stream_set(set: &StreamSet) -> Self {
        let mut s = InputSet::new();
        for id in set.iter() {
            s.insert(id.0 as usize);
        }
        s
    }

    /// Bitset from arbitrary bit indices.
    pub fn from_bits<I: IntoIterator<Item = usize>>(bits: I) -> Self {
        let mut s = InputSet::new();
        for b in bits {
            s.insert(b);
        }
        s
    }

    fn canonicalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Insert one bit.
    pub fn insert(&mut self, bit: usize) {
        let w = bit / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (bit % 64);
    }

    /// Membership test.
    pub fn contains(&self, bit: usize) -> bool {
        let w = bit / 64;
        w < self.words.len() && self.words[w] & (1u64 << (bit % 64)) != 0
    }

    /// Number of elements (popcount).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// `self ⊆ other`, word-parallel.
    pub fn is_subset_of(&self, other: &InputSet) -> bool {
        if self.words.len() > other.words.len() {
            return false;
        }
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// `self ∩ other = ∅`, word-parallel.
    pub fn is_disjoint_from(&self, other: &InputSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &InputSet) -> InputSet {
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let mut words = long.clone();
        for (w, s) in words.iter_mut().zip(short) {
            *w |= s;
        }
        InputSet { words }
    }

    /// `self ∖ other`.
    pub fn difference(&self, other: &InputSet) -> InputSet {
        let mut words = self.words.clone();
        for (w, o) in words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
        let mut s = InputSet { words };
        s.canonicalize();
        s
    }

    /// `self ∩ other`.
    pub fn intersection(&self, other: &InputSet) -> InputSet {
        let n = self.words.len().min(other.words.len());
        let mut words: Vec<u64> = self.words[..n]
            .iter()
            .zip(&other.words[..n])
            .map(|(a, b)| a & b)
            .collect();
        while words.last() == Some(&0) {
            words.pop();
        }
        InputSet { words }
    }

    /// Lowest set bit, if any.
    pub fn min_bit(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| i * 64 + self.words[i].trailing_zeros() as usize)
    }

    /// Set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(i * 64 + b)
            })
        })
    }

    /// The backing words (canonical, low word first). Exposed for hashing
    /// into externally keyed structures.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Big-integer order: longer canonical word vectors are larger, otherwise
/// words compare most-significant first. Total, and consistent with `Eq`.
impl Ord for InputSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.words
            .len()
            .cmp(&other.words.len())
            .then_with(|| self.words.iter().rev().cmp(other.words.iter().rev()))
    }
}

impl PartialOrd for InputSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl FromIterator<usize> for InputSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        InputSet::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamId;
    use proptest::prelude::*;

    fn stream_set(ids: &[usize]) -> StreamSet {
        StreamSet::from_iter(ids.iter().map(|&i| StreamId(i as u32)))
    }

    #[test]
    fn wide_universe_has_no_32_or_64_bit_cliff() {
        // The regression this type exists for: bits past 31 (the old u32
        // mask width) and past 63 must behave like any other bit.
        for bit in [0usize, 31, 32, 63, 64, 100, 129] {
            let s = InputSet::from_bits([bit]);
            assert!(s.contains(bit), "bit {bit}");
            assert_eq!(s.len(), 1);
            assert_eq!(s.min_bit(), Some(bit));
        }
        let wide = InputSet::from_bits(0..130);
        assert_eq!(wide.len(), 130);
        assert!(InputSet::from_bits([129]).is_subset_of(&wide));
    }

    #[test]
    fn canonical_form_makes_equality_set_equality() {
        let a = InputSet::from_bits([3, 70]);
        let b = a.difference(&InputSet::from_bits([70]));
        assert_eq!(b, InputSet::from_bits([3]));
        assert_eq!(b.words().len(), 1, "trailing zero word must be dropped");
    }

    proptest! {
        #[test]
        fn ops_agree_with_stream_set_reference(
            a in proptest::collection::vec(0usize..150, 0..20),
            b in proptest::collection::vec(0usize..150, 0..20),
        ) {
            let (sa, sb) = (stream_set(&a), stream_set(&b));
            let (ia, ib) = (InputSet::from_stream_set(&sa), InputSet::from_stream_set(&sb));

            prop_assert_eq!(ia.len(), sa.len());
            prop_assert_eq!(ia.is_empty(), sa.is_empty());
            prop_assert_eq!(ia.is_subset_of(&ib), sa.is_subset_of(&sb));
            prop_assert_eq!(ia.is_disjoint_from(&ib), sa.is_disjoint_from(&sb));

            let union_ref: Vec<usize> = sa.union(&sb).iter().map(|s| s.0 as usize).collect();
            prop_assert_eq!(ia.union(&ib).iter().collect::<Vec<_>>(), union_ref);

            let diff_ref: Vec<usize> = sa.difference(&sb).iter().map(|s| s.0 as usize).collect();
            prop_assert_eq!(ia.difference(&ib).iter().collect::<Vec<_>>(), diff_ref);

            let inter_ref: Vec<usize> =
                sa.intersection(&sb).iter().map(|s| s.0 as usize).collect();
            prop_assert_eq!(ia.intersection(&ib).iter().collect::<Vec<_>>(), inter_ref);

            let iter_ref: Vec<usize> = sa.iter().map(|s| s.0 as usize).collect();
            prop_assert_eq!(ia.iter().collect::<Vec<_>>(), iter_ref);
            prop_assert_eq!(ia.min_bit(), iter_ref.first().copied());

            for probe in [0usize, 31, 32, 64, 149] {
                prop_assert_eq!(ia.contains(probe), sa.contains(StreamId(probe as u32)));
            }

            // Eq/Ord consistency: equality mirrors the reference type and
            // the total order agrees with it.
            prop_assert_eq!(ia == ib, sa == sb);
            prop_assert_eq!(ia.cmp(&ib) == std::cmp::Ordering::Equal, ia == ib);
        }

        #[test]
        fn round_trips_and_canonical(bits in proptest::collection::vec(0usize..200, 0..30)) {
            let s = InputSet::from_bits(bits.clone());
            let back: Vec<usize> = s.iter().collect();
            let mut want = bits;
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(back, want);
            prop_assert!(s.words().last() != Some(&0u64), "canonical form");
            // Removing everything yields the canonical empty set.
            let empty = s.difference(&s);
            prop_assert_eq!(empty, InputSet::new());
        }
    }
}
