//! Boundary representation of a segmented work list.
//!
//! The candidate-split list of Algorithm 5 is naturally segmented —
//! all items of one tree node are contiguous — and both the
//! partitioning ablation and the batched scoring kernel need that
//! structure. Materializing a per-item segment-id vector costs O(total
//! items) memory (tens of millions of entries for the paper's
//! configurations); [`Segments`] stores only the segment boundaries,
//! O(#segments), and answers the same queries: the segment of an item
//! in O(log #segments), iteration over segment ranges, and the clipped
//! sub-ranges that overlap a block of the flat list.

use std::ops::Range;

/// Segment boundaries over the flat item list `0..n_items`.
///
/// `offsets[k]..offsets[k + 1]` is the item range of segment `k`;
/// segments are contiguous and in order. Empty segments are allowed
/// (a tree node can have no candidates) and are skipped by the range
/// iterators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    offsets: Vec<usize>,
    /// A flat list (`ParEngine::dist_map`): one whole-list segment with
    /// no structure for the segment-aware strategies to honor.
    flat: bool,
}

impl Segments {
    /// Build from per-segment lengths.
    pub fn from_lens(lens: impl IntoIterator<Item = usize>) -> Self {
        let mut offsets = vec![0usize];
        let mut total = 0usize;
        for len in lens {
            total += len;
            offsets.push(total);
        }
        Self {
            offsets,
            flat: false,
        }
    }

    /// A single segment covering `n_items` items.
    pub fn whole(n_items: usize) -> Self {
        Self {
            offsets: vec![0, n_items],
            flat: false,
        }
    }

    /// A flat list of `n_items` items: [`Segments::whole`] for every
    /// query, but marked as carrying no segment structure, so the
    /// planner keeps the block split under the segment-aware oracle
    /// strategies.
    pub(crate) fn flat(n_items: usize) -> Self {
        Self {
            offsets: vec![0, n_items],
            flat: true,
        }
    }

    /// Whether this is a flat list (see [`Segments::flat`]).
    pub(crate) fn is_flat(&self) -> bool {
        self.flat
    }

    /// Total number of items.
    pub fn n_items(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Number of segments (including empty ones).
    pub fn n_segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The item range of segment `seg`.
    pub fn range(&self, seg: usize) -> Range<usize> {
        self.offsets[seg]..self.offsets[seg + 1]
    }

    /// The segment containing `item`, in O(log #segments). Empty
    /// segments contain no items and are never returned.
    pub fn segment_of(&self, item: usize) -> usize {
        debug_assert!(item < self.n_items());
        // First boundary strictly past `item`, minus the leading 0.
        self.offsets.partition_point(|&b| b <= item) - 1
    }

    /// Iterate `(segment index, item range)` over non-empty segments.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        self.offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(seg, w)| (seg, w[0]..w[1]))
    }

    /// Iterate `(segment index, clipped item range)` over the segments
    /// intersecting the block `[lo, hi)` — how an engine cuts segments
    /// at its block-partition boundaries. Clipped ranges tile
    /// `[lo, hi)` exactly.
    pub fn overlapping(
        &self,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        debug_assert!(lo <= hi && hi <= self.n_items());
        let first = if lo < hi {
            self.segment_of(lo)
        } else {
            self.n_segments()
        };
        self.offsets[first..]
            .windows(2)
            .enumerate()
            .take_while(move |(_, w)| w[0] < hi)
            .filter(|(_, w)| w[0] < w[1])
            .map(move |(k, w)| (first + k, w[0].max(lo)..w[1].min(hi)))
    }

    /// The per-item segment ids as a lazy iterator (compatibility view
    /// of the old materialized representation; O(1) memory).
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter()
            .flat_map(|(seg, range)| range.map(move |_| seg as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lens_roundtrip_through_ranges() {
        let s = Segments::from_lens([3, 0, 2, 5]);
        assert_eq!(s.n_items(), 10);
        assert_eq!(s.n_segments(), 4);
        assert_eq!(s.range(0), 0..3);
        assert_eq!(s.range(1), 3..3);
        assert_eq!(s.range(2), 3..5);
        assert_eq!(s.range(3), 5..10);
    }

    #[test]
    fn segment_of_skips_empty_segments() {
        let s = Segments::from_lens([3, 0, 2, 5]);
        assert_eq!(s.segment_of(0), 0);
        assert_eq!(s.segment_of(2), 0);
        assert_eq!(s.segment_of(3), 2);
        assert_eq!(s.segment_of(4), 2);
        assert_eq!(s.segment_of(5), 3);
        assert_eq!(s.segment_of(9), 3);
    }

    #[test]
    fn iter_yields_only_nonempty() {
        let s = Segments::from_lens([0, 4, 0, 1, 0]);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![(1, 0..4), (3, 4..5)]);
    }

    #[test]
    fn ids_match_materialized_representation() {
        let s = Segments::from_lens([2, 3, 0, 1]);
        let got: Vec<u32> = s.ids().collect();
        assert_eq!(got, vec![0, 0, 1, 1, 1, 3]);
    }

    #[test]
    fn overlapping_clips_to_block() {
        let s = Segments::from_lens([4, 4, 4]);
        // Block [2, 10) bisects the first and last segments.
        let got: Vec<_> = s.overlapping(2, 10).collect();
        assert_eq!(got, vec![(0, 2..4), (1, 4..8), (2, 8..10)]);
        // Ranges tile the block exactly.
        let covered: usize = got.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(covered, 8);
    }

    #[test]
    fn overlapping_handles_edges() {
        let s = Segments::from_lens([3, 3]);
        assert_eq!(s.overlapping(0, 0).count(), 0);
        assert_eq!(s.overlapping(6, 6).count(), 0);
        let all: Vec<_> = s.overlapping(0, 6).collect();
        assert_eq!(all, vec![(0, 0..3), (1, 3..6)]);
        let inner: Vec<_> = s.overlapping(1, 2).collect();
        assert_eq!(inner, vec![(0, 1..2)]);
    }

    #[test]
    fn overlapping_skips_empty_segment_mid_block() {
        let s = Segments::from_lens([3, 0, 2]);
        let got: Vec<_> = s.overlapping(0, 5).collect();
        assert_eq!(got, vec![(0, 0..3), (2, 3..5)]);
        let tail: Vec<_> = s.overlapping(2, 4).collect();
        assert_eq!(tail, vec![(0, 2..3), (2, 3..4)]);
    }

    #[test]
    fn whole_is_one_segment() {
        let s = Segments::whole(7);
        assert_eq!(s.n_segments(), 1);
        assert_eq!(s.n_items(), 7);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 0..7)]);
    }
}
