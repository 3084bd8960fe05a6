//! Adaptive candidate representations: positional bitmaps vs index lists.
//!
//! A selection's output can be materialized two ways:
//!
//! * **Indices** — the classic [`Candidates`] list of (oid, approximation)
//!   pairs, 12 bytes per survivor, in the kernel's block-scrambled
//!   emission order. Cheap when few tuples survive; expensive when most
//!   do (a 90%-selective scan writes ~11x the mask's bytes).
//! * **Bitmap** — a [`SelMask`]: one bit per *input row*, in input-row
//!   position. An eighth of a byte per row regardless of selectivity,
//!   produced branch-free straight from the SWAR word-parallel compare,
//!   and chained predicates refine it by ANDing — skipping every 64-row
//!   group that already has no survivors.
//!
//! [`SelVec`] is the sum type the A&R executor threads through its
//! approximate-selection chain, choosing the representation per query and
//! converting **lazily** at the boundary where downstream operators need
//! positions and values (refinement download, projection gathers,
//! grouping).
//!
//! # Bit-identity with the index path
//!
//! A bitmap is positional, but the simulated parallel selection emits
//! candidates in bit-reversed block order (§IV-A item 3). A [`SelMask`]
//! therefore remembers the scan geometry that produced it
//! ([`ScanOptions`] block size and ordering flag); conversion walks the
//! same [`scan_block_ranges`] sequence and emits set bits block by block
//! via `trailing_zeros`, reproducing the index path's permutation byte
//! for byte — same oids, same order, same approximations. Chained
//! refinements AND masks positionally, which preserves exactly the
//! subsequence the chained index filter would keep.
//!
//! All of this is representation only: [`crate::scan::charge_select`]
//! prices the paper's candidate-pair model in both representations
//! (wall-clock is what the bitmap improves), so costs and results are
//! bit-identical whichever representation the executor picks.

use crate::candidates::Candidates;
use crate::scan::{scan_block_ranges, select_partition, ScanInput, ScanOptions, ScanOut, ScanSrc};
use bwd_types::Oid;

/// A positional match bitmap over a scan's input rows, plus the scan
/// geometry needed to convert it into the equivalent block-scrambled
/// candidate list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelMask {
    words: Vec<u64>,
    rows: usize,
    count: usize,
    block_size: usize,
    preserve_order: bool,
}

impl SelMask {
    /// Wrap filled mask words (bit `r % 64` of `words[r / 64]` = row `r`
    /// matched) over `rows` input rows scanned with `opts`' geometry.
    ///
    /// # Panics
    /// Panics if the word count doesn't cover `rows` exactly.
    pub fn from_words(words: Vec<u64>, rows: usize, opts: &ScanOptions) -> Self {
        assert_eq!(words.len(), rows.div_ceil(64), "mask word count");
        let count = bwd_storage::mask_count(&words);
        SelMask {
            words,
            rows,
            count,
            block_size: opts.block_size,
            preserve_order: opts.preserve_order,
        }
    }

    /// Rows the mask covers (the scanned relation's length).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matching rows (the candidate count — what admission accounting
    /// and `charge_*` bill, exactly as if the pairs were materialized).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The backing mask words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The scan geometry this mask was produced under.
    pub fn scan_options(&self) -> ScanOptions {
        ScanOptions {
            block_size: self.block_size,
            preserve_order: self.preserve_order,
        }
    }

    /// Materialize the candidate list this mask represents, reading
    /// approximations from `src` — bit-identical to what the index path
    /// ([`crate::scan::select`] without `bitmap`) would have produced
    /// directly: set bits are emitted per simulated thread block in the
    /// scan's emission order, ascending within each block.
    pub fn to_candidates(&self, src: ScanSrc<'_>) -> Candidates {
        assert_eq!(src.rows(), self.rows, "mask/source length mismatch");
        let mut oids: Vec<Oid> = Vec::with_capacity(self.count);
        let mut approx: Vec<u64> = Vec::with_capacity(self.count);
        for rows in scan_block_ranges(self.rows, &self.scan_options()) {
            let out = ScanOut::Indices {
                oids: &mut oids,
                approx: &mut approx,
            };
            select_partition(
                src,
                ScanInput::Bitmap { mask: self, rows },
                0,
                u64::MAX,
                out,
            );
        }
        Candidates::new(oids, approx)
    }
}

/// The adaptive candidate representation the A&R executor threads through
/// its approximate-selection chain.
#[derive(Debug, Clone)]
pub enum SelVec {
    /// Materialized (oid, approximation) pairs in emission order.
    Indices(Candidates),
    /// Positional bitmap; converts lazily at the gather boundary.
    Bitmap(SelMask),
}

impl SelVec {
    /// Candidate count (identical in both representations; this is what
    /// transient budgets and admission estimates bill).
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SelVec::Indices(c) => c.len(),
            SelVec::Bitmap(m) => m.count(),
        }
    }

    /// Whether no candidates survived.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is the bitmap representation.
    #[inline]
    pub fn is_bitmap(&self) -> bool {
        matches!(self, SelVec::Bitmap(_))
    }

    /// The bitmap output of a selection over `input` (`None`: a full scan
    /// of `rows` rows under `opts`) whose match bits are `words`. A bitmap
    /// input passes on its scan geometry, so chained refinements keep the
    /// first scan's emission order; otherwise the mask records `opts`.
    ///
    /// # Panics
    /// Panics if the word count doesn't cover the rows exactly.
    pub fn bitmap_like(
        input: Option<&SelVec>,
        words: Vec<u64>,
        rows: usize,
        opts: &ScanOptions,
    ) -> SelVec {
        let (rows, opts) = match input {
            Some(SelVec::Bitmap(m)) => (m.rows, m.scan_options()),
            _ => (rows, *opts),
        };
        SelVec::Bitmap(SelMask::from_words(words, rows, &opts))
    }

    /// The candidate list without conversion, when already materialized.
    #[inline]
    pub fn as_indices(&self) -> Option<&Candidates> {
        match self {
            SelVec::Indices(c) => Some(c),
            SelVec::Bitmap(_) => None,
        }
    }

    /// The candidate list, converting a bitmap by reading approximations
    /// from `src`. The result is bit-identical whichever representation
    /// was held.
    pub fn into_candidates(self, src: ScanSrc<'_>) -> Candidates {
        match self {
            SelVec::Indices(c) => c,
            SelVec::Bitmap(m) => m.to_candidates(src),
        }
    }
}
