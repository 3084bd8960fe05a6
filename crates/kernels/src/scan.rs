//! Selection (scan) kernels.
//!
//! The approximate selection is the paper's flagship device operation:
//! selections are input-bandwidth hungry and output little, which fits a
//! platform with abundant internal bandwidth and a scarce output bus
//! (§IV-B). The kernel scans the bit-packed approximation with *relaxed*
//! inclusive bounds in the stored domain and emits candidate (oid,
//! approximation) pairs.
//!
//! # One kernel
//!
//! Every approximate selection is the same operator over three choices:
//!
//! * **source** ([`ScanSrc`]) — the column's own approximation, or a
//!   dimension column read through a foreign-key link;
//! * **input** ([`ScanInput`]) — every row, or an earlier selection's
//!   output in either representation of the selection vector ([`SelVec`]:
//!   candidate list or positional bitmap);
//! * **output** ([`ScanOut`]) — candidate pairs or a match bitmap.
//!
//! [`select_partition`] is the one kernel over all of them;
//! [`select`] runs it serially over a whole input and [`charge_select`]
//! prices it. The two representations are interchangeable: a bitmap
//! converted to a candidate list ([`SelMask::to_candidates`]) is the list
//! the index path would have produced, bit for bit.
//!
//! # Packed-domain evaluation
//!
//! For a direct source at a SWAR-applicable width the predicate itself
//! runs on the packed words ([`bwd_storage::swar`]): a word-parallel
//! banked compare yields a per-64-rows match mask without decoding, and
//! decode happens only for blocks that contain survivors. Every other case
//! decodes, compares and emits in one pass.
//!
//! # Output order
//!
//! A massively parallel selection partitions its input into thread blocks
//! whose outputs complete in arbitrary order; preserving input order would
//! cost an extra pass the paper explicitly avoids (§IV-A item 3). The
//! simulation reproduces this with a deterministic bit-reversed block
//! permutation: candidates come out block-scrambled (order is *stable
//! across runs*, but not ascending), while order *within* a block is
//! preserved. Downstream operators that gather positionally from these
//! candidates inherit the same permutation — precisely the precondition
//! set the translucent join needs.

use crate::array::DeviceArray;
use crate::candidates::Candidates;
use crate::selvec::{SelMask, SelVec};
use bwd_device::units::{candidate_stream_bytes, element_access_bytes};
use bwd_device::{CostLedger, Env};
use bwd_obs::metrics::{Counter, Registry};
use bwd_storage::{swar_applicable, BitPackedVec, BlockDecoder, RangeMatcher, DECODE_BLOCK};
use bwd_types::{bits::low_mask, Oid};
use std::ops::Range;
use std::sync::OnceLock;

/// Process-wide scan counters (see `bwd_obs::metrics::Registry::global`):
/// how many 64-element blocks went through the packed-domain SWAR path,
/// how many of those were skipped whole because no element matched, and
/// how many blocks a direct full scan emitting candidates decoded and
/// compared element by element because its width skips SWAR (FK-indirect
/// scans and bitmap fills are not counted).
struct ScanMetrics {
    swar_blocks: Counter,
    swar_zero_blocks: Counter,
    scalar_blocks: Counter,
}

fn scan_metrics() -> &'static ScanMetrics {
    static METRICS: OnceLock<ScanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        ScanMetrics {
            swar_blocks: r.counter("bwd_scan_swar_blocks_total"),
            swar_zero_blocks: r.counter("bwd_scan_swar_zero_blocks_total"),
            scalar_blocks: r.counter("bwd_scan_scalar_blocks_total"),
        }
    })
}

/// Tuning knobs for the selection kernels.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Tuples per simulated thread block.
    pub block_size: usize,
    /// Emit candidates in input order (costs an extra ordering pass on the
    /// device; ablation of the paper's design choice).
    pub preserve_order: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            block_size: 1 << 16,
            preserve_order: false,
        }
    }
}

/// Iterate block indices in bit-reversed order — the deterministic stand-in
/// for "blocks complete in arbitrary order".
fn block_order(nblocks: usize) -> impl Iterator<Item = usize> {
    let bits = usize::BITS - nblocks.next_power_of_two().leading_zeros() - 1;
    (0..nblocks.next_power_of_two())
        .map(move |i| {
            if bits == 0 {
                0
            } else {
                i.reverse_bits() >> (usize::BITS - bits)
            }
        })
        .filter(move |&j| j < nblocks)
}

/// The simulated thread-block row ranges of a full scan over `n` rows, in
/// the serial emission order (bit-reversed for multi-block scans, a single
/// sequential range when order is preserved or one block suffices).
///
/// This is the unit a morsel-parallel executor distributes: handing
/// contiguous chunks of this sequence to real threads and concatenating
/// their outputs in chunk order reproduces [`select`]'s output byte for
/// byte.
pub fn scan_block_ranges(n: usize, opts: &ScanOptions) -> Vec<Range<usize>> {
    let block = opts.block_size.max(1);
    let nblocks = n.div_ceil(block);
    if nblocks <= 1 || opts.preserve_order {
        #[allow(clippy::single_range_in_vec_init)] // one range, not a collected sequence
        return vec![0..n];
    }
    block_order(nblocks)
        .map(|b| {
            let start = b * block;
            start..(start + block).min(n)
        })
        .collect()
}

/// Whether `accesses` random reads into an `len`-element packed array are
/// dense enough for the block-cached decoder to win (a cache miss decodes a
/// whole [`DECODE_BLOCK`]; below ~1/8 density the per-element path is
/// cheaper).
pub fn cache_worthwhile(accesses: usize, len: usize) -> bool {
    accesses.saturating_mul(8) >= len
}

/// Set bits in a 64-row block below which survivor emission reads elements
/// one by one instead of bulk-decoding the whole block (mirrors the 1-in-8
/// density heuristic of [`cache_worthwhile`]).
const DENSE_BLOCK_MIN: u32 = 8;

/// Where a selection reads each row's stored approximation.
#[derive(Debug, Clone, Copy)]
pub enum ScanSrc<'a> {
    /// The column's own approximation: row `i` reads `arr[i]`.
    Direct(&'a DeviceArray),
    /// A dimension column reached through a device-resident foreign-key
    /// link: fact row `i` reads `arr[link[i]]`.
    Indirect {
        /// The dimension column's approximation.
        arr: &'a DeviceArray,
        /// Fact row → dimension row.
        link: &'a DeviceArray,
    },
}

impl<'a> ScanSrc<'a> {
    /// The array holding the approximations.
    pub fn arr(&self) -> &'a DeviceArray {
        match *self {
            ScanSrc::Direct(arr) | ScanSrc::Indirect { arr, .. } => arr,
        }
    }

    /// Rows a selection over this source ranges over (fact rows when
    /// indirect).
    pub fn rows(&self) -> usize {
        self.keys().len()
    }

    /// Row `row`'s stored approximation.
    #[inline]
    pub fn get(&self, row: usize) -> u64 {
        match *self {
            ScanSrc::Direct(arr) => arr.get(row),
            ScanSrc::Indirect { arr, link } => arr.get(link.get(row) as usize),
        }
    }

    /// The per-row stream a scan reads in row order: the approximation
    /// itself, or the link.
    fn keys(&self) -> &'a BitPackedVec {
        match *self {
            ScanSrc::Direct(arr) => arr.data(),
            ScanSrc::Indirect { link, .. } => link.data(),
        }
    }
}

/// The rows one partition of a selection examines. Each variant carries
/// the *whole* input plus the partition's span of it, so the kernel judges
/// access density from the whole selection rather than from the slice.
#[derive(Debug, Clone)]
pub enum ScanInput<'a> {
    /// A range of every row (a full scan).
    All(Range<usize>),
    /// Positions `part` of an earlier selection's candidate oids.
    Indices {
        /// The earlier selection's oids, in emission order.
        oids: &'a [Oid],
        /// The partition's positions in `oids`.
        part: Range<usize>,
    },
    /// Rows `rows` of an earlier selection's match bitmap.
    Bitmap {
        /// The earlier selection's mask.
        mask: &'a SelMask,
        /// The partition's rows.
        rows: Range<usize>,
    },
}

impl<'a> ScanInput<'a> {
    /// Span `part` of `input` (`None`: every row) — rows for full scans
    /// and bitmaps, list positions for candidate lists.
    pub fn of(input: Option<&'a SelVec>, part: Range<usize>) -> Self {
        match input {
            None => ScanInput::All(part),
            Some(SelVec::Indices(c)) => ScanInput::Indices {
                oids: &c.oids,
                part,
            },
            Some(SelVec::Bitmap(mask)) => ScanInput::Bitmap { mask, rows: part },
        }
    }

    /// The emission units of a candidate-producing selection over `input`
    /// (`None`: every one of `rows` rows), in emission order: a full scan
    /// walks its simulated thread blocks under `opts` and a bitmap those
    /// of its own scan geometry ([`scan_block_ranges`]); a candidate list
    /// keeps its own order and is cut by `split_list(len)`. Each unit is a
    /// span for [`ScanInput::of`], and concatenating the units' outputs in
    /// order gives [`select`]'s output.
    pub fn units(
        input: Option<&SelVec>,
        rows: usize,
        opts: &ScanOptions,
        split_list: impl FnOnce(usize) -> Vec<Range<usize>>,
    ) -> Vec<Range<usize>> {
        match input {
            None => scan_block_ranges(rows, opts),
            Some(SelVec::Bitmap(m)) => scan_block_ranges(m.rows(), &m.scan_options()),
            Some(SelVec::Indices(c)) => split_list(c.len()),
        }
    }
}

/// Where a partition writes its survivors.
#[derive(Debug)]
pub enum ScanOut<'a> {
    /// Append (oid, approximation) pairs, in input order.
    Indices {
        /// Surviving oids.
        oids: &'a mut Vec<Oid>,
        /// Their approximations, aligned with `oids`.
        approx: &'a mut Vec<u64>,
    },
    /// Match bits. A row-range partition ([`ScanInput::All`] or
    /// [`ScanInput::Bitmap`]) must start on a 64-row boundary and gets
    /// exactly its words, which it overwrites (word `i` covers rows
    /// `start + 64 * i ..`). A candidate-list partition gets the whole
    /// mask — its oids land anywhere — and ORs its bits in.
    Bitmap(&'a mut [u64]),
}

/// Select the rows of one input partition whose stored approximation lies
/// in `[lo, hi]` (inclusive) — the one approximate-selection kernel.
///
/// Pure computation: no cost charge and no allocation, so a
/// morsel-parallel caller fans partitions out over real threads and
/// charges the merged totals once with [`charge_select`]. Candidate-list
/// output keeps input order: ascending rows for row ranges and bitmaps,
/// list order for candidate lists.
///
/// A direct source at a SWAR-applicable width
/// ([`bwd_storage::swar_applicable`]) evaluates full scans and bitmap
/// refinements **in the packed domain**, through the lane batch kernels
/// ([`bwd_storage::RangeMatcher`]); a full scan emitting candidates decodes
/// only the 64-row blocks that hold survivors. Everything else decodes,
/// compares and emits in one pass. Candidate-list inputs read through the
/// block-cached decoder when they are dense enough ([`cache_worthwhile`]),
/// bitmap inputs bulk-decode only the 64-row blocks dense in survivors.
pub fn select_partition(
    src: ScanSrc<'_>,
    input: ScanInput<'_>,
    lo: u64,
    hi: u64,
    out: ScanOut<'_>,
) {
    if let (ScanInput::All(rows) | ScanInput::Bitmap { rows, .. }, ScanOut::Bitmap(words)) =
        (&input, &out)
    {
        assert!(rows.start.is_multiple_of(64), "bitmap partition off a word");
        assert_eq!(words.len(), rows.len().div_ceil(64), "mask word count");
    }
    let k = Kernel {
        keys: src.keys(),
        lo,
        hi,
    };
    match src {
        ScanSrc::Direct(arr) if swar_applicable(arr.width()) => k.run_swar(input, out),
        ScanSrc::Direct(_) => {
            if let (ScanInput::All(rows), ScanOut::Indices { .. }) = (&input, &out) {
                let blocks = rows.len().div_ceil(DECODE_BLOCK) as u64;
                if blocks > 0 {
                    scan_metrics().scalar_blocks.add(blocks);
                }
            }
            k.run(|key| key, input, out)
        }
        ScanSrc::Indirect { arr, .. } => k.run(|key| arr.get(key as usize), input, out),
    }
}

/// One kernel invocation: the row-ordered key stream ([`ScanSrc::keys`])
/// and the bounds.
struct Kernel<'a> {
    keys: &'a BitPackedVec,
    lo: u64,
    hi: u64,
}

impl Kernel<'_> {
    /// The packed-domain paths of a direct source at a SWAR width; the
    /// remaining input/output pairs run [`Kernel::run`].
    fn run_swar(&self, input: ScanInput<'_>, out: ScanOut<'_>) {
        match (input, out) {
            (ScanInput::All(rows), ScanOut::Indices { oids, approx }) => {
                self.swar_rows(rows, oids, approx);
            }
            (ScanInput::All(rows), ScanOut::Bitmap(words)) => {
                RangeMatcher::new(self.keys, self.lo, self.hi).fill(rows.start, rows.len(), words);
            }
            (ScanInput::Bitmap { mask, rows }, ScanOut::Bitmap(words)) => {
                // AND-refinement: zero input words are skipped without
                // touching the column's bits.
                let first = rows.start / 64;
                RangeMatcher::new(self.keys, self.lo, self.hi).fill_and(
                    first,
                    rows.len(),
                    &mask.words()[first..first + words.len()],
                    words,
                );
            }
            (input, out) => self.run(|key| key, input, out),
        }
    }

    /// A full scan emitting candidates in the packed domain: the partition
    /// is aligned to a 64-element boundary, the bulk runs through the lane
    /// batch kernels a chunk of mask words at a time, and survivors are
    /// emitted via `trailing_zeros` from the blocks that have any.
    fn swar_rows(&self, rows: Range<usize>, oids: &mut Vec<Oid>, approx: &mut Vec<u64>) {
        let m = RangeMatcher::new(self.keys, self.lo, self.hi);
        if m.is_empty_range() {
            return;
        }
        /// Mask words lane-filled per chunk: big enough to amortize the
        /// dispatch, small enough to live on the stack and stay cache-hot
        /// against the emission pass that follows.
        const FILL_CHUNK: usize = 32;
        let mut buf = [0u64; DECODE_BLOCK];
        let mut mask_buf = [0u64; FILL_CHUNK];
        let (mut blocks, mut zero_blocks) = (0u64, 0u64);
        let mut emit = |i: usize, n: usize, bits: u64| {
            blocks += 1;
            if bits == 0 {
                zero_blocks += 1;
            } else {
                emit_matches(self.keys, i, n, bits, &mut buf, oids, approx);
            }
        };
        let (mut i, end) = (rows.start, rows.end);
        // Head: reach a 64-element boundary so the bulk is lane-aligned.
        if !i.is_multiple_of(64) && i < end {
            let n = (64 - i % 64).min(end - i);
            emit(i, n, m.match_word(i, n));
            i += n;
        }
        // Bulk: batch-fill whole mask words, then emit per 64-block.
        while i + 64 <= end {
            let nwords = ((end - i) / 64).min(FILL_CHUNK);
            m.fill(i, nwords * 64, &mut mask_buf[..nwords]);
            for (w, &bits) in mask_buf[..nwords].iter().enumerate() {
                emit(i + w * 64, 64, bits);
            }
            i += nwords * 64;
        }
        // Tail: a final partial word.
        if i < end {
            emit(i, end - i, m.match_word(i, end - i));
        }
        if blocks > 0 {
            let metrics = scan_metrics();
            metrics.swar_blocks.add(blocks);
            metrics.swar_zero_blocks.add(zero_blocks);
        }
    }

    /// Decode, compare and emit in one pass; `value` maps a key to its
    /// approximation (identity for a direct source, the dimension lookup
    /// through the link otherwise).
    fn run<F: Fn(u64) -> u64>(&self, value: F, input: ScanInput<'_>, out: ScanOut<'_>) {
        match input {
            ScanInput::All(rows) => self.scan_rows(value, rows, out),
            ScanInput::Indices { oids, part } => self.filter_list(value, oids, part, out),
            ScanInput::Bitmap { mask, rows } => self.filter_mask(value, mask, rows, out),
        }
    }

    fn scan_rows<F: Fn(u64) -> u64>(&self, value: F, rows: Range<usize>, out: ScanOut<'_>) {
        let (keys, lo, hi) = (self.keys, self.lo, self.hi);
        // Decode word-at-a-time into a stack scratch block: the bulk
        // decoder loads each packed word once, where a per-element `get`
        // would redo the offset arithmetic.
        let mut buf = [0u64; DECODE_BLOCK];
        match out {
            ScanOut::Indices { oids, approx } => {
                for i in rows.clone().step_by(DECODE_BLOCK) {
                    let n = (rows.end - i).min(DECODE_BLOCK);
                    keys.unpack_range(i, &mut buf[..n]);
                    for (k, &key) in buf[..n].iter().enumerate() {
                        let v = value(key);
                        if v >= lo && v <= hi {
                            oids.push((i + k) as Oid);
                            approx.push(v);
                        }
                    }
                }
            }
            ScanOut::Bitmap(words) => {
                for (w, slot) in words.iter_mut().enumerate() {
                    let i = rows.start + w * 64;
                    let n = (rows.end - i).min(DECODE_BLOCK);
                    keys.unpack_range(i, &mut buf[..n]);
                    let mut bits = 0u64;
                    for (k, &key) in buf[..n].iter().enumerate() {
                        let v = value(key);
                        bits |= u64::from(v >= lo && v <= hi) << k;
                    }
                    *slot = bits;
                }
            }
        }
    }

    fn filter_list<F: Fn(u64) -> u64>(
        &self,
        value: F,
        ids: &[Oid],
        part: Range<usize>,
        mut out: ScanOut<'_>,
    ) {
        let (keys, lo, hi) = (self.keys, self.lo, self.hi);
        // Candidate oids ascend within each scan block, so a dense list
        // keeps hitting the same decode block.
        let mut dec = cache_worthwhile(ids.len(), keys.len()).then(|| BlockDecoder::new(keys));
        for &oid in &ids[part] {
            let key = match &mut dec {
                Some(d) => d.get(oid as usize),
                None => keys.get(oid as usize),
            };
            let v = value(key);
            if v >= lo && v <= hi {
                match &mut out {
                    ScanOut::Indices { oids, approx } => {
                        oids.push(oid);
                        approx.push(v);
                    }
                    ScanOut::Bitmap(words) => words[oid as usize / 64] |= 1 << (oid % 64),
                }
            }
        }
    }

    fn filter_mask<F: Fn(u64) -> u64>(
        &self,
        value: F,
        mask: &SelMask,
        rows: Range<usize>,
        mut out: ScanOut<'_>,
    ) {
        let (keys, lo, hi) = (self.keys, self.lo, self.hi);
        let mut buf = [0u64; DECODE_BLOCK];
        let mut s = rows.start;
        while s < rows.end {
            let seg = s / 64 * 64;
            let e = rows.end.min(seg + 64);
            let mut bits = mask.words()[s / 64] & clip_mask(s - seg, e - seg);
            let mut keep = 0u64;
            if bits != 0 {
                let mut test = |k: usize, v: u64| {
                    let hit = v >= lo && v <= hi;
                    match &mut out {
                        ScanOut::Indices { oids, approx } => {
                            if hit {
                                oids.push((seg + k) as Oid);
                                approx.push(v);
                            }
                        }
                        ScanOut::Bitmap(_) => keep |= u64::from(hit) << k,
                    }
                };
                if bits.count_ones() >= DENSE_BLOCK_MIN {
                    // Dense segment: decode the whole 64-row block once.
                    let n = (keys.len() - seg).min(DECODE_BLOCK);
                    keys.unpack_range(seg, &mut buf[..n]);
                    while bits != 0 {
                        let k = bits.trailing_zeros() as usize;
                        test(k, value(buf[k]));
                        bits &= bits - 1;
                    }
                } else {
                    // Sparse segment: touch only the survivors.
                    while bits != 0 {
                        let k = bits.trailing_zeros() as usize;
                        test(k, value(keys.get(seg + k)));
                        bits &= bits - 1;
                    }
                }
            }
            if let ScanOut::Bitmap(words) = &mut out {
                words[(seg - rows.start) / 64] = keep;
            }
            s = e;
        }
    }
}

/// Bits `[lo, hi)` of a word set (`hi <= 64`).
#[inline]
fn clip_mask(lo: usize, hi: usize) -> u64 {
    let high = if hi >= 64 { u64::MAX } else { (1u64 << hi) - 1 };
    high & !((1u64 << lo) - 1)
}

/// Emit the survivors of one matched 64-element group (`n` elements at
/// row `i`, match bits `bits != 0`): bulk-decode when every element or a
/// dense subset matches, per-element decode when sparse.
#[inline]
fn emit_matches(
    data: &BitPackedVec,
    i: usize,
    n: usize,
    mut bits: u64,
    buf: &mut [u64; DECODE_BLOCK],
    oids: &mut Vec<Oid>,
    approx: &mut Vec<u64>,
) {
    if bits == low_mask(n as u32) {
        // Every element matches: straight bulk decode + append.
        data.unpack_range(i, &mut buf[..n]);
        for (k, &v) in buf[..n].iter().enumerate() {
            oids.push((i + k) as Oid);
            approx.push(v);
        }
    } else if bits.count_ones() >= DENSE_BLOCK_MIN {
        // Dense block: decode once, then emit set bits.
        data.unpack_range(i, &mut buf[..n]);
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            oids.push((i + k) as Oid);
            approx.push(buf[k]);
            bits &= bits - 1;
        }
    } else {
        // Sparse block: decode only the survivors.
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            oids.push((i + k) as Oid);
            approx.push(data.get(i + k));
            bits &= bits - 1;
        }
    }
}

/// Run [`select_partition`] serially over the whole of `input` (`None`:
/// every row of `src`) and charge it with [`charge_select`].
///
/// With `bitmap` set the output is a match bitmap over `src`'s rows (a
/// bitmap input keeps its scan geometry; otherwise the mask records
/// `opts`). Otherwise it is the candidate list in emission order: full
/// scans and bitmaps walk their simulated thread blocks
/// ([`scan_block_ranges`]), candidate lists keep their own order.
///
/// The candidate list stays device-resident; the caller meters the
/// download when refinement needs it on the host.
#[allow(clippy::too_many_arguments)]
pub fn select(
    env: &Env,
    src: ScanSrc<'_>,
    input: Option<&SelVec>,
    lo: u64,
    hi: u64,
    bitmap: bool,
    opts: &ScanOptions,
    ledger: &mut CostLedger,
) -> SelVec {
    let rows = src.rows();
    let out = if bitmap {
        let mut words = vec![0u64; rows.div_ceil(64)];
        let all = match input {
            Some(SelVec::Indices(c)) => 0..c.len(),
            _ => 0..rows,
        };
        select_partition(
            src,
            ScanInput::of(input, all),
            lo,
            hi,
            ScanOut::Bitmap(&mut words),
        );
        SelVec::bitmap_like(input, words, rows, opts)
    } else {
        let spans = ScanInput::units(input, rows, opts, |len| std::iter::once(0..len).collect());
        let (mut oids, mut approx) = (Vec::new(), Vec::new());
        for part in spans {
            let out = ScanOut::Indices {
                oids: &mut oids,
                approx: &mut approx,
            };
            select_partition(src, ScanInput::of(input, part), lo, hi, out);
        }
        SelVec::Indices(Candidates::new(oids, approx))
    };
    charge_select(env, src, input.map(SelVec::len), out.len(), opts, ledger);
    out
}

/// The simulated cost of a selection over `src` that examined `n_in`
/// candidates of an earlier selection (`None`: a full scan) and kept
/// `n_out`.
///
/// * A full direct scan streams the packed input, compares once per row
///   and writes the compacted output (plus an ordering pass when
///   `opts.preserve_order` spans several blocks).
/// * A full indirect scan streams the link and reads one dimension
///   element per row, scattered.
/// * A chained selection gathers one element per candidate (two when
///   indirect), scattered, and writes the compacted output.
///
/// The price is that of the paper's candidate-pair model whichever
/// representation the caller holds: the representation is a
/// host-simulation detail, so a bitmap bills what the equivalent
/// candidate list bills.
pub fn charge_select(
    env: &Env,
    src: ScanSrc<'_>,
    n_in: Option<usize>,
    n_out: usize,
    opts: &ScanOptions,
    ledger: &mut CostLedger,
) {
    let out_bytes = candidate_stream_bytes(src.arr().width(), n_out as u64);
    match (src, n_in) {
        (ScanSrc::Direct(arr), None) => {
            let n = arr.len();
            let nblocks = n.div_ceil(opts.block_size.max(1));
            env.charge_kernel(
                "select.approx.scan",
                arr.packed_bytes() + out_bytes,
                n as u64,
                ledger,
            );
            if opts.preserve_order && nblocks > 1 {
                // The ordering pass: a second sweep over the compacted output.
                env.charge_kernel("select.approx.order", 2 * out_bytes, n_out as u64, ledger);
            }
        }
        (ScanSrc::Indirect { arr, link }, None) => {
            let n = link.len();
            let touched = link.packed_bytes() + n as u64 * element_access_bytes(arr.width());
            env.charge_kernel_scattered("select.approx.scan-indirect", touched, n as u64, ledger);
        }
        (ScanSrc::Direct(arr), Some(n_in)) => {
            let touched = n_in as u64 * element_access_bytes(arr.width());
            env.charge_kernel_scattered(
                "select.approx.gather-filter",
                touched + out_bytes,
                n_in as u64,
                ledger,
            );
        }
        (ScanSrc::Indirect { arr, link }, Some(n_in)) => {
            let touched = n_in as u64
                * (element_access_bytes(link.width()) + element_access_bytes(arr.width()));
            env.charge_kernel_scattered(
                "select.approx.gather-filter-indirect",
                touched,
                2 * n_in as u64,
                ledger,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_storage::BitPackedVec;

    fn device_array(env: &Env, width: u32, vals: &[u64]) -> DeviceArray {
        let mut ledger = CostLedger::new();
        DeviceArray::upload(
            &env.device,
            BitPackedVec::from_slice(width, vals),
            "test",
            &mut ledger,
        )
        .unwrap()
    }

    fn opts(block_size: usize, preserve_order: bool) -> ScanOptions {
        ScanOptions {
            block_size,
            preserve_order,
        }
    }

    /// The `get`-based oracle: the rows of `input` (in the order the index
    /// path emits them) whose approximation lies in `[lo, hi]`.
    fn oracle(src: ScanSrc<'_>, input: &[Oid], lo: u64, hi: u64) -> (Vec<Oid>, Vec<u64>) {
        input
            .iter()
            .map(|&oid| (oid, src.get(oid as usize)))
            .filter(|&(_, v)| v >= lo && v <= hi)
            .unzip()
    }

    /// Run the kernel over `input` split into `parts` partitions the way a
    /// morsel-parallel caller splits it: word-aligned row chunks for bitmap
    /// output, chunks of the emission sequence for candidate output.
    fn run_parts(
        src: ScanSrc<'_>,
        input: Option<&SelVec>,
        lo: u64,
        hi: u64,
        bitmap: bool,
        opts: &ScanOptions,
        parts: usize,
    ) -> SelVec {
        let rows = src.rows();
        let chunk = |len: usize| -> Vec<Range<usize>> {
            let step = len.div_ceil(parts).max(1);
            (0..len)
                .step_by(step)
                .map(|s| s..(s + step).min(len))
                .collect()
        };
        if bitmap {
            let mut words = vec![0u64; rows.div_ceil(64)];
            if let Some(SelVec::Indices(c)) = input {
                for part in chunk(c.len()) {
                    let inp = ScanInput::of(input, part);
                    select_partition(src, inp, lo, hi, ScanOut::Bitmap(&mut words));
                }
            } else {
                for w in chunk(words.len()) {
                    let part = w.start * 64..(w.end * 64).min(rows);
                    let out = ScanOut::Bitmap(&mut words[w]);
                    select_partition(src, ScanInput::of(input, part), lo, hi, out);
                }
            }
            return SelVec::bitmap_like(input, words, rows, opts);
        }
        let spans = ScanInput::units(input, rows, opts, chunk);
        let (mut oids, mut approx) = (Vec::new(), Vec::new());
        for part in spans {
            let out = ScanOut::Indices {
                oids: &mut oids,
                approx: &mut approx,
            };
            select_partition(src, ScanInput::of(input, part), lo, hi, out);
        }
        SelVec::Indices(Candidates::new(oids, approx))
    }

    /// Every source × input × output × partition count × width against the
    /// `get`-based oracle: same oids, same order, same approximations; the
    /// serial wrapper bills identical ledger bits in both output
    /// representations, and so does every partitioned run.
    #[test]
    fn kernel_matches_oracle_for_every_source_input_output_and_partitioning() {
        let env = Env::paper_default();
        // Off-64 row count and block size: partition edges land mid-word.
        let n = 64 * 90 + 37;
        let geometry = opts(1000, false);
        let dim_rows = 700;
        let link_vals: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11 & 1023)
            .map(|k| k % dim_rows)
            .collect();
        let link = device_array(&env, 10, &link_vals);
        for width in [1u32, 4, 12, 21, 22, 40] {
            let max = low_mask(width);
            let pseudo = |len: u64, seed: u64| -> Vec<u64> {
                (0..len)
                    .map(|i| (i ^ seed).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 7 & max)
                    .collect()
            };
            let fact = device_array(&env, width, &pseudo(n as u64, 1));
            let dim = device_array(&env, width, &pseudo(dim_rows, 2));
            let srcs = [
                ScanSrc::Direct(&fact),
                ScanSrc::Indirect {
                    arr: &dim,
                    link: &link,
                },
            ];
            for src in srcs {
                // Inputs: every row, and two earlier selections — a wide
                // band (dense 64-row blocks) and a narrow one (sparse
                // blocks) — each held as a candidate list and as a bitmap.
                let all: Vec<Oid> = scan_block_ranges(n, &geometry)
                    .into_iter()
                    .flat_map(|r| r.start as Oid..r.end as Oid)
                    .collect();
                let mut inputs = vec![(None, all)];
                for (a, b) in [(max / 8, max - max / 8), (max / 2, max / 2 + max / 20)] {
                    let earlier = |bitmap| {
                        select(
                            &env,
                            src,
                            None,
                            a,
                            b,
                            bitmap,
                            &geometry,
                            &mut CostLedger::new(),
                        )
                    };
                    let list = earlier(false);
                    let order = list.as_indices().unwrap().oids.clone();
                    inputs.push((Some(earlier(true)), order.clone()));
                    inputs.push((Some(list), order));
                }
                // A band, an empty range and the whole domain.
                let bounds = [(max / 5, max - max / 3), (1, 0), (0, max)];
                for ((input, order), (lo, hi)) in inputs
                    .iter()
                    .flat_map(|i| bounds.iter().map(move |&b| (i, b)))
                {
                    let input = input.as_ref();
                    let expect = oracle(src, order, lo, hi);
                    let n_in = input.map(SelVec::len);
                    let mut ledgers = Vec::new();
                    for bitmap in [false, true] {
                        let what = format!(
                            "width={width} src={src:?} input={:?} [{lo}, {hi}] bitmap={bitmap}",
                            input.map(SelVec::is_bitmap)
                        );
                        let mut ledger = CostLedger::new();
                        let serial =
                            select(&env, src, input, lo, hi, bitmap, &geometry, &mut ledger);
                        assert_eq!(serial.is_bitmap(), bitmap, "{what}");
                        // The output stays on the device: nothing crosses
                        // the bus until refinement downloads it.
                        assert_eq!(ledger.breakdown().pcie, 0.0, "{what}");
                        let c = serial.into_candidates(src);
                        assert_eq!((c.oids, c.approx), expect, "{what} serial");
                        for parts in [1usize, 3, 8] {
                            let got = run_parts(src, input, lo, hi, bitmap, &geometry, parts);
                            assert_eq!(got.is_bitmap(), bitmap, "{what} parts={parts}");
                            // Charged once from the merged count, a
                            // partitioned run bills what the serial one did.
                            let mut l = CostLedger::new();
                            charge_select(&env, src, n_in, got.len(), &geometry, &mut l);
                            assert_eq!(l.breakdown(), ledger.breakdown(), "{what} parts={parts}");
                            assert_eq!(l.traffic(), ledger.traffic(), "{what} parts={parts}");
                            let c = got.into_candidates(src);
                            assert_eq!((c.oids, c.approx), expect, "{what} parts={parts}");
                        }
                        ledgers.push(ledger);
                    }
                    assert_eq!(ledgers[0].breakdown(), ledgers[1].breakdown());
                    assert_eq!(ledgers[0].traffic(), ledgers[1].traffic());
                }
            }
        }
    }

    #[test]
    fn preserve_order_option_keeps_input_order_and_costs_more() {
        let env = Env::paper_default();
        let vals: Vec<u64> = (0..100_000u64).map(|i| i % 3).collect();
        let arr = device_array(&env, 2, &vals);
        let src = ScanSrc::Direct(&arr);
        let mut l_ord = CostLedger::new();
        let c = select(
            &env,
            src,
            None,
            0,
            0,
            false,
            &opts(1 << 10, true),
            &mut l_ord,
        );
        assert!(c.as_indices().unwrap().sorted);
        let mut l_scram = CostLedger::new();
        let _ = select(
            &env,
            src,
            None,
            0,
            0,
            false,
            &opts(1 << 10, false),
            &mut l_scram,
        );
        assert!(l_ord.breakdown().device > l_scram.breakdown().device);
    }

    #[test]
    fn empty_result_is_sorted_dense() {
        let env = Env::paper_default();
        let arr = device_array(&env, 8, &[1, 2, 3]);
        let mut ledger = CostLedger::new();
        let src = ScanSrc::Direct(&arr);
        let c = select(
            &env,
            src,
            None,
            100,
            200,
            false,
            &ScanOptions::default(),
            &mut ledger,
        )
        .into_candidates(src);
        assert!(c.is_empty());
        assert!(c.sorted && c.dense);
    }

    #[test]
    fn block_order_covers_all_blocks() {
        for n in [1usize, 2, 3, 7, 8, 9, 64, 100] {
            let mut seen: Vec<usize> = block_order(n).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "nblocks={n}");
        }
        // And actually permutes for multi-block inputs.
        let order: Vec<usize> = block_order(8).collect();
        assert_ne!(order, (0..8).collect::<Vec<_>>());
    }
}
