//! Morsel-parallel execution helpers for the A&R host path.
//!
//! The classic pipe fans its selection chain out in `classic.rs`; this
//! module provides the same capability to the refinement side of the A&R
//! executor: contiguous candidate partitions run on real OS threads, and
//! partition outputs merge in deterministic partition order, so results
//! are **bit-identical** to the serial run at every morsel count and the
//! simulated component costs (charged once from merged totals by the
//! caller) are unchanged.
//!
//! Three building blocks:
//!
//! * [`partition_ranges`] / [`run_parts`] / [`run_parts_mut`] — contiguous
//!   range splitting and scoped-thread fan-out;
//! * [`SocketPlan`] / [`ScratchPool`] — socket-affine partition
//!   assignment and per-socket recycled buffers, so a morsel's scratch
//!   allocations never cross the modeled socket seam and the parallel
//!   path allocates zero intermediate vectors per morsel in steady state;
//! * the drivers ([`refine_filter`], [`refine_payloads`],
//!   [`gather_stored`], [`group_rows`]) — one per
//!   parallelized refinement stage, each built on the translucent-join
//!   partitioning below.
//!
//! # Socket-affine placement
//!
//! [`bwd_device::CpuSpec`] models a multi-socket host whose aggregate
//! bandwidth is the sum of per-socket memory controllers. Partitions are
//! contiguous, so assigning partition `p` of `n` to socket `p·S/n`
//! ([`SocketPlan`]) gives every socket one contiguous span of the input —
//! the NUMA-friendly layout where a worker streams rows its own
//! controller serves. The assignment is placement only: partition
//! boundaries, worker outputs and merge order are unchanged, so results
//! stay bit-identical at every socket count, and the simulated costs
//! (charged once from merged totals) never see the plan at all.
//!
//! # Partitioning a translucent join
//!
//! The translucent join's cursor merge looks inherently serial: worker
//! `p`'s start position on the candidate (superset) side depends on how
//! far the previous partitions advanced. But positions are monotone under
//! the shared permutation, so a single *comparison-only* pre-pass
//! ([`translucent_starts`]) locates each partition's first survivor in the
//! candidate list; every worker then merges its survivor slice against
//! `cands[start..]` independently, doing all the expensive work (residual
//! decode, reconstruction, predicate re-test) in parallel.

use bwd_core::translucent::translucent_join_with;
use bwd_core::RangePred;
use bwd_kernels::scan::cache_worthwhile;
use bwd_kernels::{gather_partition_into, Candidates, ScanSrc, SelVec};
use bwd_storage::{BitPackedVec, BlockDecoder, DecompositionMeta};
use bwd_types::{BwdError, Oid, Result};
use std::ops::Range;
use std::sync::Mutex;

/// Don't bother spawning threads below this many work items: the stage
/// over a few thousand rows costs less than thread startup (mirrors
/// `classic.rs`).
pub(crate) const MIN_MORSEL_ROWS: usize = 4096;

/// Split `0..len` into at most `morsels` contiguous non-empty ranges
/// (a single range when `len` is below the morsel threshold).
pub(crate) fn partition_ranges(len: usize, morsels: usize) -> Vec<Range<usize>> {
    partition_ranges_min(len, morsels, MIN_MORSEL_ROWS)
}

/// Split a match-bitmap's `nwords` mask words into contiguous worker
/// ranges. Partitioning the *words* keeps every partition boundary on a
/// 64-row boundary, so bitmap-producing workers write disjoint words of
/// one shared buffer — the parallel mask path needs no synchronization
/// beyond the scoped join. The per-partition minimum matches
/// [`MIN_MORSEL_ROWS`] in row terms.
pub(crate) fn partition_mask_ranges(nwords: usize, morsels: usize) -> Vec<Range<usize>> {
    partition_ranges_min(nwords, morsels, MIN_MORSEL_ROWS.div_ceil(64))
}

/// [`partition_ranges`] with an explicit per-partition minimum size.
///
/// Partitions are *balanced*: sizes differ by at most one (the remainder
/// of `len / parts` is spread over the leading partitions), so no worker
/// systematically receives a short straggler range — ceil-stepped
/// chunking could hand the last worker as little as one item while every
/// other one got a full step.
pub(crate) fn partition_ranges_min(
    len: usize,
    morsels: usize,
    min_items: usize,
) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = morsels.clamp(1, len);
    if parts == 1 || len < min_items {
        #[allow(clippy::single_range_in_vec_init)] // one range, not a collected sequence
        return vec![0..len];
    }
    let base = len / parts;
    let rem = len % parts;
    let mut start = 0;
    (0..parts)
        .map(|p| {
            let size = base + usize::from(p < rem);
            let r = start..start + size;
            start += size;
            r
        })
        .collect()
}

/// Run `f(worker_index, range)` for every range, on real OS threads when
/// there is more than one. The calling thread takes the last range itself
/// (it would otherwise idle in the join), so `n` partitions cost `n - 1`
/// spawns. Results come back in partition order.
pub(crate) fn run_parts<T, F>(ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    if ranges.len() <= 1 {
        return ranges.iter().map(|r| f(0, r.clone())).collect();
    }
    let last = ranges.len() - 1;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges[..last]
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let f = &f;
                let r = r.clone();
                scope.spawn(move || f(i, r))
            })
            .collect();
        let tail = f(last, ranges[last].clone());
        let mut outs: Vec<T> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        outs.push(tail);
        outs
    })
}

/// Like [`run_parts`], but runs `ranges` in batches of at most `batch`
/// partitions with a [`bwd_device::YieldPoint`] check between batches —
/// the fan-out primitive behind morsel-boundary preemption and
/// cooperative cancellation. The calling (orchestrating) thread is the
/// one that polls the yield point, so a hosted nested query runs with
/// every morsel worker of the paused batch already joined — and a
/// cancellation observed at the boundary stops with no worker in
/// flight. Outputs come back in partition order exactly as [`run_parts`]
/// would return them; the worker index passed to `f` is batch-local
/// (restarts per batch) and must only be used for load-placement, never
/// for output addressing.
pub(crate) fn run_parts_yielding<T, F>(
    ranges: &[Range<usize>],
    batch: usize,
    preempt: &bwd_device::YieldPoint,
    f: F,
) -> bwd_types::Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let mut outs = Vec::with_capacity(ranges.len());
    for chunk in ranges.chunks(batch.max(1)) {
        outs.extend(run_parts(chunk, &f));
        preempt.check()?;
    }
    Ok(outs)
}

/// Like [`run_parts`], but additionally hands each worker the disjoint
/// chunk of `out` matching its range, so positionally-aligned stages write
/// straight into one shared output buffer (no per-partition vectors, no
/// merge copy). `out.len()` must equal the partitioned length.
pub(crate) fn run_parts_mut<T, R, F>(out: &mut [T], ranges: &[Range<usize>], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, Range<usize>, &mut [T]) -> R + Sync,
{
    debug_assert_eq!(out.len(), ranges.last().map_or(0, |r| r.end));
    if ranges.len() <= 1 {
        return ranges.iter().map(|r| f(0, r.clone(), out)).collect();
    }
    let mut chunks = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for r in ranges {
        let (chunk, tail) = rest.split_at_mut(r.len());
        chunks.push(chunk);
        rest = tail;
    }
    let last = ranges.len() - 1;
    let last_chunk = chunks.pop().expect("one chunk per range");
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges[..last]
            .iter()
            .enumerate()
            .zip(chunks)
            .map(|((i, r), chunk)| {
                let f = &f;
                let r = r.clone();
                scope.spawn(move || f(i, r, chunk))
            })
            .collect();
        let tail = f(last, ranges[last].clone(), last_chunk);
        let mut outs: Vec<R> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        outs.push(tail);
        outs
    })
}

/// Socket-affine assignment of `n` contiguous partitions to `S` modeled
/// sockets: partition `p` lands on socket `p·S/n`, so every socket owns
/// one contiguous, balanced (sizes differ by ≤ 1 partition) span of the
/// input. Placement only — never consulted by result merging or cost
/// charging.
pub(crate) struct SocketPlan {
    assign: Vec<u32>,
}

impl SocketPlan {
    pub(crate) fn new(nparts: usize, sockets: usize) -> SocketPlan {
        let s = sockets.clamp(1, nparts.max(1));
        SocketPlan {
            assign: (0..nparts)
                .map(|p| (p * s / nparts.max(1)) as u32)
                .collect(),
        }
    }

    /// The socket partition `part` is placed on (0 for out-of-range
    /// indices, which only a single-partition fallback produces).
    #[inline]
    pub(crate) fn socket_of(&self, part: usize) -> usize {
        self.assign.get(part).map_or(0, |&s| s as usize)
    }
}

/// Recycled per-query scratch buffers, one bank per modeled socket.
/// Workers `take` a buffer from *their* socket's bank, fill it, and the
/// merger `put`s it back cleared (capacity kept) into the same bank — so
/// after the first stage warms the pool the parallel path allocates no
/// intermediate vectors per morsel, and a buffer recycles only within the
/// socket whose controller first touched its pages (no cross-seam
/// scratch). `Default` models a single socket.
pub(crate) struct ScratchPool {
    banks: Vec<ScratchBank>,
}

#[derive(Default)]
struct ScratchBank {
    u32s: Mutex<Vec<Vec<u32>>>,
    u64s: Mutex<Vec<Vec<u64>>>,
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool::with_sockets(1)
    }
}

impl ScratchPool {
    pub(crate) fn with_sockets(sockets: usize) -> ScratchPool {
        ScratchPool {
            banks: (0..sockets.max(1))
                .map(|_| ScratchBank::default())
                .collect(),
        }
    }

    /// Number of modeled sockets (= banks); drivers build their
    /// [`SocketPlan`]s from this.
    pub(crate) fn sockets(&self) -> usize {
        self.banks.len()
    }

    #[inline]
    fn bank(&self, socket: usize) -> &ScratchBank {
        &self.banks[socket % self.banks.len()]
    }

    pub(crate) fn take_u32(&self, socket: usize) -> Vec<u32> {
        self.bank(socket)
            .u32s
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_default()
    }

    pub(crate) fn put_u32(&self, socket: usize, mut v: Vec<u32>) {
        v.clear();
        self.bank(socket).u32s.lock().unwrap().push(v);
    }

    pub(crate) fn take_u64(&self, socket: usize) -> Vec<u64> {
        self.bank(socket)
            .u64s
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_default()
    }

    pub(crate) fn put_u64(&self, socket: usize, mut v: Vec<u64>) {
        v.clear();
        self.bank(socket).u64s.lock().unwrap().push(v);
    }
}

/// Where a refinement finds a tuple's residual bits.
#[derive(Clone, Copy)]
pub(crate) enum ResidualSrc<'a> {
    /// Fully device-resident column: no residual exists, every read is 0.
    None,
    /// Fact-positioned residual (`residual[oid]`). `cached` routes reads
    /// through the block-cached bulk decoder — worth it when the refined
    /// set is dense (candidate oids ascend within scan blocks).
    Fact {
        residual: &'a BitPackedVec,
        cached: bool,
    },
    /// Dimension-positioned residual through the host FK index
    /// (`residual[fk[oid]]`): arbitrary positions, never cached.
    Dim {
        residual: &'a BitPackedVec,
        fk: &'a [u32],
    },
}

impl<'a> ResidualSrc<'a> {
    /// The source for `col`, with the cache heuristic driven by how many
    /// of the column's rows the refinement will touch.
    pub(crate) fn for_column(
        col: &'a bwd_core::BoundColumn,
        is_dim: bool,
        fk: Option<&'a [u32]>,
        expected_accesses: usize,
    ) -> ResidualSrc<'a> {
        if col.meta().resbits() == 0 {
            ResidualSrc::None
        } else if is_dim {
            ResidualSrc::Dim {
                residual: col.residual(),
                fk: fk.expect("dim refinement requires a host FK index"),
            }
        } else {
            ResidualSrc::Fact {
                residual: col.residual(),
                cached: cache_worthwhile(expected_accesses, col.len()),
            }
        }
    }

    /// A per-worker reader (each worker owns its decode cache).
    fn reader(&self) -> ResidualReader<'a> {
        match *self {
            ResidualSrc::None => ResidualReader::Zero,
            ResidualSrc::Fact {
                residual,
                cached: false,
            } => ResidualReader::Direct(residual),
            ResidualSrc::Fact {
                residual,
                cached: true,
            } => ResidualReader::Cached(Box::new(BlockDecoder::new(residual))),
            ResidualSrc::Dim { residual, fk } => ResidualReader::Dim(residual, fk),
        }
    }
}

enum ResidualReader<'a> {
    Zero,
    Direct(&'a BitPackedVec),
    Cached(Box<BlockDecoder<'a>>),
    Dim(&'a BitPackedVec, &'a [u32]),
}

impl ResidualReader<'_> {
    #[inline]
    fn get(&mut self, oid: Oid) -> u64 {
        match self {
            ResidualReader::Zero => 0,
            ResidualReader::Direct(res) => res.get(oid as usize),
            ResidualReader::Cached(dec) => dec.get(oid as usize),
            ResidualReader::Dim(res, fk) => res.get(fk[oid as usize] as usize),
        }
    }
}

/// For each survivor partition, the candidate-side cursor start: a
/// comparison-only serial merge that only looks at partition boundary
/// elements' positions. Partition 0 always starts at 0.
pub(crate) fn translucent_starts(
    a_ids: &[Oid],
    subset: &[Oid],
    ranges: &[Range<usize>],
) -> Result<Vec<usize>> {
    let mut starts = Vec::with_capacity(ranges.len());
    if ranges.is_empty() {
        return Ok(starts);
    }
    starts.push(0);
    let mut ia = 0usize;
    for r in &ranges[1..] {
        let target = subset[r.start];
        while ia < a_ids.len() && a_ids[ia] != target {
            ia += 1;
        }
        if ia == a_ids.len() {
            return Err(BwdError::Exec(format!(
                "translucent join: oid {target} not found — permutation precondition violated"
            )));
        }
        starts.push(ia);
    }
    Ok(starts)
}

/// Morsel-parallel selection refinement: reconstruct each refined tuple's
/// exact payload (approximation ‖ residual) and keep the oids passing the
/// precise `range` test, in candidate order. `survivors` restricts the
/// refinement to an earlier refinement's output; `None` refines the whole
/// selection, which must then be a candidate list (the gather boundary
/// materializes a final bitmap). Pure computation — the caller charges
/// the simulated cost from the merged totals.
///
/// A candidate list carries its approximations, and survivors align with
/// it through the translucent join. A bitmap's membership is positional,
/// so the translucent join disappears and each survivor's approximation
/// is re-read from `src` — bit-identical to refining the materialized
/// list.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_filter(
    meta: &DecompositionMeta,
    residual: ResidualSrc<'_>,
    sel: &SelVec,
    src: ScanSrc<'_>,
    survivors: Option<&[Oid]>,
    range: &RangePred,
    morsels: usize,
    pool: &ScratchPool,
) -> Result<Vec<Oid>> {
    let keep = |out: &mut Vec<Oid>, res: &mut ResidualReader<'_>, oid: Oid, stored: u64| {
        if range.test(meta.payload_from_parts(stored, res.get(oid))) {
            out.push(oid);
        }
    };
    let (plan, outs) = match survivors {
        None => {
            let c = sel
                .as_indices()
                .expect("a bitmap is materialized at the gather boundary");
            // Aligned zip over (oids, approx): truncate to the shorter side.
            let ranges = partition_ranges(c.oids.len().min(c.approx.len()), morsels);
            let plan = SocketPlan::new(ranges.len(), pool.sockets());
            let outs = run_parts(&ranges, |p, r| -> Result<Vec<Oid>> {
                let mut out = pool.take_u32(plan.socket_of(p));
                let mut res = residual.reader();
                for (&oid, &stored) in c.oids[r.clone()].iter().zip(&c.approx[r]) {
                    keep(&mut out, &mut res, oid, stored);
                }
                Ok(out)
            });
            (plan, outs)
        }
        Some(subset) => {
            let ranges = partition_ranges(subset.len(), morsels);
            let plan = SocketPlan::new(ranges.len(), pool.sockets());
            let starts = match sel {
                SelVec::Indices(c) if !c.dense => {
                    Some(translucent_starts(&c.oids, subset, &ranges)?)
                }
                _ => None,
            };
            let outs = run_parts(&ranges, |p, r| -> Result<Vec<Oid>> {
                let mut out = pool.take_u32(plan.socket_of(p));
                let mut res = residual.reader();
                let sub = &subset[r];
                match sel {
                    SelVec::Indices(c) => {
                        let (a_ids, a_vals, base) = match &starts {
                            None => (&c.oids[..], &c.approx[..], Some(0)),
                            Some(s) => (&c.oids[s[p]..], &c.approx[s[p]..], None),
                        };
                        translucent_join_with(a_ids, a_vals, base, sub, |bi, stored| {
                            keep(&mut out, &mut res, sub[bi], stored);
                        })?;
                    }
                    SelVec::Bitmap(mask) => {
                        for &oid in sub {
                            // Survivors shrink monotonically down the
                            // chain, so every one is set in this
                            // (earlier) selection's mask.
                            debug_assert_eq!(
                                mask.words()[oid as usize / 64] >> (oid % 64) & 1,
                                1,
                                "survivor oid {oid} not in refined selection's mask"
                            );
                            keep(&mut out, &mut res, oid, src.get(oid as usize));
                        }
                    }
                }
                Ok(out)
            });
            (plan, outs)
        }
    };
    let total = outs.iter().map(|o| o.as_ref().map_or(0, Vec::len)).sum();
    let mut merged = Vec::with_capacity(total);
    for (p, out) in outs.into_iter().enumerate() {
        let out = out?;
        merged.extend_from_slice(&out);
        pool.put_u32(plan.socket_of(p), out);
    }
    Ok(merged)
}

/// Morsel-parallel projection refinement: exact payloads for every
/// survivor, positionally aligned with `survivors`, written straight into
/// one shared output vector. `(a_ids, a_vals)` is the candidate list with
/// this column's approximate projection (`a_vals` aligned with `a_ids`);
/// `starts` must come from [`translucent_starts`] over the same
/// `(a_ids, survivors, ranges)` triple (`None` when the candidates are
/// dense). Pure computation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_payloads(
    meta: &DecompositionMeta,
    residual: ResidualSrc<'_>,
    a_ids: &[Oid],
    a_vals: &[u64],
    survivors: &[Oid],
    ranges: &[Range<usize>],
    starts: Option<&[usize]>,
) -> Result<Vec<i64>> {
    let mut out = vec![0i64; survivors.len()];
    let results = run_parts_mut(&mut out, ranges, |p, r, chunk| -> Result<()> {
        let mut res = residual.reader();
        let sub = &survivors[r];
        let (ids, vals, base) = match starts {
            None => (a_ids, a_vals, Some(0)),
            Some(s) => (&a_ids[s[p]..], &a_vals[s[p]..], None),
        };
        translucent_join_with(ids, vals, base, sub, |bi, stored| {
            chunk[bi] = meta.payload_from_parts(stored, res.get(sub[bi]));
        })?;
        Ok(())
    });
    for r in results {
        r?;
    }
    Ok(out)
}

/// Morsel-parallel positional gather of stored approximations from `src`
/// — direct (`arr[oid]`) or through a device-resident FK link
/// (`arr[link[oid]]`), see [`gather_partition_into`]. Pure computation;
/// output aligns with the candidate list.
pub(crate) fn gather_stored(src: ScanSrc<'_>, cands: &Candidates, morsels: usize) -> Vec<u64> {
    let n = cands.len();
    let mut out = vec![0u64; n];
    let ranges = partition_ranges(n, morsels);
    run_parts_mut(&mut out, &ranges, |_, r, chunk| {
        gather_partition_into(src, cands, r, chunk);
    });
    out
}

/// The output of [`group_rows`]: group ids per row plus the distinct key
/// payload tuples in first-appearance order.
pub(crate) struct GroupedRows {
    pub ids: Vec<u32>,
    pub keys: Vec<Vec<i64>>,
}

/// Morsel-parallel hash grouping over aligned key columns. Each worker
/// groups its contiguous row partition locally; local tables merge in
/// partition order, which reproduces the serial first-appearance group-id
/// assignment exactly (a key first seen in partition `p` globally first
/// appears there, and local id order is first-appearance order within the
/// partition).
pub(crate) fn group_rows(key_cols: &[&[i64]], morsels: usize, pool: &ScratchPool) -> GroupedRows {
    let n = key_cols.first().map_or(0, |c| c.len());
    let ranges = partition_ranges(n, morsels);
    let plan = SocketPlan::new(ranges.len(), pool.sockets());
    let locals = run_parts(&ranges, |p, r| {
        let mut table: bwd_types::FxHashMap<Vec<i64>, u32> = bwd_types::FxHashMap::default();
        let mut ids = pool.take_u32(plan.socket_of(p));
        let mut keys: Vec<Vec<i64>> = Vec::new();
        for row in r {
            let key: Vec<i64> = key_cols.iter().map(|c| c[row]).collect();
            let next = keys.len() as u32;
            let id = *table.entry(key.clone()).or_insert_with(|| {
                keys.push(key);
                next
            });
            ids.push(id);
        }
        (ids, keys)
    });
    if locals.len() == 1 {
        let (ids, keys) = locals.into_iter().next().unwrap();
        // The single-partition ids buffer becomes the output; it is not
        // returned to the pool (the pool only recycles within a query).
        return GroupedRows { ids, keys };
    }
    let mut table: bwd_types::FxHashMap<Vec<i64>, u32> = bwd_types::FxHashMap::default();
    let mut keys: Vec<Vec<i64>> = Vec::new();
    let mut ids: Vec<u32> = Vec::with_capacity(n);
    for (p, (local_ids, local_keys)) in locals.into_iter().enumerate() {
        let remap: Vec<u32> = local_keys
            .into_iter()
            .map(|key| {
                let next = keys.len() as u32;
                *table.entry(key.clone()).or_insert_with(|| {
                    keys.push(key);
                    next
                })
            })
            .collect();
        ids.extend(local_ids.iter().map(|&l| remap[l as usize]));
        pool.put_u32(plan.socket_of(p), local_ids);
    }
    GroupedRows { ids, keys }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parts_yielding_matches_run_parts_and_polls_between_batches() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let ranges = partition_ranges_min(1000, 10, 1);
        assert_eq!(ranges.len(), 10);
        let work = |_: usize, r: Range<usize>| r.into_iter().sum::<usize>();
        let plain = run_parts(&ranges, work);
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = {
            let fired = Arc::clone(&fired);
            bwd_device::YieldPoint::new(Arc::new(move || {
                fired.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }))
        };
        for batch in [1usize, 3, 10, 64] {
            fired.store(0, Ordering::Relaxed);
            let sliced = run_parts_yielding(&ranges, batch, &hook, work).unwrap();
            assert_eq!(sliced, plain, "batch={batch}");
            assert_eq!(fired.load(Ordering::Relaxed), ranges.len().div_ceil(batch));
        }
        // Disabled hook: same outputs, zero overhead beyond the branch.
        let off =
            run_parts_yielding(&ranges, 4, &bwd_device::YieldPoint::disabled(), work).unwrap();
        assert_eq!(off, plain);
    }

    #[test]
    fn run_parts_yielding_stops_at_the_erroring_boundary() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let ranges = partition_ranges_min(1000, 10, 1);
        let work = |_: usize, r: Range<usize>| r.into_iter().sum::<usize>();
        let polls = Arc::new(AtomicUsize::new(0));
        let hook = {
            let polls = Arc::clone(&polls);
            bwd_device::YieldPoint::new(Arc::new(move || {
                if polls.fetch_add(1, Ordering::Relaxed) + 1 >= 2 {
                    Err(bwd_types::BwdError::Cancelled)
                } else {
                    Ok(())
                }
            }))
        };
        // Batch of 2: boundaries after ranges 2, 4, ...; the second poll
        // cancels, so exactly 2 polls happen and no result is returned.
        let out = run_parts_yielding(&ranges, 2, &hook, work);
        assert!(matches!(out, Err(bwd_types::BwdError::Cancelled)));
        assert_eq!(polls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn partition_ranges_cover_exactly() {
        for (len, morsels) in [
            (0usize, 4usize),
            (10, 4),
            (8192, 3),
            (100_000, 8),
            (5000, 1),
        ] {
            let ranges = partition_ranges(len, morsels);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous");
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, len, "len={len} morsels={morsels}");
            assert!(ranges.len() <= morsels.max(1));
        }
        assert_eq!(partition_ranges(100, 4).len(), 1, "below morsel threshold");
        assert_eq!(partition_ranges_min(100, 4, 1).len(), 4);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// For arbitrary (len, parts): ranges are non-empty, ordered,
        /// disjoint, cover `0..len` exactly, and sizes differ by ≤ 1.
        #[test]
        fn partition_ranges_partition_invariants(
            len in 0usize..50_000,
            parts in 0usize..70,
        ) {
            // min_items = 1 exercises the real splitting logic on every
            // input; the production threshold only short-circuits tiny
            // inputs into a single range (covered by the cases where
            // len < parts forces clamping anyway).
            let ranges = partition_ranges_min(len, parts, 1);
            if len == 0 {
                proptest::prop_assert!(ranges.is_empty());
            } else {
                proptest::prop_assert!(!ranges.is_empty());
                proptest::prop_assert!(ranges.len() <= parts.max(1));
                let mut covered = 0usize;
                for r in &ranges {
                    proptest::prop_assert_eq!(r.start, covered, "ordered+disjoint+contiguous");
                    proptest::prop_assert!(r.end > r.start, "non-empty");
                    covered = r.end;
                }
                proptest::prop_assert_eq!(covered, len, "covers 0..len");
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                proptest::prop_assert!(max - min <= 1, "balanced: {min}..{max}");
            }
            // The production entry point agrees with itself on the same
            // invariants (it may collapse to one range below the
            // threshold, which trivially satisfies all of them).
            let prod = partition_ranges(len, parts);
            let covered: usize = prod.iter().map(|r| r.len()).sum();
            proptest::prop_assert_eq!(covered, len);
        }
    }

    #[test]
    fn socket_plan_spans_are_contiguous_and_balanced() {
        for (nparts, sockets) in [(1usize, 2usize), (7, 2), (8, 4), (16, 3), (5, 8), (64, 2)] {
            let plan = SocketPlan::new(nparts, sockets);
            let used = sockets.min(nparts);
            let assigns: Vec<usize> = (0..nparts).map(|p| plan.socket_of(p)).collect();
            // Non-decreasing assignment = every socket owns one
            // contiguous span of partitions.
            assert!(
                assigns.windows(2).all(|w| w[0] <= w[1]),
                "contiguous spans: {assigns:?}"
            );
            assert_eq!(assigns[0], 0);
            assert_eq!(*assigns.last().unwrap(), used - 1, "all sockets used");
            // Balanced: span sizes differ by at most one partition.
            let mut counts = vec![0usize; used];
            for &s in &assigns {
                counts[s] += 1;
            }
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {counts:?}");
        }
        // Degenerate shapes fall back to socket 0.
        assert_eq!(SocketPlan::new(0, 4).socket_of(0), 0);
        assert_eq!(SocketPlan::new(3, 0).socket_of(2), 0);
    }

    #[test]
    fn scratch_pool_recycles_within_its_socket_bank() {
        let pool = ScratchPool::with_sockets(2);
        assert_eq!(pool.sockets(), 2);
        let mut v = pool.take_u32(1);
        v.reserve(4096);
        let cap = v.capacity();
        pool.put_u32(1, v);
        // The warmed buffer comes back on its own socket only.
        assert_eq!(pool.take_u32(0).capacity(), 0, "bank 0 stays cold");
        assert!(pool.take_u32(1).capacity() >= cap, "bank 1 recycles");
        // Default pool is a single bank; any socket index maps into it.
        let d = ScratchPool::default();
        assert_eq!(d.sockets(), 1);
        let mut v = d.take_u64(0);
        v.reserve(128);
        d.put_u64(0, v);
        assert!(d.take_u64(5).capacity() >= 128, "indices wrap to the bank");
    }

    #[test]
    fn translucent_starts_locates_partition_boundaries() {
        // Shared-permutation superset/subset pair.
        let a_ids: Vec<Oid> = vec![3, 9, 1, 5, 2, 7, 4, 8];
        let subset: Vec<Oid> = vec![9, 5, 2, 8];
        let ranges = vec![0..2, 2..4];
        let starts = translucent_starts(&a_ids, &subset, &ranges).unwrap();
        assert_eq!(starts, vec![0, 4]); // subset[2] == 2 sits at a_ids[4]
                                        // A missing boundary oid is a permutation violation.
        let bad = translucent_starts(&a_ids, &[9, 6], &[0..1, 1..2]);
        assert!(bad.is_err());
    }

    #[test]
    fn group_rows_merge_matches_serial_first_seen_order() {
        let keys: Vec<i64> = (0..10_000).map(|i| (i * 7) % 13).collect();
        let cols: Vec<&[i64]> = vec![&keys];
        let pool = ScratchPool::default();
        let serial = group_rows(&cols, 1, &pool);
        for morsels in [2, 3, 8, 64] {
            let par = {
                // Force real partitions even at this size.
                let ranges = partition_ranges_min(keys.len(), morsels, 1);
                assert!(ranges.len() > 1);
                group_rows(&cols, morsels, &pool)
            };
            assert_eq!(par.ids, serial.ids, "morsels={morsels}");
            assert_eq!(par.keys, serial.keys);
        }
    }
}
