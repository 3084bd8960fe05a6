//! Gather (positional lookup) kernels — the device side of projections and
//! foreign-key joins.
//!
//! A projection in a late-materializing column store is an *invisible
//! join*: the value's location follows from the tuple id (§IV-C). On the
//! device this is a scattered read of one packed element per candidate.
//! A pre-indexed foreign-key join (§IV-D) is the same operation with one
//! extra indirection through the device-resident key column — which is why
//! the paper's implementation shares code between the two.

use crate::candidates::Candidates;
use crate::scan::ScanSrc;
use bwd_device::units::{element_access_bytes, packed_stream_bytes};
use bwd_device::{CostLedger, Env};
use std::ops::Range;

/// Fetch every candidate's stored value from `src`: `arr[oid]` for a
/// projection, `arr[link[oid]]` for a foreign-key join through a
/// device-resident key column (e.g. `part[lineitem.partkey]`). The result
/// is positionally aligned with the candidate list (the projection writes
/// each value at its input's position, which is what keeps the shared
/// permutation — §IV-A item 2).
pub fn gather(
    env: &Env,
    src: ScanSrc<'_>,
    cands: &Candidates,
    label: &str,
    ledger: &mut CostLedger,
) -> Vec<u64> {
    let mut out = vec![0u64; cands.len()];
    gather_partition_into(src, cands, 0..cands.len(), &mut out);
    charge_gather(env, src, cands.dense, cands.len(), label, ledger);
    out
}

/// The simulated cost of a [`gather`] of `n` candidates: dense candidates
/// of a direct source stream coalesced, scattered ones pay the
/// random-access rate, and a foreign-key join pays it twice (key, then
/// value). Split out so a morsel-parallel caller that ran
/// [`gather_partition_into`] itself charges exactly what the serial
/// kernel would.
pub fn charge_gather(
    env: &Env,
    src: ScanSrc<'_>,
    dense: bool,
    n: usize,
    label: &str,
    ledger: &mut CostLedger,
) {
    match src {
        ScanSrc::Direct(arr) if dense => {
            // Dense candidates read the array front to back: perfectly
            // coalesced, so charge the sequential stream rate.
            env.charge_kernel(
                label,
                arr.packed_bytes() + out_bytes(arr.width(), n),
                n as u64,
                ledger,
            );
        }
        ScanSrc::Direct(arr) => {
            let touched = n as u64 * element_access_bytes(arr.width()) + out_bytes(arr.width(), n);
            env.charge_kernel_scattered(label, touched, n as u64, ledger);
        }
        ScanSrc::Indirect { arr, link } => {
            let touched = n as u64
                * (element_access_bytes(link.width()) + element_access_bytes(arr.width()))
                + out_bytes(arr.width(), n);
            env.charge_kernel_scattered(label, touched, 2 * n as u64, ledger);
        }
    }
}

/// Fetch the values of candidates at positions `part` of `cands` into
/// `out` (`out.len() == part.len()`) — the partition form: pure
/// computation, no cost charge, so a morsel-parallel caller writes
/// disjoint chunks of one shared output buffer and charges the merged
/// totals once. Dense candidates of a direct source bulk-decode their
/// range, with no positional lookups at all.
pub fn gather_partition_into(
    src: ScanSrc<'_>,
    cands: &Candidates,
    part: Range<usize>,
    out: &mut [u64],
) {
    debug_assert_eq!(part.len(), out.len());
    match src {
        // Dense candidates are `0..n`: position and oid coincide.
        ScanSrc::Direct(arr) if cands.dense => arr.data().unpack_range(part.start, out),
        ScanSrc::Direct(arr) => {
            for (slot, &o) in out.iter_mut().zip(&cands.oids[part]) {
                *slot = arr.get(o as usize);
            }
        }
        ScanSrc::Indirect { arr, link } => {
            for (slot, &o) in out.iter_mut().zip(&cands.oids[part]) {
                *slot = arr.get(link.get(o as usize) as usize);
            }
        }
    }
}

fn out_bytes(width_bits: u32, n: usize) -> u64 {
    packed_stream_bytes(width_bits, n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DeviceArray;
    use bwd_storage::BitPackedVec;

    fn arr(env: &Env, width: u32, vals: &[u64]) -> DeviceArray {
        let mut l = CostLedger::new();
        DeviceArray::upload(
            &env.device,
            BitPackedVec::from_slice(width, vals),
            "t",
            &mut l,
        )
        .unwrap()
    }

    fn cands(oids: Vec<u32>) -> Candidates {
        let n = oids.len();
        let mut c = Candidates {
            oids,
            approx: vec![0; n],
            sorted: false,
            dense: false,
        };
        c.refresh_flags();
        c
    }

    #[test]
    fn gather_aligns_with_candidates() {
        let env = Env::paper_default();
        let a = arr(&env, 16, &(0..1000u64).map(|i| i * 3).collect::<Vec<_>>());
        let c = cands(vec![5, 2, 999, 0]);
        let mut ledger = CostLedger::new();
        let out = gather(&env, ScanSrc::Direct(&a), &c, "proj", &mut ledger);
        assert_eq!(out, vec![15, 6, 2997, 0]);
        assert!(ledger.breakdown().device > 0.0);
    }

    #[test]
    fn gather_indirect_follows_fk() {
        let env = Env::paper_default();
        // part.p_type codes: 4 parts.
        let ptype = arr(&env, 8, &[10, 20, 30, 40]);
        // lineitem.partkey: 6 lineitems referencing parts.
        let partkey = arr(&env, 2, &[3, 0, 1, 1, 2, 0]);
        let c = cands(vec![0, 4, 5]);
        let mut ledger = CostLedger::new();
        let src = ScanSrc::Indirect {
            arr: &ptype,
            link: &partkey,
        };
        let out = gather(&env, src, &c, "fkjoin", &mut ledger);
        assert_eq!(out, vec![40, 30, 10]);
    }

    #[test]
    fn indirect_costs_more_than_direct() {
        let env = Env::paper_default();
        let vals = arr(&env, 32, &(0..10_000u64).collect::<Vec<_>>());
        let link = arr(
            &env,
            14,
            &(0..10_000u64).map(|i| i % 10_000).collect::<Vec<_>>(),
        );
        let c = cands((0..5000u32).collect());
        let mut l_direct = CostLedger::new();
        let mut l_indirect = CostLedger::new();
        let _ = gather(&env, ScanSrc::Direct(&vals), &c, "d", &mut l_direct);
        let indirect = ScanSrc::Indirect {
            arr: &vals,
            link: &link,
        };
        let _ = gather(&env, indirect, &c, "i", &mut l_indirect);
        assert!(l_indirect.breakdown().device > l_direct.breakdown().device);
    }

    #[test]
    fn empty_candidates() {
        let env = Env::paper_default();
        let a = arr(&env, 8, &[1, 2, 3]);
        let mut ledger = CostLedger::new();
        assert!(gather(
            &env,
            ScanSrc::Direct(&a),
            &Candidates::empty(),
            "p",
            &mut ledger
        )
        .is_empty());
    }
}
