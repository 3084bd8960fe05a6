//! Theta-join kernel (nested loops).
//!
//! §IV-D: theta joins are "trivial to (massively) parallelize because they
//! do not employ intermediate structures that have to be locked" — each
//! thread owns one outer tuple and streams the inner relation. They are
//! the one generic join the paper considers a good fit for the device; the
//! equi-join case goes through pre-built foreign-key indexes instead (see
//! [`crate::gather::gather`] over [`crate::ScanSrc::Indirect`]).
//!
//! The cost model is compute-bound (`|outer| × |inner|` comparisons) with
//! the inner relation streamed from device memory once per outer *block*
//! (blocks share the inner stream through the on-chip cache).

use crate::array::DeviceArray;
use crate::candidates::Candidates;
use bwd_device::{Component, CostLedger, Env};
use bwd_types::Oid;

/// Comparison operator for a theta join predicate `outer θ inner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Theta {
    /// `<`
    Less,
    /// `<=`
    LessEq,
    /// `>`
    Greater,
    /// `>=`
    GreaterEq,
    /// `!=`
    NotEq,
    /// `=` (legal, but the FK-indexed path is the right tool)
    Eq,
}

impl Theta {
    #[inline]
    fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Theta::Less => a < b,
            Theta::LessEq => a <= b,
            Theta::Greater => a > b,
            Theta::GreaterEq => a >= b,
            Theta::NotEq => a != b,
            Theta::Eq => a == b,
        }
    }
}

/// Simulated tuples per outer block (sharing one inner stream).
const OUTER_BLOCK: u64 = 4096;

/// Nested-loop theta join of two device arrays over stored-domain values.
/// Returns matching `(outer_oid, inner_oid)` pairs in outer-major order.
///
/// Over *approximations* this produces a candidate pair superset when the
/// caller widens the predicate by the granule error (done in `bwd-core`);
/// over fully-resident columns it is exact.
pub fn theta_join_nl(
    env: &Env,
    outer: &DeviceArray,
    inner: &DeviceArray,
    theta: Theta,
    ledger: &mut CostLedger,
) -> Vec<(Oid, Oid)> {
    let mut out = Vec::new();
    let inner_vals: Vec<u64> = inner.data().iter().collect();
    for (i, a) in outer.data().iter().enumerate() {
        for (j, &b) in inner_vals.iter().enumerate() {
            if theta.eval(a, b) {
                out.push((i as Oid, j as Oid));
            }
        }
    }
    charge_nl_cost(
        env,
        outer.len() as u64,
        inner.packed_bytes(),
        inner.len() as u64,
        out.len() as u64,
        ledger,
    );
    out
}

/// Nested-loop theta join restricted to an outer candidate list.
pub fn theta_join_nl_on(
    env: &Env,
    outer: &DeviceArray,
    outer_cands: &Candidates,
    inner: &DeviceArray,
    theta: Theta,
    ledger: &mut CostLedger,
) -> Vec<(Oid, Oid)> {
    let mut out = Vec::new();
    let inner_vals: Vec<u64> = inner.data().iter().collect();
    for &oid in &outer_cands.oids {
        let a = outer.get(oid as usize);
        for (j, &b) in inner_vals.iter().enumerate() {
            if theta.eval(a, b) {
                out.push((oid, j as Oid));
            }
        }
    }
    charge_nl_cost(
        env,
        outer_cands.len() as u64,
        inner.packed_bytes(),
        inner.len() as u64,
        out.len() as u64,
        ledger,
    );
    out
}

fn charge_nl_cost(
    env: &Env,
    outer_n: u64,
    inner_bytes: u64,
    inner_n: u64,
    matches: u64,
    ledger: &mut CostLedger,
) {
    let spec = env.device.spec();
    let comparisons = outer_n.saturating_mul(inner_n);
    let inner_streams = outer_n.div_ceil(OUTER_BLOCK).max(1);
    let bytes = inner_streams * inner_bytes + matches * 8;
    let t = spec.kernel_launch_overhead
        + spec
            .compute_seconds(comparisons)
            .max(spec.stream_seconds(bytes));
    ledger.charge(Component::Device, "join.theta.nl", t, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_device::Env;
    use bwd_storage::BitPackedVec;

    fn arr(env: &Env, width: u32, vals: &[u64]) -> DeviceArray {
        let mut l = CostLedger::new();
        DeviceArray::upload(
            &env.device,
            BitPackedVec::from_slice(width, vals),
            "j",
            &mut l,
        )
        .unwrap()
    }

    #[test]
    fn theta_less_finds_all_pairs() {
        let env = Env::paper_default();
        let a = arr(&env, 4, &[1, 5]);
        let b = arr(&env, 4, &[2, 4, 6]);
        let mut l = CostLedger::new();
        let pairs = theta_join_nl(&env, &a, &b, Theta::Less, &mut l);
        assert_eq!(pairs, vec![(0, 0), (0, 1), (0, 2), (1, 2)]);
        assert!(l.breakdown().device > 0.0);
    }

    #[test]
    fn all_operators() {
        assert!(Theta::Less.eval(1, 2));
        assert!(Theta::LessEq.eval(2, 2));
        assert!(Theta::Greater.eval(3, 2));
        assert!(Theta::GreaterEq.eval(2, 2));
        assert!(Theta::NotEq.eval(1, 2));
        assert!(Theta::Eq.eval(2, 2));
        assert!(!Theta::Eq.eval(1, 2));
    }

    #[test]
    fn candidate_restricted_join() {
        let env = Env::paper_default();
        let a = arr(&env, 4, &[1, 5, 3]);
        let b = arr(&env, 4, &[3]);
        let cands = Candidates {
            oids: vec![2, 0],
            approx: vec![3, 1],
            sorted: false,
            dense: false,
        };
        let mut l = CostLedger::new();
        let pairs = theta_join_nl_on(&env, &a, &cands, &b, Theta::Eq, &mut l);
        assert_eq!(pairs, vec![(2, 0)]);
    }

    #[test]
    fn compute_bound_cost_scales_with_product() {
        let env = Env::paper_default();
        let small = arr(&env, 8, &(0..100u64).collect::<Vec<_>>());
        let big = arr(&env, 8, &(0..200u64).map(|i| i % 256).collect::<Vec<_>>());
        let mut l_small = CostLedger::new();
        let mut l_big = CostLedger::new();
        let _ = theta_join_nl(&env, &small, &small, Theta::NotEq, &mut l_small);
        let _ = theta_join_nl(&env, &big, &big, Theta::NotEq, &mut l_big);
        assert!(l_big.breakdown().device > l_small.breakdown().device);
    }
}
