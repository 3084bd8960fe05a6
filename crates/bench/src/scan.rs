//! Wall-clock benchmark of the packed-domain selection kernel.
//!
//! Sweeps element width × selectivity over one full-relation approximate
//! selection and measures three real implementations of the same scan
//! (identical simulated costs by construction):
//!
//! * **scalar/index** — the reference: bulk-decode every element into a
//!   scratch block, compare one value at a time, push (oid,
//!   approximation) pairs;
//! * **lane/index** — the production kernel
//!   ([`bwd_kernels::scan::select_partition`]) emitting candidate pairs:
//!   the SWAR compare in the packed domain over fixed-lane batches, decode
//!   only for 64-blocks that contain survivors (widths past the SWAR limit
//!   take its one-pass decode-compare-emit path);
//! * **lane/bitmap** — the same kernel filling the match mask directly
//!   (the representation the A&R executor keeps until the gather
//!   boundary).
//!
//! Every cell is checked **bit-identical** across all three paths — the
//! bitmap converted back to the index list through the scan's
//! block-emission order — before its timing is reported.
//! `BENCH_scan.json` (written by `figures -- bench-scan`) is the committed
//! baseline; the CI smoke runs a reduced sweep and fails on any identity
//! violation or on a lane-speedup regression against the committed
//! baseline at the same scale.

use crate::report::Figure;
use bwd_device::{CostLedger, Env};
use bwd_kernels::scan::{select, select_partition};
use bwd_kernels::{DeviceArray, ScanInput, ScanOptions, ScanOut, ScanSrc, SelMask, SelVec};
use bwd_obs::Clock;
use bwd_storage::{mask_count, BitPackedVec, DECODE_BLOCK};
use bwd_types::{Oid, Result, SplitMix64};
use std::fmt::Write as _;
use std::path::Path;

/// Element widths swept: the narrow TPC-H range where SWAR lanes are
/// deep (4–16), the last SWAR width (21) and one scalar-fallback width
/// (24, expected ratio ≈ 1).
pub const WIDTHS: [u32; 6] = [4, 8, 12, 16, 21, 24];

/// Selectivity points swept (fraction of rows the relaxed bounds keep).
pub const SELECTIVITIES: [f64; 5] = [0.001, 0.01, 0.1, 0.5, 0.9];

/// One (width, selectivity) cell's measurements.
#[derive(Debug, Clone)]
pub struct ScanSample {
    /// Element width in bits.
    pub width: u32,
    /// Requested selectivity point.
    pub selectivity: f64,
    /// Matches the bounds actually kept (narrow widths quantize).
    pub matches: usize,
    /// Best wall seconds: scalar decode-and-compare index path.
    pub scalar_index_s: f64,
    /// Best wall seconds: the kernel emitting candidate pairs.
    pub lane_index_s: f64,
    /// Best wall seconds: the kernel filling the match mask.
    pub lane_bitmap_s: f64,
    /// `scalar_index_s / lane_index_s`.
    pub speedup_index: f64,
    /// `scalar_index_s / lane_bitmap_s`.
    pub speedup_bitmap: f64,
}

/// The full sweep plus the identity verdict.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Rows per scanned relation.
    pub rows: usize,
    /// Timed repetitions per cell (best-of is reported).
    pub reps: usize,
    /// Whether every cell's three paths produced identical candidates
    /// (oids, order, approximations).
    pub bit_identical: bool,
    /// One sample per (width, selectivity) cell.
    pub samples: Vec<ScanSample>,
}

impl ScanReport {
    /// Best speedup of the kernel's index output over the scalar index
    /// reference (index against index) among cells with
    /// `width <= max_width` — the headline the baseline guard compares at
    /// widths ≤ 16.
    pub fn best_index_speedup_at_most(&self, max_width: u32) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.width <= max_width)
            .map(|s| s.speedup_index)
            .fold(0.0, f64::max)
    }
}

/// The scalar reference: decode every element a 64-element block at a
/// time and compare it, appending (oid, approximation) pairs.
fn scalar_reference(arr: &DeviceArray, lo: u64, hi: u64, oids: &mut Vec<Oid>, vals: &mut Vec<u64>) {
    let data = arr.data();
    let mut buf = [0u64; DECODE_BLOCK];
    let mut i = 0;
    while i < data.len() {
        let n = (data.len() - i).min(DECODE_BLOCK);
        data.unpack_range(i, &mut buf[..n]);
        for (k, &v) in buf[..n].iter().enumerate() {
            if v >= lo && v <= hi {
                oids.push((i + k) as Oid);
                vals.push(v);
            }
        }
        i += n;
    }
}

fn build_column(env: &Env, width: u32, n: usize) -> DeviceArray {
    let mut rng = SplitMix64::new(0xBEEF ^ u64::from(width));
    let mask = bwd_types::bits::low_mask(width);
    let mut v = BitPackedVec::with_capacity(width, n);
    for _ in 0..n {
        v.push(rng.next_u64() & mask);
    }
    let mut ledger = CostLedger::new();
    DeviceArray::upload(&env.device, v, "bench-scan", &mut ledger)
        .expect("2 GB card fits the bench column")
}

/// Inclusive stored-domain bounds hitting ~`sel` of a uniform
/// `width`-bit column (`lo` offset from 0 so the all-match fast path
/// never fires for sel = 0.9).
fn bounds_for(width: u32, sel: f64) -> (u64, u64) {
    let domain = (width as f64).exp2();
    let span = ((domain * sel).round() as u64).max(1);
    let lo = ((domain as u64).saturating_sub(span)) / 2;
    (lo, lo + span - 1)
}

fn best_of<F: FnMut() -> usize>(reps: usize, mut f: F) -> (f64, usize) {
    let clock = Clock::monotonic();
    let mut best = f64::INFINITY;
    let mut out = 0;
    for _ in 0..reps.max(1) {
        let (o, dt) = clock.time(&mut f);
        out = o;
        best = best.min(dt);
    }
    (best, out)
}

/// Run the sweep: `n` rows per column, `reps` timed repetitions per
/// cell after one warm-up, identity checked on every cell.
pub fn measure(n: usize, reps: usize) -> Result<ScanReport> {
    let env = Env::paper_default();
    let opts = ScanOptions::default();
    let mut samples = Vec::new();
    let mut bit_identical = true;
    for &width in &WIDTHS {
        let arr = build_column(&env, width, n);
        for &sel in &SELECTIVITIES {
            let (lo, hi) = bounds_for(width, sel);
            let mut oids = Vec::new();
            let mut vals = Vec::new();
            // Warm-up + reference output.
            scalar_reference(&arr, lo, hi, &mut oids, &mut vals);
            let matches = oids.len();

            let (scalar_s, _) = best_of(reps, || {
                let mut o = Vec::with_capacity(matches);
                let mut v = Vec::with_capacity(matches);
                scalar_reference(&arr, lo, hi, &mut o, &mut v);
                o.len()
            });
            let src = ScanSrc::Direct(&arr);
            let mut lane_oids = Vec::new();
            let mut lane_vals = Vec::new();
            let (lane_s, _) = best_of(reps, || {
                lane_oids.clear();
                lane_vals.clear();
                lane_oids.reserve(matches);
                lane_vals.reserve(matches);
                let out = ScanOut::Indices {
                    oids: &mut lane_oids,
                    approx: &mut lane_vals,
                };
                select_partition(src, ScanInput::All(0..n), lo, hi, out);
                lane_oids.len()
            });
            let mut words = vec![0u64; n.div_ceil(64)];
            let (mask_s, mask_matches) = best_of(reps, || {
                select_partition(
                    src,
                    ScanInput::All(0..n),
                    lo,
                    hi,
                    ScanOut::Bitmap(&mut words),
                );
                mask_count(&words)
            });

            // Identity: kernel pairs == scalar pairs, and the bitmap
            // converted through the block-emission order == the serial
            // kernel's candidate list.
            bit_identical &= lane_oids == oids && lane_vals == vals;
            bit_identical &= mask_matches == matches;
            let converted = SelMask::from_words(words, n, &opts).to_candidates(src);
            let full = select(
                &env,
                src,
                None,
                lo,
                hi,
                false,
                &opts,
                &mut CostLedger::new(),
            );
            bit_identical &= matches!(full, SelVec::Indices(c) if c == converted);

            samples.push(ScanSample {
                width,
                selectivity: sel,
                matches,
                scalar_index_s: scalar_s,
                lane_index_s: lane_s,
                lane_bitmap_s: mask_s,
                speedup_index: scalar_s / lane_s,
                speedup_bitmap: scalar_s / mask_s,
            });
        }
    }
    Ok(ScanReport {
        rows: n,
        reps: reps.max(1),
        bit_identical,
        samples,
    })
}

/// Render the sweep as a console figure (throughputs in Melem/s).
pub fn figure(report: &ScanReport) -> Figure {
    let mut fig = Figure::new(
        "bench-scan",
        format!(
            "Packed-domain selection wall clock ({} rows, best of {})",
            report.rows, report.reps
        ),
        "width x selectivity",
        vec![
            "scalar Melem/s",
            "lane Melem/s",
            "lane-bmp Melem/s",
            "lane/scalar idx",
            "lane/scalar bmp",
        ],
    );
    // Throughputs and ratios, not seconds.
    fig.raw_units = true;
    let round2 = |v: f64| (v * 100.0).round() / 100.0;
    let melems = |s: f64| round2(report.rows as f64 / s / 1e6);
    for s in &report.samples {
        fig.push(
            format!("w{:02} {:>5.1}%", s.width, s.selectivity * 100.0),
            vec![
                melems(s.scalar_index_s),
                melems(s.lane_index_s),
                melems(s.lane_bitmap_s),
                round2(s.speedup_index),
                round2(s.speedup_bitmap),
            ],
        );
    }
    fig.note(format!(
        "bit-identical across scalar/lane index/lane bitmap paths: {}",
        report.bit_identical
    ));
    fig.note(format!(
        "best lane/scalar index speedup at widths <= 16: {:.2}x",
        report.best_index_speedup_at_most(16)
    ));
    fig
}

/// Fail unless every cell was bit-identical (the CI smoke gate).
pub fn check(report: &ScanReport) -> Result<()> {
    if !report.bit_identical {
        return Err(bwd_types::BwdError::Exec(
            "bench-scan: lane index/bitmap paths were NOT bit-identical to the scalar path".into(),
        ));
    }
    Ok(())
}

/// Serialize the baseline as JSON (hand-rolled; no serde in this
/// environment).
pub fn to_json(report: &ScanReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"packed_domain_scan\",");
    let _ = writeln!(s, "  \"rows\": {},", report.rows);
    let _ = writeln!(s, "  \"reps\": {},", report.reps);
    let _ = writeln!(s, "  \"bit_identical\": {},", report.bit_identical);
    let _ = writeln!(
        s,
        "  \"best_lane_index_over_scalar_w16\": {:.4},",
        report.best_index_speedup_at_most(16)
    );
    let _ = writeln!(s, "  \"samples\": [");
    for (i, m) in report.samples.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"width\": {}, \"selectivity\": {}, \"matches\": {}, \"scalar_index_s\": {:.9}, \"lane_index_s\": {:.9}, \"lane_bitmap_s\": {:.9}, \"speedup_index\": {:.4}, \"speedup_bitmap\": {:.4}}}{}",
            m.width,
            m.selectivity,
            m.matches,
            m.scalar_index_s,
            m.lane_index_s,
            m.lane_bitmap_s,
            m.speedup_index,
            m.speedup_bitmap,
            if i + 1 < report.samples.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Write `BENCH_scan.json` at `path`.
pub fn write_json(report: &ScanReport, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, to_json(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_bit_identical_and_serializes() {
        let report = measure(30_000, 1).unwrap();
        assert!(report.bit_identical);
        assert!(check(&report).is_ok());
        assert_eq!(report.samples.len(), WIDTHS.len() * SELECTIVITIES.len());
        let json = to_json(&report);
        assert!(json.contains("\"bench\": \"packed_domain_scan\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"best_lane_index_over_scalar_w16\""));
        assert!(json.contains("\"lane_index_s\""));
        let fig = figure(&report);
        assert_eq!(fig.rows.len(), report.samples.len());
        // Lane ratios exist for every cell and are finite.
        for s in &report.samples {
            assert!(s.speedup_index.is_finite() && s.speedup_index > 0.0);
            assert!(s.speedup_bitmap.is_finite() && s.speedup_bitmap > 0.0);
        }
    }

    #[test]
    fn bounds_hit_requested_selectivity_roughly() {
        for &w in &[8u32, 16] {
            for &sel in &[0.01, 0.5, 0.9] {
                let (lo, hi) = bounds_for(w, sel);
                let got = (hi - lo + 1) as f64 / (w as f64).exp2();
                assert!((got - sel).abs() < 0.01 + 1.0 / (w as f64).exp2());
            }
        }
    }
}
