//! "Waste not": the approximation subplan is self-contained, so a query
//! can serve an *approximate answer early* and refine it afterwards at no
//! extra cost (§III). This example also demonstrates the A&R extremum
//! machinery (Figure 6) and the §III-A pushdown ablation.
//!
//! ```text
//! cargo run --release --example approximate_first
//! ```

use waste_not::core::ops::{extremum_approx, extremum_refine, Extremum};
use waste_not::core::plan::RewriteOptions;
use waste_not::core::{classify_granule, CmpOp, GranuleMatch, RangePred};
use waste_not::core::{ops::select::select_approx, BoundColumn};
use waste_not::device::{CostLedger, Env};
use waste_not::engine::{ArExecOptions, ExecMode};
use waste_not::kernels::ScanOptions;
use waste_not::storage::{Column, DecomposedColumn, DecompositionSpec};
use waste_not::types::DataType;
use waste_not::{Db, Result};

fn main() -> Result<()> {
    approximate_answer_first()?;
    figure6_min_with_false_positives()?;
    pushdown_ablation()?;
    Ok(())
}

/// A dashboard-style query that shows its candidate count long before the
/// exact answer lands.
fn approximate_answer_first() -> Result<()> {
    println!("--- approximate answer first ---");
    let n = 2_000_000i64;
    let mut db = Db::new();
    db.create_table(
        "events",
        vec![(
            "severity".into(),
            Column::from_i32((0..n).map(|i| ((i * 40_503) % 1_000_000) as i32).collect()),
        )],
    )?;
    // Coarse decomposition: 16 device bits -> larger granules, faster
    // residence, more refinement work.
    db.sql("select bwdecompose(severity, 16) from events")?;

    let out = db.sql_mode(
        "select count(*) from events where severity >= 990000",
        ExecMode::ApproxRefineWith(ArExecOptions {
            approximate_answer: true,
            ..Default::default()
        }),
    )?;
    let q = out.query().unwrap();
    let approx = q.approx.as_ref().unwrap();
    println!(
        "after {:.3} ms (device only): at most {} events match",
        approx.breakdown.total() * 1e3,
        approx.candidate_count
    );
    println!(
        "after {:.3} ms (refined):     exactly {} events match\n",
        q.breakdown.total() * 1e3,
        q.rows[0][0]
    );
    Ok(())
}

/// Figure 6: the tuple with the minimal *approximate* value is a selection
/// false positive; the candidate-set construction still finds the true
/// minimum.
fn figure6_min_with_false_positives() -> Result<()> {
    println!("--- Figure 6: min() under approximation ---");
    let env = Env::paper_default();
    // x: selection column, y: aggregated column (granule = 4 payloads).
    let x_vals: Vec<i64> = vec![4, 5, 7, 8, 9, 12];
    let y_vals: Vec<i64> = vec![90, 2, 50, 60, 70, 80];
    let mut load = CostLedger::new();
    let bind = |vals: &[i64], load: &mut CostLedger| -> Result<BoundColumn> {
        BoundColumn::bind(
            DecomposedColumn::decompose(
                vals,
                DataType::Int32,
                &DecompositionSpec::with_device_bits(30),
            )?,
            &env.device,
            "fig6",
            load,
        )
    };
    let x = bind(&x_vals, &mut load)?;
    let y = bind(&y_vals, &mut load)?;

    // Precise query: select min(y) from r where x > 6.
    let range = RangePred::from_cmp(CmpOp::Gt, 6).unwrap();
    let mut ledger = CostLedger::new();
    let cands = select_approx(&env, &x, None, &range, &ScanOptions::default(), &mut ledger);
    println!(
        "relaxed selection candidates: {:?} (x=5 at oid 1 is a false positive with the smallest y)",
        cands.oids
    );
    let x_meta = *x.meta();
    let stored = cands.approx.clone();
    let is_certain =
        move |i: usize| classify_granule(&x_meta, stored[i], &range) == GranuleMatch::Certain;
    let min_cands = extremum_approx(&env, &y, &cands, &is_certain, Extremum::Min, &mut ledger);
    println!("extremum candidate set: {:?}", min_cands.oids);
    let survives = |oid| range.test(x.reconstruct(oid));
    let m = extremum_refine(&env, &y, &min_cands, &survives, Extremum::Min, &mut ledger);
    println!(
        "refined min(y) = {:?} (naive approximate min would be 2)\n",
        m.unwrap()
    );
    Ok(())
}

/// §III-A: chaining approximate selections below the refinements saves a
/// PCI-E round trip per predicate.
fn pushdown_ablation() -> Result<()> {
    println!("--- rule-based pushdown ablation ---");
    let n = 2_000_000i64;
    let mut db = Db::new();
    db.create_table(
        "m",
        vec![
            (
                "a".into(),
                Column::from_i32((0..n).map(|i| (i % 1_000_003) as i32).collect()),
            ),
            (
                "b".into(),
                Column::from_i32((0..n).map(|i| ((i * 7) % 999_983) as i32).collect()),
            ),
            (
                "c".into(),
                Column::from_i32((0..n).map(|i| ((i * 13) % 999_979) as i32).collect()),
            ),
        ],
    )?;
    for col in ["a", "b", "c"] {
        db.bwdecompose("m", col, 24)?;
    }
    let sql = "select count(*) from m where a < 500000 and b < 400000 and c < 300000";
    let stmt = waste_not::sql::parse(sql)?;
    let waste_not::sql::BoundStatement::Query(logical) = waste_not::sql::bind(&stmt, db.catalog())?
    else {
        unreachable!()
    };
    let with = db.bind(&logical, &RewriteOptions { pushdown: true })?;
    let without = db.bind(&logical, &RewriteOptions { pushdown: false })?;
    let r_with = db.run_bound(&with, ExecMode::ApproxRefine)?;
    let r_without = db.run_bound(&without, ExecMode::ApproxRefine)?;
    assert_eq!(r_with.rows, r_without.rows);
    println!("with pushdown:    {}", r_with.breakdown);
    println!("without pushdown: {}", r_without.breakdown);
    println!(
        "pushdown saves {:.2}x (mostly PCI-E round trips: {:.3} ms vs {:.3} ms)",
        r_without.breakdown.total() / r_with.breakdown.total(),
        r_with.breakdown.pcie * 1e3,
        r_without.breakdown.pcie * 1e3,
    );
    Ok(())
}
