//! The system-level correctness property: for every supported query, the
//! A&R pipeline produces *bit-identical* results to the classic CPU
//! pipeline, for every decomposition, with and without the pushdown rule.

use proptest::prelude::*;
use waste_not::core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate, RewriteOptions, ScalarExpr};
use waste_not::core::CmpOp;
use waste_not::engine::{ArExecOptions, CandidateRep, Database, ExecMode};
use waste_not::storage::Column;
use waste_not::Value;

fn db_with(vals_a: Vec<i32>, vals_b: Vec<i32>) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        vec![
            ("a".into(), Column::from_i32(vals_a)),
            ("b".into(), Column::from_i32(vals_b)),
        ],
    )
    .unwrap();
    db
}

fn count_sum_plan(pred: Predicate, group: bool) -> LogicalPlan {
    LogicalPlan::scan("t").filter(pred).aggregate(
        if group { vec!["b".into()] } else { vec![] },
        vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
                alias: "n".into(),
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::col("a")),
                alias: "s".into(),
            },
            AggExpr {
                func: AggFunc::Min,
                arg: Some(ScalarExpr::col("a")),
                alias: "lo".into(),
            },
            AggExpr {
                func: AggFunc::Max,
                arg: Some(ScalarExpr::col("a")),
                alias: "hi".into(),
            },
        ],
    )
}

/// For half the picks, a literal at an edge: just past, at, and inside the
/// `i32` domain bounds, and one past and one inside the column's own
/// min/max. `None` (the other half) keeps the random literal.
fn edge_literal(vals: &[i32], pick: usize) -> Option<i64> {
    let min = *vals.iter().min().unwrap() as i64;
    let max = *vals.iter().max().unwrap() as i64;
    let edges = [
        i32::MIN as i64 - 1,
        i32::MIN as i64,
        i32::MAX as i64,
        i32::MAX as i64 + 1,
        min - 1,
        min + 1,
        max - 1,
        max + 1,
    ];
    edges.get(pick.checked_sub(8)?).copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random data, random predicate, random decomposition width: classic
    /// and A&R agree exactly (grouped and global). Either bound may also
    /// be a literal at or past the edge of the `i32` domain or of the
    /// column's own value range.
    #[test]
    fn prop_classic_equals_ar(
        vals in proptest::collection::vec(-50_000i32..50_000, 1..500),
        lo in -60_000i64..60_000,
        span in 0i64..50_000,
        lo_edge in 0usize..16,
        hi_edge in 0usize..16,
        bits in 18u32..=32,
        group in any::<bool>(),
    ) {
        let lo = edge_literal(&vals, lo_edge).unwrap_or(lo);
        let hi = edge_literal(&vals, hi_edge).unwrap_or(lo + span);
        let groups: Vec<i32> = vals.iter().map(|v| v.rem_euclid(7)).collect();
        let mut db = db_with(vals, groups);
        db.bwdecompose("t", "a", bits).unwrap();
        let plan = count_sum_plan(
            Predicate::Between {
                column: "a".into(),
                lo: Value::Int(lo),
                hi: Value::Int(hi),
            },
            group,
        );
        let classic = db.run(&plan, ExecMode::Classic).unwrap();
        let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
        prop_assert_eq!(&classic.rows, &ar.rows);
        prop_assert_eq!(classic.survivors, ar.survivors);
    }

    /// Conjunctions of predicates across decomposed columns, with and
    /// without the pushdown rule.
    #[test]
    fn prop_conjunction_and_pushdown(
        n in 50usize..400,
        seed in any::<u32>(),
        a_cut in 0i64..1000,
        b_cut in 0i64..1000,
        bits_a in 20u32..=32,
        bits_b in 20u32..=32,
    ) {
        let vals_a: Vec<i32> = (0..n).map(|i| ((i as u32).wrapping_mul(seed | 1) % 1000) as i32).collect();
        let vals_b: Vec<i32> = (0..n).map(|i| ((i as u32).wrapping_mul(seed | 3) % 1000) as i32).collect();
        let mut db = db_with(vals_a, vals_b);
        db.bwdecompose("t", "a", bits_a).unwrap();
        db.bwdecompose("t", "b", bits_b).unwrap();
        let pred = Predicate::And(vec![
            Predicate::Cmp { column: "a".into(), op: CmpOp::Lt, value: Value::Int(a_cut) },
            Predicate::Cmp { column: "b".into(), op: CmpOp::Ge, value: Value::Int(b_cut) },
        ]);
        let plan = count_sum_plan(pred, false);
        let classic = db.run(&plan, ExecMode::Classic).unwrap();
        let with = db.bind(&plan, &RewriteOptions { pushdown: true }).unwrap();
        let without = db.bind(&plan, &RewriteOptions { pushdown: false }).unwrap();
        db.auto_bind(&with).unwrap();
        let r_with = db.run_bound(&with, ExecMode::ApproxRefine).unwrap();
        let r_without = db.run_bound(&without, ExecMode::ApproxRefine).unwrap();
        prop_assert_eq!(&classic.rows, &r_with.rows);
        prop_assert_eq!(&classic.rows, &r_without.rows);
    }

    /// Every comparison operator matches the scalar model.
    #[test]
    fn prop_all_comparison_ops(
        vals in proptest::collection::vec(-1000i32..1000, 1..300),
        x in -1200i64..1200,
        op_idx in 0usize..6,
        bits in 20u32..=32,
    ) {
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let op = ops[op_idx];
        let expected = vals.iter().filter(|&&v| {
            let v = v as i64;
            match op {
                CmpOp::Eq => v == x,
                CmpOp::Ne => v != x,
                CmpOp::Lt => v < x,
                CmpOp::Le => v <= x,
                CmpOp::Gt => v > x,
                CmpOp::Ge => v >= x,
            }
        }).count() as i64;
        let groups: Vec<i32> = vals.iter().map(|v| v.rem_euclid(3)).collect();
        let mut db = db_with(vals, groups);
        db.bwdecompose("t", "a", bits).unwrap();
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Cmp { column: "a".into(), op, value: Value::Int(x) })
            .aggregate(vec![], vec![AggExpr { func: AggFunc::Count, arg: None, alias: "n".into() }]);
        let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
        prop_assert_eq!(&ar.rows[0][0], &Value::Int(expected));
    }
}

#[test]
fn figure4_worked_example() {
    // §IV / Figure 4: R(A, B) with A = [8,4,2,1], B = [5,7,1,3];
    // storage A: (31 bit GPU, 1 bit CPU), B: (32 bit GPU);
    // query: select count(*) from R where A < 5 group by B.
    let mut db = Database::new();
    db.create_table(
        "r",
        vec![
            ("a".into(), Column::from_i32(vec![8, 4, 2, 1])),
            ("b".into(), Column::from_i32(vec![5, 7, 1, 3])),
        ],
    )
    .unwrap();
    db.bwdecompose("r", "a", 31).unwrap();
    db.bwdecompose("r", "b", 32).unwrap();
    let plan = LogicalPlan::scan("r")
        .filter(Predicate::Cmp {
            column: "a".into(),
            op: CmpOp::Lt,
            value: Value::Int(5),
        })
        .aggregate(
            vec!["b".into()],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                alias: "count".into(),
            }],
        );
    let classic = db.run(&plan, ExecMode::Classic).unwrap();
    let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
    assert_eq!(ar.rows, classic.rows);
    // Rows with A < 5: (4,7), (2,1), (1,3) -> three groups of count 1,
    // sorted by B: 1, 3, 7.
    assert_eq!(
        ar.rows,
        vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(3), Value::Int(1)],
            vec![Value::Int(7), Value::Int(1)],
        ]
    );
}

#[test]
fn empty_results_and_full_results() {
    let mut db = db_with((0..100).collect(), vec![0; 100]);
    db.bwdecompose("t", "a", 24).unwrap();
    for (lo, hi, expect) in [(1000, 2000, 0i64), (0, 99, 100), (-5, -1, 0)] {
        let plan = count_sum_plan(
            Predicate::Between {
                column: "a".into(),
                lo: Value::Int(lo),
                hi: Value::Int(hi),
            },
            false,
        );
        let classic = db.run(&plan, ExecMode::Classic).unwrap();
        let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
        assert_eq!(classic.rows, ar.rows);
        assert_eq!(ar.rows[0][0], Value::Int(expect));
    }
}

/// Literals outside an `i32` column's domain compare as in SQL: A&R
/// returns Classic's answer under every candidate representation
/// (relaxation clamps the bounds to the domain instead of wrapping them).
#[test]
fn out_of_domain_literals_match_classic_under_every_rep() {
    let mut db = db_with((0..1000).collect(), vec![0; 1000]);
    db.bwdecompose("t", "a", 6).unwrap();
    let past_max = i32::MAX as i64 + 1;
    let cmp = |op, x| Predicate::Cmp {
        column: "a".into(),
        op,
        value: Value::Int(x),
    };
    let cases = [
        (cmp(CmpOp::Le, past_max), 1000),
        (cmp(CmpOp::Ge, i32::MIN as i64 - 1), 1000),
        (
            Predicate::Between {
                column: "a".into(),
                lo: Value::Int(10),
                hi: Value::Int(past_max),
            },
            990,
        ),
    ];
    for (pred, expect) in cases {
        let plan = count_sum_plan(pred, false);
        let classic = db.run(&plan, ExecMode::Classic).unwrap();
        assert_eq!(classic.rows[0][0], Value::Int(expect));
        for rep in [
            CandidateRep::Indices,
            CandidateRep::Bitmap,
            CandidateRep::Auto,
        ] {
            let mode = ExecMode::ApproxRefineWith(ArExecOptions {
                candidates: rep,
                ..Default::default()
            });
            let ar = db.run(&plan, mode).unwrap();
            assert_eq!(ar.rows, classic.rows, "{rep:?}");
        }
    }
}

#[test]
fn arithmetic_expressions_agree() {
    // sum(a * (1 - b)) exercises destructive distributivity handling.
    let mut db = db_with((1..200).collect(), (1..200).map(|i| i % 10).collect());
    db.bwdecompose("t", "a", 24).unwrap();
    let plan = LogicalPlan::scan("t")
        .filter(Predicate::Cmp {
            column: "a".into(),
            op: CmpOp::Le,
            value: Value::Int(150),
        })
        .aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(
                    ScalarExpr::col("a").binary(
                        waste_not::core::plan::BinOp::Mul,
                        ScalarExpr::lit(1i64)
                            .binary(waste_not::core::plan::BinOp::Sub, ScalarExpr::col("b")),
                    ),
                ),
                alias: "s".into(),
            }],
        );
    let classic = db.run(&plan, ExecMode::Classic).unwrap();
    let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
    assert_eq!(classic.rows, ar.rows);
    let expect: i64 = (1..=150).map(|a| a * (1 - a % 10)).sum();
    assert_eq!(ar.rows[0][0], Value::Int(expect));
}
