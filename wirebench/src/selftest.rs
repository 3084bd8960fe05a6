//! `--self-test`: the benchmark checks itself at smoke scale.
//!
//! * Every metric `BENCHMARK.json` names is printed, with its unit, by
//!   every workload: end-to-end ones untraced, per-layer ones traced.
//! * A deliberately corrupted reference answer is caught as a failure.
//! * `sim_ms_per_query` repeats bit for bit for one seed, differs across
//!   seeds, and equals the same mean computed in-process with
//!   `run_bound` — so it depends on the generated inputs only, not on
//!   serving, timing or concurrency.
//! * A traced run's Chrome trace is well-formed.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use waste_not::obs::chrome::validate_chrome_trace;
use waste_not::obs::json::{self, JsonValue};
use waste_not::Value;

use crate::loadgen::{self, Status};
use crate::report::{Metric, Report};
use crate::setup::{self, Oracle, Scale};
use crate::workload::{self, Workload};
use crate::RunArgs;

const SMOKE_SECONDS: f64 = 1.0;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    let mut r = crate::execute(&RunArgs {
        workload,
        seed,
        seconds: SMOKE_SECONDS,
        trace,
        scale: Scale::SMOKE,
    });
    // Smoke runs are too short for tail percentiles to be meaningful.
    r.invalid.clear();
    r
}

/// `(name, unit)` of every metric a `BENCHMARK.json` list names, sorted.
fn spec(doc: &JsonValue, list: &str) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = doc
        .get(list)
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect();
    v.sort();
    v
}

/// The metrics of the result line, parsed back from its JSON text, sorted.
fn printed(report: &Report) -> Vec<(String, String)> {
    let line = json::parse(&report.contract_json()).expect("result line is JSON");
    let mut v: Vec<(String, String)> = match line.get("metrics") {
        Some(JsonValue::Obj(kv)) => kv
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect(),
        _ => Vec::new(),
    };
    v.sort();
    v
}

fn sim_of(report: &Report) -> f64 {
    let m: &Metric = report
        .end_to_end
        .iter()
        .find(|m| m.name == "sim_ms_per_query")
        .expect("sim_ms_per_query reported");
    m.value
}

pub fn run() -> ExitCode {
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures.push(what);
        }
    };

    let spec_path = crate::repo_root().join("BENCHMARK.json");
    let doc = std::fs::read_to_string(&spec_path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t));
    let doc = match doc {
        Ok(d) => d,
        Err(e) => {
            println!("FAIL cannot read {}: {e}", spec_path.display());
            return ExitCode::FAILURE;
        }
    };

    // 1. Every named metric, with its unit, on every workload.
    for w in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = smoke(w, 1, trace);
            check(
                r.correct(),
                format!(
                    "{} trace={} answers are all correct",
                    w.name(),
                    u8::from(trace)
                ),
            );
            check(
                printed(&r) == spec(&doc, list),
                format!("{} trace={} prints exactly the {list} metrics of BENCHMARK.json with their units", w.name(), u8::from(trace)),
            );
            let finite = r
                .end_to_end
                .iter()
                .chain(&r.per_layer)
                .all(|m| m.value.is_finite());
            check(
                finite,
                format!("{} trace={} metrics are finite", w.name(), u8::from(trace)),
            );
            if trace {
                let chrome = validate_chrome_trace(&r.chrome_trace());
                check(
                    matches!(chrome, Ok(n) if n > 1),
                    format!(
                        "{} Chrome trace is well-formed ({chrome:?} events)",
                        w.name()
                    ),
                );
            } else {
                // 3. sim_ms_per_query is a pure function of the seed.
                let again = smoke(w, 1, false);
                check(
                    sim_of(&r).to_bits() == sim_of(&again).to_bits(),
                    format!(
                        "{} sim_ms_per_query repeats bit for bit for one seed ({})",
                        w.name(),
                        sim_of(&r)
                    ),
                );
                let other = smoke(w, 2, false);
                check(
                    sim_of(&r) != sim_of(&other),
                    format!(
                        "{} sim_ms_per_query differs across seeds ({} vs {})",
                        w.name(),
                        sim_of(&r),
                        sim_of(&other)
                    ),
                );
                let direct = in_process_sim(w, 1);
                check(
                    direct.to_bits() == sim_of(&r).to_bits(),
                    format!(
                        "{} sim_ms_per_query equals the in-process run_bound mean ({direct})",
                        w.name()
                    ),
                );
            }
        }
    }

    // 2. A corrupted reference is caught.
    for w in Workload::ALL {
        let (wrong, failed, total) = corrupted_reference_is_caught(w);
        check(
            wrong == 1 && failed == 1,
            format!("{} counts a corrupted reference as the one failure of {total} ({wrong} wrong, {failed} failed)", w.name()),
        );
    }

    if failures.is_empty() {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        println!("self-test FAILED: {} check(s)", failures.len());
        ExitCode::FAILURE
    }
}

/// Set up at smoke scale, corrupt the expected answer of the first
/// request, drive the batch once and count the failures the benchmark
/// reports: `(wrong answers, failures, requests)`.
fn corrupted_reference_is_caught(w: Workload) -> (usize, usize, usize) {
    let (served, _) = setup::build(w, 7, Scale::SMOKE, false);
    let oracle = Oracle::new(w, 7, Scale::SMOKE).with_tpch(w, &served.db);
    let mut streams = workload::phases(w, 7, SMOKE_SECONDS, &oracle).remove(0);
    // The first phase's last stream is a batch: its first request is sent
    // exactly once.
    let last = streams.len() - 1;
    let first = &mut streams[last].requests[0];
    first.expect[0][0] = match &first.expect[0][0] {
        Value::Int(v) => Value::Int(v + 1),
        _ => Value::Str("corrupted".into()),
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let log = loadgen::drive(served.addr, &streams, deadline);
    served.stop().into_scheduler().shutdown();
    let wrong = log
        .outcomes
        .iter()
        .filter(|o| o.status == Status::Wrong)
        .count();
    let failed = log
        .outcomes
        .iter()
        .filter(|o| o.status != Status::Ok)
        .count();
    (wrong, failed, log.outcomes.len())
}

/// `sim_ms_per_query` computed without the server: the same seeded batch
/// run sequentially through in-process `run_bound`.
fn in_process_sim(w: Workload, seed: u64) -> f64 {
    let (served, _) = setup::build(w, seed, Scale::SMOKE, false);
    let oracle = Oracle::new(w, seed, Scale::SMOKE).with_tpch(w, &served.db);
    let streams: Vec<_> = workload::phases(w, seed, SMOKE_SECONDS, &oracle)
        .into_iter()
        .flatten()
        .collect();
    let mut sum = 0.0;
    let mut n = 0usize;
    for r in streams.iter().flat_map(|s| &s.requests) {
        let plan = setup::plan_of(&served.db, &r.sql);
        let result = served
            .db
            .run_bound(&plan, r.mode.exec_mode())
            .expect("in-process run");
        sum += result.breakdown.total() * 1e3;
        n += 1;
    }
    served.stop().into_scheduler().shutdown();
    sum / n as f64
}
