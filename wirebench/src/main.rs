//! `wirebench` — the wire-to-result benchmark of the waste-not server.
//!
//! One command loads seeded data, serves it through `NetServer` on
//! loopback TCP with the default scheduler and network configuration,
//! drives it from a single-threaded load generator in this process,
//! checks every answer against an oracle computed outside the served
//! path, and prints every metric by name with its unit. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload tpch-closed --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path wirebench/Cargo.toml -- --self-test
//! cargo run --release --manifest-path wirebench/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! Workloads (`--workload`):
//!
//! * `tpch-closed` — two closed-loop clients send a seeded batch of
//!   Q1, Q6 and Q14 (one each per cycle) as SQL in A&R mode over TPC-H
//!   SF 0.01. Short class: Q6, Q14. Long class: Q1.
//! * `probe-open` — A&R point probes (`a = K`) and range probes
//!   (`a between L and H`, log-uniform selectivity) over a 400k-row table.
//!   Two closed-loop clients first send a batch, which measures the
//!   capacity; then one pipelined connection sends open-loop probes at a
//!   ladder of fixed rates. Short class: point probes. Long class: range
//!   probes.
//! * `fig11-interference` — one closed-loop client repeats Classic Q1
//!   (long class) while a second closed-loop client sends a batch of A&R
//!   probes (short class); both tables are loaded.
//!
//! Every run is a fixed amount of work per seed, sized from `--seconds`
//! so that it lasts about that long on the machine the sizes were
//! measured on (see `workload.rs`).
//!
//! `--trace 0` prints the end-to-end metrics (tracing off); `--trace 1`
//! runs the same load with scheduler tracing on, then a sequential layer
//! probe, and prints the per-layer metrics. Each run also writes its
//! result, with the machine fingerprint, code revision and seed, to
//! `wirebench/out/`, and a traced run writes a Chrome trace of the
//! benchmark's own spans there.

mod fingerprint;
mod layers;
mod loadgen;
mod report;
mod selftest;
mod setup;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::Report;
use setup::{Scale, SetupTimes};
use workload::Workload;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: wirebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n\
         \x20      wirebench --self-test\n\
         \x20      wirebench --compare <result.json> <result.json>",
        names.join("|")
    )
}

/// The repository root this benchmark builds and measures.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark lives in a repository subdirectory")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => return selftest::run(),
        Some("--compare") if args.len() == 3 => return report::compare(&args[1], &args[2]),
        Some(SETUP_ONCE) => return setup_once(&args[1..]),
        _ => {}
    }
    let run = match parse_run(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("wirebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = execute(&run);
    report.print();
    if let Err(e) = report.save(&repo_root().join("wirebench").join("out")) {
        eprintln!("wirebench: could not write the result file: {e}");
    }
    println!("{}", report.contract_json());
    ExitCode::SUCCESS
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::FULL,
    })
}

/// Times the set-up is repeated, half before and half after the load;
/// `setup_s` is the median. On a shared machine the speed of a set-up
/// drifts by up to 25% over a few seconds, so the set-ups sample two
/// moments of the run.
pub const SETUP_REPS: usize = 32;
/// The hidden mode in which a child process times one set-up.
const SETUP_ONCE: &str = "--setup-once";

/// Set up, warm up, measure, and — when traced — probe the layers.
pub fn execute(run: &RunArgs) -> Report {
    let oracle = setup::Oracle::new(run.workload, run.seed, run.scale);
    let mut setups: Vec<SetupTimes> = (0..SETUP_REPS / 2).map(|_| timed_setup(run)).collect();
    let (mut served, _) = setup::build(run.workload, run.seed, run.scale, run.trace);
    let oracle = oracle.with_tpch(run.workload, &served.db);
    // Requests still unanswered by then count as failed.
    let deadline = Instant::now() + Duration::from_secs_f64(3.0 * run.seconds + 30.0);

    let warm = workload::warmup(run.workload, run.seed, &oracle);
    let warm_log = loadgen::drive(served.addr, &warm, deadline);
    if run.trace {
        // Keep only the measured load's traces for the per-layer figures.
        let server = served.pause();
        server.scheduler().drain_traces();
        served.resume(server);
    }
    let (mut streams, mut log) = (Vec::new(), None);
    for phase in workload::phases(run.workload, run.seed, run.seconds, &oracle) {
        let later = loadgen::drive(served.addr, &phase, deadline);
        match &mut log {
            None => log = Some(later),
            Some(log) => log.append(later, streams.len()),
        }
        streams.extend(phase);
    }
    let log = log.expect("every workload has a phase");
    let mut report = Report::new(run, &warm_log, &streams, &log);
    if run.trace {
        layers::measure(&mut served, &streams, &log, &mut report);
    }
    shutdown(served);
    setups.extend((SETUP_REPS / 2..SETUP_REPS).map(|_| timed_setup(run)));

    report.set_ups(&setups);
    report.finish();
    report
}

/// One set-up, timed in a fresh child process, which starts from a cold
/// heap as a server start does. Set-ups repeated in one process either
/// reuse the heap an earlier one freed or fault it in afresh, depending on
/// the allocator's state, which moved their median by up to 40% between
/// runs.
fn timed_setup(run: &RunArgs) -> SetupTimes {
    let started_us = report::since_epoch_us(Instant::now());
    let exe = std::env::current_exe().expect("path of this program");
    let out = Command::new(exe)
        .args([
            SETUP_ONCE.to_string(),
            run.workload.name().to_string(),
            run.seed.to_string(),
            run.scale.tpch_sf.to_string(),
            run.scale.probe_rows.to_string(),
            u8::from(run.trace).to_string(),
        ])
        .output()
        .expect("start the set-up process");
    let text = String::from_utf8_lossy(&out.stdout);
    let t: Vec<f64> = text
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    assert!(
        out.status.success() && t.len() == 4,
        "set-up process failed: {} {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    SetupTimes {
        gen: t[0],
        load: t[1],
        decompose: t[2],
        serve: t[3],
        started_us,
    }
}

/// `--setup-once <workload> <seed> <tpch_sf> <probe_rows> <trace>`: time
/// one set-up, print its phases in seconds and stop the server.
fn setup_once(args: &[String]) -> ExitCode {
    let parsed = (|| {
        let [w, seed, sf, rows, trace] = args else {
            return None;
        };
        let scale = Scale {
            tpch_sf: sf.parse().ok()?,
            probe_rows: rows.parse().ok()?,
        };
        Some((
            Workload::from_name(w)?,
            seed.parse().ok()?,
            scale,
            trace == "1",
        ))
    })();
    let Some((workload, seed, scale, trace)) = parsed else {
        eprintln!("wirebench: bad {SETUP_ONCE} arguments");
        return ExitCode::from(2);
    };
    let (served, t) = setup::build(workload, seed, scale, trace);
    shutdown(served);
    println!("{} {} {} {}", t.gen, t.load, t.decompose, t.serve);
    ExitCode::SUCCESS
}

fn shutdown(served: setup::Served) {
    served.stop().into_scheduler().shutdown();
}
