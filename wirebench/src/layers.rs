//! Per-layer metrics of a traced run.
//!
//! Three sources, all read from outside the program:
//!
//! 1. The load itself ran with scheduler tracing on; its per-job
//!    `QueryTrace`s (`Scheduler::drain_traces`) and `metrics_snapshot()`
//!    give the `sched` figures under the workload's own concurrency.
//! 2. The load generator's log gives the `net` and `device` figures.
//! 3. A sequential layer probe on the idle server, for sample requests
//!    of every query kind. Each sample goes over the wire after a `Ping`
//!    round trip (wire and reactor); the server's trace of that same
//!    execution gives its submit → resolve span and engine phases. Then
//!    each layer's public entry point is timed in process on the same
//!    request: frame encode and decode, `parse`, `bind`,
//!    `Database::bind` (the rewrite), `estimate_latency` (which every
//!    submission runs), a traced and an untraced `Session`
//!    submit → resolve, and `run_bound` on both pipes.
//!
//! The probe checks that the layer times tile the client round trip:
//! ping + codec + parse + bind + rewrite + the scheduler's estimate + the
//! server-side query span should add up to the round trip within
//! [`TILING_EPSILON`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use waste_not::core::plan::RewriteOptions;
use waste_not::net::{Frame, FrameDecoder};
use waste_not::obs::{EventKind, QueryTrace, SpanNode};
use waste_not::sched::{estimate_latency, EstimateConfig, SubmitOptions};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::{ExecMode, QueryResult};

use crate::loadgen::{RunLog, Status};
use crate::report::{Metric, Report, Span};
use crate::setup::Served;
use crate::stats::{median, percentile};
use crate::workload::{Class, Kind, Request, Stream};

/// Sample requests per query kind in the layer probe.
const SAMPLES_PER_KIND: usize = 4;
/// Largest accepted share of the round trip that the layer times leave
/// unexplained (median over a class's samples).
pub const TILING_EPSILON: f64 = 0.2;

/// A blocking client for sequential round trips: blocking reads let the
/// thread sleep in the kernel instead of spinning beside the server.
struct Blocking {
    sock: TcpStream,
    decoder: FrameDecoder,
}

impl Blocking {
    fn connect(addr: std::net::SocketAddr) -> Blocking {
        let sock = TcpStream::connect(addr).expect("connect");
        sock.set_nodelay(true).expect("nodelay");
        Blocking {
            sock,
            decoder: FrameDecoder::new(),
        }
    }

    fn round_trip(&mut self, frame: &Frame) -> (Frame, Duration) {
        let bytes = frame.encode();
        let start = Instant::now();
        self.sock.write_all(&bytes).expect("send");
        let mut buf = [0u8; 16 << 10];
        loop {
            if let Some(f) = self.decoder.next().expect("well-formed response") {
                return (f, start.elapsed());
            }
            let n = self.sock.read(&mut buf).expect("receive");
            assert!(n > 0, "server closed the connection");
            self.decoder.feed(&buf[..n]);
        }
    }
}

/// Wall times of one sample request, per layer, in seconds.
#[derive(Debug, Default, Clone)]
struct Sample {
    /// `Ping` round trip just before the request: wire and reactor.
    ping: f64,
    /// The request's client round trip.
    wire: f64,
    /// The same execution's server-side query span, submit → resolve.
    server: f64,
    /// Its queue wait and worker occupancy.
    queue: f64,
    exec: f64,
    /// Its engine phases.
    approx_select: f64,
    approx_rows_in: u64,
    approx_out: u64,
    refine: f64,
    gather: f64,
    group_agg: f64,
    survivors: u64,
    /// In-process re-runs of the same request.
    codec: f64,
    parse: f64,
    bind: f64,
    rewrite: f64,
    /// The scheduler's latency estimate, made on every submission.
    estimate: f64,
    exec_traced: f64,
    exec_untraced: f64,
    run_ar: f64,
    run_classic: f64,
}

impl Sample {
    /// The server's own work on the request: `Session::submit_sql`'s
    /// parse, bind, rewrite and estimate, then the query span to resolve.
    fn session(&self) -> f64 {
        self.parse + self.bind + self.rewrite + self.estimate + self.server
    }

    /// Share of the round trip the layer times leave unexplained: ping +
    /// codec + the server's session work.
    fn residual(&self) -> f64 {
        (self.wire - self.ping - self.codec - self.session()).abs() / self.wire
    }
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn us(s: f64) -> f64 {
    s * 1e6
}

pub fn measure(served: &mut Served, streams: &[Stream], log: &RunLog, report: &mut Report) {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str, note: String| {
        out.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        })
    };

    // 1. The scheduler's view of the load.
    let server = served.pause();
    let jobs = server.scheduler().drain_traces();
    let snapshot = server.scheduler().metrics_snapshot();
    served.resume(server);
    let (mut waits, mut execs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut exec_sum, mut sim_sum) = (0.0, 0.0);
    for job in &jobs {
        let roots = job.trace.roots();
        let Some(query) = roots.iter().find(|n| n.kind == EventKind::Query) else {
            continue;
        };
        let Some(end) = query.end else { continue };
        let (est, actual) = (f64::from_bits(end.a), f64::from_bits(end.b));
        if actual > 0.0 {
            ratios.push(est / actual);
        }
        if let Some(q) = find(query, EventKind::Queue) {
            waits.push(ms(q.end.map_or(0.0, |e| f64::from_bits(e.a))));
        }
        if let Some(x) = find(query, EventKind::Exec) {
            execs.push(ms(x.wall_seconds()));
            exec_sum += x.wall_seconds();
            sim_sum += actual;
        }
    }
    let n_jobs = format!("{} traced jobs of the load", jobs.len());
    put(
        "sched.queue_wait_p50_ms",
        median(&waits),
        "ms",
        n_jobs.clone(),
    );
    put(
        "sched.queue_wait_p99_ms",
        percentile(&waits, 99.0),
        "ms",
        n_jobs.clone(),
    );
    put("sched.exec_p50_ms", median(&execs), "ms", n_jobs.clone());
    put(
        "sched.est_over_actual",
        median(&ratios),
        "ratio",
        format!("median estimate / actual simulated time, {n_jobs}"),
    );
    for (name, key) in [
        ("sched.preemptions", "bwd_sched_preemptions_total"),
        ("sched.retries", "bwd_sched_retries_total"),
        ("sched.errors", "bwd_sched_errors_total"),
    ] {
        put(
            name,
            counter(&snapshot, key),
            "count",
            format!("{key} from metrics_snapshot()"),
        );
    }
    put(
        "engine.wall_per_sim",
        exec_sum / sim_sum,
        "ratio",
        format!("exec wall / simulated time, {n_jobs}"),
    );

    // 2. The generator's view of the load.
    let sent = log.outcomes.len() as u64 + log.busy_frames;
    put(
        "net.busy_ratio",
        log.busy_frames as f64 / sent.max(1) as f64,
        "ratio",
        format!("Busy frames over {sent} request frames"),
    );
    put(
        "net.response_bytes",
        log.bytes_in as f64 / log.responses.max(1) as f64,
        "bytes",
        format!("mean over {} response frames", log.responses),
    );
    let ok: Vec<_> = log
        .outcomes
        .iter()
        .filter(|o| o.status == Status::Ok)
        .collect();
    let per_query = |f: &dyn Fn(&crate::loadgen::Outcome) -> f64| {
        ok.iter().map(|o| f(o)).sum::<f64>() / ok.len().max(1) as f64
    };
    let n_ok = format!("mean over {} answers of the load", ok.len());
    put(
        "device.pcie_bytes_per_query",
        per_query(&|o| o.traffic.map_or(0, |t| t.pcie) as f64),
        "bytes",
        n_ok.clone(),
    );
    put(
        "device.device_bytes_per_query",
        per_query(&|o| o.traffic.map_or(0, |t| t.device) as f64),
        "bytes",
        n_ok.clone(),
    );
    put(
        "device.host_bytes_per_query",
        per_query(&|o| o.traffic.map_or(0, |t| t.host) as f64),
        "bytes",
        n_ok.clone(),
    );
    put(
        "device.sim_device_ms",
        per_query(&|o| ms(o.breakdown.map_or(0.0, |b| b.device))),
        "ms",
        n_ok.clone(),
    );
    put(
        "device.sim_host_ms",
        per_query(&|o| ms(o.breakdown.map_or(0.0, |b| b.host))),
        "ms",
        n_ok.clone(),
    );
    put(
        "device.sim_pcie_ms",
        per_query(&|o| ms(o.breakdown.map_or(0.0, |b| b.pcie))),
        "ms",
        n_ok,
    );

    // Storage and set-up.
    let stored: u64 = served
        .reports
        .iter()
        .map(|r| r.device_bytes + r.host_bytes)
        .sum();
    let plain: u64 = served.reports.iter().map(|r| r.plain_bytes).sum();
    put(
        "storage.bytes_per_user_byte",
        stored as f64 / plain as f64,
        "ratio",
        format!(
            "device+host / plain over {} decomposed columns",
            served.reports.len()
        ),
    );
    // 3. The sequential layer probe.
    let picks: Vec<(Class, &Request)> = Class::ALL
        .into_iter()
        .flat_map(|c| pick_samples(streams, c).into_iter().map(move |r| (c, r)))
        .collect();
    let mut problems = Vec::new();
    // 3a. Over the wire, one request at a time.
    let mut client = Blocking::connect(served.addr);
    let mut wire: Vec<Sample> = picks
        .iter()
        .map(|(_, req)| over_the_wire(&mut client, req, report, &mut problems))
        .collect();
    // 3b. The server's trace of those same executions; the requests ran
    // one after another, so completion order is send order.
    let server = served.pause();
    let wire_jobs = server.scheduler().drain_traces();
    served.resume(server);
    if wire_jobs.len() == wire.len() {
        for (s, job) in wire.iter_mut().zip(&wire_jobs) {
            server_side(&job.trace, s);
        }
    } else {
        problems.push(format!(
            "{} traces for {} probe requests",
            wire_jobs.len(),
            wire.len()
        ));
    }
    // 3c. In process, layer by layer.
    for (s, (_, req)) in wire.iter_mut().zip(&picks) {
        if let Err(e) = in_process(served, req, s, report) {
            problems.push(e);
        }
    }
    let all: Vec<&Sample> = wire.iter().collect();
    let col = |f: &dyn Fn(&Sample) -> f64| all.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let n_all = format!("median of {} probe samples", all.len());
    put(
        "net.ping_p50_us",
        median(&col(&|s| us(s.ping))),
        "us",
        n_all.clone(),
    );
    put(
        "net.overhead_p50_ms",
        median(&col(&|s| ms(s.wire - s.session()))),
        "ms",
        format!("round trip minus the session's submit->resolve of the same execution, {n_all}"),
    );
    put(
        "sql.parse_us",
        median(&col(&|s| us(s.parse))),
        "us",
        n_all.clone(),
    );
    put(
        "sql.bind_us",
        median(&col(&|s| us(s.bind))),
        "us",
        n_all.clone(),
    );
    let traced: f64 = col(&|s| s.exec_traced).iter().sum();
    let untraced: f64 = col(&|s| s.exec_untraced).iter().sum();
    put(
        "obs.trace_overhead",
        traced / untraced,
        "ratio",
        format!("traced / untraced exec wall, {} samples", all.len()),
    );
    let mut worst_tiling: f64 = 0.0;
    for class in Class::ALL {
        let samples: Vec<&Sample> = wire
            .iter()
            .zip(&picks)
            .filter(|(_, (c, _))| *c == class)
            .map(|(s, _)| s)
            .collect();
        let c = class.name();
        let col = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(|s| f(s)).collect::<Vec<f64>>();
        let n = format!("median of {} {c} samples", samples.len());
        put(
            &format!("core.rewrite_us.{c}"),
            median(&col(&|s| us(s.rewrite))),
            "us",
            n.clone(),
        );
        put(
            &format!("engine.exec_ms.{c}.ar"),
            median(&col(&|s| ms(s.run_ar))),
            "ms",
            format!("in-process run_bound, {n}"),
        );
        put(
            &format!("engine.exec_ms.{c}.classic"),
            median(&col(&|s| ms(s.run_classic))),
            "ms",
            format!("in-process run_bound, {n}"),
        );
        put(
            &format!("engine.approx_select_ms.{c}"),
            median(&col(&|s| ms(s.approx_select))),
            "ms",
            n.clone(),
        );
        put(
            &format!("engine.refine_ms.{c}"),
            median(&col(&|s| ms(s.refine))),
            "ms",
            n.clone(),
        );
        put(
            &format!("engine.gather_ms.{c}"),
            median(&col(&|s| ms(s.gather))),
            "ms",
            n.clone(),
        );
        put(
            &format!("engine.group_agg_ms.{c}"),
            median(&col(&|s| ms(s.group_agg))),
            "ms",
            n.clone(),
        );
        let tiling = median(&col(&|s| s.residual()));
        if tiling.is_finite() {
            worst_tiling = worst_tiling.max(tiling);
        }
        report.info.push(Metric {
            name: format!("tiling.{c}"),
            value: tiling,
            unit: "ratio",
            note: format!(
                "medians: round trip {:.3} ms = ping {:.3} + codec {:.3} + parse {:.3} + bind {:.3} + rewrite {:.3} + estimate {:.3} + server {:.3} (queue {:.3}, exec {:.3})",
                median(&col(&|s| ms(s.wire))),
                median(&col(&|s| ms(s.ping))),
                median(&col(&|s| ms(s.codec))),
                median(&col(&|s| ms(s.parse))),
                median(&col(&|s| ms(s.bind))),
                median(&col(&|s| ms(s.rewrite))),
                median(&col(&|s| ms(s.estimate))),
                median(&col(&|s| ms(s.server))),
                median(&col(&|s| ms(s.queue))),
                median(&col(&|s| ms(s.exec))),
            ),
        });
    }
    let (cands, surv) = all
        .iter()
        .filter(|s| s.approx_out > 0)
        .fold((0u64, 0u64), |(c, v), s| {
            (c + s.approx_out, v + s.survivors)
        });
    put(
        "engine.refine_precision",
        surv as f64 / cands.max(1) as f64,
        "ratio",
        format!("{surv} survivors of {cands} approximate candidates"),
    );
    let rows: u64 = all.iter().map(|s| s.approx_rows_in).sum();
    let scan: f64 = all.iter().map(|s| s.approx_select).sum();
    put(
        "kernels.scan_ns_per_row",
        scan * 1e9 / rows.max(1) as f64,
        "ns/row",
        format!("approx-select wall over {rows} rows in"),
    );
    put(
        "obs.tiling_error",
        worst_tiling,
        "ratio",
        format!("worst class median of |round trip - sum of layers| / round trip; epsilon {TILING_EPSILON}"),
    );
    if worst_tiling > TILING_EPSILON {
        report.invalid.push(format!("layer times leave {worst_tiling:.3} of the round trip unexplained (epsilon {TILING_EPSILON})"));
    }
    report.problems.extend(problems);
    report.per_layer = out;
}

/// Pick [`SAMPLES_PER_KIND`] requests of every query kind of `class`,
/// spread over the streams' batches, so a class's medians are over the
/// same mix of kinds for every seed.
fn pick_samples(streams: &[Stream], class: Class) -> Vec<&Request> {
    let all: Vec<&Request> = streams
        .iter()
        .flat_map(|s| s.requests.iter())
        .filter(|r| r.class == class)
        .collect();
    let mut kinds: Vec<Kind> = all.iter().map(|r| r.kind).collect();
    kinds.sort();
    kinds.dedup();
    let mut picks = Vec::new();
    for kind in kinds {
        let of_kind: Vec<&Request> = all.iter().copied().filter(|r| r.kind == kind).collect();
        picks.extend((0..SAMPLES_PER_KIND).map(|i| of_kind[i * of_kind.len() / SAMPLES_PER_KIND]));
    }
    picks
}

fn span(report: &mut Report, req: &Request, name: &str, start: Instant, secs: f64) {
    report.spans.push(Span {
        name: format!("{}.{name}", req.kind.name()),
        tid: 10 + req.class as u32,
        start_us: crate::report::since_epoch_us(start),
        dur_us: us(secs),
    });
}

/// A ping, then the request itself, over the wire.
fn over_the_wire(
    client: &mut Blocking,
    req: &Request,
    report: &mut Report,
    problems: &mut Vec<String>,
) -> Sample {
    let mut s = Sample::default();
    let t = Instant::now();
    let (pong, ping) = client.round_trip(&Frame::Ping);
    if !matches!(pong, Frame::Pong) {
        problems.push(format!("ping answered with {pong:?}"));
    }
    s.ping = ping.as_secs_f64();
    span(report, req, "net.ping", t, s.ping);

    let t = Instant::now();
    let frame = Frame::Query {
        mode: req.mode,
        sql: req.sql.clone(),
    };
    let (answer, wire) = client.round_trip(&frame);
    s.wire = wire.as_secs_f64();
    span(report, req, "client.round_trip", t, s.wire);
    match answer {
        Frame::Result(r) => {
            s.survivors = r.survivors as u64;
            if let Err(e) = check(req, &r, "wire") {
                problems.push(e);
            }
            // Frame codec: the server encodes the result frame and the
            // client decodes it; the request frame goes the other way.
            let t = Instant::now();
            for f in [Frame::Result(r), frame] {
                let mut dec = FrameDecoder::new();
                dec.feed(&f.encode());
                let _ = dec.next().expect("a frame this process encoded decodes");
            }
            s.codec = t.elapsed().as_secs_f64();
            span(report, req, "net.codec", t, s.codec);
        }
        other => problems.push(format!("{} over the wire: {other:?}", req.kind.name())),
    }
    s
}

/// Server-side figures of one traced execution: the query span and the
/// queue, exec and engine phase spans under it.
fn server_side(trace: &QueryTrace, s: &mut Sample) {
    fn walk(n: &SpanNode, s: &mut Sample) {
        let wall = n.wall_seconds();
        match n.kind {
            EventKind::Query => s.server += wall,
            EventKind::Queue => s.queue += wall,
            EventKind::Exec => s.exec += wall,
            EventKind::ApproxSelect => {
                s.approx_select += wall;
                s.approx_rows_in += n.begin.a;
                if let Some(e) = n.end {
                    s.approx_out = e.c;
                }
            }
            EventKind::Refine => s.refine += wall,
            EventKind::Gather => s.gather += wall,
            EventKind::GroupAgg => s.group_agg += wall,
            _ => {}
        }
        for c in &n.children {
            walk(c, s);
        }
    }
    for root in trace.roots() {
        walk(&root, s);
    }
}

/// Time each layer's public entry point on `req` in process; `Err`
/// describes a failure or a wrong answer.
fn in_process(
    served: &Served,
    req: &Request,
    s: &mut Sample,
    report: &mut Report,
) -> Result<(), String> {
    let db = &served.db;
    let t = Instant::now();
    let stmt = parse(&req.sql).map_err(|e| e.to_string())?;
    s.parse = t.elapsed().as_secs_f64();
    span(report, req, "sql.parse", t, s.parse);
    let t = Instant::now();
    let BoundStatement::Query(logical) = bind(&stmt, db.catalog()).map_err(|e| e.to_string())?
    else {
        return Err("not a query".into());
    };
    s.bind = t.elapsed().as_secs_f64();
    span(report, req, "sql.bind", t, s.bind);
    let t = Instant::now();
    let plan = db
        .bind(&logical, &RewriteOptions::default())
        .map_err(|e| e.to_string())?;
    s.rewrite = t.elapsed().as_secs_f64();
    span(report, req, "core.rewrite", t, s.rewrite);

    let t = Instant::now();
    let threads = db.env().host_threads;
    let estimate = estimate_latency(
        db,
        &plan,
        &req.mode.exec_mode(),
        threads,
        &EstimateConfig::default(),
    );
    s.estimate = t.elapsed().as_secs_f64();
    std::hint::black_box(estimate);
    span(report, req, "sched.estimate", t, s.estimate);

    for trace in [true, false] {
        let opts = SubmitOptions {
            trace: Some(trace),
            ..SubmitOptions::default()
        };
        let t = Instant::now();
        let (result, job) = served
            .session
            .submit_with(plan.clone(), req.mode.exec_mode(), opts)
            .wait_report()
            .map_err(|e| e.to_string())?;
        let wall = t.elapsed().as_secs_f64();
        check(req, &result, "session")?;
        if trace {
            s.exec_traced = job.exec.as_secs_f64();
            span(report, req, "sched.session", t, wall);
        } else {
            s.exec_untraced = job.exec.as_secs_f64();
        }
    }

    for (mode, name) in [
        (ExecMode::ApproxRefine, "engine.run_bound.ar"),
        (ExecMode::Classic, "engine.run_bound.classic"),
    ] {
        let t = Instant::now();
        let result = db
            .run_bound(&plan, mode.clone())
            .map_err(|e| e.to_string())?;
        let wall = t.elapsed().as_secs_f64();
        span(report, req, name, t, wall);
        check(req, &result, "run_bound")?;
        match mode {
            ExecMode::Classic => s.run_classic = wall,
            _ => s.run_ar = wall,
        }
    }
    Ok(())
}

fn check(req: &Request, result: &QueryResult, path: &str) -> Result<(), String> {
    if result.rows == req.expect {
        Ok(())
    } else {
        Err(format!(
            "{} via {path}: wrong answer for {}",
            req.kind.name(),
            req.sql
        ))
    }
}

/// The first span of `kind` under `node`, depth first.
fn find(node: &SpanNode, kind: EventKind) -> Option<&SpanNode> {
    if node.kind == kind {
        return Some(node);
    }
    node.children.iter().find_map(|c| find(c, kind))
}

/// A counter's value in a Prometheus-text snapshot (0 when absent).
fn counter(snapshot: &str, key: &str) -> f64 {
    snapshot
        .lines()
        .find_map(|l| {
            l.strip_prefix(key)
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}
