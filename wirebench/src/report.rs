//! Metrics, the printed report, result files and `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use waste_not::obs::json::{self, JsonValue};

use crate::fingerprint::{code_revision, Fingerprint};
use crate::loadgen::{RunLog, Status};
use crate::setup::SetupTimes;
use crate::stats::{beyond, median, percentile};
use crate::workload::{Arrival, Class, Stream, Workload};
use crate::RunArgs;

/// An open-loop run is invalid when the generator's p99 send lag exceeds
/// this share of the stream's median latency: the generator's own delay
/// would then be a large part of what its latencies measure.
pub const LAG_LIMIT_SHARE: f64 = 0.25;
/// Tail percentile of both latency classes. At the run length of
/// `BENCHMARK.json` every class keeps more than ten samples beyond it,
/// and unlike p95 or p99 its run-to-run spread stays within the bounds
/// on a shared two-core machine.
pub const TAIL_PCT: f64 = 90.0;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed (sample count, percentile), for people.
    pub note: String,
}

/// One span of the benchmark's own trace (Chrome "X" event).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Lane: 0 set-up, 1.. load streams, 10.. layer probe.
    pub tid: u32,
    pub start_us: f64,
    pub dur_us: f64,
}

pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fingerprint: Fingerprint,
    pub revision: String,
    pub attempted: u64,
    pub failed: u64,
    /// Every reason a run is not correct (wrong answers, errors, a
    /// simulated time that did not repeat).
    pub problems: Vec<String>,
    /// Reasons the latencies are not meaningful (generator lag).
    pub invalid: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub info: Vec<Metric>,
    pub spans: Vec<Span>,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: note.into(),
    }
}

/// Latencies in ms of one class; failed requests count as infinitely
/// late. They come from the open-loop streams when the run has any —
/// probe-open's capacity batch only measures throughput — else from all.
fn class_latencies(streams: &[Stream], log: &RunLog, class: Class) -> Vec<f64> {
    let any_open = streams.iter().any(|s| !s.arrival.is_closed());
    log.outcomes
        .iter()
        .filter(|o| o.class == class && (!any_open || !streams[o.stream].arrival.is_closed()))
        .map(|o| {
            if o.status == Status::Ok {
                o.latency * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Verified answers of the closed-loop streams per second of their
/// makespan (they all start together), with the count and the makespan.
fn closed_throughput(streams: &[Stream], log: &RunLog) -> (f64, usize, f64) {
    let closed = || {
        log.outcomes
            .iter()
            .filter(|o| streams[o.stream].arrival.is_closed())
    };
    let ok = closed().filter(|o| o.status == Status::Ok).count();
    let makespan = closed()
        .map(|o| o.done_at)
        .filter(|t| t.is_finite())
        .fold(0.0, f64::max);
    (ok as f64 / makespan.max(1e-9), ok, makespan)
}

impl Report {
    pub fn new(run: &RunArgs, warm: &RunLog, streams: &[Stream], log: &RunLog) -> Report {
        let mut r = Report {
            workload: run.workload,
            seed: run.seed,
            seconds: run.seconds,
            trace: run.trace,
            fingerprint: Fingerprint::of_this_machine(),
            revision: code_revision(&crate::repo_root()),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            invalid: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            info: Vec::new(),
            spans: Vec::new(),
        };
        for l in [warm, log] {
            r.count(l);
        }

        let (qps, ok, makespan) = closed_throughput(streams, log);
        r.end_to_end.push(metric(
            "throughput_qps",
            qps,
            "1/s",
            format!("{ok} verified closed-loop answers in {makespan:.3} s"),
        ));
        for class in Class::ALL {
            let lat = class_latencies(streams, log, class);
            let cname = class.name();
            let n = lat.len();
            let note = format!("{n} samples");
            r.end_to_end
                .push(metric(format!("{cname}_p50_ms"), median(&lat), "ms", note));
            let k = beyond(n, TAIL_PCT);
            let note = format!("p{TAIL_PCT} of {n} samples, {k} beyond");
            if k < 10 {
                r.invalid.push(format!(
                    "{cname} tail p{TAIL_PCT} has only {k} samples beyond it"
                ));
            }
            r.end_to_end.push(metric(
                format!("{cname}_p{TAIL_PCT}_ms"),
                percentile(&lat, TAIL_PCT),
                "ms",
                note,
            ));
        }
        if run.trace {
            r.load_spans(log);
        }
        let sim = r.sim_per_query(streams, log);
        r.end_to_end.push(sim);
        r.open_loop_hygiene(streams, log);
        r
    }

    /// Spans of every load request (lane 1 + stream) for the Chrome
    /// trace.
    fn load_spans(&mut self, log: &RunLog) {
        for o in log
            .outcomes
            .iter()
            .filter(|o| o.sent_at.is_finite() && o.done_at.is_finite())
        {
            self.spans.push(Span {
                name: format!("client.{}", o.kind.name()),
                tid: 1 + o.stream as u32,
                start_us: log.start_us + o.sent_at * 1e6,
                dur_us: (o.done_at - o.sent_at) * 1e6,
            });
        }
    }

    /// `setup_s`, the median set-up, and — when traced — the median of
    /// each phase and the phases' spans (lane 0).
    pub fn set_ups(&mut self, setups: &[SetupTimes]) {
        let reps = format!("median of {} set-ups", setups.len());
        let of = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        self.end_to_end
            .push(metric("setup_s", of(SetupTimes::total), "s", reps.clone()));
        if !self.trace {
            return;
        }
        for (name, f) in [
            ("setup.gen_s", (|t| t.gen) as fn(&SetupTimes) -> f64),
            ("setup.load_s", |t| t.load),
            ("setup.decompose_s", |t| t.decompose),
            ("setup.serve_s", |t| t.serve),
        ] {
            self.per_layer.push(metric(name, of(f), "s", reps.clone()));
        }
        for (i, t) in setups.iter().enumerate() {
            let mut at = t.started_us;
            for (phase, secs) in [
                ("gen", t.gen),
                ("load", t.load),
                ("decompose", t.decompose),
                ("serve", t.serve),
            ] {
                self.spans.push(Span {
                    name: format!("setup{i}.{phase}"),
                    tid: 0,
                    start_us: at,
                    dur_us: secs * 1e6,
                });
                at += secs * 1e6;
            }
        }
    }

    fn count(&mut self, log: &RunLog) {
        for o in &log.outcomes {
            self.attempted += 1;
            if o.status != Status::Ok {
                self.failed += 1;
                if self.problems.len() < 20 {
                    self.problems
                        .push(format!("{} request: {:?}", o.kind.name(), o.status));
                }
            }
        }
    }

    /// Mean simulated platform time over the distinct requests of the
    /// seeded batch, each counted once in batch order, so the value is a
    /// pure function of the seed. Every repeat of a request must report
    /// the same simulated time bit for bit.
    fn sim_per_query(&mut self, streams: &[Stream], log: &RunLog) -> Metric {
        let mut sim: Vec<Vec<Option<f64>>> = streams
            .iter()
            .map(|s| vec![None; s.requests.len()])
            .collect();
        for o in log.outcomes.iter().filter(|o| o.status == Status::Ok) {
            let t = o.breakdown.expect("answers carry a breakdown").total();
            match sim[o.stream][o.req] {
                None => sim[o.stream][o.req] = Some(t),
                Some(prev) if prev.to_bits() != t.to_bits() => {
                    self.problems.push(format!(
                        "{} simulated time changed between repeats: {prev} vs {t}",
                        o.kind.name()
                    ));
                }
                Some(_) => {}
            }
        }
        let all: Vec<f64> = sim
            .iter()
            .flatten()
            .map(|t| t.unwrap_or(f64::NAN) * 1e3)
            .collect();
        let mut sum = 0.0;
        for t in &all {
            sum += t;
        }
        metric(
            "sim_ms_per_query",
            sum / all.len() as f64,
            "ms",
            format!("mean over {} distinct requests", all.len()),
        )
    }

    /// Generator lag and per-rate latencies of open streams.
    fn open_loop_hygiene(&mut self, streams: &[Stream], log: &RunLog) {
        for (s, stream) in streams.iter().enumerate() {
            let Arrival::Open { rates, .. } = &stream.arrival else {
                continue;
            };
            let of_stream = || log.outcomes.iter().filter(move |o| o.stream == s);
            let lags: Vec<f64> = of_stream().map(|o| o.lag * 1e3).collect();
            let lag99 = percentile(&lags, 99.0);
            self.info.push(metric(
                format!("gen_lag_p99_ms.stream{s}"),
                lag99,
                "ms",
                format!("how late the generator sent, over {} requests", lags.len()),
            ));
            let typical: Vec<f64> = of_stream().map(|o| o.latency * 1e3).collect();
            let limit = LAG_LIMIT_SHARE * median(&typical);
            if lag99.is_nan() || lag99 > limit {
                self.invalid.push(format!(
                    "stream {s}: generator p99 lag {lag99:.3} ms exceeds {LAG_LIMIT_SHARE} of the median latency ({limit:.3} ms)"
                ));
            }
            for (step, &rate) in rates.iter().enumerate() {
                let lat: Vec<f64> = of_stream()
                    .filter(|o| o.step == step)
                    .map(|o| {
                        if o.status == Status::Ok {
                            o.latency * 1e3
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect();
                self.info.push(metric(
                    format!("step{step}.p50_ms"),
                    median(&lat),
                    "ms",
                    format!("{} requests offered at {rate:.2}/s", lat.len()),
                ));
            }
        }
    }

    /// Final figures that need the whole run: failure ratio, memory.
    pub fn finish(&mut self) {
        self.info.insert(
            0,
            metric(
                "failed_ratio",
                self.failed as f64 / self.attempted.max(1) as f64,
                "ratio",
                format!(
                    "{} of {} requests failed, refused or wrong",
                    self.failed, self.attempted
                ),
            ),
        );
        self.end_to_end.push(metric(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            "VmHWM of the process",
        ));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn header(&self) -> String {
        format!(
            "wirebench workload={} seed={} seconds={} trace={} rev={} machine=[{}]",
            self.workload.name(),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.revision,
            self.fingerprint.render()
        )
    }

    /// The human-readable report on standard output.
    pub fn print(&self) {
        println!("# {}", self.header());
        let groups: [(&str, &Vec<Metric>); 3] = [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
            ("info", &self.info),
        ];
        for (group, metrics) in groups {
            for m in metrics.iter() {
                println!(
                    "{group:>10}  {:<34} {:>14.6} {:<6} {}",
                    m.name, m.value, m.unit, m.note
                );
            }
        }
        for p in &self.problems {
            println!("   PROBLEM  {p}");
        }
        for p in &self.invalid {
            println!("   INVALID  {p}");
        }
        println!(
            "# verdict: {} ({} of {} requests failed); latencies {}",
            if self.correct() {
                "correct"
            } else {
                "NOT CORRECT"
            },
            self.failed,
            self.attempted,
            if self.invalid.is_empty() {
                "valid"
            } else {
                "INVALID"
            }
        );
    }

    fn metrics_json(metrics: &[Metric]) -> String {
        let mut out = String::from("{");
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// The one-line result: end-to-end metrics, or per-layer ones when
    /// traced.
    pub fn contract_json(&self) -> String {
        let metrics = if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            Self::metrics_json(metrics)
        )
    }

    /// Write the result file (and, when traced, the Chrome trace).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        );
        let mut all = self.end_to_end.clone();
        all.extend(self.per_layer.iter().cloned());
        all.extend(self.info.iter().cloned());
        let text = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"revision\": \"{}\", \
             \"fingerprint\": \"{}\", \"correct\": {}, \"valid\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {}}}\n",
            self.workload.name(),
            self.seed,
            self.seconds,
            self.trace,
            json::escape(&self.revision),
            json::escape(&self.fingerprint.render()),
            self.correct(),
            self.invalid.is_empty(),
            self.attempted,
            self.failed,
            Self::metrics_json(&all)
        );
        std::fs::write(dir.join(format!("{stem}.json")), text)?;
        if self.trace {
            std::fs::write(dir.join(format!("{stem}.chrome.json")), self.chrome_trace())?;
        }
        Ok(())
    }

    /// The benchmark's spans as a Chrome trace (`chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": 1, \"tid\": 0, \"args\": {{\"name\": \"{}\"}}}}",
            json::escape(&self.header())
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n{{\"name\": \"{}\", \"cat\": \"wirebench\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}}}",
                json::escape(&s.name),
                s.tid,
                s.start_us,
                s.dur_us.max(0.0)
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// A JSON number; a non-finite value (a latency of failed requests)
/// prints as a huge number, since JSON has no infinity.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".into()
    }
}

/// Microseconds from the first call (the benchmark's trace epoch) to `t`.
pub fn since_epoch_us(t: std::time::Instant) -> f64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    t.saturating_duration_since(epoch).as_secs_f64() * 1e6
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `--compare A B`: print B against A metric by metric, refusing results
/// from different machines, workloads, trace modes or run lengths, or
/// incorrect or invalid runs.
pub fn compare(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    let s = |j: &JsonValue, k: &str| {
        j.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    for key in ["fingerprint", "workload", "trace", "seconds"] {
        if ja.get(key) != jb.get(key) {
            println!(
                "not comparable: {key} differs\n  A: {:?}\n  B: {:?}",
                ja.get(key),
                jb.get(key)
            );
            return ExitCode::from(3);
        }
    }
    for (j, p) in [(&ja, a), (&jb, b)] {
        if j.get("valid") != Some(&JsonValue::Bool(true))
            || j.get("correct") != Some(&JsonValue::Bool(true))
        {
            println!("not comparable: {p} is not a correct, valid run");
            return ExitCode::from(3);
        }
    }
    let metrics = |j: &JsonValue| -> BTreeMap<String, f64> {
        match j.get("metrics") {
            Some(JsonValue::Obj(kv)) => kv
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
                .collect(),
            _ => BTreeMap::new(),
        }
    };
    let (ma, mb) = (metrics(&ja), metrics(&jb));
    println!(
        "# A: {} ({})\n# B: {} ({})",
        a,
        s(&ja, "revision"),
        b,
        s(&jb, "revision")
    );
    for (name, va) in &ma {
        if let Some(vb) = mb.get(name) {
            println!("{name:<34} {va:>14.6} {vb:>14.6}  B/A {:.4}", vb / va);
        }
    }
    ExitCode::SUCCESS
}
