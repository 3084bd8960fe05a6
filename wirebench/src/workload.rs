//! The three workloads and the seeded request streams they send.

use std::time::Duration;

use waste_not::data::rng::Xoshiro;
use waste_not::net::WireMode;
use waste_not::Value;

use crate::setup::Oracle;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop clients send a batch of TPC-H Q1, Q6 and Q14 in
    /// A&R mode.
    TpchClosed,
    /// Two closed-loop clients measure the probe capacity; then one
    /// pipelined connection sends open-loop point and range probes at a
    /// ladder of fixed rates below it.
    ProbeOpen,
    /// A closed-loop Classic Q1 client beside a closed-loop A&R probe
    /// client (the paper's Fig. 11 co-processing mix).
    Fig11,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TpchClosed, Workload::ProbeOpen, Workload::Fig11];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchClosed => "tpch-closed",
            Workload::ProbeOpen => "probe-open",
            Workload::Fig11 => "fig11-interference",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn uses_tpch(self) -> bool {
        matches!(self, Workload::TpchClosed | Workload::Fig11)
    }

    pub fn uses_probe(self) -> bool {
        matches!(self, Workload::ProbeOpen | Workload::Fig11)
    }

    /// Which latency class a query kind belongs to on this workload.
    pub fn class_of(self, kind: Kind) -> Class {
        match (self, kind) {
            (_, Kind::Q1) => Class::Long,
            (Workload::ProbeOpen, Kind::Range) => Class::Long,
            _ => Class::Short,
        }
    }
}

/// Query kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Q1,
    Q6,
    Q14,
    /// `a = K`
    Point,
    /// `a between L and H`
    Range,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Q1 => "q1",
            Kind::Q6 => "q6",
            Kind::Q14 => "q14",
            Kind::Point => "point",
            Kind::Range => "range",
        }
    }

    pub fn tpch_sql(self) -> &'static str {
        match self {
            Kind::Q1 => Q1,
            Kind::Q6 => Q6,
            Kind::Q14 => Q14,
            Kind::Point | Kind::Range => unreachable!("probes are generated"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Q6, Q14 and the probes of fig11; point probes on probe-open.
    Short,
    /// Q1; range probes on probe-open.
    Long,
}

impl Class {
    pub const ALL: [Class; 2] = [Class::Short, Class::Long];

    pub fn name(self) -> &'static str {
        match self {
            Class::Short => "short",
            Class::Long => "long",
        }
    }
}

const Q1: &str = "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
    sum(l_extendedprice) as sum_base_price, \
    sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
    sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
    avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, \
    avg(l_discount) as avg_disc, count(*) as count_order \
    from lineitem where l_shipdate <= date '1998-12-01' - interval '90' day \
    group by l_returnflag, l_linestatus";

const Q6: &str = "select sum(l_extendedprice * l_discount) as revenue from lineitem \
    where l_shipdate >= date '1994-01-01' \
    and l_shipdate < date '1994-01-01' + interval '1' year \
    and l_discount between 0.05 and 0.07 and l_quantity < 24";

const Q14: &str = "select \
    sum(case when p_type like 'PROMO%' then l_extendedprice * (1 - l_discount) else 0 end) as promo, \
    sum(l_extendedprice * (1 - l_discount)) as total \
    from lineitem, part where l_partkey = p_partkey \
    and l_shipdate >= date '1995-09-01' \
    and l_shipdate < date '1995-09-01' + interval '1' month";

pub fn range_sql(lo: i64, hi: i64) -> String {
    format!("select count(*) as n, sum(g) as s from probe where a between {lo} and {hi}")
}

pub fn point_sql(k: i64) -> String {
    format!("select count(*) as n, sum(g) as s from probe where a = {k}")
}

/// One request and the answer it must get.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub class: Class,
    pub mode: WireMode,
    pub sql: String,
    pub expect: Vec<Vec<Value>>,
}

/// How a stream's requests arrive.
#[derive(Debug, Clone)]
pub enum Arrival {
    /// A fixed batch: `clients` connections, each with one request
    /// outstanding, draw the requests in order and send each once.
    Batch { clients: usize },
    /// One connection with one request outstanding repeats the requests
    /// in order until every other stream of the run is done.
    Background,
    /// One pipelined connection; request `i` is due `due[i]` after the
    /// start, in rate step `step[i]` of `rates` (requests per second).
    Open {
        due: Vec<Duration>,
        step: Vec<usize>,
        rates: Vec<f64>,
    },
}

impl Arrival {
    /// Closed-loop streams, whose completions make `throughput_qps`.
    pub fn is_closed(&self) -> bool {
        !matches!(self, Arrival::Open { .. })
    }
}

#[derive(Debug, Clone)]
pub struct Stream {
    pub requests: Vec<Request>,
    pub arrival: Arrival,
}

// Sizes and rates. Every batch is a fixed number of requests per second
// of `--seconds`, so a run is a fixed amount of work for a seed and its
// length moves with the program's speed. The per-second figures are the
// closed-loop rates measured on a 2-core Xeon (AVX-512) at full scale
// (medians of five seeded runs), so a run there lasts about `--seconds`.

/// tpch-closed: Q1, Q6, Q14 cycles per second with two clients
/// (range 52-66).
pub const TPCH_CYCLES_PER_S: f64 = 60.0;
/// The probe capacity: A&R probes per second that two closed-loop
/// clients get answered (range 663-801).
pub const PROBE_CAPACITY_QPS: f64 = 700.0;
/// fig11: A&R probes per second of one client beside the Q1 client
/// (range 279-318).
pub const FIG11_PROBES_PER_S: f64 = 290.0;
/// probe-open: share of the run spent measuring the capacity.
pub const CAPACITY_SHARE: f64 = 1.0 / 3.0;
/// probe-open's fixed offered rates, as shares of [`PROBE_CAPACITY_QPS`].
/// The top step stays below half of it: the generator shares the two
/// cores with the server, and even on this ladder its p99 send lag
/// (~0.65 ms) comes close to the validity limit, a quarter of the ~3 ms
/// median latency.
pub const LADDER: [f64; 3] = [0.15, 0.3, 0.45];
/// Highest range-probe selectivity (log-uniform from one row up to this).
pub const MAX_SELECTIVITY: f64 = 0.05;

fn batch(seconds: f64, per_s: f64) -> usize {
    ((seconds * per_s).round() as usize).max(1)
}

/// The phases of one run of `workload`, driven one after another; the
/// streams of a phase run together.
pub fn phases(workload: Workload, seed: u64, seconds: f64, oracle: &Oracle) -> Vec<Vec<Stream>> {
    let mut rng = Xoshiro::seed(seed ^ 0x5EED_10AD);
    match workload {
        Workload::TpchClosed => vec![vec![tpch_stream(&mut rng, oracle, seconds)]],
        Workload::ProbeOpen => {
            // The capacity (throughput), then latencies at fixed rates.
            let n = batch(seconds * CAPACITY_SHARE, PROBE_CAPACITY_QPS);
            let step_secs = seconds * (1.0 - CAPACITY_SHARE) / LADDER.len() as f64;
            vec![
                vec![probe_batch(workload, &mut rng, oracle, n, 2)],
                vec![ladder(&mut rng, oracle, step_secs)],
            ]
        }
        Workload::Fig11 => {
            let q1 = request(
                workload,
                Kind::Q1,
                WireMode::Classic,
                Q1.into(),
                oracle.tpch_rows(Kind::Q1).to_vec(),
            );
            let n = batch(seconds, FIG11_PROBES_PER_S);
            vec![vec![
                Stream {
                    requests: vec![q1],
                    arrival: Arrival::Background,
                },
                probe_batch(workload, &mut rng, oracle, n, 1),
            ]]
        }
    }
}

/// probe-open's open loop: A&R probes at each rate of [`LADDER`] for
/// `step_secs` seconds, evenly spaced; half of them, drawn at random,
/// are point probes.
fn ladder(rng: &mut Xoshiro, oracle: &Oracle, step_secs: f64) -> Stream {
    let (mut requests, mut due, mut step, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (s, share) in LADDER.into_iter().enumerate() {
        let rate = share * PROBE_CAPACITY_QPS;
        for i in 0..batch(step_secs, rate) {
            let point = rng.unit_f64() < 0.5;
            requests.push(probe(Workload::ProbeOpen, rng, oracle, point));
            due.push(Duration::from_secs_f64(
                s as f64 * step_secs + i as f64 / rate,
            ));
            step.push(s);
        }
        rates.push(rate);
    }
    Stream {
        requests,
        arrival: Arrival::Open { due, step, rates },
    }
}

/// A short warm-up stream, sent once by one closed-loop client: every
/// query shape of the workload a few times, so lazy set-up and the
/// estimate calibrator settle before timing.
pub fn warmup(workload: Workload, seed: u64, oracle: &Oracle) -> Vec<Stream> {
    let mut rng = Xoshiro::seed(seed ^ 0x3A93_0001);
    let mut requests = Vec::new();
    if workload.uses_tpch() {
        let mode = match workload {
            Workload::Fig11 => WireMode::Classic,
            _ => WireMode::ApproxRefine,
        };
        requests.push(request(
            workload,
            Kind::Q1,
            mode,
            Q1.into(),
            oracle.tpch_rows(Kind::Q1).to_vec(),
        ));
        if workload == Workload::TpchClosed {
            for kind in [Kind::Q6, Kind::Q14] {
                for _ in 0..3 {
                    requests.push(request(
                        workload,
                        kind,
                        mode,
                        kind.tpch_sql().into(),
                        oracle.tpch_rows(kind).to_vec(),
                    ));
                }
            }
        }
    }
    if workload.uses_probe() {
        for i in 0..10 {
            requests.push(probe(workload, &mut rng, oracle, i % 2 == 0));
        }
    }
    vec![Stream {
        requests,
        arrival: Arrival::Batch { clients: 1 },
    }]
}

fn request(
    workload: Workload,
    kind: Kind,
    mode: WireMode,
    sql: String,
    expect: Vec<Vec<Value>>,
) -> Request {
    Request {
        kind,
        class: workload.class_of(kind),
        mode,
        sql,
        expect,
    }
}

/// tpch-closed: Q1, Q6 and Q14 once per cycle — the queries of the
/// paper's Fig. 10, each once — in a batch shuffled per seed and sent by
/// two closed-loop clients in A&R mode.
fn tpch_stream(rng: &mut Xoshiro, oracle: &Oracle, seconds: f64) -> Stream {
    let mut requests = Vec::new();
    for _ in 0..batch(seconds, TPCH_CYCLES_PER_S) {
        for kind in [Kind::Q1, Kind::Q6, Kind::Q14] {
            requests.push(request(
                Workload::TpchClosed,
                kind,
                WireMode::ApproxRefine,
                kind.tpch_sql().into(),
                oracle.tpch_rows(kind).to_vec(),
            ));
        }
    }
    rng.shuffle(&mut requests);
    Stream {
        requests,
        arrival: Arrival::Batch { clients: 2 },
    }
}

/// A batch of `n` A&R probes with fresh random literals, half of them,
/// drawn at random, point probes; sent by `clients` closed-loop clients.
fn probe_batch(
    workload: Workload,
    rng: &mut Xoshiro,
    oracle: &Oracle,
    n: usize,
    clients: usize,
) -> Stream {
    let requests = (0..n)
        .map(|_| {
            let point = rng.unit_f64() < 0.5;
            probe(workload, rng, oracle, point)
        })
        .collect();
    Stream {
        requests,
        arrival: Arrival::Batch { clients },
    }
}

/// One probe with literals over the column domain plus a 1% margin past
/// both edges (so some probes match nothing).
fn probe(workload: Workload, rng: &mut Xoshiro, oracle: &Oracle, point: bool) -> Request {
    let n = oracle.probe_domain();
    let margin = (n / 100).max(16);
    let (lo_edge, hi_edge) = (-margin, n - 1 + margin);
    if point {
        let k = rng.range_i64(lo_edge, hi_edge);
        return request(
            workload,
            Kind::Point,
            WireMode::ApproxRefine,
            point_sql(k),
            oracle.probe_rows(k, k),
        );
    }
    let max_sel = MAX_SELECTIVITY.max(1.0 / n as f64);
    let sel = (rng.unit_f64() * (max_sel * n as f64).ln()).exp() / n as f64;
    let width = ((sel * n as f64).round() as i64).max(1);
    let lo = rng.range_i64(lo_edge, hi_edge - width + 1);
    let hi = lo + width - 1;
    request(
        workload,
        Kind::Range,
        WireMode::ApproxRefine,
        range_sql(lo, hi),
        oracle.probe_rows(lo, hi),
    )
}
