//! Seeded data, load, decomposition and serving — the timed set-up — and
//! the answer oracle, which is computed outside the served path.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use waste_not::data::micro::{grouping_keys, unique_shuffled};
use waste_not::data::{gen_lineitem, gen_part, TpchConfig};
use waste_not::engine::Database;
use waste_not::net::{NetClient, NetServer, NetServerHandle};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::{Column, DecompositionSpec};
use waste_not::{DecompositionReport, ExecMode, NetConfig, SchedConfig, Scheduler, Session, Value};

use crate::workload::{Kind, Workload};

/// Data sizes. `full` is what the benchmark measures; `smoke` is what
/// the self-test runs.
///
/// `full` keeps each query's columns near the size of a core's private
/// L2 cache (4 MiB on the machine the rates were measured on). At ten
/// times these sizes the columns live in the shared last-level cache and
/// memory, where other tenants of a shared host slow them down for
/// minutes at a time: in runs interleaved with this scale, fig11's
/// `long_p50_ms` spread 0.25 of its median across six seeds, against
/// 0.10 here.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// TPC-H scale factor (0.01 = 60k lineitem, 2k part).
    pub tpch_sf: f64,
    /// Rows of the probe table.
    pub probe_rows: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        tpch_sf: 0.01,
        probe_rows: 400_000,
    };
    pub const SMOKE: Scale = Scale {
        tpch_sf: 0.005,
        probe_rows: 50_000,
    };
}

/// Groups in the probe table's `g` column.
pub const PROBE_GROUPS: u64 = 64;

/// Wall time of each set-up phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Data generation.
    pub gen: f64,
    /// `create_table` and `declare_fk`.
    pub load: f64,
    /// `bwdecompose` of every referenced column.
    pub decompose: f64,
    /// Scheduler and server start, connect, up to the first `Pong`.
    pub serve: f64,
    /// When the set-up began, on the benchmark's trace clock (µs).
    pub started_us: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.gen + self.load + self.decompose + self.serve
    }
}

/// A database being served on loopback TCP.
pub struct Served {
    /// The serve loop; `None` only while the benchmark holds the server
    /// itself (between [`Served::pause`] and [`Served::resume`]).
    handle: Option<NetServerHandle>,
    pub addr: SocketAddr,
    pub db: Arc<Database>,
    /// An in-process session on the served scheduler.
    pub session: Session,
    pub reports: Vec<DecompositionReport>,
}

impl Served {
    /// Stop the serve loop (connections stay open) and hand out the
    /// server, e.g. to drain the scheduler's traces.
    pub fn pause(&mut self) -> NetServer {
        self.handle.take().expect("server is running").shutdown()
    }

    /// Restart the serve loop on a paused server.
    pub fn resume(&mut self, server: NetServer) {
        assert!(self.handle.is_none(), "server is already running");
        self.handle = Some(server.spawn());
    }

    /// Stop serving and join every server and worker thread.
    pub fn stop(mut self) -> NetServer {
        self.pause()
    }
}

/// One timed set-up of `workload`'s tables at `scale`.
pub fn build(workload: Workload, seed: u64, scale: Scale, tracing: bool) -> (Served, SetupTimes) {
    let mut t = SetupTimes {
        started_us: crate::report::since_epoch_us(Instant::now()),
        ..SetupTimes::default()
    };
    let mut db = Database::new();
    let mut reports = Vec::new();
    let mut plans = Vec::new();

    if workload.uses_tpch() {
        let start = Instant::now();
        let cfg = tpch_config(seed, scale);
        let lineitem = gen_lineitem(&cfg).into_columns();
        let part = gen_part(&cfg).into_columns();
        t.gen += start.elapsed().as_secs_f64();

        let start = Instant::now();
        db.create_table("lineitem", lineitem)
            .expect("load lineitem");
        db.create_table("part", part).expect("load part");
        db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")
            .expect("declare fk");
        t.load += start.elapsed().as_secs_f64();

        let start = Instant::now();
        // l_shipdate keeps 8 residual bits on the host so refine runs;
        // every other referenced column is fully device-resident.
        reports.push(
            db.bwdecompose("lineitem", "l_shipdate", 24)
                .expect("decompose l_shipdate"),
        );
        for kind in [Kind::Q1, Kind::Q6, Kind::Q14] {
            plans.push(plan_of(&db, kind.tpch_sql()));
        }
        t.decompose += start.elapsed().as_secs_f64();
    }

    if workload.uses_probe() {
        let start = Instant::now();
        let (a, g) = probe_columns(seed, scale);
        t.gen += start.elapsed().as_secs_f64();

        let start = Instant::now();
        db.create_table("probe", vec![("a".into(), a), ("g".into(), g)])
            .expect("load probe");
        t.load += start.elapsed().as_secs_f64();

        let start = Instant::now();
        reports.push(db.bwdecompose("probe", "a", 24).expect("decompose a"));
        plans.push(plan_of(&db, &crate::workload::range_sql(0, 1)));
        t.decompose += start.elapsed().as_secs_f64();
    }

    // The remaining referenced columns go all-device, as `auto_bind`
    // would do it, but through the call that reports the decomposition.
    let start = Instant::now();
    for plan in &plans {
        for name in plan.referenced_columns() {
            let (table, column) = match name.split_once('.') {
                Some((t, c)) => (t.to_string(), c.to_string()),
                None => (plan.table.clone(), name),
            };
            if !db.is_bound(&table, &column) {
                reports.push(
                    db.bwdecompose_spec(&table, &column, &DecompositionSpec::all_device())
                        .expect("decompose all-device"),
                );
            }
        }
    }
    t.decompose += start.elapsed().as_secs_f64();

    let start = Instant::now();
    let sched = Scheduler::new(
        Arc::new(db),
        SchedConfig {
            tracing,
            ..SchedConfig::default()
        },
    );
    let mut server = NetServer::with_config(sched, NetConfig::default());
    let addr = server.bind(("127.0.0.1", 0)).expect("bind loopback");
    let db = Arc::clone(server.scheduler().database());
    let session = server.scheduler().session();
    let handle = server.spawn();
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    client.ping().expect("first pong");
    drop(client);
    t.serve = start.elapsed().as_secs_f64();

    let served = Served {
        handle: Some(handle),
        addr,
        db,
        session,
        reports,
    };
    (served, t)
}

fn tpch_config(seed: u64, scale: Scale) -> TpchConfig {
    TpchConfig {
        scale: scale.tpch_sf,
        seed: seed ^ 0x7C41,
    }
}

fn probe_seeds(seed: u64) -> (u64, u64) {
    (seed ^ 0xA5A5_0001, seed ^ 0x5A5A_0002)
}

fn probe_columns(seed: u64, scale: Scale) -> (Column, Column) {
    let (sa, sg) = probe_seeds(seed);
    let a: Vec<i32> = unique_shuffled(scale.probe_rows, sa)
        .into_iter()
        .map(|v| v as i32)
        .collect();
    let g: Vec<i32> = grouping_keys(scale.probe_rows, PROBE_GROUPS, sg)
        .into_iter()
        .map(|v| v as i32)
        .collect();
    (Column::from_i32(a), Column::from_i32(g))
}

/// Parse, bind and rewrite one SQL query against `db`.
pub fn plan_of(db: &Database, sql: &str) -> waste_not::core::plan::ArPlan {
    let stmt = parse(sql).expect("benchmark SQL parses");
    let BoundStatement::Query(logical) = bind(&stmt, db.catalog()).expect("benchmark SQL binds")
    else {
        panic!("benchmark SQL is a query");
    };
    db.bind(&logical, &Default::default())
        .expect("benchmark SQL rewrites")
}

/// Reference answers, computed without the served path.
pub struct Oracle {
    /// Q1, Q6, Q14 rows from the in-process Classic pipe.
    pub tpch: Vec<(Kind, Vec<Vec<Value>>)>,
    /// Prefix sums of the probe table's `g` ordered by `a`.
    probe: Option<ProbeOracle>,
}

struct ProbeOracle {
    /// `prefix[v]` = sum of `g` over rows with `a < v`.
    prefix: Vec<i64>,
}

impl Oracle {
    /// Probe references from the generator's own vectors, regenerated from
    /// the seed so the served columns are never consulted. Built before
    /// the set-up, so its transient memory does not add to the program's
    /// peak.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Oracle {
        let probe = workload.uses_probe().then(|| {
            let (sa, sg) = probe_seeds(seed);
            let groups: Vec<u8> = grouping_keys(scale.probe_rows, PROBE_GROUPS, sg)
                .into_iter()
                .map(|g| g as u8)
                .collect();
            // prefix[a + 1] = g of the row holding `a`, then summed in place.
            let mut prefix = vec![0i64; scale.probe_rows + 1];
            for (key, grp) in unique_shuffled(scale.probe_rows, sa)
                .into_iter()
                .zip(groups)
            {
                prefix[key as usize + 1] = grp as i64;
            }
            for i in 1..prefix.len() {
                prefix[i] += prefix[i - 1];
            }
            ProbeOracle { prefix }
        });
        Oracle {
            tpch: Vec::new(),
            probe,
        }
    }

    /// Add the TPC-H references: Q1, Q6 and Q14 from in-process Classic
    /// `run_bound`.
    pub fn with_tpch(mut self, workload: Workload, db: &Database) -> Oracle {
        if workload.uses_tpch() {
            for kind in [Kind::Q1, Kind::Q6, Kind::Q14] {
                let plan = plan_of(db, kind.tpch_sql());
                let rows = db
                    .run_bound(&plan, ExecMode::Classic)
                    .expect("classic reference")
                    .rows;
                self.tpch.push((kind, rows));
            }
        }
        self
    }

    /// Rows of the TPC-H query `kind`.
    pub fn tpch_rows(&self, kind: Kind) -> &[Vec<Value>] {
        &self
            .tpch
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("reference computed")
            .1
    }

    /// `count(*), sum(g)` over `a between lo and hi`.
    pub fn probe_rows(&self, lo: i64, hi: i64) -> Vec<Vec<Value>> {
        let p = &self.probe.as_ref().expect("probe table loaded").prefix;
        let n = (p.len() - 1) as i64;
        let (lo, hi) = (lo.max(0), hi.min(n - 1));
        let (count, sum) = if lo > hi {
            (0, 0)
        } else {
            (hi - lo + 1, p[hi as usize + 1] - p[lo as usize])
        };
        vec![vec![Value::Int(count), Value::Int(sum)]]
    }

    /// Rows in the probe table.
    pub fn probe_domain(&self) -> i64 {
        (self
            .probe
            .as_ref()
            .expect("probe table loaded")
            .prefix
            .len()
            - 1) as i64
    }
}
