//! The evaluation harness: regenerates every table and figure of the
//! paper's evaluation section (§VI) from the reimplemented system.
//!
//! * [`micro`] — Fig 8a–8f operator microbenchmarks;
//! * [`evaluation`] — Fig 9 (Table I spatial workload), Fig 10a–c (TPC-H
//!   Q1/Q6/Q14), Fig 11 (multi-stream throughput), Fig 1 (motivation);
//! * [`arexec`] — wall-clock baseline of the morsel-parallel A&R pipeline
//!   (`figures -- bench-arexec` writes `BENCH_arexec.json`);
//! * [`scan`] — width × selectivity sweep of the packed-domain selection
//!   kernel: scalar reference vs lane kernel, index vs bitmap, bit-identity
//!   enforced
//!   (`figures -- bench-scan` writes `BENCH_scan.json`);
//! * [`multidev`] — 1-device vs 2-device A&R scheduling sweep
//!   (`figures -- bench-multidev`);
//! * [`sjf`] — queue-policy sweep (FIFO vs shortest-job-first vs
//!   priority) over a seeded short/long mix (`figures -- bench-sjf`);
//! * [`chaos`] — seeded fault-injection soak on a two-card pool:
//!   offline → failover → recovery, bit-identity and transcript
//!   reproducibility enforced (`figures -- fault-soak`);
//! * [`trace`] — query-lifecycle tracing on a seeded scheduler batch:
//!   validates every trace, checks phase walls against the job report,
//!   and exports Chrome `trace_event` JSON (`figures -- trace` writes
//!   `TRACE_workload.json`);
//! * [`report`] — table rendering and CSV output.
//!
//! Run `cargo run --release -p bwd-bench --bin figures -- all` (or a
//! single figure id). Criterion microbenches live under `benches/`.

pub mod arexec;
pub mod chaos;
pub mod evaluation;
pub mod micro;
pub mod multidev;
pub mod report;
pub mod scan;
pub mod sjf;
pub mod trace;
