//! The load generator: one thread, non-blocking loopback sockets, one
//! connection per closed-loop client and one pipelined connection per
//! open-loop stream.
//!
//! Frames are built and parsed with the server's own public wire types
//! (`Frame`, `FrameDecoder`); the sockets are plain `std` TCP. The thread
//! never blocks: when nothing is due and nothing arrived it sleeps for at
//! most [`IDLE_SLEEP`], which bounds both how late a due request is sent
//! and how late a response is noticed.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use waste_not::device::TrafficBytes;
use waste_not::net::{Frame, FrameDecoder};
use waste_not::Breakdown;

use crate::workload::{Arrival, Class, Kind, Stream};

/// Longest idle sleep of the generator thread.
const IDLE_SLEEP: Duration = Duration::from_micros(100);
/// `Busy` answers a request may get before it counts as refused.
const BUSY_RETRIES: u32 = 8;

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    Ok,
    /// The result differed from the oracle's.
    Wrong,
    /// The server answered with an error frame, or the connection failed.
    Error(String),
    /// `Busy` after every retry.
    Refused,
}

/// One request's record.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub stream: usize,
    /// Index of the request in its stream.
    pub req: usize,
    pub kind: Kind,
    pub class: Class,
    pub step: usize,
    pub status: Status,
    /// Seconds from when the request was due (open loop) or sent (closed
    /// loop) to when its response was decoded.
    pub latency: f64,
    /// Seconds the first send ran behind the due time (open loop only).
    pub lag: f64,
    /// Offsets from the run start, in seconds: first send and response.
    pub sent_at: f64,
    pub done_at: f64,
    pub breakdown: Option<Breakdown>,
    pub traffic: Option<TrafficBytes>,
}

/// Everything one [`drive`] call observed.
#[derive(Debug, Default)]
pub struct RunLog {
    pub outcomes: Vec<Outcome>,
    /// The start on the benchmark's trace clock (µs).
    pub start_us: f64,
    /// Bytes read off the sockets and response frames decoded.
    pub bytes_in: u64,
    pub responses: u64,
    pub busy_frames: u64,
}

impl RunLog {
    /// Append the log of a later [`drive`] call: its streams are numbered
    /// after this call's `streams`, its times counted from this start.
    pub fn append(&mut self, later: RunLog, streams: usize) {
        let shift = (later.start_us - self.start_us) / 1e6;
        for mut o in later.outcomes {
            o.stream += streams;
            o.sent_at += shift;
            o.done_at += shift;
            self.outcomes.push(o);
        }
        self.bytes_in += later.bytes_in;
        self.responses += later.responses;
        self.busy_frames += later.busy_frames;
    }
}

struct InFlight {
    stream: usize,
    req: usize,
    step: usize,
    due: Instant,
    first_sent: Option<Instant>,
    busy: u32,
}

struct Conn {
    sock: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    pending: VecDeque<InFlight>,
    /// Requests answered `Busy`, to be sent again at the given time.
    retry: Vec<(Instant, InFlight)>,
    stream: usize,
    closed: bool,
}

impl Conn {
    fn open(addr: SocketAddr, stream: usize) -> Conn {
        let sock = TcpStream::connect(addr).expect("connect to benchmark server");
        sock.set_nodelay(true).expect("nodelay");
        sock.set_nonblocking(true).expect("nonblocking");
        Conn {
            sock,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            pending: VecDeque::new(),
            retry: Vec::new(),
            stream,
            closed: false,
        }
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.retry.is_empty()
    }

    fn send(&mut self, streams: &[Stream], mut f: InFlight, now: Instant) {
        let r = &streams[f.stream].requests[f.req];
        Frame::Query {
            mode: r.mode,
            sql: r.sql.clone(),
        }
        .encode_into(&mut self.out);
        f.first_sent.get_or_insert(now);
        self.pending.push_back(f);
    }

    /// Write what the socket takes; `false` once the peer is gone.
    fn flush(&mut self) -> bool {
        while !self.out.is_empty() {
            match self.sock.write(&self.out) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

/// Per-stream issuing state.
struct Issuer {
    next: usize,
    open: bool,
}

/// Send `streams` to the server at `addr` and record every request.
///
/// Batch streams send each request once, open streams send their
/// schedule, and background streams repeat theirs until the others are
/// done. Every answer is compared with the request's expected rows.
/// Requests still unanswered or unsent at `deadline` count as failed.
pub fn drive(addr: SocketAddr, streams: &[Stream], deadline: Instant) -> RunLog {
    let mut conns = Vec::new();
    for (s, stream) in streams.iter().enumerate() {
        let n = match stream.arrival {
            Arrival::Batch { clients } => clients,
            Arrival::Background | Arrival::Open { .. } => 1,
        };
        for _ in 0..n {
            conns.push(Conn::open(addr, s));
        }
    }
    let mut issuers: Vec<Issuer> = streams
        .iter()
        .map(|s| Issuer {
            next: 0,
            open: !s.requests.is_empty(),
        })
        .collect();
    let mut log = RunLog::default();
    let mut buf = vec![0u8; 64 << 10];
    let start = Instant::now();
    log.start_us = crate::report::since_epoch_us(start);

    loop {
        let now = Instant::now();
        let mut progressed = false;
        let mut next_due: Option<Instant> = None;
        let foreground_done = streams.iter().enumerate().all(|(s, stream)| {
            matches!(stream.arrival, Arrival::Background)
                || (!issuers[s].open && conns.iter().all(|c| c.stream != s || c.idle() || c.closed))
        });

        for conn in conns.iter_mut().filter(|c| !c.closed) {
            let s = conn.stream;
            let (stream, issuer) = (&streams[s], &mut issuers[s]);
            match &stream.arrival {
                Arrival::Batch { .. } | Arrival::Background => {
                    let len = stream.requests.len();
                    let done = match stream.arrival {
                        Arrival::Background => foreground_done,
                        _ => issuer.next >= len,
                    };
                    if done {
                        issuer.open = false;
                    } else if issuer.open && conn.idle() {
                        let req = issuer.next % len;
                        issuer.next += 1;
                        let f = InFlight {
                            stream: s,
                            req,
                            step: 0,
                            due: now,
                            first_sent: None,
                            busy: 0,
                        };
                        conn.send(streams, f, now);
                        progressed = true;
                    }
                }
                Arrival::Open { due, step, .. } => {
                    while issuer.next < due.len() && start + due[issuer.next] <= now {
                        let i = issuer.next;
                        issuer.next += 1;
                        let f = InFlight {
                            stream: s,
                            req: i,
                            step: step[i],
                            due: start + due[i],
                            first_sent: None,
                            busy: 0,
                        };
                        conn.send(streams, f, now);
                        progressed = true;
                    }
                    if issuer.next < due.len() {
                        let t = start + due[issuer.next];
                        next_due = Some(next_due.map_or(t, |d| d.min(t)));
                    } else {
                        issuer.open = false;
                    }
                }
            }
            let mut i = 0;
            while i < conn.retry.len() {
                if conn.retry[i].0 <= now {
                    let (_, f) = conn.retry.swap_remove(i);
                    conn.send(streams, f, now);
                    progressed = true;
                } else {
                    let t = conn.retry[i].0;
                    next_due = Some(next_due.map_or(t, |d| d.min(t)));
                    i += 1;
                }
            }
            if !conn.flush() {
                conn.closed = true;
            }
        }

        for conn in &mut conns {
            if conn.closed {
                fail_all(conn, streams, &mut log, "connection closed");
                abandon_unsent(conn.stream, &mut issuers[conn.stream], streams, &mut log);
                continue;
            }
            loop {
                match conn.sock.read(&mut buf) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.feed(&buf[..n]);
                        log.bytes_in += n as u64;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
            loop {
                let frame = match conn.decoder.next() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) => {
                        conn.closed = true;
                        fail_all(conn, streams, &mut log, &format!("bad frame: {e:?}"));
                        break;
                    }
                };
                let done = Instant::now();
                log.responses += 1;
                let Some(mut f) = conn.pending.pop_front() else {
                    conn.closed = true;
                    break;
                };
                let req = &streams[f.stream].requests[f.req];
                let (status, breakdown, traffic) = match frame {
                    Frame::Result(r) => {
                        let status = if r.rows == req.expect {
                            Status::Ok
                        } else {
                            Status::Wrong
                        };
                        (status, Some(r.breakdown), Some(r.traffic))
                    }
                    Frame::Error { error, .. } => (Status::Error(error.to_string()), None, None),
                    Frame::Busy { .. } => {
                        log.busy_frames += 1;
                        if f.busy < BUSY_RETRIES {
                            f.busy += 1;
                            conn.retry
                                .push((done + Duration::from_millis(1 << f.busy.min(7)), f));
                            continue;
                        }
                        (Status::Refused, None, None)
                    }
                    other => (
                        Status::Error(format!("unexpected frame {:#04x}", other.type_byte())),
                        None,
                        None,
                    ),
                };
                log.outcomes
                    .push(record(&f, req, status, breakdown, traffic, done, start));
            }
        }

        let finished =
            issuers.iter().all(|i| !i.open) && conns.iter().all(|c| c.idle() || c.closed);
        if finished {
            break;
        }
        if Instant::now() > deadline {
            for conn in &mut conns {
                fail_all(conn, streams, &mut log, "no answer before the deadline");
            }
            for (s, issuer) in issuers.iter_mut().enumerate() {
                abandon_unsent(s, issuer, streams, &mut log);
            }
            break;
        }
        if !progressed {
            let now = Instant::now();
            let nap = next_due.map_or(IDLE_SLEEP, |d| {
                d.saturating_duration_since(now).min(IDLE_SLEEP)
            });
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }
    log
}

fn record(
    f: &InFlight,
    req: &crate::workload::Request,
    status: Status,
    breakdown: Option<Breakdown>,
    traffic: Option<TrafficBytes>,
    done: Instant,
    start: Instant,
) -> Outcome {
    let sent = f.first_sent.unwrap_or(f.due);
    Outcome {
        stream: f.stream,
        req: f.req,
        kind: req.kind,
        class: req.class,
        step: f.step,
        status,
        latency: done.duration_since(f.due).as_secs_f64(),
        lag: sent.saturating_duration_since(f.due).as_secs_f64(),
        sent_at: sent.duration_since(start).as_secs_f64(),
        done_at: done.duration_since(start).as_secs_f64(),
        breakdown,
        traffic,
    }
}

/// Record every request still pending or waiting for a retry on `conn`
/// as failed.
fn fail_all(conn: &mut Conn, streams: &[Stream], log: &mut RunLog, why: &str) {
    let retry = conn.retry.drain(..).map(|(_, f)| f);
    for f in conn.pending.drain(..).chain(retry) {
        log.outcomes
            .push(lost(streams, f.stream, f.req, f.step, why));
    }
}

/// Record a stream's requests that were never sent as failed and stop it.
fn abandon_unsent(s: usize, issuer: &mut Issuer, streams: &[Stream], log: &mut RunLog) {
    let stream = &streams[s];
    if !matches!(stream.arrival, Arrival::Background) {
        for i in issuer.next..stream.requests.len() {
            let step = match &stream.arrival {
                Arrival::Open { step, .. } => step[i],
                _ => 0,
            };
            log.outcomes.push(lost(streams, s, i, step, "never sent"));
        }
        issuer.next = stream.requests.len();
    }
    issuer.open = false;
}

/// A request that got no answer: it misses every latency limit.
fn lost(streams: &[Stream], stream: usize, req: usize, step: usize, why: &str) -> Outcome {
    let r = &streams[stream].requests[req];
    Outcome {
        stream,
        req,
        kind: r.kind,
        class: r.class,
        step,
        status: Status::Error(why.into()),
        latency: f64::INFINITY,
        lag: f64::INFINITY,
        sent_at: f64::NAN,
        done_at: f64::NAN,
        breakdown: None,
        traffic: None,
    }
}
