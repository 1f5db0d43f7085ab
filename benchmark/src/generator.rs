//! The closed-loop load generator and the oracle it checks answers with.
//!
//! One thread, blocking sockets, at most two connections: every LotusX
//! client — a keystroke or a submitted query — waits for its reply, so
//! the next operation on a connection is sent only when the previous
//! one has been answered. With two keep-alive connections the generator
//! always waits on the connection whose request is oldest; the server
//! answers in arrival order, so that is the next reply due.
//!
//! The untimed pass checks whole response bodies against the oracle as
//! they arrive. The measured pass only digests each body (status,
//! length, FNV-1a) and the digests are checked once the clock has
//! stopped, so the oracle's own work — for uncached queries as much as
//! the server's — never lands inside a timed interval.

use crate::client::{Conn, Digest};
use crate::replica::Replica;
use crate::spans::Spans;
use crate::workload::{Class, Workload};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Expected answers, computed in-process on first use.
pub struct Oracle<'a> {
    replica: &'a Replica,
    workload: &'a Workload,
    expected: Vec<Option<(Digest, Vec<u8>)>>,
    spans: Spans,
}

impl<'a> Oracle<'a> {
    pub fn new(replica: &'a Replica, workload: &'a Workload) -> Self {
        Oracle {
            replica,
            workload,
            expected: (0..workload.requests.len()).map(|_| None).collect(),
            spans: Spans::new(false),
        }
    }

    fn expect(&mut self, request: u32) -> Result<&(Digest, Vec<u8>), String> {
        let slot = &mut self.expected[request as usize];
        if slot.is_none() {
            let raw = &self.workload.requests[request as usize].bytes;
            let body = self.replica.answer(raw, &mut self.spans)?.into_bytes();
            *slot = Some((Digest::of(200, &body), body));
        }
        Ok(slot.as_ref().expect("filled above"))
    }

    /// Is `body` byte for byte what the engine answers to `request`?
    pub fn body_matches(&mut self, request: u32, status: u16, body: &[u8]) -> Result<bool, String> {
        let (_, expected) = self.expect(request)?;
        Ok(status == 200 && expected == body)
    }

    pub fn digest_matches(&mut self, request: u32, seen: Digest) -> Result<bool, String> {
        Ok(self.expect(request)?.0 == seen)
    }
}

/// One answered request of a measured pass.
#[derive(Clone, Copy)]
pub struct Seen {
    pub request: u32,
    pub digest: Digest,
    pub latency_ns: u64,
}

/// One completed operation.
#[derive(Clone, Copy)]
pub struct OpRecord {
    pub latency_ns: u64,
    /// Range of this operation's answers in [`PassLog::seen`].
    first_seen: u32,
    n_seen: u32,
    /// Transport-level outcome: every request answered by a response
    /// that framed, and a session's connection closed cleanly at its end.
    transport_ok: bool,
    /// Whole-body comparison outcome (untimed pass only).
    bodies_ok: bool,
}

/// Everything one pass (untimed or measured) of one lifetime observed.
#[derive(Default)]
pub struct PassLog {
    pub ops: Vec<OpRecord>,
    pub seen: Vec<Seen>,
    /// Session workloads: time to establish each connection.
    pub connect_ns: Vec<u64>,
    /// Start of the pass to the completion of its last operation.
    pub elapsed: Duration,
    /// Filled by [`PassLog::verify`].
    pub failed: u64,
}

impl PassLog {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn ok(&self) -> u64 {
        self.attempted() - self.failed
    }

    /// Latencies of the operations, in nanoseconds.
    pub fn op_latencies(&self) -> Vec<u64> {
        self.ops.iter().map(|o| o.latency_ns).collect()
    }

    pub fn request_latencies(&self, workload: &Workload, class: Class) -> Vec<u64> {
        self.seen
            .iter()
            .filter(|s| workload.requests[s.request as usize].class == class)
            .map(|s| s.latency_ns)
            .collect()
    }

    pub fn requests(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Checks every digest against the oracle and counts the failed
    /// operations: a transport error, a missing answer, a status other
    /// than 200 or a body that differs from the engine's.
    pub fn verify(&mut self, oracle: &mut Oracle<'_>) -> Result<(), String> {
        let mut failed = 0;
        for op in &self.ops {
            let answers = &self.seen[op.first_seen as usize..(op.first_seen + op.n_seen) as usize];
            let mut ok = op.transport_ok && op.bodies_ok;
            for seen in answers {
                ok &= oracle.digest_matches(seen.request, seen.digest)?;
            }
            failed += u64::from(!ok);
        }
        self.failed = failed;
        Ok(())
    }
}

/// The generator of one server lifetime. Passes continue the operation
/// sequence where the previous pass stopped; a new lifetime (a new
/// `Generator`) starts again at operation 0.
pub struct Generator<'a> {
    workload: &'a Workload,
    addr: SocketAddr,
    conns: Vec<Conn>,
    next_op: usize,
}

impl<'a> Generator<'a> {
    pub fn connect(workload: &'a Workload, addr: SocketAddr) -> Result<Self, String> {
        let conns = (0..workload.spec.conns)
            .map(|_| Conn::connect(addr).map_err(|e| format!("connecting to the server: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Generator {
            workload,
            addr,
            conns,
            next_op: 0,
        })
    }

    fn take_op(&mut self) -> usize {
        let op = self.next_op % self.workload.ops.len();
        self.next_op += 1;
        op
    }

    /// Runs operations until `duration` has passed and at least
    /// `min_ops` were started, then lets those in flight finish. With
    /// an `oracle`, whole bodies are compared as they arrive (the
    /// untimed pass).
    pub fn run(
        &mut self,
        duration: Duration,
        min_ops: usize,
        mut oracle: Option<&mut Oracle<'_>>,
    ) -> Result<PassLog, String> {
        let mut log = PassLog::default();
        let start = Instant::now();
        let deadline = start + duration;
        let until = self.next_op + min_ops;
        if self.conns.is_empty() {
            while Instant::now() < deadline || self.next_op < until {
                self.session(&mut log, oracle.as_deref_mut())?;
            }
        } else {
            self.keep_alive(deadline, until, &mut log, oracle)?;
        }
        log.elapsed = start.elapsed();
        Ok(log)
    }

    /// One request per operation on persistent connections, one
    /// operation outstanding per connection.
    fn keep_alive(
        &mut self,
        deadline: Instant,
        until: usize,
        log: &mut PassLog,
        mut oracle: Option<&mut Oracle<'_>>,
    ) -> Result<(), String> {
        let n = self.conns.len();
        // Per connection: the request in flight and when it was sent.
        let mut in_flight: Vec<Option<(u32, Instant)>> = vec![None; n];
        let mut outstanding = 0;
        for (c, slot) in in_flight.iter_mut().enumerate() {
            let op = self.take_op();
            *slot = Some(self.send_on(c, op)?);
            outstanding += 1;
        }
        let mut c = 0;
        while outstanding > 0 {
            if let Some((request, sent)) = in_flight[c].take() {
                outstanding -= 1;
                let first_seen = log.seen.len() as u32;
                let mut record = OpRecord {
                    latency_ns: 0,
                    first_seen,
                    n_seen: 0,
                    transport_ok: true,
                    bodies_ok: true,
                };
                match self.conns[c].recv() {
                    Ok(digest) => {
                        record.latency_ns = sent.elapsed().as_nanos() as u64;
                        record.n_seen = 1;
                        log.seen.push(Seen {
                            request,
                            digest,
                            latency_ns: record.latency_ns,
                        });
                        if let Some(oracle) = oracle.as_deref_mut() {
                            record.bodies_ok = oracle.body_matches(
                                request,
                                digest.status,
                                self.conns[c].body(),
                            )?;
                        }
                    }
                    Err(_) => {
                        // The stream can no longer be trusted to frame.
                        record.latency_ns = sent.elapsed().as_nanos() as u64;
                        record.transport_ok = false;
                        self.conns[c] = Conn::connect(self.addr)
                            .map_err(|e| format!("reconnecting after a failed operation: {e}"))?;
                    }
                }
                log.ops.push(record);
                if Instant::now() < deadline || self.next_op < until {
                    let op = self.take_op();
                    in_flight[c] = Some(self.send_on(c, op)?);
                    outstanding += 1;
                }
            }
            c = (c + 1) % n;
        }
        Ok(())
    }

    fn send_on(&mut self, c: usize, op: usize) -> Result<(u32, Instant), String> {
        let request = self.workload.ops[op][0];
        let sent = Instant::now();
        self.conns[c]
            .send(&self.workload.requests[request as usize].bytes)
            .map_err(|e| format!("sending a request: {e}"))?;
        Ok((request, sent))
    }

    /// One scripted session: connect, every request in turn, and — the
    /// last request says `Connection: close` — wait for the server's EOF.
    fn session(
        &mut self,
        log: &mut PassLog,
        mut oracle: Option<&mut Oracle<'_>>,
    ) -> Result<(), String> {
        let op = self.take_op();
        let workload = self.workload;
        let requests = &workload.ops[op];
        let mut record = OpRecord {
            latency_ns: 0,
            first_seen: log.seen.len() as u32,
            n_seen: 0,
            transport_ok: false,
            bodies_ok: true,
        };
        let start = Instant::now();
        if let Ok(mut conn) = Conn::connect(self.addr) {
            log.connect_ns.push(start.elapsed().as_nanos() as u64);
            let mut framed = true;
            for &request in requests {
                let sent = Instant::now();
                let answer = conn
                    .send(&workload.requests[request as usize].bytes)
                    .and_then(|_| conn.recv());
                let Ok(digest) = answer else {
                    framed = false;
                    break;
                };
                log.seen.push(Seen {
                    request,
                    digest,
                    latency_ns: sent.elapsed().as_nanos() as u64,
                });
                record.n_seen += 1;
                if let Some(oracle) = oracle.as_deref_mut() {
                    record.bodies_ok &= oracle.body_matches(request, digest.status, conn.body())?;
                }
            }
            record.transport_ok = framed && conn.closed_cleanly();
        }
        record.latency_ns = start.elapsed().as_nanos() as u64;
        log.ops.push(record);
        Ok(())
    }
}
