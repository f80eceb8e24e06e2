//! The open-loop request generator.
//!
//! Requests arrive as a seeded Poisson process on the simulated clock: each
//! has a due time, and its latency runs from that due time to the round in
//! which its reply shows up, so a stall also charges the requests queued
//! behind it. The generator is the benchmark process itself and drives the
//! server between arrivals: it sends every request that is due, runs one
//! scheduler round, and reaps replies. Simulated connections are kernel
//! objects, not OS sockets.
//!
//! Every reply is checked: it must name the generation that should have
//! served it (`Expect::Gen`), or, for servers whose replies carry no version
//! (the fleet), the caller checks the serving instance's event counter.

use std::time::{Duration, Instant};

use mcr_core::runtime::{run_round, ChaosRng, McrInstance};
use mcr_procsim::{ConnId, Kernel, SimDuration};

use crate::record::span;

/// Where a request goes.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// A fresh connection, closed once the reply arrives.
    Fresh,
    /// A fresh connection kept open as a session once answered.
    Open,
    /// The existing session at this index (the next idle one if it is busy).
    Session(usize),
}

/// What a reply must show.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// The reply names generation `g` (`gen{g}`).
    Gen(u32),
    /// Any non-empty reply; the caller checks who served it.
    Served,
}

/// A sent request awaiting its reply.
#[derive(Debug)]
pub struct Pending {
    conn: ConnId,
    due: u64,
    session: Option<usize>,
    keep: bool,
}

/// Scheduler rounds without progress before outstanding requests count as
/// unanswered.
const MAX_STALLS: usize = 64;

/// The generator's state and everything it measured.
pub struct Load {
    rng: ChaosRng,
    mean_gap_ns: f64,
    next_due: u64,
    port: u16,
    /// Open sessions, in the order they were opened.
    pub sessions: Vec<ConnId>,
    busy: Vec<bool>,
    /// Simulated send-to-reply latency of every answered request, ms.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent against its due time (simulated ms).
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests unanswered or answered by the wrong generation.
    pub failed: u64,
    /// Whether requests count as measured traffic (latency samples, serving
    /// rate); population and check traffic does not.
    measured: bool,
    /// Host time spent serving steady-state traffic, and requests served in it.
    pub serve_wall: Duration,
    pub served: u64,
    /// Scheduler steps and kernel wakeups spent on steady-state traffic.
    pub steps: u64,
    pub wakeups: u64,
}

impl Load {
    /// A generator sending to `port` with mean interarrival `mean_gap_ns`.
    pub fn new(seed: u64, port: u16, mean_gap_ns: u64, now: u64) -> Self {
        let mut load = Load {
            rng: ChaosRng::new(seed),
            mean_gap_ns: mean_gap_ns as f64,
            next_due: now,
            port,
            sessions: Vec::new(),
            busy: Vec::new(),
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            measured: true,
            serve_wall: Duration::ZERO,
            served: 0,
            steps: 0,
            wakeups: 0,
        };
        load.next_due = now + load.gap();
        load
    }

    /// Uses `conns` as the open sessions.
    pub fn set_sessions(&mut self, conns: Vec<ConnId>) {
        self.busy = vec![false; conns.len()];
        self.sessions = conns;
    }

    /// Starts a traffic phase: arrivals with mean gap `mean_gap_ns`, the
    /// first due one gap from now, counted as measured traffic or not.
    pub fn phase(&mut self, kernel: &Kernel, mean_gap_ns: u64, measured: bool) {
        self.mean_gap_ns = mean_gap_ns as f64;
        self.measured = measured;
        self.next_due = kernel.now().0 + self.gap();
    }

    /// Whether every open session has a request outstanding.
    fn sessions_busy(&self) -> bool {
        !self.sessions.is_empty() && self.busy.iter().all(|&b| b)
    }

    /// The generator's random stream (request contents, session picks).
    pub fn rng(&mut self) -> &mut ChaosRng {
        &mut self.rng
    }

    /// Exponential interarrival gap, ns.
    fn gap(&mut self) -> u64 {
        let u = ((self.rng.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        (-u.ln() * self.mean_gap_ns).round().max(1.0) as u64
    }

    fn wait_until_due(&self, kernel: &mut Kernel) {
        let now = kernel.now().0;
        if now < self.next_due {
            kernel.advance_clock(SimDuration(self.next_due - now));
        }
    }

    /// Sends one request at the current due time. `None` when the target
    /// cannot be reached (counted as a failure).
    fn send(&mut self, kernel: &mut Kernel, target: Target, payload: Vec<u8>) -> Option<Pending> {
        let due = self.next_due;
        self.next_due += self.gap();
        self.attempted += 1;
        if self.measured {
            self.late_ms.push(kernel.now().0.saturating_sub(due) as f64 / 1e6);
        }
        let (conn, session, keep) = match target {
            Target::Fresh | Target::Open => match kernel.client_connect(self.port) {
                Ok(conn) => (conn, None, matches!(target, Target::Open)),
                Err(_) => {
                    self.failed += 1;
                    return None;
                }
            },
            Target::Session(idx) => {
                let n = self.sessions.len();
                let Some(slot) = (0..n).map(|k| (idx + k) % n).find(|&s| !self.busy[s]) else {
                    self.failed += 1;
                    return None;
                };
                self.busy[slot] = true;
                (self.sessions[slot], Some(slot), true)
            }
        };
        if kernel.client_send(conn, payload).is_err() {
            self.failed += 1;
            return None;
        }
        Some(Pending { conn, due, session, keep })
    }

    /// Collects every reply that has arrived, checking it against `expect`.
    fn reap(&mut self, kernel: &mut Kernel, pending: &mut Vec<Pending>, expect: Expect) -> usize {
        let now = kernel.now().0;
        let before = pending.len();
        pending.retain(|p| {
            let Some(reply) = kernel.client_recv(p.conn) else { return true };
            if self.measured {
                self.latency_ms.push(now.saturating_sub(p.due) as f64 / 1e6);
            }
            if !reply_matches(&reply, expect) {
                self.failed += 1;
            }
            match (p.session, p.keep) {
                (Some(slot), _) => self.busy[slot] = false,
                (None, true) => {
                    self.sessions.push(p.conn);
                    self.busy.push(false);
                }
                (None, false) => {
                    let _ = kernel.client_close(p.conn);
                }
            }
            false
        });
        before - pending.len()
    }

    /// Serves `n` open-loop requests against `instance`, waiting for every
    /// reply. `pick` chooses each request's target and payload.
    pub fn serve(
        &mut self,
        kernel: &mut Kernel,
        instance: &mut McrInstance,
        n: usize,
        expect: Expect,
        mut pick: impl FnMut(&mut ChaosRng) -> (Target, Vec<u8>),
    ) {
        let wall = Instant::now();
        let wakeups = kernel.wakeups_issued();
        let mut pending = Vec::new();
        let mut left = n;
        let mut stalls = 0;
        let mut answered = 0u64;
        let mut held = None;
        while left > 0 || !pending.is_empty() {
            if left > 0 && pending.is_empty() {
                self.wait_until_due(kernel);
            }
            while left > 0 && self.next_due <= kernel.now().0 {
                let (target, payload) = held.take().unwrap_or_else(|| pick(&mut self.rng));
                if matches!(target, Target::Session(_)) && self.sessions_busy() {
                    // Every session has a command outstanding: the client
                    // sends this one as soon as a session frees up.
                    held = Some((target, payload));
                    break;
                }
                pending.extend(self.send(kernel, target, payload));
                left -= 1;
            }
            let steps = match span("scheduler.run_round", || run_round(kernel, instance)) {
                Ok(stats) => stats.steps(),
                Err(_) => {
                    self.failed += (pending.len() + left) as u64;
                    self.attempted += left as u64;
                    break;
                }
            };
            self.steps += steps as u64;
            let got = self.reap(kernel, &mut pending, expect);
            answered += got as u64;
            if got == 0 && steps == 0 {
                if left > 0 {
                    self.wait_until_due(kernel);
                    continue;
                }
                stalls += 1;
                if stalls > MAX_STALLS {
                    self.failed += pending.len() as u64;
                    break;
                }
            } else {
                stalls = 0;
            }
        }
        if self.measured {
            self.serve_wall += wall.elapsed();
            self.served += answered;
            self.wakeups += kernel.wakeups_issued() - wakeups;
        }
    }

    /// Sends `n` requests at their due times without running the server:
    /// probes that stay pending across an update window.
    pub fn send_probes(
        &mut self,
        kernel: &mut Kernel,
        n: usize,
        mut pick: impl FnMut(&mut ChaosRng) -> (Target, Vec<u8>),
    ) -> Vec<Pending> {
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            self.wait_until_due(kernel);
            let (target, payload) = pick(&mut self.rng);
            pending.extend(self.send(kernel, target, payload));
        }
        pending
    }

    /// Runs `instance` until every probe is answered (or the server stalls).
    pub fn collect(
        &mut self,
        kernel: &mut Kernel,
        instance: &mut McrInstance,
        mut pending: Vec<Pending>,
        expect: Expect,
    ) -> usize {
        let mut answered = self.reap(kernel, &mut pending, expect);
        let mut stalls = 0;
        while !pending.is_empty() && stalls <= MAX_STALLS {
            let steps = match span("scheduler.run_round", || run_round(kernel, instance)) {
                Ok(stats) => stats.steps(),
                Err(_) => break,
            };
            let got = self.reap(kernel, &mut pending, expect);
            answered += got;
            stalls = if got == 0 && steps == 0 { stalls + 1 } else { 0 };
        }
        self.failed += pending.len() as u64;
        // Sessions whose probe went unanswered stay busy: later picks skip them.
        answered
    }

    /// Adds `other`'s serving time and counters to this generator's (the
    /// same traffic served on another instance).
    pub fn absorb_serving(&mut self, other: &Load) {
        self.serve_wall += other.serve_wall;
        self.served += other.served;
        self.steps += other.steps;
        self.wakeups += other.wakeups;
    }

    /// Moves the next arrival to no earlier than the current clock, so the
    /// time the update itself took is not charged to the next request.
    pub fn resync(&mut self, kernel: &Kernel) {
        let now = kernel.now().0;
        if self.next_due < now {
            self.next_due = now + self.gap();
        }
    }
}

/// Whether `reply` satisfies `expect`.
pub fn reply_matches(reply: &[u8], expect: Expect) -> bool {
    match expect {
        Expect::Served => !reply.is_empty(),
        Expect::Gen(g) => names_generation(reply, g),
    }
}

/// Whether `reply` contains `gen{g}` not followed by another digit.
pub fn names_generation(reply: &[u8], g: u32) -> bool {
    let tag = format!("gen{g}");
    let tag = tag.as_bytes();
    reply
        .windows(tag.len())
        .enumerate()
        .any(|(i, w)| w == tag && reply.get(i + tag.len()).is_none_or(|b| !b.is_ascii_digit()))
}

/// A printable payload of `len` bytes after `prefix`.
pub fn payload(prefix: &str, len: usize) -> Vec<u8> {
    let mut p = prefix.as_bytes().to_vec();
    p.resize(prefix.len() + len, b'x');
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_tags_do_not_match_longer_numbers() {
        assert!(names_generation(b"vsftpd session gen2: 4 bytes", 2));
        assert!(names_generation(b"STORED gen1", 1));
        assert!(!names_generation(b"nginx gen12 OK", 1));
        assert!(!names_generation(b"nginx gen1 OK", 2));
    }
}
