//! `ftp-update`: the paper's multiprocess case.
//!
//! Each cycle boots vsftpd generation 1, opens 12 FTP sessions (one forked
//! process each; every simulated process maps ~20 MB, so ~30 sessions would
//! hold over 1 GB during an update) interleaved with a seeded number of
//! short-lived connections, serves session commands, leaves probe commands
//! pending on idle sessions, and live-updates 1 → 2 stop-the-world. It then
//! checks that generation 2 answers the probes, further session commands and
//! new connections. Every cycle boots fresh: a 2 → 3 update conflicts on
//! `conn_s` by design.

use std::time::Instant;

use mcr_bench::{boot_program, kernel_fingerprint};
use mcr_core::runtime::{live_update, McrInstance, PrecopyOptions, UpdateOptions};
use mcr_procsim::Kernel;
use mcr_servers::program_by_name;
use mcr_typemeta::InstrumentationConfig;

use crate::common::{pinned_options, record_walls, sim_ms, Cycle, Layers, Size, Workload};
use crate::load::{payload, Expect, Load, Target};
use crate::record::{cycle_seed, fold, span};

const PORT: u16 = 21;
/// Mean simulated interarrival of session commands (served in ~5 us) and
/// of new connections (~70 us, a fork each): both load the server to about
/// two thirds.
const COMMAND_GAP_NS: u64 = 8_000;
const CONNECT_GAP_NS: u64 = 100_000;

pub struct Ftp {
    seed: u64,
    sessions: usize,
    extra_max: u64,
    commands: usize,
    probes: usize,
    post: usize,
    cycles: usize,
}

impl Ftp {
    pub fn new(seed: u64, size: Size) -> Self {
        match size {
            Size::Full => {
                Ftp { seed, sessions: 12, extra_max: 1, commands: 500, probes: 12, post: 40, cycles: 8 }
            }
            Size::Min => Ftp { seed, sessions: 4, extra_max: 2, commands: 20, probes: 2, post: 6, cycles: 2 },
        }
    }

    /// Boots generation 1 and brings it to the pre-update state: sessions
    /// open, short connections served, session commands answered.
    fn populated(&self, seed: u64, layers: &mut Layers) -> (Kernel, McrInstance, Load) {
        let t = Instant::now();
        let (mut kernel, mut v1) =
            span("scheduler.boot", || boot_program("vsftpd", 1, InstrumentationConfig::full()));
        layers.push("scheduler.boot_ms", t.elapsed().as_secs_f64() * 1e3);
        let mut load = Load::new(seed, PORT, CONNECT_GAP_NS, kernel.now().0);
        let extra = load.rng().range(0, self.extra_max + 1) as usize;
        // Session opens and short connections, in a seeded order.
        let mut opens: Vec<Target> = vec![Target::Open; self.sessions];
        opens.extend(std::iter::repeat_n(Target::Fresh, extra));
        for i in (1..opens.len()).rev() {
            let j = load.rng().range(0, i as u64 + 1) as usize;
            opens.swap(i, j);
        }
        let mut next = opens.into_iter();
        load.phase(&kernel, CONNECT_GAP_NS, false);
        load.serve(&mut kernel, &mut v1, self.sessions + extra, Expect::Gen(1), |rng| {
            let len = rng.range(0, 64) as usize;
            (next.next().expect("one target per open"), payload("USER anonymous\r\nPASS guest\r\nRETR ", len))
        });
        let sessions = self.sessions;
        load.phase(&kernel, COMMAND_GAP_NS, true);
        load.serve(&mut kernel, &mut v1, self.commands, Expect::Gen(1), |rng| {
            let len = rng.range(0, 256) as usize;
            (Target::Session(rng.range(0, sessions as u64) as usize), payload("LIST ", len))
        });
        (kernel, v1, load)
    }
}

impl Workload for Ftp {
    fn cycles(&self) -> usize {
        self.cycles
    }

    fn prepare(&mut self, layers: &mut Layers) {
        drop(self.populated(cycle_seed(self.seed, 0), layers));
    }

    fn start_pass(&mut self, _layers: &mut Layers) {}

    fn cycle(&mut self, index: usize, layers: &mut Layers) -> Cycle {
        let mut c = Cycle::default();
        let (mut kernel, v1, mut load) = self.populated(cycle_seed(self.seed, index), layers);
        c.check(load.sessions.len() == self.sessions, "every FTP session opened");
        layers.probe_kernel(&kernel, &v1);
        let sessions = self.sessions as u64;
        let probes = load.send_probes(&mut kernel, self.probes, |rng| {
            (Target::Session(rng.range(0, sessions) as usize), payload("STAT ", 16))
        });
        let opts = UpdateOptions { precopy: PrecopyOptions::disabled(), ..pinned_options(1) };
        let t = Instant::now();
        let (mut v2, outcome) = span("pipeline.update", || {
            live_update(
                &mut kernel,
                v1,
                Box::new(program_by_name("vsftpd", 2)),
                InstrumentationConfig::full(),
                &opts,
            )
        });
        c.update_wall_ms = t.elapsed().as_secs_f64() * 1e3;
        c.check(outcome.is_committed(), "vsftpd 1 -> 2 commits");
        let report = outcome.report();
        c.downtime_ms = sim_ms(report.timings.downtime);
        c.total_ms = sim_ms(report.timings.total);
        layers.update_report(report);
        // Stop-the-world: the whole call is the window.
        record_walls(layers, (c.update_wall_ms, 0.0, c.update_wall_ms), c.total_ms);

        load.collect(&mut kernel, &mut v2, probes, Expect::Gen(2));
        load.resync(&kernel);
        load.serve(&mut kernel, &mut v2, self.post, Expect::Gen(2), |rng| {
            let len = rng.range(0, 256) as usize;
            (Target::Session(rng.range(0, sessions) as usize), payload("LIST ", len))
        });
        load.phase(&kernel, CONNECT_GAP_NS, false);
        load.serve(&mut kernel, &mut v2, 4, Expect::Gen(2), |rng| {
            let len = rng.range(0, 64) as usize;
            (Target::Fresh, payload("USER anonymous\r\nPASS guest\r\nRETR ", len))
        });
        fold(&mut c.digest, kernel_fingerprint(&kernel));
        layers.traffic(&load);
        c.load = Some(load);
        c.seal();
        c
    }
}
