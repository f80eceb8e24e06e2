//! `fleet-precopy`: the client's view of updates at fleet scale.
//!
//! One [`FleetServer`] process hosts about 10k sessions, one reader thread
//! each. Open-loop pings arrive at seeded Poisson times on seeded strided
//! sessions. Each cycle serves steady traffic, then runs one pre-copy live
//! update of a chain (v1 → v2 → …): the old version serves at the pre-copy
//! hook, and probes sent there stay parked across the window until the new
//! version answers them. Fleet replies carry no version, so each serving
//! instance's handled-event counter must account for every reply it gave.

use std::cell::RefCell;
use std::rc::Rc;

use mcr_bench::{kernel_fingerprint, FleetServer, FLEET_PORT};
use mcr_core::runtime::{
    boot, run_rounds, BootOptions, McrInstance, PrecopyOptions, SchedulerMode, UpdateOptions, UpdatePipeline,
};
use mcr_procsim::{ConnId, Kernel};
use mcr_typemeta::InstrumentationConfig;

use crate::common::{pinned_options, record_walls, sim_ms, Cycle, HookClock, Layers, Size, Workload};
use crate::load::{payload, Expect, Load, Target};
use crate::record::{cycle_seed, fold, span};

/// Mean simulated interarrival: a ping is served in ~4.6 us, so the fleet
/// runs at about 70% load.
const MEAN_GAP_NS: u64 = 6_500;

pub struct Fleet {
    seed: u64,
    sessions: usize,
    steady: usize,
    during: usize,
    probes: usize,
    post: usize,
    cycles: usize,
    pass: Option<Pass>,
}

/// A booted fleet and where its update chain stands.
struct Pass {
    kernel: Kernel,
    instance: Option<McrInstance>,
    conns: Vec<ConnId>,
    version: u32,
}

impl Fleet {
    pub fn new(seed: u64, size: Size, scale: f64) -> Self {
        // The seed jitters the fleet size by up to 2.5%, so no simulated
        // figure is a constant of the code.
        let jitter = (crate::record::cycle_seed(seed, usize::MAX) % 256) as usize;
        match size {
            Size::Full => Fleet {
                seed,
                sessions: (10_000.0 * scale) as usize + jitter,
                steady: 1_000,
                during: 100,
                probes: 16,
                post: 100,
                cycles: 8,
                pass: None,
            },
            Size::Min => Fleet {
                seed,
                sessions: 200 + jitter % 16,
                steady: 40,
                during: 10,
                probes: 4,
                post: 10,
                cycles: 2,
                pass: None,
            },
        }
    }

    fn boot_fleet(&self, layers: &mut Layers) -> Pass {
        let t = std::time::Instant::now();
        let mut kernel = Kernel::new();
        let opts = BootOptions { scheduler: SchedulerMode::EventDriven, ..Default::default() };
        let mut instance = span("scheduler.boot", || {
            boot(&mut kernel, Box::new(FleetServer::new(self.sessions)), &opts).expect("fleet boots")
        });
        layers.push("scheduler.boot_ms", t.elapsed().as_secs_f64() * 1e3);
        let conns: Vec<ConnId> =
            (0..self.sessions).map(|_| kernel.client_connect(FLEET_PORT).expect("fleet listens")).collect();
        run_rounds(&mut kernel, &mut instance, 2).expect("fleet accepts its sessions");
        Pass { kernel, instance: Some(instance), conns, version: 1 }
    }
}

/// Picks sessions along a seeded stride through the fleet.
fn strided(
    rng: &mut mcr_core::runtime::ChaosRng,
    n: usize,
) -> impl FnMut(&mut mcr_core::runtime::ChaosRng) -> (Target, Vec<u8>) {
    let mut slot = rng.range(0, n as u64) as usize;
    // An odd stride near sqrt(n) spreads consecutive picks across the table.
    let stride = (rng.range(n.isqrt() as u64 / 2, n.isqrt() as u64 + 2) as usize) | 1;
    move |rng| {
        slot = (slot + stride) % n;
        let len = rng.range(0, 64) as usize;
        (Target::Session(slot), payload("ping ", len))
    }
}

impl Workload for Fleet {
    fn cycles(&self) -> usize {
        self.cycles
    }

    fn prepare(&mut self, layers: &mut Layers) {
        let pass = self.boot_fleet(layers);
        assert!(
            pass.conns.iter().all(|&c| pass.kernel.client_is_accepted(c)),
            "fleet accepted every session"
        );
        drop(pass);
    }

    fn start_pass(&mut self, layers: &mut Layers) {
        self.pass = None;
        self.pass = Some(self.boot_fleet(layers));
    }

    fn cycle(&mut self, index: usize, layers: &mut Layers) -> Cycle {
        let mut c = Cycle::default();
        let n = self.sessions;
        let (steady, during, probes, post) = (self.steady, self.during, self.probes, self.post);
        let pass = self.pass.as_mut().expect("a pass is running");
        let kernel = &mut pass.kernel;
        let mut old = pass.instance.take().expect("the fleet is serving");
        let mut load = Load::new(cycle_seed(self.seed, index), FLEET_PORT, MEAN_GAP_NS, kernel.now().0);
        load.set_sessions(pass.conns.clone());
        let mut pick = strided(load.rng(), n);

        let handled = old.state.counters.events_handled;
        load.serve(kernel, &mut old, steady, Expect::Served, &mut pick);
        c.check(old.state.counters.events_handled - handled == steady as u64, "old fleet served every ping");
        layers.probe_kernel(kernel, &old);

        // The pre-copy hook: the old version serves a batch, then probes are
        // sent that stay parked across the window.
        let clock = HookClock::start();
        let shared = Rc::new(RefCell::new((load, pick, Vec::new(), 0u64, false)));
        let hook_state = Rc::clone(&shared);
        let hook_clock = Rc::clone(&clock);
        let hook = Box::new(move |kernel: &mut Kernel, old: &mut McrInstance, _round: usize| {
            HookClock::around(&hook_clock, false, || {
                let mut st = hook_state.borrow_mut();
                let (load, pick, parked, served, fired) = &mut *st;
                if std::mem::replace(fired, true) {
                    return;
                }
                // The new version's boot ran meanwhile; arrivals resume now.
                load.resync(kernel);
                let before = old.state.counters.events_handled;
                load.serve(kernel, old, during, Expect::Served, &mut *pick);
                *served = old.state.counters.events_handled - before;
                *parked = load.send_probes(kernel, probes, &mut *pick);
            });
        });
        let opts = UpdateOptions {
            scheduler: SchedulerMode::EventDriven,
            precopy: PrecopyOptions { rounds: 2, convergence_bytes: 0, serve_rounds: 1 },
            ..pinned_options(2)
        };
        let next = pass.version + 1;
        let pipeline = UpdatePipeline::for_options(&opts).with_precopy_hook(hook);
        let (mut new, outcome) = span("pipeline.update", || {
            pipeline.run(
                kernel,
                old,
                Box::new(FleetServer::with_version(n, next)),
                InstrumentationConfig::full(),
                &opts,
            )
        });
        let walls = HookClock::finish(&clock);
        drop(pipeline);
        c.update_wall_ms = walls.0;
        c.check(outcome.is_committed(), "fleet pre-copy update commits");
        let report = outcome.report();
        c.downtime_ms = sim_ms(report.timings.downtime);
        c.total_ms = sim_ms(report.timings.total);
        layers.update_report(report);
        record_walls(layers, walls, c.total_ms);

        let (mut load, mut pick, parked, served_during, fired) =
            Rc::try_unwrap(shared).ok().expect("the pipeline released its hook").into_inner();
        c.check(fired && served_during == during as u64, "old fleet served during pre-copy");
        let handled = new.state.counters.events_handled;
        let answered = load.collect(kernel, &mut new, parked, Expect::Served);
        c.check(
            answered == probes && new.state.counters.events_handled - handled == probes as u64,
            "new fleet answered every parked probe",
        );
        load.resync(kernel);
        let handled = new.state.counters.events_handled;
        load.serve(kernel, &mut new, post, Expect::Served, &mut pick);
        c.check(new.state.counters.events_handled - handled == post as u64, "new fleet served every ping");
        fold(&mut c.digest, kernel_fingerprint(kernel));
        pass.instance = Some(new);
        pass.version = next;
        layers.traffic(&load);
        c.load = Some(load);
        c.seal();
        c
    }
}
