//! `fault-drills`: the chaos and supervisor layer.
//!
//! nginx runs a fixed set of fault schedules drawn by `random_plan` from the
//! stop-the-world and pre-copy fault catalogs (alternating). Each
//! drill boots the scenario, injects the schedule, and checks that the
//! rollback left a fingerprint-identical kernel. It then boots the scenario
//! again, parks probe requests (stop-the-world drills), and runs
//! `supervised_update` with the fault in the first attempt: the supervisor
//! must commit. Probes are answered by generation 1 while the supervisor
//! backs off after a rollback, otherwise by generation 2; new requests after
//! the commit by generation 2.

use std::time::Instant;

use mcr_bench::{boot_program, kernel_fingerprint};
use mcr_core::runtime::{
    random_plan, supervised_update, time_to_recovery, ChaosPlan, ChaosRng, FaultCatalog, McrInstance,
    PrecopyOptions, SupervisorPolicy, UpdateOptions, UpdatePipeline,
};
use mcr_procsim::Kernel;
use mcr_servers::program_by_name;
use mcr_typemeta::InstrumentationConfig;
use mcr_workload::open_idle_connections;

use crate::common::{sim_ms, Cycle, Layers, Size, Workload};
use crate::load::{payload, Expect, Load, Target};
use crate::record::{cycle_seed, fold, span};

const PORT: u16 = 8080;
/// Seed of the fault schedules. Where a fault lands dominates a drill's
/// cost, so every run draws the same schedules; the run seed drives the
/// traffic and the pre-update state, and through the catalogs the exact
/// site each schedule names.
const CAMPAIGN_SEED: u64 = 0xC4A0_5EED;
/// Mean simulated interarrival: a request is served in ~5 us.
const MEAN_GAP_NS: u64 = 8_000;

pub struct Drills {
    seed: u64,
    requests: usize,
    idle: usize,
    probes: usize,
    post: usize,
    drills: usize,
    /// Fault catalogs of a clean stop-the-world and a clean pre-copy run.
    catalogs: Option<[FaultCatalog; 2]>,
}

/// The drill's update options: one transfer worker, so the n-th object
/// write a schedule names is the same object on every run.
fn options(precopy: bool) -> UpdateOptions {
    UpdateOptions {
        transfer_workers: 1,
        precopy: if precopy {
            PrecopyOptions { rounds: 2, convergence_bytes: 0, serve_rounds: 1 }
        } else {
            PrecopyOptions::disabled()
        },
        ..Default::default()
    }
}

fn nginx(generation: u32) -> Box<dyn mcr_core::Program> {
    Box::new(program_by_name("nginx", generation))
}

impl Drills {
    pub fn new(seed: u64, size: Size) -> Self {
        let (requests, idle, probes, post, drills) = match size {
            Size::Full => (200, 6, 6, 50, 30),
            Size::Min => (10, 2, 2, 4, 4),
        };
        // The seed sets the pre-update request count for the whole run, so
        // every drill starts from a state the fault catalogs describe
        // exactly, and every schedule reaches its site.
        let requests = requests + (cycle_seed(seed, usize::MAX) % 16) as usize;
        Drills { seed, requests, idle, probes, post, drills, catalogs: None }
    }

    /// Boots generation 1 and serves the seeded pre-update traffic.
    fn populated(&self, seed: u64, layers: &mut Layers) -> (Kernel, McrInstance, Load) {
        let t = Instant::now();
        let (mut kernel, mut v1) =
            span("scheduler.boot", || boot_program("nginx", 1, InstrumentationConfig::full()));
        layers.push("scheduler.boot_ms", t.elapsed().as_secs_f64() * 1e3);
        let mut load = Load::new(seed, PORT, MEAN_GAP_NS, kernel.now().0);
        load.serve(&mut kernel, &mut v1, self.requests, Expect::Gen(1), request);
        open_idle_connections(&mut kernel, &mut v1, PORT, self.idle).expect("nginx accepts idle connections");
        (kernel, v1, load)
    }

    /// A drill's set-up, timed for the per-layer view.
    fn drill_setup(&self, seed: u64, layers: &mut Layers) -> (Kernel, McrInstance, Load) {
        let t = Instant::now();
        let out = span("drill.setup", || self.populated(seed, layers));
        layers.push("drill.setup_ms", t.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn catalog(&self, precopy: bool, layers: &mut Layers) -> FaultCatalog {
        let opts = options(precopy);
        let (mut kernel, v1, _) = self.populated(cycle_seed(self.seed, 0), layers);
        let (_v2, outcome) = UpdatePipeline::for_options(&opts).run(
            &mut kernel,
            v1,
            nginx(2),
            InstrumentationConfig::full(),
            &opts,
        );
        assert!(outcome.is_committed(), "clean nginx update commits: {:?}", outcome.conflicts());
        FaultCatalog::from_report(outcome.report())
    }
}

/// A GET of a seeded path length.
fn request(rng: &mut ChaosRng) -> (Target, Vec<u8>) {
    let len = rng.range(8, 256) as usize;
    (Target::Fresh, payload("GET /", len))
}

/// Fingerprints `kernel`, timed for the per-layer view.
fn verify(kernel: &Kernel, layers: &mut Layers) -> u64 {
    let t = Instant::now();
    let fp = span("drill.verify", || kernel_fingerprint(kernel));
    layers.push("drill.verify_ms", t.elapsed().as_secs_f64() * 1e3);
    fp
}

impl Workload for Drills {
    fn cycles(&self) -> usize {
        self.drills
    }

    fn prepare(&mut self, layers: &mut Layers) {
        drop(self.populated(cycle_seed(self.seed, 0), layers));
        self.catalogs = Some([self.catalog(false, layers), self.catalog(true, layers)]);
    }

    fn start_pass(&mut self, _layers: &mut Layers) {}

    fn cycle(&mut self, index: usize, layers: &mut Layers) -> Cycle {
        let mut c = Cycle::default();
        let drill = Instant::now();
        let seed = cycle_seed(self.seed, index);
        let precopy = index % 2 == 1;
        let catalog = &self.catalogs.as_ref().expect("catalogs are built in set-up")[usize::from(precopy)];
        let plan = random_plan(&mut ChaosRng::new(cycle_seed(CAMPAIGN_SEED, index)), catalog);
        let opts = options(precopy);

        // Safety: the injected fault rolls back to an identical kernel.
        let (mut kernel, v1, first) = self.drill_setup(seed, layers);
        layers.probe_kernel(&kernel, &v1);
        let before = verify(&kernel, layers);
        let (_survivor, outcome) = span("pipeline.update", || {
            UpdatePipeline::for_options(&opts).with_fault_plan(plan.clone()).run(
                &mut kernel,
                v1,
                nginx(2),
                InstrumentationConfig::full(),
                &opts,
            )
        });
        let fired = !outcome.is_committed();
        // Only a drill whose fault fired tells anything about recovery.
        c.skip_update = !fired;
        if fired {
            c.check(verify(&kernel, layers) == before, "rollback left an identical kernel");
        }
        layers.push("drill.fired_ratio", if fired { 1.0 } else { 0.0 });
        fold(&mut c.digest, u64::from(fired));
        drop(kernel);

        // Liveness: the supervisor commits with the fault in attempt 1.
        let (mut kernel, v1, mut load) = self.drill_setup(seed, layers);
        // Both halves serve the same pre-update traffic; the serving rate
        // counts both, the latencies once.
        load.absorb_serving(&first);
        // Probes ride the stop-the-world drills only: in a pre-copy drill
        // the old version answers them during the rounds anyway, and a
        // syscall fault drawn from the catalog can land on the request being
        // served, failing that request by construction.
        let probes = if precopy { 0 } else { self.probes };
        let probes = load.send_probes(&mut kernel, probes, |_| (Target::Fresh, payload("GET /probe", 0)));
        let t = Instant::now();
        let (mut v2, outcome) = span("supervisor.supervised_update", || {
            supervised_update(
                &mut kernel,
                v1,
                || nginx(2),
                InstrumentationConfig::full(),
                &opts,
                &SupervisorPolicy::default(),
                |attempt| if attempt == 1 { plan.clone() } else { ChaosPlan::none() },
            )
        });
        c.update_wall_ms = t.elapsed().as_secs_f64() * 1e3;
        c.check(outcome.is_committed(), "the supervisor commits");
        let report = outcome.report();
        c.downtime_ms = sim_ms(report.timings.downtime);
        c.total_ms = sim_ms(report.timings.total);
        c.recovery_ms = time_to_recovery(report).map(sim_ms).filter(|_| fired);
        layers.update_report(report);
        let attempts = report.attempts.len();
        layers.push("supervisor.attempts", attempts as f64);
        let backoff = report.attempts.iter().map(|a| sim_ms(a.backoff)).sum();
        layers.push("supervisor.backoff_ms", backoff);
        if let Some(r) = c.recovery_ms {
            layers.push("supervisor.recovery_ms", r);
        }
        // After a rollback the old version answers the probes while the
        // supervisor backs off; otherwise they wait for the new version.
        let probe_gen = if attempts > 1 { 1 } else { 2 };
        load.collect(&mut kernel, &mut v2, probes, Expect::Gen(probe_gen));
        load.resync(&kernel);
        load.serve(&mut kernel, &mut v2, self.post, Expect::Gen(2), request);
        fold(&mut c.digest, verify(&kernel, layers));
        layers.traffic(&load);
        layers.push("drill.wall_ms", drill.elapsed().as_secs_f64() * 1e3);
        c.load = Some(load);
        c.seal();
        c
    }
}
