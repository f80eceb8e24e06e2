//! What every workload shares: the thread budget, the per-cycle result, the
//! per-layer sample sink, and the probes the traced run takes of a
//! pre-update kernel.

use std::collections::BTreeMap;
use std::time::Instant;

use mcr_core::runtime::{McrInstance, PhaseName, UpdateOptions, UpdateReport};
use mcr_core::TraceOptions;
use mcr_procsim::Kernel;

use crate::load::Load;
use crate::record::{fold, span};

/// Host cores the thread budget is sized for: the benchmark process drives
/// the load single-threaded, and the update may use at most this many
/// worker threads, so simulated makespans never depend on how many cores
/// the host has.
pub const THREAD_BUDGET: usize = 2;

/// Update options with the pinned thread budget: two transfer workers and at
/// most two intra-pair shards.
pub fn pinned_options(shards: usize) -> UpdateOptions {
    UpdateOptions {
        transfer_workers: THREAD_BUDGET,
        intra_pair_shards: shards.clamp(1, THREAD_BUDGET),
        ..Default::default()
    }
}

/// Sizing of a run: the full benchmark, or the self-test's minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Min,
}

/// Everything one cycle of a workload measured and checked.
#[derive(Default)]
pub struct Cycle {
    /// Digest of the cycle's simulated results (timings, latencies,
    /// fingerprints): equal digests mean identical simulated behaviour.
    pub digest: u64,
    /// Simulated downtime and total time of the cycle's update, ms.
    pub downtime_ms: f64,
    pub total_ms: f64,
    /// Host wall of the live-update call(s), benchmark hooks excluded, ms.
    pub update_wall_ms: f64,
    /// Whether the update figures above describe the cycle (a fault drill
    /// whose fault never fired is not a useful drill: it only counts in
    /// `drill.fired_ratio` and the cycle's wall).
    pub skip_update: bool,
    /// Simulated time to recovery of a supervised drill, ms.
    pub recovery_ms: Option<f64>,
    /// Host wall of `restore_latest`, ms.
    pub restore_wall_ms: Option<f64>,
    /// Output checks made and failed (beyond the request checks in `load`).
    pub checks: u64,
    pub check_failures: u64,
    /// The cycle's request traffic.
    pub load: Option<Load>,
}

impl Cycle {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            self.check_failures += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Folds the request latencies into the digest.
    pub fn seal(&mut self) {
        if let Some(load) = &self.load {
            fold(&mut self.digest, load.latency_ms.len() as u64);
            for &l in &load.latency_ms {
                fold(&mut self.digest, (l * 1e6).round() as u64);
            }
            fold(&mut self.digest, load.failed);
        }
        fold(&mut self.digest, (self.downtime_ms * 1e6).round() as u64);
        fold(&mut self.digest, (self.total_ms * 1e6).round() as u64);
        fold(&mut self.digest, self.recovery_ms.map_or(0, |r| (r * 1e6).round() as u64));
    }
}

/// Per-layer samples, recorded only while the run is traced.
#[derive(Debug, Default)]
pub struct Layers {
    pub traced: bool,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        if self.traced {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Records the per-layer view of one committed update's report.
    pub fn update_report(&mut self, report: &UpdateReport) {
        if !self.traced {
            return;
        }
        for rec in report.phases.records() {
            self.push(phase_metric(rec.name), sim_ms(rec.duration));
        }
        self.push("procsim.syscalls_per_update", report.update_syscalls as f64);
        self.push("tracing.objects", report.tracing.objects_traced as f64);
        self.push("tracing.dirty_bytes", report.tracing.dirty_bytes as f64);
        self.push("tracing.immutable_objects", report.tracing.immutable_objects as f64);
        self.push("transfer.objects", report.transfer.objects_transferred() as f64);
        self.push("transfer.object_writes", report.object_writes as f64);
        // Per-pair transfer work over the executed makespan times the
        // workers that ran it: 1.0 when the workers never idle.
        let makespan = report.timings.state_transfer.0 as f64 * report.transfer.workers.max(1) as f64;
        if makespan > 0.0 {
            self.push("transfer.parallel_efficiency", report.transfer.serial_duration.0 as f64 / makespan);
        }
        let pre = &report.precopy;
        self.push("precopy.rounds", pre.rounds.len() as f64);
        self.push("precopy.bytes_copied", pre.precopied_bytes() as f64);
        self.push("precopy.residual_bytes", pre.residual.bytes as f64);
        if let Some(first) = pre.rounds.first().filter(|r| r.bytes_copied > 0) {
            self.push("precopy.convergence", pre.residual.bytes as f64 / first.bytes_copied as f64);
        }
        let post = &report.postcopy;
        self.push("postcopy.deferred_objects", post.deferred_objects as f64);
        self.push("postcopy.traps", post.traps as f64);
        self.push("postcopy.drained_objects", post.drained_objects as f64);
        let traps: Vec<f64> = post.trap_service_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        if !traps.is_empty() {
            self.push("postcopy.trap_p99_ms", crate::record::percentile(&traps, 99.0));
        }
        if let Some(ck) = &report.checkpoint {
            self.push("procsim.store_blocks", ck.blocks as f64);
            self.push("procsim.store_bytes", (ck.delta_bytes + ck.manifest_bytes) as f64);
            self.push("checkpoint.parallel_speedup", ck.speedup());
        }
    }

    /// Records a cycle's steady-state traffic counters.
    pub fn traffic(&mut self, load: &Load) {
        if load.served > 0 {
            self.push("procsim.wakeups_per_request", load.wakeups as f64 / load.served as f64);
            self.push("scheduler.steps_per_request", load.steps as f64 / load.served as f64);
        }
        if !load.late_ms.is_empty() {
            self.push("workload.late_ms", crate::record::mean(&load.late_ms));
        }
    }

    /// The traced run's probes of a pre-update kernel: what a kernel clone
    /// and a full read of every region cost, how much is mapped, and what
    /// tracing every process of `instance` costs on the host.
    pub fn probe_kernel(&mut self, kernel: &Kernel, instance: &McrInstance) {
        if !self.traced {
            return;
        }
        let t = Instant::now();
        let copy = span("procsim.clone", || kernel.clone());
        self.push("procsim.clone_ms", t.elapsed().as_secs_f64() * 1e3);
        drop(copy);
        let t = Instant::now();
        let (mapped, sum) = span("procsim.read_all", || read_all(kernel));
        self.push("procsim.read_all_ms", t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(sum);
        self.push("procsim.mapped_mb", mapped as f64 / (1024.0 * 1024.0));
        let t = Instant::now();
        span("tracing.trace", || {
            for &pid in &instance.state.processes {
                let result =
                    mcr_core::tracing::trace_process(kernel, &instance.state, pid, TraceOptions::default());
                std::hint::black_box(result.is_ok());
            }
        });
        self.push("tracing.trace_ms", t.elapsed().as_secs_f64() * 1e3);
    }
}

/// Reads every mapped region of every process, as a fingerprint does.
/// Returns the bytes read and a checksum of them.
fn read_all(kernel: &Kernel) -> (u64, u64) {
    let mut bytes = 0u64;
    let mut sum = 0u64;
    for pid in kernel.pids() {
        let Ok(proc) = kernel.process(pid) else { continue };
        for region in proc.space().regions() {
            if let Ok(data) = proc.space().read_bytes(region.base(), region.size() as usize) {
                bytes += data.len() as u64;
                sum = sum.wrapping_add(data.iter().map(|&b| u64::from(b)).sum::<u64>());
            }
        }
    }
    (bytes, sum)
}

/// Per-layer metric name of a pipeline phase's simulated duration.
pub fn phase_metric(phase: PhaseName) -> &'static str {
    match phase {
        PhaseName::Quiesce => "phase.quiesce.sim_ms",
        PhaseName::ReinitReplay => "phase.reinit-replay.sim_ms",
        PhaseName::MatchProcesses => "phase.match-processes.sim_ms",
        PhaseName::Precopy => "phase.precopy.sim_ms",
        PhaseName::Checkpoint => "phase.checkpoint.sim_ms",
        PhaseName::TraceAndTransfer => "phase.trace-and-transfer.sim_ms",
        PhaseName::PostcopyCommit => "phase.postcopy-commit.sim_ms",
        PhaseName::PostcopyDrain => "phase.postcopy-drain.sim_ms",
        PhaseName::Commit => "phase.commit.sim_ms",
    }
}

/// Milliseconds of a simulated duration.
pub fn sim_ms(d: mcr_procsim::SimDuration) -> f64 {
    d.0 as f64 / 1e6
}

/// One benchmark workload: a fixed, seeded pass of cycles, repeated until
/// the run's time is up.
pub trait Workload {
    /// Cycles in one pass. The simulated metrics come from the first pass.
    fn cycles(&self) -> usize;
    /// Boots and populates the state a measured cycle starts from; timed
    /// (several times) for `setup_s`.
    fn prepare(&mut self, layers: &mut Layers);
    /// Starts a pass (workloads whose cycles chain on one instance boot it
    /// here).
    fn start_pass(&mut self, layers: &mut Layers);
    /// Runs cycle `index` of the current pass.
    fn cycle(&mut self, index: usize, layers: &mut Layers) -> Cycle;
}

/// Host-time bookkeeping of one pipeline run with benchmark hooks: the
/// hooks' own time is excluded from the update's wall, and the run is split
/// at the hook calls into the part before the stop-the-world window (up to
/// the last pre-copy hook) and the window itself (up to the first post-copy
/// hook, or the end).
#[derive(Debug)]
pub struct HookClock {
    start: Instant,
    in_hooks: std::time::Duration,
    pre_exit: Option<(Instant, std::time::Duration)>,
    post_entry: Option<Instant>,
}

/// A [`HookClock`] shared between the hooks and the caller.
pub type SharedClock = std::rc::Rc<std::cell::RefCell<HookClock>>;

impl HookClock {
    /// Starts the clock now.
    pub fn start() -> SharedClock {
        std::rc::Rc::new(std::cell::RefCell::new(HookClock {
            start: Instant::now(),
            in_hooks: std::time::Duration::ZERO,
            pre_exit: None,
            post_entry: None,
        }))
    }

    /// Times one hook call; `post` marks a post-copy hook.
    pub fn around<T>(clock: &SharedClock, post: bool, f: impl FnOnce() -> T) -> T {
        let entry = Instant::now();
        if post {
            let mut c = clock.borrow_mut();
            c.post_entry.get_or_insert(entry);
        }
        let out = f();
        let exit = Instant::now();
        let mut c = clock.borrow_mut();
        c.in_hooks += exit - entry;
        if !post {
            let in_hooks = c.in_hooks;
            c.pre_exit = Some((exit, in_hooks));
        }
        out
    }

    /// Stops the clock: returns (update wall, pre-window wall, window wall)
    /// in ms, hook time excluded.
    pub fn finish(clock: &SharedClock) -> (f64, f64, f64) {
        let end = Instant::now();
        let c = clock.borrow();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let update = ms((end - c.start).saturating_sub(c.in_hooks));
        let (window_start, pre) = match c.pre_exit {
            Some((exit, hooks)) => (exit, ms((exit - c.start).saturating_sub(hooks))),
            None => (c.start, 0.0),
        };
        let window = ms(c.post_entry.unwrap_or(end).saturating_duration_since(window_start));
        (update, pre, window)
    }
}

/// Records the host split of one update in the per-layer samples.
pub fn record_walls(layers: &mut Layers, walls: (f64, f64, f64), total_sim_ms: f64) {
    let (update, pre, window) = walls;
    layers.push("pipeline.pre_window_wall_ms", pre);
    layers.push("pipeline.window_wall_ms", window);
    if update > 0.0 {
        layers.push("pipeline.sim_per_host", total_sim_ms / update);
    }
}
