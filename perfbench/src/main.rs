//! The live-update benchmark's measuring program.
//!
//! ```text
//! mcr-perfbench --workload <ftp-update|fleet-precopy|cache-durable|fault-drills>
//!               --seed <n> --seconds <s> --trace <0|1> [--size min]
//!               [--scale <x>]
//! ```
//!
//! A run sets the workload up several times (the median is `setup_s`), warms
//! it up, then repeats a fixed pass of seeded cycles until `--seconds` are
//! spent. Simulated-clock metrics come from the first pass and are
//! deterministic for a seed; every later pass must reproduce its digests
//! exactly. Host-clock metrics are the mean over cycles of each cycle's
//! fastest repetition. With
//! `--trace 1` the first pass runs untraced and later passes record spans
//! around the calls into each layer; the run then reports the per-layer
//! metrics, and the digests of traced and untraced cycles must agree.
//!
//! The last line of standard output is one JSON object; `run.py` turns it
//! into the benchmark's result.

mod cache;
mod common;
mod drills;
mod fleet;
mod ftp;
mod load;
mod record;

use std::time::{Duration, Instant};

use mcr_bench::Json;

use common::{Cycle, Layers, Size, Workload};
use record::{max, mean, median, min, percentile, span};

/// Times the workload is set up before measuring; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Unmeasured cycles run after set-up (the first cycles of a process run
/// slower while the allocator and caches warm up).
const WARMUP_CYCLES: usize = 2;

/// The end-to-end metrics of an untraced run: (name, unit, clock).
const END_TO_END: [(&str, &str, &str); 8] = [
    ("downtime_ms", "ms", "sim"),
    ("update_total_ms", "ms", "sim"),
    ("request_p50_ms", "ms", "sim"),
    ("request_p99_ms", "ms", "sim"),
    ("update_wall_ms", "ms", "host"),
    ("cycle_wall_ms", "ms", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
];

/// The per-layer metrics of a traced run: (name, unit). Each is the median
/// of its per-cycle (or per-call) samples, 0 where a workload never
/// exercises the layer.
const PER_LAYER: [(&str, &str); 51] = [
    ("procsim.clone_ms", "ms"),
    ("procsim.mapped_mb", "MB"),
    ("procsim.read_all_ms", "ms"),
    ("procsim.syscalls_per_update", "count"),
    ("procsim.wakeups_per_request", "count"),
    ("procsim.store_blocks", "count"),
    ("procsim.store_bytes", "B"),
    ("scheduler.round_us", "us"),
    ("scheduler.steps_per_request", "count"),
    ("scheduler.boot_ms", "ms"),
    ("phase.quiesce.sim_ms", "ms"),
    ("phase.reinit-replay.sim_ms", "ms"),
    ("phase.match-processes.sim_ms", "ms"),
    ("phase.precopy.sim_ms", "ms"),
    ("phase.checkpoint.sim_ms", "ms"),
    ("phase.trace-and-transfer.sim_ms", "ms"),
    ("phase.postcopy-commit.sim_ms", "ms"),
    ("phase.postcopy-drain.sim_ms", "ms"),
    ("phase.commit.sim_ms", "ms"),
    ("pipeline.pre_window_wall_ms", "ms"),
    ("pipeline.window_wall_ms", "ms"),
    ("pipeline.sim_per_host", "ratio"),
    ("tracing.trace_ms", "ms"),
    ("tracing.objects", "count"),
    ("tracing.dirty_bytes", "B"),
    ("tracing.immutable_objects", "count"),
    ("transfer.objects", "count"),
    ("transfer.object_writes", "count"),
    ("transfer.parallel_efficiency", "ratio"),
    ("precopy.rounds", "count"),
    ("precopy.bytes_copied", "B"),
    ("precopy.residual_bytes", "B"),
    ("precopy.convergence", "ratio"),
    ("postcopy.deferred_objects", "count"),
    ("postcopy.traps", "count"),
    ("postcopy.trap_p99_ms", "ms"),
    ("postcopy.drained_objects", "count"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.parallel_speedup", "ratio"),
    ("restore.reallocated_chunks", "count"),
    ("restore.deltas_applied", "count"),
    ("restore.wall_ms", "ms"),
    ("drill.setup_ms", "ms"),
    ("drill.verify_ms", "ms"),
    ("drill.wall_ms", "ms"),
    ("drill.fired_ratio", "ratio"),
    ("supervisor.attempts", "count"),
    ("supervisor.backoff_ms", "ms"),
    ("supervisor.recovery_ms", "ms"),
    ("workload.late_ms", "ms"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, size: Size::Full, scale: 1.0 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--size" => {
                args.size = match value.as_str() {
                    "min" => Size::Min,
                    "full" => Size::Full,
                    other => return Err(format!("unknown size {other}")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|e| format!("--scale: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // Written to reject NaN as well.
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.scale.is_nan() || args.scale <= 0.0 {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(args)
}

fn workload(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "ftp-update" => Box::new(ftp::Ftp::new(args.seed, args.size)),
        "fleet-precopy" => Box::new(fleet::Fleet::new(args.seed, args.size, args.scale)),
        "cache-durable" => Box::new(cache::Cache::new(args.seed, args.size, args.scale)),
        "fault-drills" => Box::new(drills::Drills::new(args.seed, args.size)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Host samples of one quantity, kept per cycle index: every pass repeats
/// the same cycles, so the repetitions of one index did identical work.
#[derive(Default)]
struct Repeats(Vec<Vec<f64>>);

impl Repeats {
    fn push(&mut self, index: usize, value: f64) {
        if self.0.len() <= index {
            self.0.resize(index + 1, Vec::new());
        }
        self.0[index].push(value);
    }

    /// The mean over cycles of each cycle's best repetition (`best` picks
    /// it). On a shared host, noise arrives in bursts of seconds that slow
    /// every operation alike; the best of a cycle's repetitions drops the
    /// bursts, and the mean over cycles weighs every kind of cycle by its
    /// share.
    fn typical_best(&self, best: fn(&[f64]) -> f64) -> f64 {
        let bests: Vec<f64> = self.0.iter().filter(|v| !v.is_empty()).map(|v| best(v)).collect();
        mean(&bests)
    }

    fn all(&self) -> Vec<f64> {
        self.0.concat()
    }

    fn count(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

/// What the run measured, folded over its cycles.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    // First pass: the simulated metrics.
    downtime_ms: Vec<f64>,
    total_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    recovery_ms: Vec<f64>,
    digests: Vec<u64>,
    // Every untraced measured cycle: the host metrics.
    update_wall_ms: Repeats,
    cycle_wall_ms: Repeats,
    restore_wall_ms: Repeats,
    serve_rps: Repeats,
    // Traced cycles.
    traced_cycle_wall_ms: Vec<f64>,
}

impl Totals {
    fn absorb(&mut self, pass: usize, index: usize, traced: bool, wall_ms: f64, c: &Cycle) {
        self.attempted += c.checks;
        self.failed += c.check_failures;
        if let Some(load) = &c.load {
            self.attempted += load.attempted;
            self.failed += load.failed;
        }
        if pass == 0 {
            self.digests.push(c.digest);
            if !c.skip_update {
                self.downtime_ms.push(c.downtime_ms);
                self.total_ms.push(c.total_ms);
            }
            self.recovery_ms.extend(c.recovery_ms);
            if let Some(load) = &c.load {
                self.latency_ms.extend_from_slice(&load.latency_ms);
            }
        } else {
            // Every later pass replays the first one's inputs: its simulated
            // results must be identical, traced or not.
            self.attempted += 1;
            if self.digests.get(index) != Some(&c.digest) {
                self.failed += 1;
                eprintln!("check failed: cycle {index} of pass {pass} diverged from the first pass");
            }
        }
        if traced {
            self.traced_cycle_wall_ms.push(wall_ms);
            return;
        }
        if !c.skip_update {
            self.update_wall_ms.push(index, c.update_wall_ms);
        }
        self.cycle_wall_ms.push(index, wall_ms);
        if let Some(ms) = c.restore_wall_ms {
            self.restore_wall_ms.push(index, ms);
        }
        if let Some(load) = c.load.as_ref().filter(|l| l.served > 0) {
            self.serve_rps.push(index, load.served as f64 / load.serve_wall.as_secs_f64());
        }
    }
}

/// Peak resident set of this process so far, in MB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mb() -> f64 {
    /// Linux's `struct rusage` on 64-bit targets: two `timeval`s, then
    /// fourteen `long`s, the first of which is `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `RUsage` has the size and field layout of the platform's
    // `struct rusage`, and the pointer is valid and exclusive for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn peak_rss_mb() -> f64 {
    0.0
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn report_line(name: &str, value: f64, unit: &str, clock: &str, samples: usize) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("value", Json::Num(value)),
        ("unit", Json::str(unit)),
        ("clock", Json::str(clock)),
        ("samples", Json::Num(samples as f64)),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut wl = match workload(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("mcr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut layers = Layers::default();
    record::set_tracing(false);

    // Set-up: prepare several times (median), then warm up.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        wl.prepare(&mut layers);
        setups.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    wl.start_pass(&mut layers);
    for i in 0..WARMUP_CYCLES.min(wl.cycles()) {
        drop(wl.cycle(i, &mut layers));
    }
    let warmup_s = t.elapsed().as_secs_f64();
    let setup_s = median(&setups) + warmup_s;

    // Measurement: whole passes of the fixed cycle sequence.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let min_passes = if args.trace { 2 } else { 1 };
    let mut totals = Totals::default();
    let mut passes = 0;
    let mut peak_rss = 0.0;
    'passes: for pass in 0.. {
        let traced = args.trace && pass > 0;
        layers.traced = traced;
        record::set_tracing(traced);
        wl.start_pass(&mut layers);
        for i in 0..wl.cycles() {
            if pass >= min_passes && Instant::now() >= deadline {
                break 'passes;
            }
            let t = Instant::now();
            let c = span("workload.cycle", || wl.cycle(i, &mut layers));
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            totals.absorb(pass, i, traced, wall_ms, &c);
        }
        passes = pass + 1;
        if pass == 0 {
            // Peak memory over a fixed amount of work: set-up, warm-up and
            // the first pass.
            peak_rss = peak_rss_mb();
        }
        if passes >= min_passes && Instant::now() >= deadline {
            break;
        }
    }
    record::set_tracing(false);

    let t = &totals;
    // Simulated figures are exact for the seed: per-update means over the
    // first pass. Host figures are typical best repetitions (see `Repeats`).
    let e2e_values = [
        mean(&t.downtime_ms),
        mean(&t.total_ms),
        percentile(&t.latency_ms, 50.0),
        percentile(&t.latency_ms, 99.0),
        t.update_wall_ms.typical_best(min),
        t.cycle_wall_ms.typical_best(min),
        setup_s,
        peak_rss,
    ];
    let e2e_samples = [
        t.downtime_ms.len(),
        t.total_ms.len(),
        t.latency_ms.len(),
        t.latency_ms.len(),
        t.update_wall_ms.count(),
        t.cycle_wall_ms.count(),
        SETUP_REPEATS,
        1,
    ];
    let mut report: Vec<Json> = Vec::new();
    for (i, &(name, unit, clock)) in END_TO_END.iter().enumerate() {
        if !args.trace || clock == "sim" {
            report.push(report_line(name, e2e_values[i], unit, clock, e2e_samples[i]));
        }
    }
    if !t.recovery_ms.is_empty() {
        report.push(report_line("recovery_ms", median(&t.recovery_ms), "ms", "sim", t.recovery_ms.len()));
    }
    if !args.trace {
        // Serving rate: reported, but not an end-to-end metric. Fault drills
        // serve ~2 ms per cycle right after a fresh boot, and on a shared
        // 2-vCPU VM their rate moved between 140k and 233k/s from run to run.
        let n = t.serve_rps.count();
        report.push(report_line("serve_rps", t.serve_rps.typical_best(max), "1/s", "host", n));
        let n = t.restore_wall_ms.count();
        if n > 0 {
            report.push(report_line("restore_wall_ms", t.restore_wall_ms.typical_best(min), "ms", "host", n));
        }
        if args.workload == "fault-drills" {
            let n = t.cycle_wall_ms.count();
            report.push(report_line("drill_wall_ms", t.cycle_wall_ms.typical_best(min), "ms", "host", n));
        }
        // Plain medians over every sample, for comparison with the figures
        // above.
        for (name, unit, r) in [
            ("update_wall_ms.median", "ms", &t.update_wall_ms),
            ("cycle_wall_ms.median", "ms", &t.cycle_wall_ms),
            ("restore_wall_ms.median", "ms", &t.restore_wall_ms),
            ("serve_rps.median", "1/s", &t.serve_rps),
        ] {
            if r.count() > 0 {
                report.push(report_line(name, median(&r.all()), unit, "host", r.count()));
            }
        }
    }
    let failed_ratio = t.failed as f64 / t.attempted.max(1) as f64;
    report.push(report_line("failed_ratio", failed_ratio, "ratio", "-", t.attempted as usize));
    report.push(report_line("passes", passes as f64, "count", "-", 1));
    report.push(report_line("warmup_s", warmup_s, "s", "host", WARMUP_CYCLES));

    let mut metrics: Vec<(String, Json)> = Vec::new();
    if args.trace {
        let untraced = median(&t.cycle_wall_ms.all());
        if untraced > 0.0 && !t.traced_cycle_wall_ms.is_empty() {
            layers.traced = true;
            layers.push("trace.overhead", median(&t.traced_cycle_wall_ms) / untraced - 1.0);
        }
        let rounds: Vec<f64> = record::span_millis("scheduler.run_round").iter().map(|ms| ms * 1e3).collect();
        layers.samples.insert("scheduler.round_us", rounds);
        for &(name, unit) in &PER_LAYER {
            // A ratio of outcomes is the mean of its 0/1 samples.
            let reduce = if name == "drill.fired_ratio" { record::mean } else { median };
            let value = layers.samples.get(name).map_or(0.0, |v| reduce(v));
            metrics.push((name.to_string(), metric(value, unit)));
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match record::write_spans(&path) {
            Ok(()) => eprintln!("wrote {} spans to {}", record::span_count(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    } else {
        for (i, &(name, unit, _)) in END_TO_END.iter().enumerate() {
            metrics.push((name.to_string(), metric(e2e_values[i], unit)));
        }
    }
    let doc = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(t.failed == 0)),
        ("attempted".to_string(), Json::Num(t.attempted as f64)),
        ("failed".to_string(), Json::Num(t.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
        ("report".to_string(), Json::Arr(report)),
    ]);
    println!("{}", doc.render());
}
