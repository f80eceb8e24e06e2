//! `cache-durable`: one process with one big typed heap, updated in adaptive
//! mode with a durable checkpoint, then restored.
//!
//! Each cycle boots the memcached-style `CacheServer`, fills it with a seeded
//! number of entries and serves gets and sets. The update runs
//! `TransferMode::Adaptive` with a checkpoint phase into a `MemStore`.
//! Between pre-copy rounds, seeded strides of entries are rewritten, never
//! fewer than the round before, so pre-copy does not converge and the pair
//! defers to post-copy. During the
//! drain, raw stores go to the new version's statistics block at an address
//! taken from its statics table, with the values the transfer applies
//! anyway: they trap on the parked page and are replayed by the fault
//! handler. Post-resume traffic stays write-only until the drain ends,
//! because reads of parked pages return stale bytes (post-copy reads are not
//! covered). Each cycle ends with `restore_latest`: the restored kernel's
//! fingerprint must equal the checkpointed image's, and the restored
//! generation 1 must answer.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mcr_bench::kernel_fingerprint;
use mcr_core::runtime::{
    boot, resume, run_rounds, BootOptions, McrInstance, PrecopyOptions, TransferMode, UpdateOptions,
    UpdatePipeline,
};
use mcr_core::transfer::{restore_latest, write_checkpoint, CheckpointOptions};
use mcr_procsim::{Kernel, MemStore, Pid, Store};
use mcr_servers::{dirty_cache_records, CacheServer, CACHE_PORT};
use mcr_typemeta::InstrumentationConfig;

use crate::common::{
    pinned_options, record_walls, sim_ms, Cycle, HookClock, Layers, Size, Workload, THREAD_BUDGET,
};
use crate::load::{names_generation, payload, Expect, Load, Target};
use crate::record::{cycle_seed, fold, span};

/// Mean simulated interarrival: gets and small sets take a few us.
const MEAN_GAP_NS: u64 = 6_000;
/// Mean interarrival of the bulk fills (each inserts `FILL_CHUNK` entries).
const FILL_GAP_NS: u64 = 600_000;
const FILL_CHUNK: u64 = 250;
const VALUE_BYTES: u64 = 64;
const PRECOPY_ROUNDS: usize = 3;

pub struct Cache {
    seed: u64,
    entries: u64,
    requests: usize,
    during: usize,
    post: usize,
    cycles: usize,
}

impl Cache {
    pub fn new(seed: u64, size: Size, scale: f64) -> Self {
        let (entries, requests, during, post, cycles) = match size {
            Size::Full => (5_000, 600, 20, 100, 8),
            Size::Min => (300, 30, 4, 10, 2),
        };
        let entries = (entries as f64 * scale).round() as u64;
        Cache { seed, entries, requests, during, post, cycles }
    }

    /// Boots generation 1 and fills it: `entries` plus a seeded remainder.
    fn populated(&self, seed: u64, layers: &mut Layers) -> (Kernel, McrInstance, Load) {
        let t = Instant::now();
        let mut kernel = Kernel::new();
        let mut v1 = span("scheduler.boot", || {
            boot(&mut kernel, Box::new(CacheServer::new(1)), &BootOptions::default()).expect("cache boots")
        });
        layers.push("scheduler.boot_ms", t.elapsed().as_secs_f64() * 1e3);
        let mut load = Load::new(seed, CACHE_PORT, FILL_GAP_NS, kernel.now().0);
        let extra = load.rng().range(0, FILL_CHUNK);
        let mut fills = std::iter::once(extra)
            .chain(std::iter::repeat_n(FILL_CHUNK, (self.entries / FILL_CHUNK) as usize));
        load.phase(&kernel, FILL_GAP_NS, false);
        let chunks = 1 + (self.entries / FILL_CHUNK) as usize;
        load.serve(&mut kernel, &mut v1, chunks, Expect::Gen(1), |_| {
            let n = fills.next().expect("one fill per chunk");
            (Target::Fresh, format!("fill {n} {VALUE_BYTES}").into_bytes())
        });
        load.phase(&kernel, MEAN_GAP_NS, true);
        load.serve(&mut kernel, &mut v1, self.requests, Expect::Gen(1), get_or_set);
        (kernel, v1, load)
    }
}

/// A get (70%) or a set (30%) of a `VALUE_BYTES`-byte value. Sets of
/// other sizes are left out: with values of 32–255 bytes, post-copy diverges
/// from stop-the-world on some seeds (see the benchmark notes).
fn get_or_set(rng: &mut mcr_core::runtime::ChaosRng) -> (Target, Vec<u8>) {
    if rng.chance(70) {
        (Target::Fresh, payload("get", 0))
    } else {
        (Target::Fresh, format!("set {VALUE_BYTES}").into_bytes())
    }
}

/// The fingerprint `kernel` would have with only `keep`'s processes in it.
fn fingerprint_of(kernel: &Kernel, keep: &[Pid]) -> u64 {
    let mut copy = kernel.clone();
    for pid in copy.pids() {
        if !keep.contains(&pid) {
            let _ = copy.remove_process(pid);
        }
    }
    kernel_fingerprint(&copy)
}

impl Workload for Cache {
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
        layers.probe_kernel(&kernel, &v1);
        let old_pids = v1.state.processes.clone();
        let stats = v1.state.statics.lookup("cache_stats").expect("cache defines cache_stats");
        let (stats_addr, stats_len) = (stats.addr, stats.size as usize);

        // Seeded rewrite strides, one per pre-copy round, never rising: each
        // round rewrites at least as much as the one before, so pre-copy
        // does not converge.
        let mut strides: Vec<usize> = (0..PRECOPY_ROUNDS).map(|_| load.rng().range(3, 5) as usize).collect();
        strides.sort_unstable_by(|a, b| b.cmp(a));

        let clock = HookClock::start();
        // (load, traffic served by v1 during pre-copy, checkpointed image's
        // fingerprint, trap stores issued)
        let shared = Rc::new(RefCell::new((load, 0usize, None::<u64>, 0usize)));
        let during = self.during;
        let (pre_state, pre_clock, pids) = (Rc::clone(&shared), Rc::clone(&clock), old_pids.clone());
        let precopy_hook = Box::new(move |kernel: &mut Kernel, old: &mut McrInstance, round: usize| {
            HookClock::around(&pre_clock, false, || {
                let mut st = pre_state.borrow_mut();
                let (load, served, image, _) = &mut *st;
                // The copy round ran meanwhile; arrivals resume now.
                load.resync(kernel);
                dirty_cache_records(kernel, old, strides[round - 1], 0xC0DE_0000 + round as u32);
                let before = load.latency_ms.len();
                load.serve(kernel, old, during, Expect::Gen(1), get_or_set);
                *served += load.latency_ms.len() - before;
                if round == PRECOPY_ROUNDS {
                    // Nothing writes the old processes between the last round
                    // and the checkpoint the quiescence barrier takes.
                    *image = Some(fingerprint_of(kernel, &pids));
                }
            });
        });
        let (post_state, post_clock, pids) = (Rc::clone(&shared), Rc::clone(&clock), old_pids);
        let postcopy_hook = Box::new(move |kernel: &mut Kernel, new: &mut McrInstance, _round: usize| {
            HookClock::around(&post_clock, true, || {
                let mut st = post_state.borrow_mut();
                let (_, _, _, stores) = &mut *st;
                if *stores > 0 {
                    return;
                }
                let Some(new_stats) = new.state.statics.lookup("cache_stats").map(|s| s.addr) else { return };
                let old = kernel.process(pids[0]).and_then(|p| p.space().read_bytes(stats_addr, stats_len));
                let Ok(bytes) = old else { return };
                for &pid in &new.state.processes {
                    let Ok(proc) = kernel.process_mut(pid) else { continue };
                    for (i, word) in bytes.chunks(8).enumerate() {
                        if proc.space_mut().write_bytes(new_stats.offset(8 * i as u64), word).is_ok() {
                            *stores += 1;
                        }
                    }
                }
            });
        });
        let opts = UpdateOptions {
            mode: TransferMode::Adaptive,
            precopy: PrecopyOptions { rounds: PRECOPY_ROUNDS, convergence_bytes: 0, serve_rounds: 1 },
            ..pinned_options(2)
        };
        let store = Rc::new(RefCell::new(MemStore::new()));
        let ck_opts = CheckpointOptions { shard_writers: THREAD_BUDGET, ..CheckpointOptions::default() };
        let pipeline = UpdatePipeline::for_options(&opts)
            .with_checkpoint(Rc::clone(&store) as Rc<RefCell<dyn Store>>, ck_opts)
            .with_precopy_hook(precopy_hook)
            .with_postcopy_hook(postcopy_hook);
        let (mut v2, outcome) = span("pipeline.update", || {
            pipeline.run(&mut kernel, v1, Box::new(CacheServer::new(2)), InstrumentationConfig::full(), &opts)
        });
        let walls = HookClock::finish(&clock);
        drop(pipeline);
        c.update_wall_ms = walls.0;
        c.check(outcome.is_committed(), "cache adaptive update commits");
        let report = outcome.report();
        c.downtime_ms = sim_ms(report.timings.downtime);
        c.total_ms = sim_ms(report.timings.total);
        layers.update_report(report);
        record_walls(layers, walls, c.total_ms);
        let (mut load, served_during, image, stores) =
            Rc::try_unwrap(shared).ok().expect("the pipeline released its hooks").into_inner();
        c.check(served_during == PRECOPY_ROUNDS * self.during, "v1 served during every pre-copy round");
        c.check(image.is_some(), "the last pre-copy round fingerprinted the old processes");
        c.check(
            (stores > 0) == (report.postcopy.deferred_pairs > 0),
            "the drain hook stored into the parked statistics",
        );

        // After the drain every page is applied: reads are safe again.
        load.resync(&kernel);
        load.serve(&mut kernel, &mut v2, self.post, Expect::Gen(2), get_or_set);
        fold(&mut c.digest, kernel_fingerprint(&kernel));

        // Restore the checkpoint the update wrote.
        let t = Instant::now();
        let restored = span("restore.restore_latest", || {
            restore_latest(&*store.borrow(), &mut || Box::new(CacheServer::new(1)), None)
        });
        let restore_ms = t.elapsed().as_secs_f64() * 1e3;
        c.restore_wall_ms = Some(restore_ms);
        layers.push("restore.wall_ms", restore_ms);
        match restored {
            Ok(mut r) => {
                let fp = kernel_fingerprint(&r.kernel);
                c.check(Some(fp) == image, "restored kernel equals the checkpointed image");
                fold(&mut c.digest, fp);
                layers.push("restore.reallocated_chunks", r.report.reallocated_chunks as f64);
                layers.push("restore.deltas_applied", r.report.deltas_applied as f64);
                if layers.traced {
                    let t = Instant::now();
                    let mut probe_store = MemStore::new();
                    let wrote = span("checkpoint.write", || {
                        write_checkpoint(&mut r.kernel, &r.instance, &mut probe_store, &ck_opts)
                    });
                    layers.push("checkpoint.write_ms", t.elapsed().as_secs_f64() * 1e3);
                    c.check(wrote.is_ok(), "the restored instance checkpoints again");
                }
                resume(&mut r.kernel, &mut r.instance);
                c.check(
                    answers_generation(&mut r.kernel, &mut r.instance, 1),
                    "restored generation 1 answers",
                );
            }
            Err(e) => c.check(false, &format!("restore_latest failed: {e}")),
        }
        layers.traffic(&load);
        c.load = Some(load);
        c.seal();
        c
    }
}

/// Sends one get to a revived instance and checks which generation answers.
fn answers_generation(kernel: &mut Kernel, instance: &mut McrInstance, generation: u32) -> bool {
    let Ok(conn) = kernel.client_connect(CACHE_PORT) else { return false };
    if kernel.client_send(conn, b"get".to_vec()).is_err() || run_rounds(kernel, instance, 2).is_err() {
        return false;
    }
    kernel.client_recv(conn).is_some_and(|reply| names_generation(&reply, generation))
}
