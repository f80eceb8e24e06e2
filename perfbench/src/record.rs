//! In-memory span recorder and the small statistics helpers the metrics use.
//!
//! The traced run wraps every call the benchmark makes into a layer's public
//! API in a [`span`]: name, host start/end and the enclosing span. Spans stay
//! in memory and are written out once, when the run ends. With tracing off
//! [`span`] is a plain call, so the untraced run that yields the end-to-end
//! metrics pays nothing for it.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::time::Instant;

/// One recorded span: host nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn millis(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    static ON: Cell<bool> = const { Cell::new(false) };
}

/// Turns span recording on or off for this thread. Spans recorded so far are
/// kept either way.
pub fn set_tracing(on: bool) {
    RECORDER.with(|r| {
        r.borrow_mut().get_or_insert_with(|| Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
    ON.with(|f| f.set(on));
}

fn tracing() -> bool {
    ON.with(Cell::get)
}

/// Runs `f` inside a span named `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !tracing() {
        return f();
    }
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("tracing on implies a recorder");
        let now = rec.origin.elapsed().as_nanos() as u64;
        let parent = rec.open.last().copied();
        rec.spans.push(Span { name, start_ns: now, end_ns: now, parent });
        let idx = rec.spans.len() - 1;
        rec.open.push(idx);
        idx
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("tracing on implies a recorder");
        rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.open.pop();
    });
    out
}

/// Durations (ms) of every recorded span named `name`.
pub fn span_millis(name: &str) -> Vec<f64> {
    RECORDER.with(|r| {
        r.borrow().as_ref().map_or_else(Vec::new, |rec| {
            rec.spans.iter().filter(|s| s.name == name).map(Span::millis).collect()
        })
    })
}

/// Number of spans recorded so far.
pub fn span_count() -> usize {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.spans.len()))
}

/// Writes every recorded span as one JSON object per line.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    RECORDER.with(|r| -> std::io::Result<()> {
        if let Some(rec) = r.borrow().as_ref() {
            for (i, s) in rec.spans.iter().enumerate() {
                let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                    s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        Ok(())
    })?;
    out.flush()
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        mcr_bench::percentile_of(v, p)
    }
}

/// Smallest value of `v` (0 for an empty slice).
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest value of `v` (0 for an empty slice).
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// FNV-1a step, used to fold simulated results into a per-cycle digest.
pub fn fold(hash: &mut u64, value: u64) {
    *hash = (*hash ^ value).wrapping_mul(0x100_0000_01b3);
}

/// Seed of cycle `index` of a run seeded with `seed`.
pub fn cycle_seed(seed: u64, index: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fold(&mut h, seed);
    fold(&mut h, index as u64);
    h
}
