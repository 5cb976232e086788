//! In-memory span recorder and the small statistics the report needs.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! each layer's public functions; nothing inside the program is hooked.
//! They stay in memory until the run ends and are then written as one
//! JSON file (name, start, end, parent).

use std::path::Path;
use std::time::Instant;

/// The benchmark's one wall-clock read; every timing in it goes through
/// here.
pub fn now() -> Instant {
    // kinet-lint: allow(wall-clock) — the benchmark measures wall time; nothing here feeds program output
    Instant::now()
}

/// One recorded interval, in microseconds since the recorder was created.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Records nested spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span; returns its
    /// duration in microseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end;
        end - span.start_us
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (µs) of every closed span called `name`, in record order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_us.is_finite())
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Median duration (µs) of the spans called `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Share of span `id`'s interval covered by its direct children.
    pub fn child_coverage(&self, id: usize) -> f64 {
        let parent = &self.spans[id];
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_us - s.start_us)
            .sum();
        covered / (parent.end_us - parent.start_us)
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}}}{}",
                s.name,
                s.start_us,
                s.end_us,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The fastest of a run's timings (lower is better; NaN when empty). On a
/// shared host, slow stretches last from seconds to a minute and come and
/// go between runs; every sample taken in one is slower, so a run's median
/// follows the host's load while its fastest sample follows the code (see
/// README.md, "Steadiness").
pub fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// The best of a run's higher-is-better rates (NaN when empty).
pub fn highest(values: &[f64]) -> f64 {
    quantile(values, 1.0)
}

/// The `q` quantile of `values` by the nearest-rank rule (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
