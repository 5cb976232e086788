//! Streaming chunked access to tabular data.
//!
//! The fleet-scale simulation ("millions of users" in ROADMAP terms) cannot
//! materialize every device's shard as one decoded [`Table`]: a 32-device ×
//! 5k-row run would hold 160k decoded rows at once, and real deployments
//! are orders of magnitude beyond that. This module provides the
//! out-of-core substrate:
//!
//! * [`ChunkSource`]: anything that can yield fixed-size row chunks on
//!   demand (dataset simulators implement it with persistent RNG state, so
//!   chunked and eager generation are bit-identical);
//! * [`StreamingShard`]: a chunk-size-bound driver over a source that
//!   tracks how many decoded rows were ever resident at once;
//! * [`Reservoir`]: deterministic uniform row sampling over a stream of
//!   unknown length (Algorithm R), for bounded training windows and
//!   bounded share pools;
//! * [`PeakRows`]: a shareable high-water-mark counter, so a fleet report
//!   can state its actual decoded-rows peak instead of promising one.

use crate::encoded::KgTableChecker;
use crate::table::{DataError, Table};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A source of table rows yielded in bounded chunks.
///
/// Implementations own whatever state the stream needs (RNG, file cursor,
/// row index); calling [`ChunkSource::next_chunk`] repeatedly must visit
/// each row exactly once, in a deterministic order for deterministic
/// sources.
pub trait ChunkSource {
    /// Schema of every chunk this source yields.
    fn schema(&self) -> &crate::Schema;

    /// Yields the next chunk with **at most** `max_rows` rows, or `None`
    /// when the stream is exhausted. A returned chunk is never empty.
    ///
    /// # Errors
    ///
    /// Propagates row-construction failures from the underlying generator.
    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Table>, DataError>;

    /// Drains the whole stream into one eager table (the legacy path;
    /// memory-bounded callers should iterate chunks instead).
    ///
    /// # Errors
    ///
    /// Propagates [`ChunkSource::next_chunk`] failures.
    fn collect(&mut self, chunk_rows: usize) -> Result<Table, DataError>
    where
        Self: Sized,
    {
        let mut out = Table::empty(self.schema().clone());
        while let Some(chunk) = self.next_chunk(chunk_rows.max(1))? {
            out.append(&chunk)?;
        }
        Ok(out)
    }
}

/// Chunked view over an existing in-memory table (adapter for code paths
/// that already hold a `Table` but feed a streaming consumer).
#[derive(Clone, Debug)]
pub struct TableChunks<'a> {
    table: &'a Table,
    next_row: usize,
}

impl<'a> TableChunks<'a> {
    /// Wraps `table` for chunked iteration from the first row.
    pub fn new(table: &'a Table) -> Self {
        Self { table, next_row: 0 }
    }
}

impl ChunkSource for TableChunks<'_> {
    fn schema(&self) -> &crate::Schema {
        self.table.schema()
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Table>, DataError> {
        if self.next_row >= self.table.n_rows() {
            return Ok(None);
        }
        let end = (self.next_row + max_rows.max(1)).min(self.table.n_rows());
        let idx: Vec<usize> = (self.next_row..end).collect();
        self.next_row = end;
        Ok(Some(self.table.select_rows(&idx)))
    }
}

/// Shareable high-water mark of decoded rows resident at one moment.
///
/// Consumers call [`PeakRows::observe`] with their current residency
/// (chunk in flight + any retained window); the maximum across all
/// observations is the number a fleet report can honestly claim as its
/// decoded-rows peak.
#[derive(Clone, Debug, Default)]
pub struct PeakRows(Arc<AtomicUsize>);

impl PeakRows {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `resident_rows` as a candidate peak.
    pub fn observe(&self, resident_rows: usize) {
        self.0.fetch_max(resident_rows, Ordering::Relaxed);
    }

    /// The largest residency observed so far.
    pub fn peak(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Deterministic uniform reservoir sample over a row stream (Algorithm R).
///
/// Offers rows one chunk at a time; after `n` offered rows, each holds a
/// `min(1, capacity/n)` chance of being in the sample. The RNG is owned and
/// seeded, so the sample depends only on the seed and the stream order —
/// not on chunk boundaries (the per-row accept/replace draws consume the
/// RNG identically however the stream is chunked).
#[derive(Debug)]
pub struct Reservoir {
    sample: Table,
    seen: usize,
    capacity: usize,
    rng: StdRng,
}

impl Reservoir {
    /// An empty reservoir holding at most `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(schema: crate::Schema, capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            sample: Table::empty(schema),
            seen: 0,
            capacity,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Offers every row of `chunk` to the sample.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] when `chunk` disagrees with
    /// the reservoir's schema.
    pub fn offer(&mut self, chunk: &Table) -> Result<(), DataError> {
        for r in 0..chunk.n_rows() {
            self.seen += 1;
            if self.sample.n_rows() < self.capacity {
                self.sample.push_row(chunk.row(r))?;
            } else {
                let slot = self.rng.random_range(0..self.seen);
                if slot < self.capacity {
                    // Replace in place: rebuild via select_rows would be
                    // O(capacity) per row; swapping one row keeps offers
                    // O(columns).
                    self.sample.set_row(slot, chunk.row(r))?;
                }
            }
        }
        Ok(())
    }

    /// Rows currently held.
    pub fn len(&self) -> usize {
        self.sample.n_rows()
    }

    /// `true` when no row has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.sample.is_empty()
    }

    /// Total rows offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Consumes the reservoir into its sample table.
    pub fn into_table(self) -> Table {
        self.sample
    }
}

/// Running KG-validity tally over streamed chunks: each chunk is interned
/// and scored through the compiled reasoner ([`KgTableChecker`]) and then
/// dropped, so validity of an arbitrarily long stream costs one chunk of
/// decoded rows.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamValidity {
    valid: usize,
    total: usize,
}

impl StreamValidity {
    /// A zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores `chunk` and folds it into the tally.
    ///
    /// # Errors
    ///
    /// Propagates checker failures (schema mismatch).
    pub fn observe(
        &mut self,
        checker: &KgTableChecker<'_>,
        chunk: &Table,
    ) -> Result<(), DataError> {
        self.valid += checker.count_valid(chunk)?;
        self.total += chunk.n_rows();
        Ok(())
    }

    /// Folds another tally into this one (e.g. a per-share tally into a
    /// pool-wide aggregate). Pure addition, so folding order never matters.
    pub fn absorb(&mut self, other: &StreamValidity) {
        self.valid += other.valid;
        self.total += other.total;
    }

    /// Valid fraction of every row observed (1.0 before any row).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.valid as f64 / self.total as f64
        }
    }

    /// Rows observed.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Drives a [`ChunkSource`] with a fixed chunk size, reporting each chunk
/// to a callback and recording residency in a shared [`PeakRows`].
#[derive(Debug)]
pub struct StreamingShard<S> {
    source: S,
    chunk_rows: usize,
    peak: PeakRows,
    rows_seen: usize,
}

impl<S: ChunkSource> StreamingShard<S> {
    /// Wraps `source` with the given chunk size and peak tracker.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_rows` is zero.
    pub fn new(source: S, chunk_rows: usize, peak: PeakRows) -> Self {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        Self {
            source,
            chunk_rows,
            peak,
            rows_seen: 0,
        }
    }

    /// The wrapped source's schema.
    pub fn schema(&self) -> &crate::Schema {
        self.source.schema()
    }

    /// Total rows streamed so far.
    pub fn rows_seen(&self) -> usize {
        self.rows_seen
    }

    /// Streams the source to exhaustion. `retained_rows(chunk)` must
    /// return how many decoded rows the consumer keeps resident *besides*
    /// the chunk itself (its window/reservoir length) so the peak tracker
    /// sees the true residency; `consume` processes the chunk, which is
    /// dropped afterwards.
    ///
    /// # Errors
    ///
    /// Propagates source and consumer failures.
    pub fn for_each_chunk<E: From<DataError>>(
        &mut self,
        mut consume: impl FnMut(&Table) -> Result<usize, E>,
    ) -> Result<(), E> {
        while let Some(chunk) = self.source.next_chunk(self.chunk_rows)? {
            self.rows_seen += chunk.n_rows();
            let retained = consume(&chunk)?;
            self.peak.observe(chunk.n_rows() + retained);
        }
        Ok(())
    }
}

/// Stream-level fault shape for a [`FaultedSource`] wrapper. Offsets are
/// row counts from the start of the stream; `None` disables that fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkFaultSpec {
    /// Numeric cells of rows at stream offset ≥ this arrive as NaN: a
    /// corrupt wire.
    pub poison_from: Option<usize>,
    /// The source returns an error once this many rows were yielded: a
    /// mid-stream crash.
    pub fail_after: Option<usize>,
}

/// A [`ChunkSource`] wrapper that injects stream-level faults — NaN
/// corruption or a mid-stream failure — at deterministic
/// row offsets. With a clean spec it is a transparent pass-through, so
/// fault-aware callers can wrap unconditionally.
#[derive(Debug)]
pub struct FaultedSource<S> {
    inner: S,
    spec: ChunkFaultSpec,
    yielded: usize,
}

impl<S: ChunkSource> FaultedSource<S> {
    /// Wraps `inner` with the given fault shape.
    pub fn new(inner: S, spec: ChunkFaultSpec) -> Self {
        Self {
            inner,
            spec,
            yielded: 0,
        }
    }
}

impl<S: ChunkSource> ChunkSource for FaultedSource<S> {
    fn schema(&self) -> &crate::Schema {
        self.inner.schema()
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Table>, DataError> {
        if let Some(fail_at) = self.spec.fail_after {
            if self.yielded >= fail_at {
                return Err(DataError::Parse(format!(
                    "injected stream fault after {} row(s)",
                    self.yielded
                )));
            }
        }
        // Clamp the request so the failure lands on a chunk boundary: the
        // wrapper never yields a row past the failure offset.
        let mut want = max_rows.max(1);
        if let Some(fail_at) = self.spec.fail_after {
            want = want.min(fail_at.saturating_sub(self.yielded).max(1));
        }
        let Some(mut chunk) = self.inner.next_chunk(want)? else {
            return Ok(None);
        };
        if let Some(poison_from) = self.spec.poison_from {
            let start = self.yielded;
            let numeric: Vec<usize> = chunk
                .schema()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.kind() == crate::ColumnKind::Continuous)
                .map(|(i, _)| i)
                .collect();
            for r in 0..chunk.n_rows() {
                if start + r >= poison_from {
                    let mut row = chunk.row(r);
                    for &c in &numeric {
                        row[c] = crate::Value::num(f64::NAN);
                    }
                    chunk.set_row(r, row)?;
                }
            }
        }
        self.yielded += chunk.n_rows();
        Ok(Some(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnMeta, Schema};
    use crate::value::Value;

    fn numbered(n: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("c"),
            ColumnMeta::continuous("x"),
        ]);
        Table::from_rows(
            schema,
            (0..n)
                .map(|i| vec![Value::cat(format!("r{i}")), Value::num(i as f64)])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn table_chunks_visit_every_row_once() {
        let t = numbered(10);
        let mut src = TableChunks::new(&t);
        let mut sizes = Vec::new();
        let mut collected = Table::empty(t.schema().clone());
        while let Some(chunk) = src.next_chunk(4).unwrap() {
            sizes.push(chunk.n_rows());
            collected.append(&chunk).unwrap();
        }
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(collected, t);
        assert!(src.next_chunk(4).unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn collect_equals_source_table() {
        let t = numbered(23);
        let collected = TableChunks::new(&t).collect(7).unwrap();
        assert_eq!(collected, t);
    }

    #[test]
    fn reservoir_keeps_all_rows_under_capacity() {
        let t = numbered(5);
        let mut res = Reservoir::new(t.schema().clone(), 8, 1);
        res.offer(&t).unwrap();
        assert_eq!(res.len(), 5);
        assert_eq!(res.seen(), 5);
        assert_eq!(res.into_table(), t);
    }

    #[test]
    fn reservoir_bounds_capacity_and_ignores_chunking() {
        let t = numbered(200);
        // Whole table at once vs. awkward chunk sizes: identical sample.
        let mut whole = Reservoir::new(t.schema().clone(), 16, 9);
        whole.offer(&t).unwrap();
        let mut chunked = Reservoir::new(t.schema().clone(), 16, 9);
        let mut src = TableChunks::new(&t);
        while let Some(chunk) = src.next_chunk(13).unwrap() {
            chunked.offer(&chunk).unwrap();
        }
        let (a, b) = (whole.into_table(), chunked.into_table());
        assert_eq!(a.n_rows(), 16);
        assert_eq!(a, b, "reservoir must not depend on chunk boundaries");
    }

    #[test]
    fn reservoir_sample_is_roughly_uniform() {
        // Sampling 50 of 500 rows repeatedly: early and late rows must both
        // appear — Algorithm R without the replacement step would keep only
        // the first 50.
        let t = numbered(500);
        let mut late = 0;
        for seed in 0..20 {
            let mut res = Reservoir::new(t.schema().clone(), 50, seed);
            res.offer(&t).unwrap();
            let sample = res.into_table();
            late += sample
                .num_column("x")
                .unwrap()
                .iter()
                .filter(|&&x| x >= 250.0)
                .count();
        }
        let frac = late as f64 / (20.0 * 50.0);
        assert!(
            (0.35..0.65).contains(&frac),
            "late-half fraction {frac} strays from uniform"
        );
    }

    #[test]
    fn peak_rows_tracks_maximum() {
        let peak = PeakRows::new();
        peak.observe(10);
        peak.observe(3);
        let clone = peak.clone();
        clone.observe(7);
        assert_eq!(peak.peak(), 10);
        peak.observe(12);
        assert_eq!(clone.peak(), 12, "clones share the counter");
    }

    #[test]
    fn streaming_shard_reports_residency() {
        let t = numbered(20);
        let peak = PeakRows::new();
        let mut shard = StreamingShard::new(TableChunks::new(&t), 6, peak.clone());
        let mut window = 0usize;
        shard
            .for_each_chunk(|chunk: &Table| -> Result<usize, DataError> {
                window += chunk.n_rows() / 2; // consumer retains half
                Ok(window)
            })
            .unwrap();
        assert_eq!(shard.rows_seen(), 20);
        // final chunk: 2 rows + 9 retained rows residency
        assert!(peak.peak() >= 11, "peak {}", peak.peak());
        assert!(peak.peak() < 20, "peak must not reach eager size");
    }

    #[test]
    fn stream_validity_rate_is_one_before_any_row() {
        // Regression: a device that shared zero rows must not poison
        // aggregate validity with NaN.
        let v = StreamValidity::new();
        assert_eq!(v.total(), 0);
        assert_eq!(v.rate(), 1.0);
        assert!(v.rate().is_finite());
    }

    #[test]
    fn clean_faulted_source_is_transparent() {
        let t = numbered(17);
        let collected = FaultedSource::new(TableChunks::new(&t), ChunkFaultSpec::default())
            .collect(5)
            .unwrap();
        assert_eq!(collected, t);
    }

    #[test]
    fn poisoning_nans_numeric_cells_from_the_offset() {
        let t = numbered(10);
        let spec = ChunkFaultSpec {
            poison_from: Some(4),
            ..ChunkFaultSpec::default()
        };
        let collected = FaultedSource::new(TableChunks::new(&t), spec)
            .collect(3)
            .unwrap();
        let xs = collected.num_column("x").unwrap();
        assert!(xs[..4].iter().all(|v| v.is_finite()), "clean prefix");
        assert!(xs[4..].iter().all(|v| v.is_nan()), "poisoned suffix");
        // Categorical cells are untouched.
        assert_eq!(collected.cat_column("c").unwrap()[9], "r9");
    }

    #[test]
    fn mid_stream_failure_surfaces_as_a_data_error() {
        let t = numbered(12);
        let spec = ChunkFaultSpec {
            fail_after: Some(5),
            ..ChunkFaultSpec::default()
        };
        let mut src = FaultedSource::new(TableChunks::new(&t), spec);
        let mut rows = 0;
        let err = loop {
            match src.next_chunk(4) {
                Ok(Some(chunk)) => rows += chunk.n_rows(),
                Ok(None) => panic!("stream must fail, not end"),
                Err(e) => break e,
            }
        };
        assert_eq!(rows, 5, "exactly the pre-fault rows arrive");
        assert!(err.to_string().contains("injected stream fault"), "{err}");
    }
}
