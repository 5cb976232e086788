//! `kinet_obs` — the deterministic run journal.
//!
//! A [`Recorder`] is a plain value: a `Vec` of [`Record`]s owned by the
//! run that asked for it. The recorded entry points take it by `&mut`
//! (`FleetSim::run_recorded`, `FleetService::run_recorded`); the
//! unrecorded ones (`run`, `run_detailed`) hand the same code a recorder
//! they drop. There is no process-global state, so two runs on two
//! threads can never write into each other's journal.
//!
//! Every record is appended on the orchestrator thread, between phase
//! barriers — device closures record nothing and report what happened
//! through the values they already return (retry counts, quarantine
//! verdicts), which the orchestrator turns into records once the barrier
//! settles. Journal order is therefore emission order, and the rendered
//! bytes are identical for every `KINET_THREADS` value (DESIGN.md
//! §2.10).
//!
//! Timestamps are *virtual ticks* supplied by the caller — a
//! barrier-point `VirtualClock` reading, a locally known deterministic
//! quantity, or `0` — never a wall clock.
//!
//! Gates dump the journal's last records (the flight recorder,
//! [`Recorder::tail_snapshot`]) as `target/experiments/<gate>_obs_dump.json`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Maximum `key=value` fields carried inline by one [`Record`].
pub const MAX_FIELDS: usize = 5;

/// Records a gate's flight-recorder dump keeps: the journal's tail.
pub const DUMP_TAIL: usize = 256;

/// One `key=value` pair. Values are `u64` only — enough for ticks,
/// rows, generations, and counts, and trivially deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Field {
    /// Static field name.
    pub key: &'static str,
    /// Field value.
    pub val: u64,
}

/// The empty-slot sentinel for a record's fixed field array.
pub const NO_FIELD: Field = Field { key: "", val: 0 };

/// Shorthand [`Field`] constructor: `kv("rows", 500)`.
#[inline]
pub fn kv(key: &'static str, val: u64) -> Field {
    Field { key, val }
}

/// Record discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A phase or span began at `ticks`.
    SpanOpen,
    /// A span ended at `ticks`; conventionally carries `ticks` (the
    /// span duration) and `rows` fields for [`Recorder::phase_summary`].
    SpanClose,
    /// A point event.
    Event,
}

/// One journal record. `Copy` so the append path moves plain words,
/// never heap data.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Virtual-tick timestamp supplied by the caller (0 when the site
    /// has no deterministic clock reading available).
    pub ticks: u64,
    /// Discriminant.
    pub kind: RecordKind,
    /// Static target label, e.g. `"fleet.acquire"`.
    pub target: &'static str,
    /// Inline fields; only the first `n_fields` are meaningful.
    pub fields: [Field; MAX_FIELDS],
    /// Number of live entries in `fields`.
    pub n_fields: u8,
}

impl Record {
    /// The live prefix of the field array.
    pub fn active_fields(&self) -> &[Field] {
        let n = (self.n_fields as usize).min(MAX_FIELDS);
        self.fields.get(..n).unwrap_or(&[])
    }

    /// Looks up a field value by key.
    pub fn field_val(&self, key: &str) -> Option<u64> {
        self.active_fields()
            .iter()
            .find(|f| f.key == key)
            .map(|f| f.val)
    }
}

/// The journal of one run, in emission order.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    records: Vec<Record>,
}

impl Recorder {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a point event. `ticks` must be a deterministic quantity
    /// (a barrier-point clock reading, a locally computed delay, or 0).
    pub fn event(&mut self, target: &'static str, ticks: u64, fields: &[Field]) {
        self.append(RecordKind::Event, target, ticks, fields);
    }

    /// Records a span opening.
    pub fn span_open(&mut self, target: &'static str, ticks: u64, fields: &[Field]) {
        self.append(RecordKind::SpanOpen, target, ticks, fields);
    }

    /// Records a span close. Carry `ticks` (duration) and `rows` fields
    /// to feed [`Recorder::phase_summary`].
    pub fn span_close(&mut self, target: &'static str, ticks: u64, fields: &[Field]) {
        self.append(RecordKind::SpanClose, target, ticks, fields);
    }

    /// Appends one record; fields past [`MAX_FIELDS`] are dropped. Hot
    /// (patrolled by `crates/lint/hotlist.toml`): plain word moves plus
    /// one `Vec::push`.
    fn append(&mut self, kind: RecordKind, target: &'static str, ticks: u64, fields: &[Field]) {
        let mut rec = Record {
            ticks,
            kind,
            target,
            fields: [NO_FIELD; MAX_FIELDS],
            n_fields: 0,
        };
        for (slot, field) in rec.fields.iter_mut().zip(fields.iter()) {
            *slot = *field;
            rec.n_fields += 1;
        }
        self.records.push(rec);
    }

    /// All records in emission order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Records with the given target, in emission order.
    pub fn events_for<'a>(&'a self, target: &'a str) -> impl Iterator<Item = &'a Record> {
        self.records.iter().filter(move |r| r.target == target)
    }

    /// Canonical text rendering, one line per record:
    /// `#<seq> t=<ticks> <kind> <target> <key>=<val>…`, where `seq` is
    /// the record's position in the journal. Byte-equality of two
    /// renders is the journal determinism assertion the gates make.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 48);
        for (seq, rec) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "#{seq} t={} {} {}",
                rec.ticks,
                kind_label(rec.kind),
                rec.target
            ));
            for field in rec.active_fields() {
                out.push_str(&format!(" {}={}", field.key, field.val));
            }
            out.push('\n');
        }
        out
    }

    /// One-line per-phase digest aggregated over `SpanClose` records:
    /// `obs: <target> ticks=<sum> rows=<sum> | …` in target order.
    pub fn phase_summary(&self) -> String {
        let mut agg: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for rec in self
            .records
            .iter()
            .filter(|r| r.kind == RecordKind::SpanClose)
        {
            let cell = agg.entry(rec.target).or_insert((0, 0));
            cell.0 = cell.0.saturating_add(rec.field_val("ticks").unwrap_or(0));
            cell.1 = cell.1.saturating_add(rec.field_val("rows").unwrap_or(0));
        }
        if agg.is_empty() {
            return "obs: no spans recorded".to_string();
        }
        let phases: Vec<String> = agg
            .iter()
            .map(|(target, (ticks, rows))| format!("{target} ticks={ticks} rows={rows}"))
            .collect();
        format!("obs: {}", phases.join(" | "))
    }

    /// Owned, serde-serializable view of the last `n` records — the
    /// flight recorder a gate dumps. Sequence numbers stay absolute.
    pub fn tail_snapshot(&self, n: usize) -> JournalSnapshot {
        let first = self.records.len().saturating_sub(n);
        let records = self
            .records
            .iter()
            .enumerate()
            .skip(first)
            .map(|(seq, rec)| RecordSnap {
                seq,
                ticks: rec.ticks,
                kind: kind_label(rec.kind).to_string(),
                target: rec.target.to_string(),
                fields: rec
                    .active_fields()
                    .iter()
                    .map(|f| FieldSnap {
                        key: f.key.to_string(),
                        val: f.val,
                    })
                    .collect(),
            })
            .collect();
        JournalSnapshot { records }
    }
}

fn kind_label(kind: RecordKind) -> &'static str {
    match kind {
        RecordKind::SpanOpen => "open",
        RecordKind::SpanClose => "close",
        RecordKind::Event => "event",
    }
}

/// Owned view of one field, for JSON artifacts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FieldSnap {
    /// Field name.
    pub key: String,
    /// Field value.
    pub val: u64,
}

/// Owned view of one record, for JSON artifacts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecordSnap {
    /// Position in the journal.
    pub seq: usize,
    /// Virtual-tick timestamp.
    pub ticks: u64,
    /// `open`, `close`, or `event`.
    pub kind: String,
    /// Target label.
    pub target: String,
    /// Live fields.
    pub fields: Vec<FieldSnap>,
}

/// Owned, serde-serializable journal (or journal-tail) view.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JournalSnapshot {
    /// Records in journal order.
    pub records: Vec<RecordSnap>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_lookup_sees_only_live_entries() {
        let mut rec = Record {
            ticks: 0,
            kind: RecordKind::Event,
            target: "t",
            fields: [NO_FIELD; MAX_FIELDS],
            n_fields: 0,
        };
        rec.fields[0] = kv("rows", 5);
        assert_eq!(rec.field_val("rows"), None, "n_fields gates visibility");
        rec.n_fields = 1;
        assert_eq!(rec.field_val("rows"), Some(5));
        assert_eq!(rec.field_val("missing"), None);
    }

    #[test]
    fn field_overflow_truncates_at_max_fields() {
        let mut journal = Recorder::new();
        journal.event(
            "wide",
            0,
            &[
                kv("a", 1),
                kv("b", 2),
                kv("c", 3),
                kv("d", 4),
                kv("e", 5),
                kv("f", 6),
            ],
        );
        let rec = journal.records()[0];
        assert_eq!(rec.n_fields as usize, MAX_FIELDS);
        assert_eq!(rec.field_val("e"), Some(5));
        assert_eq!(rec.field_val("f"), None);
    }

    #[test]
    fn render_and_summary_are_stable() {
        let mut journal = Recorder::new();
        journal.span_open("fleet.acquire", 0, &[]);
        journal.span_close("fleet.acquire", 40, &[kv("ticks", 40), kv("rows", 500)]);
        journal.event("fleet.retry", 0, &[kv("device", 1), kv("attempt", 0)]);
        journal.span_close("fleet.union", 55, &[kv("ticks", 15), kv("rows", 8)]);
        assert_eq!(
            journal.render(),
            "#0 t=0 open fleet.acquire\n\
             #1 t=40 close fleet.acquire ticks=40 rows=500\n\
             #2 t=0 event fleet.retry device=1 attempt=0\n\
             #3 t=55 close fleet.union ticks=15 rows=8\n"
        );
        assert_eq!(
            journal.phase_summary(),
            "obs: fleet.acquire ticks=40 rows=500 | fleet.union ticks=15 rows=8"
        );
        assert_eq!(journal.events_for("fleet.retry").count(), 1);
        assert_eq!(Recorder::new().phase_summary(), "obs: no spans recorded");
    }

    #[test]
    fn tail_snapshot_keeps_the_last_records_with_absolute_seqs() {
        let mut journal = Recorder::new();
        for i in 0..5 {
            journal.event("step", i, &[kv("i", i)]);
        }
        let tail = journal.tail_snapshot(2);
        let seqs: Vec<usize> = tail.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [3, 4]);
        assert_eq!(journal.tail_snapshot(99).records.len(), 5);
        assert!(journal.tail_snapshot(0).records.is_empty());
    }

    #[test]
    fn snapshot_round_trips_through_vendored_serde() {
        let mut journal = Recorder::new();
        journal.event("serve.answer", 0, &[kv("rows", 128), kv("staleness", 1)]);
        let json = serde_json::to_string_pretty(&journal.tail_snapshot(DUMP_TAIL)).unwrap();
        let back: JournalSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].target, "serve.answer");
        assert_eq!(back.records[0].fields[0].key, "rows");
        assert_eq!(back.records[0].fields[0].val, 128);
    }
}
