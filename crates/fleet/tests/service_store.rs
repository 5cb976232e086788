//! Property tests for the durable snapshot store: under any single
//! injected storage fault — torn write, flipped bit, stale (dropped)
//! write, lost rename — `SnapshotStore::load_latest` returns the newest
//! *intact* generation with its exact payload, or a typed answer. It
//! never returns garbage.
//!
//! The payload's JSON parse is the next boundary: arbitrary text into
//! `serde_json::parse_value` or a `ServiceReport` returns `Ok` or `Err`
//! and never panics, print → parse is the identity on value trees, and a
//! checksum-valid payload that does not parse as JSON is a typed
//! `FleetError::Checkpoint`.

use kinet_fleet::storage::{decode_record, encode_record, FaultStorage, MemStorage};
use kinet_fleet::{
    FleetError, FleetService, ServiceConfig, ServiceReport, SnapshotStore, StorageFaultKind,
    StorageFaultSpec,
};
use proptest::prelude::*;
use serde_json::Value;

/// Characters covering every string path of the parser and printer:
/// ASCII, JSON syntax, every short escape, raw control characters, DEL,
/// and 2-, 3- and 4-byte UTF-8.
const CHARS: [char; 22] = [
    'a',
    'Z',
    '7',
    ' ',
    '"',
    '\\',
    '/',
    '\u{0}',
    '\u{8}',
    '\t',
    '\n',
    '\u{c}',
    '\r',
    '\u{1f}',
    '\u{7f}',
    'é',
    '€',
    '\u{2028}',
    '\u{fffd}',
    '🦀',
    '\u{10ffff}',
    '\u{1}',
];

/// JSON fragments, valid and broken, so arbitrary text reaches parser
/// states past byte 0.
const FRAGMENTS: [&str; 30] = [
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud83e", "\\udd80", "\\u00e9", "\\x", "0",
    "-", "12", "01", ".", "e", "E+", "null", "true", "fals", " ", "\n", "1e999", "-0.0", "\"k\":",
    "é🦀", "\u{0}",
];

/// Text spelled from `parts`: each index picks a fragment or a character.
fn spell(parts: &[usize]) -> String {
    parts
        .iter()
        .map(|&i| match FRAGMENTS.get(i) {
            Some(f) => (*f).to_string(),
            None => CHARS[(i - FRAGMENTS.len()) % CHARS.len()].to_string(),
        })
        .collect()
}

/// A value tree built from a stream of draws, so the vector strategy's
/// shrinking shrinks the tree. Depth is capped at 4.
fn build_value(ops: &mut impl Iterator<Item = u32>, depth: usize) -> Value {
    let Some(op) = ops.next() else {
        return Value::Null;
    };
    let width = (op >> 3) % 4;
    match op % 6 {
        0 => Value::Null,
        1 => Value::Bool(op & 8 != 0),
        2 => Value::Number(build_number(op >> 3)),
        3 if depth < 4 => Value::Array((0..width).map(|_| build_value(ops, depth + 1)).collect()),
        4 if depth < 4 => Value::Object(
            (0..width)
                .map(|_| (build_string(ops), build_value(ops, depth + 1)))
                .collect(),
        ),
        _ => Value::String(build_string(ops)),
    }
}

/// A finite number: integers, fractions, negatives, and magnitudes whose
/// printed form is hundreds of digits long.
fn build_number(bits: u32) -> f64 {
    let m = f64::from(bits >> 3);
    match bits % 8 {
        0 => m,
        1 => -m,
        2 => m / 7.0,
        3 => -m / 3.0,
        4 => m * 1e300,
        5 => m * 1e-300,
        6 => m * 1e15 + 0.5,
        _ => -m * 1e-7,
    }
}

fn build_string(ops: &mut impl Iterator<Item = u32>) -> String {
    let len = ops.next().unwrap_or(0) % 6;
    (0..len)
        .map(|_| CHARS[ops.next().unwrap_or(0) as usize % CHARS.len()])
        .collect()
}

/// `text` cut at the largest char boundary at or below `cut` (modulo its
/// length), with `splice` inserted there.
fn mutate(text: &str, cut: usize, splice: &str) -> String {
    let mut at = cut % (text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    let (head, tail) = text.split_at(at);
    format!("{head}{splice}{tail}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn load_latest_returns_newest_intact_or_nothing(
        generations in 1usize..5,
        kind_index in 0usize..4,
        write_index in 0usize..5,
        magnitude in 0u64..512,
    ) {
        let kind = StorageFaultKind::all()[kind_index];
        let spec = StorageFaultSpec::new(write_index, kind).with_magnitude(magnitude);
        let mut store = SnapshotStore::new(Box::new(FaultStorage::new(
            MemStorage::new(),
            vec![spec],
        )));
        let payloads: Vec<Vec<u8>> = (1..=generations)
            .map(|g| format!("generation {g} payload {}", "x".repeat(g * 7)).into_bytes())
            .collect();
        for (i, payload) in payloads.iter().enumerate() {
            // Every fault kind is silent at commit time — that is the
            // failure mode being modeled.
            store.commit((i + 1) as u64, payload).unwrap();
        }

        // Exactly one write was damaged (if the fault's write index was
        // reached at all); every other generation must survive.
        let damaged = (write_index < generations).then_some(write_index as u64 + 1);
        let newest_intact = (1..=generations as u64).rev().find(|g| Some(*g) != damaged);

        let loaded = store.load_latest().unwrap();
        match newest_intact {
            Some(g) => {
                let snapshot = loaded.expect("an intact generation exists");
                prop_assert_eq!(snapshot.generation, g);
                prop_assert_eq!(&snapshot.payload, &payloads[(g - 1) as usize]);
            }
            None => prop_assert!(loaded.is_none(), "no intact generation to return"),
        }

        // The recovery scan walks newest-first and stops at the first
        // intact record, so a rejection is visible exactly when the
        // *newest* generation was damaged in place (torn/flipped); stale
        // and lost writes leave no object to reject.
        let expect_rejection = damaged == Some(generations as u64)
            && matches!(kind, StorageFaultKind::TornWrite | StorageFaultKind::BitFlip);
        prop_assert_eq!(store.rejected().len(), usize::from(expect_rejection));
        prop_assert_eq!(store.injected_faults().len(), usize::from(damaged.is_some()));
    }

    #[test]
    fn single_bit_flips_never_smuggle_a_payload(
        payload in prop::collection::vec(0u8..=255, 0..200),
        flip_at in any::<usize>(),
        generation in 0u64..1_000_000,
    ) {
        let record = encode_record(generation, &payload);
        let (g, p) = decode_record(&record).expect("intact record decodes");
        prop_assert_eq!(g, generation);
        prop_assert_eq!(p, &payload[..]);

        let mut bad = record.clone();
        let i = flip_at % bad.len();
        bad[i] ^= 1;
        match decode_record(&bad) {
            // Almost every flip is caught right here (magic, length,
            // checksum, or field parse).
            Err(_) => {}
            // The one survivable flip is inside the generation digits —
            // the checksum covers only the payload. The payload must
            // still be exact and the stamp visibly different, which is
            // precisely what `SnapshotStore`'s name-vs-stamp check
            // rejects one layer up.
            Ok((g2, p2)) => {
                prop_assert_eq!(p2, &payload[..]);
                prop_assert_ne!(g2, generation);
            }
        }
    }

    #[test]
    fn arbitrary_text_parses_or_errs_never_panics(
        parts in prop::collection::vec(0usize..FRAGMENTS.len() + CHARS.len(), 0..48),
    ) {
        let text = spell(&parts);
        // Whatever parses must print to text that parses back the same.
        if let Ok(v) = serde_json::parse_value(&text) {
            prop_assert_eq!(serde_json::parse_value(&v.to_json_string()).ok(), Some(v));
        }
        let _ = serde_json::from_str::<ServiceReport>(&text);
    }

    #[test]
    fn mutated_documents_parse_or_err_never_panic(
        ops in prop::collection::vec(any::<u32>(), 0..64),
        cut in any::<usize>(),
        splice in 0usize..FRAGMENTS.len() + 1,
    ) {
        // Near-valid input reaches every parser state and, for the
        // report, the typed field walk behind it.
        let splice = FRAGMENTS.get(splice).copied().unwrap_or("");
        let tree = build_value(&mut ops.into_iter(), 0).to_json_string();
        let report = serde_json::to_string(&ServiceReport::default()).unwrap();
        for doc in [tree, report] {
            let text = mutate(&doc, cut, splice);
            let _ = serde_json::parse_value(&text);
            let _ = serde_json::from_str::<ServiceReport>(&text);
        }
    }

    #[test]
    fn print_then_parse_is_identity(ops in prop::collection::vec(any::<u32>(), 0..96)) {
        let v = build_value(&mut ops.into_iter(), 0);
        prop_assert_eq!(serde_json::parse_value(&v.to_json_string()).unwrap(), v.clone());
        prop_assert_eq!(serde_json::parse_value(&v.to_json_string_pretty()).unwrap(), v);
    }
}

#[test]
fn non_json_snapshot_payload_is_a_checkpoint_error() {
    // Each payload passes the record checksum (it is committed intact)
    // but is not parsable JSON. Recovery must refuse it with a typed
    // error before running any round.
    let payloads: [&[u8]; 6] = [
        b"not json",
        b"{\"config_key\": tru",
        b"{\"next_round\": 01}",
        b"{\"config_key\": \"a\x01b\"}",
        b"[\"\\u+041\"]",
        &[0xff, 0xfe, b'{'],
    ];
    for payload in payloads {
        let mut store = SnapshotStore::new(Box::new(MemStorage::new()));
        store.commit(1, payload).unwrap();
        let err = FleetService::new(ServiceConfig::default())
            .run(&mut store)
            .unwrap_err();
        assert!(
            matches!(err, FleetError::Checkpoint(_)),
            "{:?}: {err}",
            String::from_utf8_lossy(payload)
        );
    }
}
