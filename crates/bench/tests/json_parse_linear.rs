//! Parse time of the vendored JSON parser is linear in string content.
//! Snapshot recovery, report reloads and `bench_gate` all parse through
//! it; it once re-validated the rest of the input for every character it
//! copied, which made an 832 KB array of short strings take seconds.

use serde_json::Value;
use std::time::Instant;

#[test]
fn short_string_array_parses_in_linear_time() {
    // 64,000 ten-character strings, 832 KB: milliseconds when linear, far
    // under the bound even unoptimized on a loaded machine.
    let text = Value::Array(
        (0..64_000)
            .map(|i| Value::String(format!("flow-{i:05}")))
            .collect(),
    )
    .to_json_string();
    assert_eq!(text.len(), 832_001);
    let start = Instant::now();
    let Value::Array(items) = serde_json::parse_value(&text).unwrap() else {
        panic!("expected an array");
    };
    let elapsed = start.elapsed();
    assert_eq!(items.len(), 64_000);
    assert!(elapsed.as_secs() < 5, "832 KB took {elapsed:?}");
}
