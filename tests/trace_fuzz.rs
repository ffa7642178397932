//! Fuzz suite for the JSONL trace reader.
//!
//! The contract under attack: `trace_from_jsonl` answers any input with
//! `Ok` or a typed [`ExportError`] naming one of the input's lines — it
//! never panics — and every trace it accepts re-encodes to JSONL that
//! parses back to the same events. The inputs (`common/jsonl_fuzz.rs`)
//! are truncations at every byte offset of the pinned all-variants
//! fixtures, seeded bit flips over the committed golden traces, and
//! random garbage lines.

#[path = "common/jsonl_fuzz.rs"]
mod jsonl_fuzz;

use canary_experiments::{trace_from_jsonl, trace_to_jsonl, ExportError};
use jsonl_fuzz::{bit_flips, garbage_lines, truncations, Case, FIXTURES};

/// Decode `input` and hold the reader to its contract. Returns whether
/// the input was accepted.
fn check(input: &str, context: &str) -> bool {
    match trace_from_jsonl(input) {
        Ok(trace) => {
            let again = trace_from_jsonl(&trace_to_jsonl(&trace))
                .unwrap_or_else(|e| panic!("{context}: re-encoded trace does not parse: {e}"));
            assert_eq!(
                again.events, trace.events,
                "{context}: the round trip changed the events"
            );
            true
        }
        Err(ExportError::BadLine { line, .. }) => {
            assert!(
                (1..=input.lines().count()).contains(&line),
                "{context}: error names line {line} of {}",
                input.lines().count()
            );
            false
        }
    }
}

/// Checks every case; both outcomes must occur.
fn check_all(cases: Vec<Case>) {
    let (mut accepted, mut rejected) = (0, 0);
    for case in cases {
        if check(&case.input, &case.context) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn truncation_at_every_byte_offset_of_the_pinned_fixtures() {
    for fixture in FIXTURES {
        let whole = trace_from_jsonl(fixture).expect("fixture decodes");
        for (cut, prefix) in truncations(fixture) {
            let context = format!("cut at byte {cut}");
            // Only a cut at a line end leaves every line whole.
            let whole_lines = prefix.is_empty() || prefix.ends_with(['}', '\n']);
            assert_eq!(check(prefix, &context), whole_lines, "{context}");
            if whole_lines {
                let events = trace_from_jsonl(prefix).unwrap().events;
                assert_eq!(events, whole.events[..events.len()], "{context}");
            }
        }
    }
}

#[test]
fn seeded_bit_flips_over_golden_lines() {
    check_all(bit_flips());
}

#[test]
fn random_garbage_lines() {
    check_all(garbage_lines());
}
