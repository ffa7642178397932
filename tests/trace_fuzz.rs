//! Fuzz suite for the JSONL trace reader.
//!
//! The contract under attack: `trace_from_jsonl` answers any input with
//! `Ok` or a typed [`ExportError`] naming one of the input's lines — it
//! never panics — and every trace it accepts re-encodes to JSONL that
//! parses back to the same events. The inputs are truncations at every
//! byte offset of the pinned all-variants fixtures, seeded bit flips over
//! the committed golden traces, and random garbage lines. Every case
//! derives from a pinned seed, so a failure reproduces byte-for-byte.

use canary_experiments::{trace_from_jsonl, trace_to_jsonl, ExportError};
use canary_sim::SimRng;
use std::path::PathBuf;

/// Every trace kind on one line each: without causal links, then with
/// links and a nonzero checkpoint cost.
const FIXTURES: [&str; 2] = [
    include_str!("fixtures/all_variants.jsonl"),
    include_str!("fixtures/all_variants_linked.jsonl"),
];

const SEEDS: [u64; 3] = [7, 42, 1337];

/// Stream tag for this suite's corruption draws.
const FUZZ_STREAM: u64 = 0x75AC;

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

fn golden_traces() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    let mut goldens: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("goldens directory")
        .map(|entry| entry.expect("goldens entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("golden reads");
            (path.display().to_string(), text)
        })
        .collect();
    goldens.sort();
    assert!(goldens.len() >= 6, "expected the committed goldens");
    goldens
}

#[test]
fn truncation_at_every_byte_offset_of_the_pinned_fixtures() {
    for fixture in FIXTURES {
        let whole = trace_from_jsonl(fixture).expect("fixture decodes");
        for cut in 0..=fixture.len() {
            let prefix = &fixture[..cut];
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
    let (mut accepted, mut rejected) = (0, 0);
    for (name, golden) in golden_traces() {
        let lines: Vec<&str> = golden.lines().collect();
        for seed in SEEDS {
            let mut rng = SimRng::seed_from_u64(seed).split(FUZZ_STREAM);
            for case in 0..200 {
                // A window of up to three consecutive lines, 1–4 bits flipped.
                let start = rng.u64_below(lines.len() as u64) as usize;
                let end = (start + 3).min(lines.len());
                let mut bytes = lines[start..end].join("\n").into_bytes();
                for _ in 0..=rng.u64_below(4) {
                    let bit = rng.u64_below(bytes.len() as u64 * 8);
                    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                let input = String::from_utf8_lossy(&bytes);
                let context = format!("{name} seed {seed} case {case}: {input:?}");
                if check(&input, &context) {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// Every quoted word of the fixtures: keys, kind names, tier and target
/// labels.
fn vocabulary() -> Vec<&'static str> {
    let mut words: Vec<&str> = FIXTURES
        .iter()
        .flat_map(|f| f.split('"').skip(1).step_by(2))
        .collect();
    words.sort_unstable();
    words.dedup();
    words
}

fn random_value(rng: &mut SimRng, words: &[&str]) -> String {
    match rng.u64_below(12) {
        0 => rng.u64_below(40).to_string(),
        1 => (u64::from(u32::MAX) - 1 + rng.u64_below(3)).to_string(),
        2 => u64::MAX.to_string(),
        3 => "18446744073709551616".into(),
        4 => "true".into(),
        5 => "false".into(),
        6 => format!("\"{}\"", rng.choose(words)),
        7 => format!("\"{}\"", random_junk(rng, 6)),
        8 => "-1".into(),
        9 => String::new(),
        10 => "1.5".into(),
        _ => "\"a\\b\"".into(),
    }
}

fn random_junk(rng: &mut SimRng, max_len: u64) -> String {
    const ALPHABET: &[u8] = b"{}[]\":,0123456789 truefalsn\\\t_-.xyz\xc3\xa9\xff";
    let bytes: Vec<u8> = (0..rng.u64_below(max_len + 1))
        .map(|_| {
            if rng.u64_below(8) == 0 {
                rng.next_u64() as u8
            } else {
                *rng.choose(ALPHABET)
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A fixture line with one to three of its members replaced, added,
/// repeated with another value, or dropped.
fn mutated_line(rng: &mut SimRng, words: &[&str]) -> String {
    let fixture = FIXTURES[rng.u64_below(2) as usize];
    let line = *rng.choose(&fixture.lines().collect::<Vec<_>>());
    let mut members: Vec<String> = line[1..line.len() - 1]
        .split(',')
        .map(str::to_string)
        .collect();
    for _ in 0..=rng.u64_below(3) {
        let at = rng.u64_below(members.len() as u64 + 1) as usize;
        match rng.u64_below(4) {
            0 if at < members.len() => {
                let key = members[at].split(':').next().unwrap_or("").to_string();
                members[at] = format!("{key}:{}", random_value(rng, words));
            }
            1 => {
                let member = format!("\"{}\":{}", rng.choose(words), random_value(rng, words));
                members.insert(at, member);
            }
            2 if at < members.len() => {
                let key = members[at].split(':').next().unwrap_or("").to_string();
                members.push(format!("{key}:{}", random_value(rng, words)));
            }
            _ if at < members.len() => {
                members.remove(at);
            }
            _ => {}
        }
    }
    format!("{{{}}}", members.join(","))
}

#[test]
fn random_garbage_lines() {
    let words = vocabulary();
    let (mut accepted, mut rejected) = (0, 0);
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed).split(FUZZ_STREAM);
        for case in 0..2_000 {
            let line = match case % 3 {
                0 => random_junk(&mut rng, 80),
                1 => format!("{{{}}}", random_junk(&mut rng, 60)),
                _ => mutated_line(&mut rng, &words),
            };
            if check(&line, &format!("seed {seed} case {case}: {line:?}")) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}
