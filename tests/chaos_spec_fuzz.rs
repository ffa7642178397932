//! Fuzz suite for the chaos-spec parser behind `canaryctl chaos --spec`.
//!
//! The contract under attack: `parse_spec` answers any input with `Ok` or
//! an error — it never panics — and every spec it accepts passes
//! `ChaosSpec::validate`. The inputs are truncations at every byte offset
//! of the module-doc spec and of a spec using every key, seeded bit flips
//! over both, and garbage lines. Every case derives from a pinned seed,
//! so a failure reproduces byte-for-byte.

use canary_cluster::ChaosSpec;
use canary_experiments::chaos::parse_spec;
use canary_sim::SimRng;

/// A spec using every top-level key and every block kind but
/// `controller_crash` (the `toml_subset_round_trips_a_full_spec` input).
const FULL_SPEC: &str = "# full chaos spec
straggler_rate = 0.2
straggler_factor = 5.0
corruption_rate = 0.1
partition_penalty = 6.0

[[partition]]
a = 0
b = 3
from_s = 5   # seconds
until_s = 20

[[store_outage]]
member = 1
from_s = 10
rejoin_s = 30

[[store_outage]]
member = 2
from_s = 12

[[degrade]]
factor = 3.0
from_s = 8
until_s = 12

[[burst]]
at_s = 15
rack = 0
count = 2
";

const SEEDS: [u64; 3] = [7, 42, 1337];

/// Stream tag for this suite's draws.
const FUZZ_STREAM: u64 = 0xC4A0;

/// The spec shown in the `canary_experiments::chaos` module docs, read
/// from its source so the two cannot drift apart.
fn doc_spec() -> String {
    include_str!("../crates/experiments/src/chaos.rs")
        .lines()
        .skip_while(|l| *l != "//! ```toml")
        .skip(1)
        .take_while(|l| *l != "//! ```")
        .map(|l| format!("{}\n", l.strip_prefix("//! ").unwrap_or("")))
        .collect()
}

fn specs() -> [String; 2] {
    [doc_spec(), FULL_SPEC.to_string()]
}

/// Parse `input` and hold the parser to its contract. Returns whether
/// the input was accepted.
fn check(input: &str, context: &str) -> bool {
    match parse_spec(input) {
        Ok(spec) => {
            if let Err(e) = spec.validate() {
                panic!("{context}: accepted spec fails validation: {e}");
            }
            assert_values_kept(input, &spec, context);
            true
        }
        Err(e) => {
            assert!(!e.is_empty(), "{context}: empty error");
            false
        }
    }
}

/// Oracles independent of the parser for an accepted input: every
/// slowdown factor is finite, and every integer key's value is a whole
/// number its field holds exactly, so nothing was truncated on the way
/// in. (A repeated top-level key keeps its last value, so only the
/// spec's own factors are checked, not every factor line.)
fn assert_values_kept(input: &str, spec: &ChaosSpec, context: &str) {
    let factors = [spec.straggler_factor, spec.partition_penalty];
    assert!(
        factors
            .into_iter()
            .chain(spec.degrades.iter().map(|d| d.factor))
            .all(f64::is_finite),
        "{context}: accepted a non-finite factor"
    );
    for line in input.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let max = match key.trim() {
            "a" | "b" | "member" | "rack" | "count" => u32::MAX as f64,
            "from_s" | "until_s" | "rejoin_s" | "at_s" | "at_us" => u64::MAX as f64,
            _ => continue,
        };
        let v: f64 = value.trim().parse().expect("accepted values are numbers");
        assert!(
            v >= 0.0 && v.fract() == 0.0 && v < max + 1.0,
            "{context}: accepted {line:?}, which its field cannot hold"
        );
    }
}

#[test]
fn truncation_at_every_byte_offset_of_the_pinned_specs() {
    let (mut accepted, mut rejected) = (0, 0);
    for spec in specs() {
        assert!(spec.contains("[[partition]]"), "spec extracted: {spec:?}");
        assert!(check(&spec, "whole spec"));
        for cut in (0..=spec.len()).filter(|&cut| spec.is_char_boundary(cut)) {
            if check(&spec[..cut], &format!("cut at byte {cut}")) {
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

#[test]
fn seeded_bit_flips_over_the_pinned_specs() {
    let (mut accepted, mut rejected) = (0, 0);
    for (which, spec) in specs().iter().enumerate() {
        for seed in SEEDS {
            let mut rng = SimRng::seed_from_u64(seed).split(FUZZ_STREAM);
            for case in 0..500 {
                let mut bytes = spec.clone().into_bytes();
                for _ in 0..=rng.u64_below(4) {
                    let bit = rng.u64_below(bytes.len() as u64 * 8);
                    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                let input = String::from_utf8_lossy(&bytes);
                let context = format!("spec {which} seed {seed} case {case}: {input:?}");
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

const SECTIONS: [&str; 6] = [
    "partition",
    "store_outage",
    "degrade",
    "burst",
    "controller_crash",
    "volcano",
];

const KEYS: [&str; 15] = [
    "straggler_rate",
    "straggler_factor",
    "corruption_rate",
    "partition_penalty",
    "a",
    "b",
    "from_s",
    "until_s",
    "member",
    "rejoin_s",
    "factor",
    "at_s",
    "rack",
    "count",
    "at_us",
];

/// Values around every boundary the parser and the validator guard.
const VALUES: [&str; 24] = [
    "0",
    "1",
    "3",
    "0.5",
    "1.7",
    "2.9",
    "-1",
    "-0",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "1e12",
    "1e30",
    "1e309",
    "NaN",
    "inf",
    "-inf",
    "",
    "0x10",
    "1_000",
    "banana",
    "5 # trailing comment",
    "= 3",
];

fn garbage_line(rng: &mut SimRng) -> String {
    match rng.u64_below(6) {
        0 => format!("[[{}]]", rng.choose(&SECTIONS)),
        1 => {
            const ALPHABET: &[u8] = b"[]=#. -_0123456789abefinrstu\t\xc3\xa9\xff";
            let bytes: Vec<u8> = (0..rng.u64_below(24))
                .map(|_| *rng.choose(ALPHABET))
                .collect();
            String::from_utf8_lossy(&bytes).into_owned()
        }
        _ => format!("{} = {}", rng.choose(&KEYS), rng.choose(&VALUES)),
    }
}

#[test]
fn random_garbage_lines() {
    let (mut accepted, mut rejected) = (0, 0);
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed).split(FUZZ_STREAM);
        for case in 0..3_000 {
            let lines = 1 + rng.u64_below(8);
            let input: String = (0..lines).map(|_| garbage_line(&mut rng) + "\n").collect();
            if check(&input, &format!("seed {seed} case {case}: {input:?}")) {
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
