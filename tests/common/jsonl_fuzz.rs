//! The JSONL reader's fuzz inputs, shared by the fuzz suite
//! (`tests/trace_fuzz.rs`) and the reader's parity test against its
//! oracle (`export.rs`): truncations at every byte offset of the pinned
//! all-variants fixtures, seeded bit flips over the committed golden
//! traces, and random garbage lines. Every case derives from a pinned
//! seed, so a failure reproduces byte-for-byte.

use canary_sim::SimRng;
use std::path::PathBuf;

/// Every trace kind on one line each: without causal links, then with
/// links and a nonzero checkpoint cost.
pub const FIXTURES: [&str; 2] = [
    include_str!("../fixtures/all_variants.jsonl"),
    include_str!("../fixtures/all_variants_linked.jsonl"),
];

const SEEDS: [u64; 3] = [7, 42, 1337];

/// Stream tag for the corruption draws.
const FUZZ_STREAM: u64 = 0x75AC;

/// One fuzz input and where it came from.
pub struct Case {
    pub context: String,
    pub input: String,
}

/// `(cut, prefix)` for every byte offset of `fixture`.
pub fn truncations(fixture: &str) -> impl Iterator<Item = (usize, &str)> {
    (0..=fixture.len()).map(move |cut| (cut, &fixture[..cut]))
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

/// Windows of up to three consecutive golden lines with 1–4 bits
/// flipped, 200 per golden and seed.
pub fn bit_flips() -> Vec<Case> {
    let mut cases = Vec::new();
    for (name, golden) in golden_traces() {
        let lines: Vec<&str> = golden.lines().collect();
        for seed in SEEDS {
            let mut rng = SimRng::seed_from_u64(seed).split(FUZZ_STREAM);
            for case in 0..200 {
                let start = rng.u64_below(lines.len() as u64) as usize;
                let end = (start + 3).min(lines.len());
                let mut bytes = lines[start..end].join("\n").into_bytes();
                for _ in 0..=rng.u64_below(4) {
                    let bit = rng.u64_below(bytes.len() as u64 * 8);
                    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                let input = String::from_utf8_lossy(&bytes).into_owned();
                cases.push(Case {
                    context: format!("{name} seed {seed} case {case}: {input:?}"),
                    input,
                });
            }
        }
    }
    cases
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

/// 2,000 lines per seed, cycling through raw junk, junk in braces and
/// mutated fixture lines.
pub fn garbage_lines() -> Vec<Case> {
    let words = vocabulary();
    let mut cases = Vec::new();
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed).split(FUZZ_STREAM);
        for case in 0..2_000 {
            let input = match case % 3 {
                0 => random_junk(&mut rng, 80),
                1 => format!("{{{}}}", random_junk(&mut rng, 60)),
                _ => mutated_line(&mut rng, &words),
            };
            cases.push(Case {
                context: format!("seed {seed} case {case}: {input:?}"),
                input,
            });
        }
    }
    cases
}
