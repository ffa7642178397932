//! Chaos scenario library and fault-spec parsing for `canaryctl chaos`.
//!
//! A chaos run is named (a curated [`named`] scenario) or described in a
//! small TOML subset ([`parse_spec`]): top-level scalar rates plus
//! `[[partition]]` / `[[store_outage]]` / `[[degrade]]` / `[[burst]]`
//! blocks of `key = number` lines. The workspace carries no TOML
//! dependency, so the parser is hand-rolled for exactly that shape:
//!
//! ```toml
//! straggler_rate = 0.2
//! corruption_rate = 0.35
//!
//! [[partition]]
//! a = 0
//! b = 3
//! from_s = 5
//! until_s = 45
//!
//! [[store_outage]]
//! member = 1
//! from_s = 10
//! rejoin_s = 40
//! ```
//!
//! Schedules expanded from a spec are deterministic in `(spec, cluster)`;
//! the run seed only moves the straggler/corruption oracles — so a
//! failing seed reported by CI reproduces exactly with
//! `canaryctl chaos --scenario NAME --seed N`.

use crate::scenario::Scenario;
use canary_cluster::{
    BurstSpec, ChaosSpec, ControllerCrashSpec, DegradeSpec, PartitionSpec, StoreOutageSpec,
};
use canary_platform::JobSpec;
use canary_workloads::{WorkloadKind, WorkloadSpec};

/// Names of the curated chaos scenarios, in menu order.
pub const SCENARIOS: [&str; 9] = [
    "partition",
    "store-outage",
    "degrade",
    "stragglers",
    "corruption",
    "burst",
    "mixed",
    "controller-crash",
    "migration",
];

/// Look up a curated chaos scenario by name.
pub fn named(name: &str) -> Option<ChaosSpec> {
    let mut spec = ChaosSpec::default();
    match name {
        "partition" => {
            spec.partitions.push(PartitionSpec {
                a: 0,
                b: 3,
                from_s: 5,
                until_s: 60,
            });
        }
        "store-outage" => {
            // Staggered total outage of the replicated store: every
            // member is down in [14, 40), so checkpoints skip and
            // restores fall back; member 0 rejoins without a donor.
            spec.store_outages.extend([
                StoreOutageSpec {
                    member: 0,
                    from_s: 10,
                    rejoin_s: Some(40),
                },
                StoreOutageSpec {
                    member: 1,
                    from_s: 12,
                    rejoin_s: Some(42),
                },
                StoreOutageSpec {
                    member: 2,
                    from_s: 14,
                    rejoin_s: Some(44),
                },
            ]);
        }
        "degrade" => {
            spec.degrades.push(DegradeSpec {
                factor: 3.0,
                from_s: 8,
                until_s: 30,
            });
        }
        "stragglers" => {
            spec.straggler_rate = 0.25;
        }
        "corruption" => {
            spec.corruption_rate = 0.5;
        }
        "burst" => {
            spec.bursts.push(BurstSpec {
                at_s: 15,
                rack: 0,
                count: 2,
            });
        }
        "mixed" => {
            spec.partitions.push(PartitionSpec {
                a: 0,
                b: 3,
                from_s: 5,
                until_s: 45,
            });
            spec.store_outages.extend([
                StoreOutageSpec {
                    member: 0,
                    from_s: 10,
                    rejoin_s: Some(40),
                },
                StoreOutageSpec {
                    member: 1,
                    from_s: 12,
                    rejoin_s: Some(42),
                },
                StoreOutageSpec {
                    member: 2,
                    from_s: 14,
                    rejoin_s: Some(44),
                },
            ]);
            spec.degrades.push(DegradeSpec {
                factor: 2.5,
                from_s: 8,
                until_s: 25,
            });
            spec.straggler_rate = 0.2;
            spec.corruption_rate = 0.35;
        }
        "migration" => {
            // Two rack-level crash bursts with corruption and a degraded
            // interconnect in between: node losses that force warm-replica
            // recoveries, where migration's delta transfer should beat a
            // full rerun-from-checkpoint read.
            spec.bursts.extend([
                BurstSpec {
                    at_s: 15,
                    rack: 0,
                    count: 2,
                },
                BurstSpec {
                    at_s: 30,
                    rack: 1,
                    count: 2,
                },
            ]);
            spec.corruption_rate = 0.35;
            spec.degrades.push(DegradeSpec {
                factor: 2.0,
                from_s: 8,
                until_s: 25,
            });
            spec.straggler_rate = 0.2;
        }
        "controller-crash" => {
            // The full mixed storm plus a control-plane crash-restart in
            // the thick of it. The crash instant is an odd microsecond so
            // it can never collide with (and reorder against) regular
            // engine events, which land on coarser timestamps.
            spec = named("mixed").expect("mixed scenario exists");
            spec.controller_crashes
                .push(ControllerCrashSpec { at_us: 22_500_001 });
        }
        _ => return None,
    }
    Some(spec)
}

/// The canonical chaos demo scenario the `canaryctl chaos` subcommand,
/// the golden-trace tests, and the CI smoke job all share: 24 Spark
/// data-mining functions on 8 nodes at a 30% error rate, under `spec`.
/// The 2.5 s states checkpoint densely from a few seconds in, so every
/// curated fault window overlaps live checkpoint/restore traffic while
/// the golden traces stay reviewable.
pub fn demo_scenario(spec: ChaosSpec) -> Scenario {
    let mut s = Scenario::chameleon(
        0.3,
        vec![JobSpec::new(
            WorkloadSpec::paper_default(WorkloadKind::SparkDataMining),
            24,
        )],
    );
    s.nodes = 8;
    s.chaos = spec;
    s
}

fn parse_number(key: &str, raw: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .map_err(|_| format!("bad number {raw:?} for key {key:?}"))
}

/// Exclusive upper bound of an integer-valued block key: 2^32 for the
/// `u32` keys, 2^64 for the `u64` ones, `None` for a real-valued key.
fn integer_bound(key: &str) -> Option<f64> {
    match key {
        "a" | "b" | "member" | "rack" | "count" => Some(2f64.powi(32)),
        "from_s" | "until_s" | "rejoin_s" | "at_s" | "at_us" => Some(2f64.powi(64)),
        _ => None,
    }
}

/// One accumulated `[[block]]` of `key = number` lines.
#[derive(Debug, Default)]
struct Block {
    fields: Vec<(String, f64)>,
}

impl Block {
    fn get(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    fn require(&self, section: &str, key: &str) -> Result<f64, String> {
        self.get(key)
            .ok_or_else(|| format!("[[{section}]] block is missing {key:?}"))
    }

    fn check_keys(&self, section: &str, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in &self.fields {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown key {k:?} in [[{section}]]"));
            }
        }
        Ok(())
    }
}

fn finish_block(spec: &mut ChaosSpec, section: &str, block: Block) -> Result<(), String> {
    match section {
        "partition" => {
            block.check_keys(section, &["a", "b", "from_s", "until_s"])?;
            spec.partitions.push(PartitionSpec {
                a: block.require(section, "a")? as u32,
                b: block.require(section, "b")? as u32,
                from_s: block.require(section, "from_s")? as u64,
                until_s: block.require(section, "until_s")? as u64,
            });
        }
        "store_outage" => {
            block.check_keys(section, &["member", "from_s", "rejoin_s"])?;
            spec.store_outages.push(StoreOutageSpec {
                member: block.require(section, "member")? as u32,
                from_s: block.require(section, "from_s")? as u64,
                rejoin_s: block.get("rejoin_s").map(|v| v as u64),
            });
        }
        "degrade" => {
            block.check_keys(section, &["factor", "from_s", "until_s"])?;
            spec.degrades.push(DegradeSpec {
                factor: block.require(section, "factor")?,
                from_s: block.require(section, "from_s")? as u64,
                until_s: block.require(section, "until_s")? as u64,
            });
        }
        "burst" => {
            block.check_keys(section, &["at_s", "rack", "count"])?;
            spec.bursts.push(BurstSpec {
                at_s: block.require(section, "at_s")? as u64,
                rack: block.require(section, "rack")? as u32,
                count: block.require(section, "count")? as u32,
            });
        }
        "controller_crash" => {
            block.check_keys(section, &["at_us"])?;
            spec.controller_crashes.push(ControllerCrashSpec {
                at_us: block.require(section, "at_us")? as u64,
            });
        }
        other => return Err(format!("unknown section [[{other}]]")),
    }
    Ok(())
}

/// Parse a chaos spec from the TOML subset described in the module docs.
/// The result is validated ([`ChaosSpec::validate`]) before returning.
pub fn parse_spec(src: &str) -> Result<ChaosSpec, String> {
    let mut spec = ChaosSpec::default();
    let mut current: Option<(String, Block)> = None;
    for (i, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        if let Some(header) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            if let Some((section, block)) = current.take() {
                finish_block(&mut spec, &section, block).map_err(at)?;
            }
            current = Some((header.trim().to_string(), Block::default()));
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| at(format!("expected `key = value`, got {line:?}")))?;
        let (key, value) = (key.trim(), value.trim());
        let num = parse_number(key, value).map_err(at)?;
        match &mut current {
            Some((_, block)) => {
                // Integer keys take whole, in-range values only, so the
                // casts in `finish_block` are exact.
                if let Some(bound) = integer_bound(key) {
                    if !(num >= 0.0 && num.fract() == 0.0 && num < bound) {
                        return Err(at(format!(
                            "{key} = {value} is not a whole number in [0, {bound})"
                        )));
                    }
                }
                block.fields.push((key.to_string(), num));
            }
            None => match key {
                "straggler_rate" => spec.straggler_rate = num,
                "straggler_factor" => spec.straggler_factor = num,
                "corruption_rate" => spec.corruption_rate = num,
                "partition_penalty" => spec.partition_penalty = num,
                other => return Err(at(format!("unknown top-level key {other:?}"))),
            },
        }
    }
    if let Some((section, block)) = current.take() {
        finish_block(&mut spec, &section, block)?;
    }
    spec.validate()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_scenario_validates_and_is_nonempty() {
        for name in SCENARIOS {
            let spec = named(name).unwrap_or_else(|| panic!("missing scenario {name}"));
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!spec.is_empty(), "{name} must inject something");
        }
        assert!(named("nope").is_none());
    }

    #[test]
    fn mixed_covers_store_partition_and_stragglers() {
        let spec = named("mixed").unwrap();
        assert!(!spec.partitions.is_empty());
        assert_eq!(
            spec.store_outages.len(),
            3,
            "total outage needs all members"
        );
        assert!(spec.straggler_rate > 0.0);
        assert!(spec.corruption_rate > 0.0);
    }

    #[test]
    fn toml_subset_round_trips_a_full_spec() {
        let spec = parse_spec(
            "# full chaos spec\n\
             straggler_rate = 0.2\n\
             straggler_factor = 5.0\n\
             corruption_rate = 0.1\n\
             partition_penalty = 6.0\n\
             \n\
             [[partition]]\n\
             a = 0\n\
             b = 3\n\
             from_s = 5   # seconds\n\
             until_s = 20\n\
             \n\
             [[store_outage]]\n\
             member = 1\n\
             from_s = 10\n\
             rejoin_s = 30\n\
             \n\
             [[store_outage]]\n\
             member = 2\n\
             from_s = 12\n\
             \n\
             [[degrade]]\n\
             factor = 3.0\n\
             from_s = 8\n\
             until_s = 12\n\
             \n\
             [[burst]]\n\
             at_s = 15\n\
             rack = 0\n\
             count = 2\n",
        )
        .unwrap();
        assert_eq!(spec.straggler_rate, 0.2);
        assert_eq!(spec.straggler_factor, 5.0);
        assert_eq!(spec.partition_penalty, 6.0);
        assert_eq!(
            spec.partitions,
            vec![PartitionSpec {
                a: 0,
                b: 3,
                from_s: 5,
                until_s: 20
            }]
        );
        assert_eq!(spec.store_outages.len(), 2);
        assert_eq!(spec.store_outages[0].rejoin_s, Some(30));
        assert_eq!(spec.store_outages[1].rejoin_s, None, "rejoin is optional");
        assert_eq!(spec.degrades.len(), 1);
        assert_eq!(spec.bursts.len(), 1);
    }

    #[test]
    fn controller_crash_scenario_extends_mixed() {
        let spec = named("controller-crash").unwrap();
        let mixed = named("mixed").unwrap();
        assert_eq!(spec.partitions, mixed.partitions);
        assert_eq!(spec.store_outages, mixed.store_outages);
        assert_eq!(spec.controller_crashes.len(), 1);
        assert_eq!(
            spec.controller_crashes[0].at_us % 2,
            1,
            "crash instant must be an odd microsecond so it never ties \
             with a regular event timestamp"
        );
        assert!(mixed.controller_crashes.is_empty());
    }

    #[test]
    fn controller_crash_blocks_parse() {
        let spec = parse_spec("[[controller_crash]]\nat_us = 22500001\n").unwrap();
        assert_eq!(
            spec.controller_crashes,
            vec![ControllerCrashSpec { at_us: 22_500_001 }]
        );
        let err = parse_spec("[[controller_crash]]\nat_s = 3\n").unwrap_err();
        assert!(err.contains("at_s"), "{err}");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_spec("straggler_rate = 0.2\nbogus_key = 1\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("bogus_key"), "{err}");

        let err = parse_spec("[[partition]]\na = 0\n").unwrap_err();
        assert!(err.contains("missing"), "{err}");

        let err = parse_spec("[[volcano]]\nheight = 3\n").unwrap_err();
        assert!(err.contains("volcano"), "{err}");

        let err = parse_spec("straggler_rate = banana\n").unwrap_err();
        assert!(err.contains("banana"), "{err}");
    }

    #[test]
    fn integer_keys_reject_negative_fractional_non_finite_and_out_of_range_values() {
        let cases = [
            (
                "[[store_outage]]\nmember = -1\nfrom_s = 10\n",
                "line 2",
                "member",
            ),
            (
                "[[store_outage]]\nmember = 1.7\nfrom_s = 10\n",
                "line 2",
                "member",
            ),
            (
                "[[store_outage]]\nmember = 1\nfrom_s = 2.9\n",
                "line 3",
                "from_s",
            ),
            (
                "[[burst]]\nat_s = 15\nrack = 4294967296\ncount = 2\n",
                "line 3",
                "rack",
            ),
            (
                "[[burst]]\nat_s = 15\nrack = 0\ncount = 1e12\n",
                "line 4",
                "count",
            ),
            ("[[controller_crash]]\nat_us = 1e30\n", "line 2", "at_us"),
            (
                "[[partition]]\na = nan\nb = 3\nfrom_s = 5\nuntil_s = 20\n",
                "line 2",
                "a",
            ),
            (
                "[[partition]]\na = 0\nb = 3\nfrom_s = 5\nuntil_s = inf\n",
                "line 5",
                "until_s",
            ),
        ];
        for (src, line, key) in cases {
            let err = parse_spec(src).unwrap_err();
            assert!(err.starts_with(line) && err.contains(key), "{src:?}: {err}");
        }
        // The extremes of each integer type still parse, exactly.
        let spec = parse_spec(
            "[[burst]]\nat_s = 15\nrack = 4294967295\ncount = 2\n\
             [[controller_crash]]\nat_us = 18446744073709549568\n",
        )
        .unwrap();
        assert_eq!(spec.bursts[0].rack, u32::MAX);
        assert_eq!(spec.controller_crashes[0].at_us, 18_446_744_073_709_549_568);
    }

    #[test]
    fn non_finite_factors_are_rejected() {
        for src in [
            "straggler_factor = NaN\n",
            "straggler_factor = inf\n",
            "partition_penalty = nan\n",
            "partition_penalty = inf\n",
            "[[degrade]]\nfactor = NaN\nfrom_s = 8\nuntil_s = 12\n",
            "[[degrade]]\nfactor = inf\nfrom_s = 8\nuntil_s = 12\n",
        ] {
            let err = parse_spec(src).unwrap_err();
            assert!(err.contains("finite"), "{src:?}: {err}");
        }
    }

    #[test]
    fn parsed_specs_are_validated() {
        // Self-loop partition passes parsing but fails validation.
        let err = parse_spec("[[partition]]\na = 1\nb = 1\nfrom_s = 0\nuntil_s = 5\n").unwrap_err();
        assert!(err.contains("self-loop"), "{err}");
        // A burst time whose microseconds overflow a u64.
        let err =
            parse_spec("[[burst]]\nat_s = 18446744073710\nrack = 0\ncount = 2\n").unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn demo_scenario_embeds_the_spec() {
        let s = demo_scenario(named("mixed").unwrap());
        assert_eq!(s.nodes, 8);
        assert_eq!(s.chaos, named("mixed").unwrap());
        assert!(!s.jobs.is_empty());
    }
}
