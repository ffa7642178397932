//! Synthetic US-census-style dataset.
//!
//! The paper's Spark data-mining workload computes diversity indices at
//! the local (county) and national level over the US census population
//! estimates (cc-est2017-alldata). That file is not redistributable here,
//! so we generate a deterministic synthetic equivalent with the same
//! schema essentials: one row per (county, demographic group) carrying a
//! population count. Counties get distinct demographic mixes so the
//! diversity indices are non-trivial.

use canary_sim::SimRng;

/// Number of demographic groups tracked per county (census race/ethnicity
/// categories collapse to six major groups in the 2017 file).
pub const NUM_GROUPS: usize = 6;

/// One county's population broken down by demographic group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountyRow {
    /// FIPS-like identifier (dense, 0-based).
    pub county_id: u32,
    /// State the county belongs to.
    pub state_id: u32,
    /// Population per demographic group.
    pub group_counts: [u64; NUM_GROUPS],
}

impl CountyRow {
    /// Total county population.
    pub fn total(&self) -> u64 {
        self.group_counts.iter().sum()
    }
}

/// Deterministic census table generator.
#[derive(Debug, Clone)]
pub struct CensusData {
    /// All county rows, ordered by county id.
    pub rows: Vec<CountyRow>,
}

impl CensusData {
    /// Generate `counties` counties spread over `states` states.
    pub fn generate(counties: u32, states: u32, seed: u64) -> Self {
        assert!(counties > 0 && states > 0, "bad census parameters");
        let base = SimRng::seed_from_u64(seed).split(0xCE45);
        let rows = (0..counties)
            .map(|county_id| {
                let mut rng = base.split(county_id as u64);
                // Each county has a dominant group and a long tail; the mix
                // varies so county-level diversity indices spread out.
                let dominant = rng.u64_below(NUM_GROUPS as u64) as usize;
                let skew = rng.range_f64(0.3, 0.9);
                let population = rng.range_u64(5_000, 2_000_000);
                let mut group_counts = [0u64; NUM_GROUPS];
                let mut remaining = population;
                let dom = ((population as f64) * skew) as u64;
                group_counts[dominant] = dom;
                remaining -= dom.min(remaining);
                for (g, slot) in group_counts.iter_mut().enumerate() {
                    if g == dominant {
                        continue;
                    }
                    let share = if g == NUM_GROUPS - 1
                        || (g == NUM_GROUPS - 2 && dominant == NUM_GROUPS - 1)
                    {
                        remaining
                    } else {
                        let frac = rng.range_f64(0.0, 0.5);
                        ((remaining as f64) * frac) as u64
                    };
                    let share = share.min(remaining);
                    *slot = share;
                    remaining -= share;
                }
                // Any residual goes to the dominant group.
                group_counts[dominant] += remaining;
                CountyRow {
                    county_id,
                    state_id: county_id % states,
                    group_counts,
                }
            })
            .collect();
        CensusData { rows }
    }

    /// Number of counties.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table is empty (never for generated data).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Shannon diversity index `H = -Σ p_i ln p_i` of a group-count vector;
/// 0 for empty or single-group populations.
pub fn shannon_index(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.ln()
        })
        .sum()
}

/// Simpson diversity index `1 - Σ p_i²`.
pub fn simpson_index(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / total;
            p * p
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = CensusData::generate(50, 5, 1);
        let b = CensusData::generate(50, 5, 1);
        assert_eq!(a.rows, b.rows);
        let c = CensusData::generate(50, 5, 2);
        assert_ne!(a.rows, c.rows);
    }

    #[test]
    fn populations_are_positive_and_consistent() {
        let d = CensusData::generate(100, 10, 3);
        for row in &d.rows {
            assert!(row.total() >= 5_000, "county {} too small", row.county_id);
            assert!(row.state_id < 10);
        }
    }

    #[test]
    fn shannon_bounds() {
        // Single group: zero diversity.
        assert_eq!(shannon_index(&[100, 0, 0]), 0.0);
        // Uniform over k groups: ln(k), the maximum.
        let h = shannon_index(&[10, 10, 10, 10]);
        assert!((h - (4.0f64).ln()).abs() < 1e-12);
        // Empty: defined as zero.
        assert_eq!(shannon_index(&[]), 0.0);
        assert_eq!(shannon_index(&[0, 0]), 0.0);
    }

    #[test]
    fn simpson_bounds() {
        assert_eq!(simpson_index(&[100]), 0.0);
        let s = simpson_index(&[10, 10]);
        assert!((s - 0.5).abs() < 1e-12);
        assert_eq!(simpson_index(&[]), 0.0);
    }

    #[test]
    fn skewed_counties_less_diverse_than_uniform() {
        let skewed = shannon_index(&[1000, 10, 10, 10, 10, 10]);
        let uniform = shannon_index(&[175, 175, 175, 175, 175, 175]);
        assert!(skewed < uniform);
    }
}
