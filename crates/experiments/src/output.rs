//! Emission of figure results: CSV + Markdown files under the `results/`
//! directory. Printing a set (`canary_metrics::ascii_table`) is the
//! caller's choice.

use canary_metrics::{csv, markdown_table};
use canary_sim::SeriesSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory figure outputs are written to (workspace-relative).
pub const RESULTS_DIR: &str = "results";

/// Write each set as `results/<name>_<i>.csv` and `.md`. Returns the
/// paths written.
pub fn emit(name: &str, sets: &[SeriesSet]) -> std::io::Result<Vec<PathBuf>> {
    emit_to(Path::new(RESULTS_DIR), name, sets)
}

/// The file stem of set `index` of the `count` sets emitted as `name`:
/// `name` itself for a single set, else `name_a`, `name_b`, ...
pub fn set_stem(name: &str, index: usize, count: usize) -> String {
    if count > 1 {
        format!("{name}_{}", (b'a' + index as u8) as char)
    } else {
        name.to_string()
    }
}

/// As [`emit`] but into an explicit directory (used by tests).
pub fn emit_to(dir: &Path, name: &str, sets: &[SeriesSet]) -> std::io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        let stem = set_stem(name, i, sets.len());
        let csv_path = dir.join(format!("{stem}.csv"));
        fs::write(&csv_path, csv(set))?;
        written.push(csv_path);
        let md_path = dir.join(format!("{stem}.md"));
        fs::write(
            &md_path,
            format!("### {}\n\n{}", set.title, markdown_table(set)),
        )?;
        written.push(md_path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_csv_and_md_per_set() {
        let mut s1 = SeriesSet::new("T1", "x", "y");
        s1.series_mut("A").push(1.0, 2.0);
        let mut s2 = SeriesSet::new("T2", "x", "y");
        s2.series_mut("B").push(3.0, 4.0);
        let dir = std::env::temp_dir().join(format!("canary_emit_{}", std::process::id()));
        let paths = emit_to(&dir, "figX", &[s1, s2]).unwrap();
        assert_eq!(paths.len(), 4);
        assert!(paths[0]
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("figX_a"));
        assert!(paths[2]
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("figX_b"));
        for p in &paths {
            assert!(p.exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_set_has_no_suffix() {
        let mut s = SeriesSet::new("T", "x", "y");
        s.series_mut("A").push(1.0, 2.0);
        let dir = std::env::temp_dir().join(format!("canary_emit1_{}", std::process::id()));
        let paths = emit_to(&dir, "fig7", &[s]).unwrap();
        assert!(paths[0].ends_with("fig7.csv"));
        let _ = fs::remove_dir_all(&dir);
    }
}
