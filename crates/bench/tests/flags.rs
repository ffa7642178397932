//! The bench binaries read `[--quick] [--out PATH]` before they measure
//! anything: an unknown flag, or an `--out` without a path, exits 2 with
//! the binary's usage and writes nothing.

use std::process::Command;

#[test]
fn bad_flags_exit_2_before_measuring() {
    let dir = std::env::temp_dir().join(format!("canary-bench-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for bin in [
        env!("CARGO_BIN_EXE_bench_engine"),
        env!("CARGO_BIN_EXE_bench_scale"),
    ] {
        for argv in [["--quick", "--bogus"], ["--quick", "--out"]] {
            let out = Command::new(bin)
                .current_dir(&dir)
                .args(argv)
                .output()
                .expect("bench binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {argv:?}:\n{stderr}");
            assert!(stderr.contains("usage: "), "{bin} {argv:?}:\n{stderr}");
            assert!(out.stdout.is_empty(), "{bin} {argv:?} printed to stdout");
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                0,
                "{bin} {argv:?} wrote a file"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
