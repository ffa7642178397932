//! Golden files shared by the integration tests: committed bytes under
//! `tests/goldens/` that a run must reproduce exactly.
//!
//! When a deliberate change moves a golden, re-bless it with
//! `CANARY_BLESS=1` on the test that checks it and review the golden
//! diff like any other code change.

use std::path::PathBuf;

/// Path of the golden `name`, relative to `tests/goldens/`.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name)
}

/// Compare `actual` against the committed golden `name`, or rewrite the
/// golden when `CANARY_BLESS` is set. Failure messages name the bless
/// command because the expected bytes are far too long to eyeball in
/// assert output.
pub fn check_golden(name: &str, actual: impl AsRef<[u8]>) {
    let actual = actual.as_ref();
    let path = golden_path(name);
    if std::env::var("CANARY_BLESS").is_ok() {
        let dir = path.parent().expect("goldens live in a directory");
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("bless {name}: {e}"));
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("bless {name}: {e}"));
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); run with CANARY_BLESS=1 to create it")
    });
    assert!(
        expected == actual,
        "{name} drifted from the committed golden; if the change is \
         deliberate, re-bless with CANARY_BLESS=1 and review the diff"
    );
}
