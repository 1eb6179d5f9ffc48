//! Helpers shared by the experiment test suites: the `ci/` golden
//! comparison and the calibrated results sandbox. Each suite uses a
//! subset of them.
#![allow(dead_code)]

use experiments::{RunCtx, Scale};
use std::path::{Path, PathBuf};

/// Asserts `actual` matches the committed golden `ci/<name>`; with
/// `PC_BLESS` set, rewrites the golden instead. The regeneration hint
/// names the calling test target.
pub fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ci").join(name);
    if std::env::var_os("PC_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "{name} drifted; if deliberate, regenerate with PC_BLESS=1 cargo test \
         --release -p experiments --test {}",
        env!("CARGO_CRATE_NAME")
    );
}

/// Creates a fresh sandbox `pc-<tag>-<pid>` under the temp dir whose
/// `results/` holds copies of the committed calibration caches (so a run
/// exercises the experiment, not the §4.1 calibration procedure), points
/// `PC_RESULTS_DIR` at it so no run overwrites a committed full-scale
/// record, and returns the sandbox root.
pub fn sandbox(tag: &str) -> PathBuf {
    let tmp = std::env::temp_dir().join(format!("pc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let results = tmp.join("results");
    std::fs::create_dir_all(&results).expect("create sandbox");
    let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for entry in std::fs::read_dir(repo_results).expect("repo results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with("calibration-") && name.ends_with(".json") {
            std::fs::copy(entry.path(), results.join(&name)).expect("copy calibration cache");
        }
    }
    std::env::set_var("PC_RESULTS_DIR", &results);
    tmp
}

/// A [`sandbox`] together with a quick-scale context tracing into
/// `<root>/traces`.
pub fn traced_sandbox(tag: &str) -> (PathBuf, RunCtx) {
    let tmp = sandbox(tag);
    let mut ctx = RunCtx::new(Scale::Quick);
    ctx.trace_dir = Some(tmp.join("traces"));
    (tmp, ctx)
}
