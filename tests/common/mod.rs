//! Shared helpers for the integration-test tree. Each suite uses a
//! subset of them.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

/// Asserts the end-to-end energy-conservation invariant: the energy the
/// facility *attributed* (requests + background, CPU + I/O) must match
/// the machine's *measured* active energy within `tol` relative error.
/// This is the paper's Fig. 8 validation, promoted to an invariant every
/// experiment cell must satisfy — attribution may split energy wrongly
/// under faults, but it must never create or destroy it beyond model
/// error.
pub fn assert_energy_conserved(label: &str, attributed_j: f64, measured_j: f64, tol: f64) {
    assert!(
        measured_j > 0.0,
        "{label}: measured active energy must be positive, got {measured_j}"
    );
    assert!(
        attributed_j > 0.0,
        "{label}: attributed energy must be positive, got {attributed_j}"
    );
    let err = analysis::stats::relative_error(attributed_j, measured_j);
    assert!(
        err <= tol,
        "{label}: energy not conserved — attributed {attributed_j:.2} J vs measured \
         {measured_j:.2} J ({:.1}% > {:.1}% tolerance)",
        err * 100.0,
        tol * 100.0
    );
}

/// Creates a fresh sandbox `pc-<tag>-<pid>` under the temp dir whose
/// `results/` holds copies of the committed calibration caches, points
/// `PC_RESULTS_DIR` at it so no run overwrites a committed record, and
/// returns the sandbox root. `PC_RESULTS_DIR` is process-wide: call this
/// once per test binary.
pub fn sandbox(tag: &str) -> PathBuf {
    let tmp = std::env::temp_dir().join(format!("pc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let results = tmp.join("results");
    std::fs::create_dir_all(&results).expect("create sandbox");
    let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
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
