//! Quick-scale runs of the heavier experiments: each must produce the
//! paper's qualitative outcome even at reduced duration. Records go to a
//! sandbox, so the committed full-scale ones stay intact.

mod common;

use experiments::{RunCtx, Scale};
use std::sync::OnceLock;

/// A quick-scale context writing into the suite's sandbox. The sandbox
/// is created once: `PC_RESULTS_DIR` is process-wide, so the tests of
/// this binary share it.
fn quick() -> RunCtx {
    static SANDBOX: OnceLock<std::path::PathBuf> = OnceLock::new();
    SANDBOX.get_or_init(|| common::sandbox("quick-experiments"));
    RunCtx::new(Scale::Quick)
}

#[test]
fn fig2_alignment_recovers_both_meter_delays() {
    let record = experiments::fig02::run(&quick());
    for scan in &record.scans {
        let err = (scan.estimated_delay_ms - scan.true_delay_ms).abs();
        assert!(
            err <= scan.true_delay_ms.max(1.0) * 0.25 + 1.0,
            "{}: estimated {} vs true {}",
            scan.meter,
            scan.estimated_delay_ms,
            scan.true_delay_ms
        );
        assert!(scan.peak_score > 0.5, "{} peak score {}", scan.meter, scan.peak_score);
        assert!(!scan.curve.is_empty());
    }
}

#[test]
fn fig9_background_share_is_substantial() {
    let record = experiments::fig09::run(&quick());
    let peak = &record.cells[0];
    assert!(
        (0.12..0.55).contains(&peak.background_share),
        "background share {:.2}",
        peak.background_share
    );
    // Modeled total tracks the measurement.
    let modeled = peak.requests_w + peak.background_w;
    let err = (modeled - peak.measured_w).abs() / peak.measured_w;
    assert!(err < 0.15, "modeled {modeled:.1} vs measured {:.1}", peak.measured_w);
}

#[test]
fn fig13_rsa_prefers_the_new_machine_most() {
    let record = experiments::fig13::run(&quick());
    let rsa = record
        .rows
        .iter()
        .find(|r| r.workload == "RSA-crypto")
        .expect("RSA row");
    for row in &record.rows {
        assert!(
            row.ratio >= rsa.ratio - 1e-9,
            "{} ratio {:.2} below RSA {:.2}",
            row.workload,
            row.ratio,
            rsa.ratio
        );
    }
    assert!(rsa.ratio < 0.35, "RSA ratio {:.2}", rsa.ratio);
}

#[test]
fn coefficients_recover_the_chipshare_term() {
    let record = experiments::coefficients::run(&quick());
    let chipshare = record
        .rows
        .iter()
        .find(|(name, ..)| name == "chipshare")
        .expect("chipshare row");
    // The ground truth's 5.6 W maintenance power must be recovered.
    assert!(
        (4.0..7.5).contains(&chipshare.3),
        "chipshare C·M_max {:.1} W",
        chipshare.3
    );
    assert!((record.idle_w - 26.1).abs() < 1.0, "idle {:.1} W", record.idle_w);
}
