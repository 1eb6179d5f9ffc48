//! §4.1 — the calibrated model coefficients.
//!
//! Prints the SandyBridge machine's calibrated offline model the way the
//! paper lists it: the constant idle power plus each coefficient's
//! maximum active-power impact `C·M_max` over the calibration set.

use crate::output::{banner, write_record, Table};
use crate::{Lab, RunCtx};
use power_containers::{MetricVector, FEATURES};
use serde::Serialize;

/// The coefficients record.
#[derive(Debug, Clone, Serialize)]
pub struct Coefficients {
    /// Machine name.
    pub machine: String,
    /// Measured idle power, Watts.
    pub idle_w: f64,
    /// Per-feature `(name, coefficient, M_max, C·M_max)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Paper-reported `C·M_max` values for SandyBridge, aligned with the
/// feature order (no floating-point value was listed in §4.1).
const PAPER_CMMAX: [Option<f64>; FEATURES] = [
    Some(33.1), // core
    Some(12.4), // ins
    None,       // float (not reported)
    Some(13.9), // cache
    Some(8.2),  // mem
    Some(5.6),  // chipshare
    Some(1.7),  // disk
    Some(5.8),  // net
];

/// Runs the experiment.
pub fn run(_ctx: &RunCtx) -> Coefficients {
    banner("coefficients", "calibrated SandyBridge model (C·M_max form, §4.1)");
    let mut lab = Lab::new();
    let cal = lab.calibration("sandybridge");
    let model = cal.model_chipshare.clone();
    // M_max per feature over the calibration samples.
    let mut m_max = [0.0f64; FEATURES];
    for s in cal.set.samples() {
        for (i, v) in s.metrics.as_array().iter().enumerate() {
            m_max[i] = m_max[i].max(*v);
        }
    }
    let mut table = Table::new(["term", "C·M_max (W)", "paper (W)"]);
    table.row(["C_idle".to_string(), format!("{:.1}", model.idle_w()), "26.1".to_string()]);
    let mut rows = Vec::new();
    for i in 0..FEATURES {
        let name = MetricVector::NAMES[i];
        let c = model.coefficients()[i];
        let impact = c * m_max[i];
        table.row([
            format!("C_{name}·M_max"),
            format!("{impact:.1}"),
            PAPER_CMMAX[i].map_or("—".to_string(), |v| format!("{v:.1}")),
        ]);
        rows.push((name.to_string(), c, m_max[i], impact));
    }
    println!("{table}");
    let record = Coefficients {
        machine: "sandybridge".to_string(),
        idle_w: model.idle_w(),
        rows,
    };
    write_record("coefficients", &record);
    record
}
