//! Table 1 — average request response times under the three request
//! distribution policies.
//!
//! Both heterogeneity-aware policies keep the machines at healthy
//! utilization and deliver short response times; the simple balancer
//! overloads the Woodcrest machine and suffers badly (the paper reports
//! 537/1728 ms vs well under 200 ms for the aware policies).

use crate::fig14::cluster_outcomes;
use crate::output::{banner, write_record, Table};
use crate::RunCtx;
use serde::Serialize;

/// One policy's response times.
#[derive(Debug, Clone, Serialize)]
pub struct ResponseRow {
    /// Policy name.
    pub policy: String,
    /// `(app, mean response ms)` pairs.
    pub by_app: Vec<(String, f64)>,
}

/// The Table 1 record.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// All rows.
    pub rows: Vec<ResponseRow>,
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Table1 {
    banner("table1", "average request response time per distribution policy");
    let outcomes = cluster_outcomes(ctx);
    let mut rows = Vec::new();
    let app_names: Vec<String> = outcomes[0]
        .response_by_app
        .iter()
        .map(|(k, _)| k.name().to_string())
        .collect();
    let mut header = vec!["policy".to_string()];
    header.extend(app_names.iter().map(|a| format!("{a} (ms)")));
    let mut table = Table::new(header);
    for o in &outcomes {
        let by_app: Vec<(String, f64)> = o
            .response_by_app
            .iter()
            .map(|(k, s)| (k.name().to_string(), s.mean() * 1e3))
            .collect();
        let mut cells = vec![o.policy.to_string()];
        cells.extend(by_app.iter().map(|(_, ms)| format!("{ms:.0}")));
        table.row(cells);
        rows.push(ResponseRow { policy: o.policy.to_string(), by_app });
    }
    println!("{table}");
    let record = Table1 { rows };
    write_record("table1", &record);
    record
}
