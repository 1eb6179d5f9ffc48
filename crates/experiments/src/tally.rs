//! What one experiment's simulations did, folded run by run into its
//! [`RunCtx`](crate::RunCtx) and rendered as the `run_all` status
//! columns.
//!
//! A [`Tally`] is built from each finished outcome (`From<&RunOutcome>`,
//! `From<&ClusterOutcome>`) and folded with `+=`; every fold is
//! commutative, so the columns are the same at any `--jobs` count. A
//! new column whose data is already on an outcome is added here alone:
//! a field, its `From` and fold lines, and its rendering.

use cluster::{ClusterOutcome, ShedReason};
use power_containers::DegradeStats;
use std::ops::AddAssign;
use std::time::Duration;
use workloads::RunOutcome;

/// What one cluster run reports about its elasticity controller: resize
/// transitions completed, brownout-ladder movements, and optional
/// arrivals shed by the ladder. A fixed-fleet run reports zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutoscaleDigest {
    /// Completed scale-outs (including upgrade provision halves).
    pub scale_outs: u64,
    /// Completed scale-ins (including upgrade drain halves).
    pub scale_ins: u64,
    /// Rolling-upgrade pairs started.
    pub upgrades: u64,
    /// Brownout-ladder climbs.
    pub brownout_engagements: u64,
    /// Arrivals shed because their session was optional while the
    /// ladder held at shed-optional or above.
    pub shed_optional: u64,
}

/// What one observability-enabled run reports: the typed-alert count and
/// the p99 of its per-request attributed-energy sketch. Folding keeps the
/// alert sum and the worst (highest) p99.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ObsDigest {
    /// Energy-SLO alerts fired over the run.
    pub alerts: u64,
    /// p99 attributed energy per request, Joules.
    pub p99_j_per_req: f64,
}

/// The folded statistics of one experiment's runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Graceful-degradation decisions; `None` until a run is noted.
    pub degrade: Option<DegradeStats>,
    /// Requests the runs' load generators offered.
    pub requests: u64,
    /// Observability digest; `None` unless a run had the obs plane on.
    pub obs: Option<ObsDigest>,
    /// Elasticity counters summed over the runs.
    pub autoscale: AutoscaleDigest,
}

impl From<&RunOutcome> for Tally {
    fn from(o: &RunOutcome) -> Tally {
        Tally {
            degrade: Some(o.degrade_stats()),
            requests: o.stats.borrow().issued(),
            ..Tally::default()
        }
    }
}

impl From<&ClusterOutcome> for Tally {
    fn from(o: &ClusterOutcome) -> Tally {
        Tally {
            degrade: Some(o.degrade),
            requests: o.dispatched,
            obs: o.obs.as_ref().map(|obs| ObsDigest {
                alerts: obs.report.alerts.len() as u64,
                p99_j_per_req: obs
                    .report
                    .sketches
                    .get("energy_j_per_req/fleet")
                    .map(|s| s.quantile(0.99))
                    .unwrap_or(0.0),
            }),
            autoscale: AutoscaleDigest {
                scale_outs: o.scale_outs,
                scale_ins: o.scale_ins,
                upgrades: o.upgrades,
                brownout_engagements: o.brownout_engagements,
                shed_optional: o.shed[ShedReason::BrownoutOptional.index()],
            },
        }
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.degrade = match (self.degrade, other.degrade) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        self.requests += other.requests;
        self.obs = match (self.obs, other.obs) {
            (Some(a), Some(b)) => Some(ObsDigest {
                alerts: a.alerts + b.alerts,
                p99_j_per_req: a.p99_j_per_req.max(b.p99_j_per_req),
            }),
            (a, b) => a.or(b),
        };
        let (a, b) = (&mut self.autoscale, other.autoscale);
        a.scale_outs += b.scale_outs;
        a.scale_ins += b.scale_ins;
        a.upgrades += b.upgrades;
        a.brownout_engagements += b.brownout_engagements;
        a.shed_optional += b.shed_optional;
    }
}

impl Tally {
    /// Headers of the columns [`Tally::columns`] renders.
    pub const COLUMNS: [&'static str; 9] = [
        "req/s",
        "degraded",
        "retried",
        "shed",
        "drift",
        "p99 J/req",
        "alerts",
        "resizes",
        "brownout",
    ];

    /// The status columns, `-` where nothing was noted. `wall` is the
    /// experiment's wall time (`None` when it failed); it only divides
    /// the request count into the throughput column, so no wall-clock
    /// value enters any result record.
    pub fn columns(&self, wall: Option<Duration>) -> [String; 9] {
        let dash = || "-".to_string();
        let rps = match wall {
            Some(w) if self.requests > 0 && w.as_secs_f64() > 0.0 => {
                format!("{:.0}", self.requests as f64 / w.as_secs_f64())
            }
            _ => dash(),
        };
        let (deg, retried, shed, drift) = match &self.degrade {
            None => (dash(), dash(), dash(), dash()),
            Some(d) => (
                if d.is_clean() { "clean".to_string() } else { format!("{} decisions", d.total()) },
                d.requests_retried.to_string(),
                d.requests_shed.to_string(),
                d.drift_column(),
            ),
        };
        let (p99_j, alerts) = match &self.obs {
            None => (dash(), dash()),
            Some(o) => (format!("{:.4}", o.p99_j_per_req), o.alerts.to_string()),
        };
        let a = &self.autoscale;
        let (resizes, brownout) = if *a == AutoscaleDigest::default() {
            (dash(), dash())
        } else {
            let upg = if a.upgrades > 0 { format!(" ({} upg)", a.upgrades) } else { String::new() };
            (
                format!("{}/{}{upg}", a.scale_outs, a.scale_ins),
                format!("{} ({} shed)", a.brownout_engagements, a.shed_optional),
            )
        };
        [rps, deg, retried, shed, drift, p99_j, alerts, resizes, brownout]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degraded(meter_gaps: u64) -> Tally {
        Tally {
            degrade: Some(DegradeStats { meter_gaps, ..DegradeStats::default() }),
            ..Tally::default()
        }
    }

    #[test]
    fn an_empty_tally_renders_dashes() {
        let cols = Tally::default().columns(Some(Duration::from_secs(1)));
        assert!(cols.iter().all(|c| c == "-"), "{cols:?}");
    }

    #[test]
    fn degrade_stats_sum_and_clean_runs_still_render() {
        let mut t = Tally::default();
        t += degraded(0);
        assert_eq!(t.columns(None)[1], "clean");
        t += degraded(1);
        t += Tally::default();
        t += degraded(2);
        assert_eq!(t.degrade.unwrap().meter_gaps, 3);
        assert_eq!(t.columns(None)[1], "3 decisions");
    }

    #[test]
    fn requests_sum_and_zero_leaves_throughput_dashed() {
        let mut t = Tally::default();
        t += Tally { requests: 0, ..Tally::default() };
        assert_eq!(t.columns(Some(Duration::from_secs(2)))[0], "-");
        t += Tally { requests: 100, ..Tally::default() };
        t += Tally { requests: 20, ..Tally::default() };
        assert_eq!(t.requests, 120);
        assert_eq!(t.columns(Some(Duration::from_secs(2)))[0], "60");
        // A failed experiment has no wall time to divide by.
        assert_eq!(t.columns(None)[0], "-");
    }

    #[test]
    fn obs_alerts_sum_and_p99_keeps_the_worst_cell() {
        let obs = |alerts, p99_j_per_req| Tally {
            obs: Some(ObsDigest { alerts, p99_j_per_req }),
            ..Tally::default()
        };
        let mut t = Tally::default();
        t += obs(2, 0.8);
        t += Tally::default(); // obs off: leaves the digest alone
        t += obs(1, 0.3);
        assert_eq!(t.obs, Some(ObsDigest { alerts: 3, p99_j_per_req: 0.8 }));
        let cols = t.columns(None);
        assert_eq!((cols[5].as_str(), cols[6].as_str()), ("0.8000", "3"));
    }

    #[test]
    fn autoscale_counters_sum_and_an_empty_digest_stays_dashed() {
        let mut t = Tally::default();
        t += Tally { autoscale: AutoscaleDigest::default(), ..Tally::default() };
        assert_eq!(t.columns(None)[7..], ["-", "-"]);
        t += Tally {
            autoscale: AutoscaleDigest {
                scale_outs: 3,
                scale_ins: 2,
                upgrades: 0,
                brownout_engagements: 4,
                shed_optional: 7,
            },
            ..Tally::default()
        };
        assert_eq!(t.columns(None)[7..], ["3/2", "4 (7 shed)"]);
        t += Tally {
            autoscale: AutoscaleDigest { scale_outs: 1, upgrades: 1, ..AutoscaleDigest::default() },
            ..Tally::default()
        };
        assert_eq!(
            t.autoscale,
            AutoscaleDigest {
                scale_outs: 4,
                scale_ins: 2,
                upgrades: 1,
                brownout_engagements: 4,
                shed_optional: 7,
            }
        );
        assert_eq!(t.columns(None)[7..], ["4/2 (1 upg)", "4 (7 shed)"]);
    }
}
