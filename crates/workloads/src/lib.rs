//! Workloads for the Power Containers reproduction.
//!
//! This crate provides the paper's §4 evaluation inputs:
//!
//! * the **offline calibration procedure** ([`calibration`]) — the §4.1
//!   microbenchmark suite and least-squares model fitting per machine;
//! * the six **application models** ([`apps`]) — RSA-crypto, Solr,
//!   WeBWorK, Stress, GAE-Vosao and GAE-Hybrid — built from the paper's
//!   descriptions of their stage structure and activity mix;
//! * the **load generator** ([`driver`]) — pooled persistent workers fed
//!   by an open-loop Poisson request driver that propagates request
//!   contexts through tagged socket messages;
//! * a one-call **harness** ([`harness`]) that assembles machine, kernel,
//!   facility, application and driver, and returns a [`RunOutcome`] the
//!   experiment binaries consume.
//!
//! # Example
//!
//! ```no_run
//! use hwsim::MachineSpec;
//! use workloads::{calibrate_machine, run_app, LoadLevel, RunConfig, WorkloadKind};
//!
//! let spec = MachineSpec::sandybridge();
//! let cal = calibrate_machine(&spec, 42);
//! let mut cfg = RunConfig::new(spec);
//! cfg.load = LoadLevel::Half;
//! let outcome = run_app(WorkloadKind::Solr, &cfg, &cal);
//! println!("validation error: {:.1}%", outcome.validation_error() * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod calibration;
pub mod driver;
pub mod harness;
pub mod loadgen;
pub mod stats;
pub mod trace;
pub mod traffic;

pub use apps::{AppEnv, ServerApp, WorkloadKind, POWER_VIRUS_LABEL};
pub use calibration::{calibrate_machine, MachineCalibration, Microbench};
pub use driver::{
    scaled_compute, spawn_driver, spawn_pool, ClosedLoopDriver, CtxAlloc, DriverEnv, PoolWorker,
};
pub use harness::{
    offered_rate, prepare_app, run_app, run_server_app, LoadLevel, PreparedRun, RunConfig,
    RunOutcome,
};
pub use loadgen::{Arrival, OpenLoopGen};
pub use stats::{Completion, RunStats};
pub use trace::{spawn_trace_driver, RequestTrace, TraceEntry};
pub use traffic::{Diurnal, FlashCrowds, Sessions, TrafficGen, TrafficShape};
