//! Regenerates the drift study: the self-calibrating model bank vs the single
//! rolling model across a seeded ladder of regime shifts. Flags as in
//! `RunCtx::parse`.
fn main() {
    experiments::drift_sweep::run(&experiments::RunCtx::from_args());
}
