//! Regenerates the cross-scheduler attribution conformance sweep. Flags as in
//! `RunCtx::parse`.
fn main() {
    experiments::sched_sweep::run(&experiments::RunCtx::from_args());
}
