//! Regenerates the fault-injection robustness sweep. Flags as in
//! `RunCtx::parse`.
fn main() {
    experiments::fault_sweep::run(&experiments::RunCtx::from_args());
}
