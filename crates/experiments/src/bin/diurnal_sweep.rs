//! Regenerates the diurnal traffic / flash-crowd / elastic-autoscaler sweep.
//! Flags as in `RunCtx::parse`.
fn main() {
    experiments::diurnal_sweep::run(&experiments::RunCtx::from_args());
}
