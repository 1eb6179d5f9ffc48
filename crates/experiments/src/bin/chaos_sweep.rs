//! Regenerates the chaos ladder (fault mixes × recovery invariants). Flags as
//! in `RunCtx::parse`.
fn main() {
    experiments::chaos_sweep::run(&experiments::RunCtx::from_args());
}
