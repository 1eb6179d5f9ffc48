//! Regenerates the design-choice ablation study. Flags as in `RunCtx::parse`.
fn main() {
    experiments::ablations::run(&experiments::RunCtx::from_args());
}
