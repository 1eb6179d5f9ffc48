//! Regenerates the paper's fig12 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig12::run(&experiments::RunCtx::from_args());
}
