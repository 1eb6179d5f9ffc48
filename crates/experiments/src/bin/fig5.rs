//! Regenerates the paper's fig5 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig05::run(&experiments::RunCtx::from_args());
}
