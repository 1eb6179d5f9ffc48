//! Regenerates the paper's fig7 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig07::run(&experiments::RunCtx::from_args());
}
