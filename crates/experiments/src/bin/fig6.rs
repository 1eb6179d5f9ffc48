//! Regenerates the paper's fig6 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig06::run(&experiments::RunCtx::from_args());
}
