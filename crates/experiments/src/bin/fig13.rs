//! Regenerates the paper's fig13 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig13::run(&experiments::RunCtx::from_args());
}
