//! Regenerates the paper's fig2 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig02::run(&experiments::RunCtx::from_args());
}
