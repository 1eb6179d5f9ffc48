//! Regenerates the paper's fig3 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig03::run(&experiments::RunCtx::from_args());
}
