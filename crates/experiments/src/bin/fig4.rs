//! Regenerates the paper's fig4 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig04::run(&experiments::RunCtx::from_args());
}
