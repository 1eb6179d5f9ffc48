//! Regenerates the paper's fig10 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig10::run(&experiments::RunCtx::from_args());
}
