//! Regenerates the paper's fig14 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig14::run(&experiments::RunCtx::from_args());
}
