//! Regenerates the paper's fig1 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig01::run(&experiments::RunCtx::from_args());
}
