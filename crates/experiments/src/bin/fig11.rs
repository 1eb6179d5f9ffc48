//! Regenerates the paper's fig11 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig11::run(&experiments::RunCtx::from_args());
}
