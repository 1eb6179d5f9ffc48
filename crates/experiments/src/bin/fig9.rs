//! Regenerates the paper's fig9 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig09::run(&experiments::RunCtx::from_args());
}
