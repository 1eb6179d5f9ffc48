//! Regenerates the paper's fig8 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::fig08::run(&experiments::RunCtx::from_args());
}
