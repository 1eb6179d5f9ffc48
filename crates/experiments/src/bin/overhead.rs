//! Regenerates the paper's overhead artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::overhead::run(&experiments::RunCtx::from_args());
}
