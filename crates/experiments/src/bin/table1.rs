//! Regenerates the paper's table1 artifact. Flags as in `RunCtx::parse`.
fn main() {
    experiments::table1::run(&experiments::RunCtx::from_args());
}
