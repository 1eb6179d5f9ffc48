//! Regenerates the paper's coefficients artifact. Flags as in
//! `RunCtx::parse`.
fn main() {
    experiments::coefficients::run(&experiments::RunCtx::from_args());
}
