//! Regenerates the fleet scale sweep (nodes × policy × cap). Flags as in
//! `RunCtx::parse`.
fn main() {
    experiments::scale_sweep::run(&experiments::RunCtx::from_args());
}
