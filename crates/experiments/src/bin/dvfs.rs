//! Regenerates the DVFS-vs-conditioning capping study. Flags as in
//! `RunCtx::parse`.
fn main() {
    experiments::dvfs::run(&experiments::RunCtx::from_args());
}
