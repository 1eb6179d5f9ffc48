//! Regenerates the anomaly-detection study. Flags as in `RunCtx::parse`.
fn main() {
    experiments::anomaly::run(&experiments::RunCtx::from_args());
}
