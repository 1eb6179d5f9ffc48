//! Regenerates the megafleet capacity sweep (nodes × requests). Flags as in
//! `RunCtx::parse`.
fn main() {
    experiments::megafleet::run(&experiments::RunCtx::from_args());
}
