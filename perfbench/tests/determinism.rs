//! The benchmark's outcome digests: a seed fixes the outcome, and neither
//! the shard count nor the recording telemetry sink changes it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::spans::Spans;
use perfbench::{report, run, setup, Plan, Size, Variant, Workload};

fn digest(workload: Workload, seed: u64, variant: Variant, traced: bool) -> u64 {
    let mut s = Spans::new(traced);
    let mut prep = setup(workload, Size::Small, seed, variant, &mut s);
    if traced {
        let tele = telemetry::Telemetry::recording();
        match &mut prep.plan {
            Plan::Fleet(cfg) => cfg.telemetry = tele,
            Plan::Node(cfg) => cfg.telemetry = tele,
        }
    }
    let outcome = run(&prep, &mut s);
    let r = report(&prep, &outcome);
    assert!(
        r.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        r.failures
    );
    r.digest
}

#[test]
fn same_seed_gives_the_same_digest() {
    for w in Workload::ALL {
        assert_eq!(
            digest(w, 7, Variant::Standard, false),
            digest(w, 7, Variant::Standard, false),
            "{}",
            w.name()
        );
    }
}

#[test]
fn another_seed_gives_another_digest() {
    for w in Workload::ALL {
        assert_ne!(
            digest(w, 7, Variant::Standard, false),
            digest(w, 8, Variant::Standard, false),
            "{}",
            w.name()
        );
    }
}

#[test]
fn fleet_steady_digest_is_the_same_at_one_and_two_shards() {
    assert_eq!(
        digest(Workload::FleetSteady, 7, Variant::Standard, false),
        digest(Workload::FleetSteady, 7, Variant::Sharded, false)
    );
}

#[test]
fn tracing_leaves_the_digest_unchanged() {
    for w in Workload::ALL {
        assert_eq!(
            digest(w, 7, Variant::Standard, false),
            digest(w, 7, Variant::Standard, true),
            "{}",
            w.name()
        );
    }
}
