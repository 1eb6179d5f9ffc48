//! Property-based tests for the distribution policies and the sharded
//! cluster engine's conservation laws.

use cluster::{
    run_pipeline, ArrivalView, ClusterConfig, ClusterOutcome, DistributionPolicy,
    MachineHeterogeneityAware, NodeView, SimpleBalance, Topology, WorkloadHeterogeneityAware,
};
use proptest::prelude::*;
use simkern::SimDuration;
use workloads::{calibrate_machine, MachineCalibration, WorkloadKind};

fn arb_nodes() -> impl Strategy<Value = Vec<NodeView>> {
    prop::collection::vec(
        (0.0f64..20.0, 1usize..16, 0u8..3)
            .prop_map(|(outstanding, cores, rank)| NodeView { outstanding, cores, rank }),
        2..5,
    )
}

fn arb_arrival() -> impl Strategy<Value = ArrivalView> {
    (prop::sample::select(vec![
        WorkloadKind::RsaCrypto,
        WorkloadKind::GaeVosao,
        WorkloadKind::Solr,
        WorkloadKind::Stress,
    ]), 0u32..200)
        .prop_map(|(app, label)| ArrivalView { app, label })
}

proptest! {
    /// Every policy returns a valid node index for any state.
    #[test]
    fn policies_choose_valid_nodes(
        nodes in arb_nodes(),
        arrivals in prop::collection::vec(arb_arrival(), 1..50),
    ) {
        let mut policies: Vec<Box<dyn DistributionPolicy>> = vec![
            Box::new(SimpleBalance::new()),
            Box::new(MachineHeterogeneityAware::new()),
            Box::new(WorkloadHeterogeneityAware::new(vec![
                (WorkloadKind::RsaCrypto, 0.22),
                (WorkloadKind::GaeVosao, 0.43),
            ])),
        ];
        for p in &mut policies {
            for &a in &arrivals {
                let n = p.choose(a, &nodes);
                prop_assert!(n < nodes.len(), "{} chose {n} of {}", p.name(), nodes.len());
            }
        }
    }

    /// Policies are pure: replaying the same arrival stream against the
    /// same views from a fresh instance reproduces every choice — the
    /// property that makes cluster runs independent of `--jobs`.
    #[test]
    fn policies_are_deterministic(
        nodes in arb_nodes(),
        arrivals in prop::collection::vec(arb_arrival(), 1..50),
    ) {
        let make: Vec<fn() -> Box<dyn DistributionPolicy>> = vec![
            || Box::new(SimpleBalance::new()),
            || Box::new(MachineHeterogeneityAware::new()),
            || Box::new(WorkloadHeterogeneityAware::new(vec![
                (WorkloadKind::RsaCrypto, 0.22),
                (WorkloadKind::GaeVosao, 0.43),
            ])),
        ];
        for mk in make {
            let (mut a, mut b) = (mk(), mk());
            for &req in &arrivals {
                prop_assert_eq!(a.choose(req, &nodes), b.choose(req, &nodes));
            }
        }
    }

    /// Simple balance distributes any stream evenly across nodes.
    #[test]
    fn simple_balance_is_even(
        nodes in arb_nodes(),
        count in 10usize..200,
    ) {
        let mut p = SimpleBalance::new();
        let mut hits = vec![0usize; nodes.len()];
        for i in 0..count {
            let a = ArrivalView { app: WorkloadKind::Solr, label: i as u32 };
            hits[p.choose(a, &nodes)] += 1;
        }
        let max = *hits.iter().max().unwrap();
        let min = *hits.iter().min().unwrap();
        prop_assert!(max - min <= 1, "uneven split {hits:?}");
    }

    /// The machine-aware policy never spills while node 0 (the newest
    /// machine) is below its threshold, and goes least-loaded once the
    /// whole fleet is saturated.
    #[test]
    fn machine_aware_honours_threshold(
        load0 in 0.0f64..2.0,
        load1 in 0.0f64..2.0,
        label in 0u32..10,
    ) {
        let mut p = MachineHeterogeneityAware::new();
        let nodes = vec![
            NodeView { outstanding: load0 * 4.0, cores: 4, rank: 0 },
            NodeView { outstanding: load1 * 4.0, cores: 4, rank: 2 },
        ];
        let choice = p.choose(
            ArrivalView { app: WorkloadKind::RsaCrypto, label },
            &nodes,
        );
        if load0 < p.threshold {
            prop_assert_eq!(choice, 0);
        } else if load1 < p.threshold {
            prop_assert_eq!(choice, 1);
        } else {
            // Saturated fleet: least-loaded wins, ties to the lowest index.
            prop_assert_eq!(choice, if load1 < load0 { 1 } else { 0 });
        }
    }

    /// The workload-aware policy keeps low-ratio apps on node 0 whenever
    /// node 0 has any tolerance left, and spills high-ratio apps once the
    /// threshold is crossed.
    #[test]
    fn workload_aware_is_affinity_consistent(load0 in 0.0f64..2.0) {
        let mut p = WorkloadHeterogeneityAware::new(vec![
            (WorkloadKind::RsaCrypto, 0.2),
            (WorkloadKind::GaeVosao, 0.8),
        ]);
        let nodes = vec![
            NodeView { outstanding: load0 * 4.0, cores: 4, rank: 0 },
            NodeView { outstanding: 0.0, cores: 4, rank: 2 },
        ];
        let rsa = p.choose(ArrivalView { app: WorkloadKind::RsaCrypto, label: 0 }, &nodes);
        let gae = p.choose(ArrivalView { app: WorkloadKind::GaeVosao, label: 0 }, &nodes);
        if load0 < p.threshold {
            prop_assert_eq!(rsa, 0);
            prop_assert_eq!(gae, 0);
        } else {
            // Above threshold: the spill-friendly app leaves first.
            prop_assert_eq!(gae, 1);
            if load0 < 1.25 {
                prop_assert_eq!(rsa, 0, "RSA should cling to node 0 at load {}", load0);
            } else {
                prop_assert_eq!(rsa, 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine conservation laws. Each case is a full (small, short) cluster
// run, so the suites run few cases with tight topologies.

fn small_config(n: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(n));
    cfg.seed = seed;
    cfg.duration = SimDuration::from_millis(800);
    cfg.workers_per_core = 2;
    cfg
}

fn cals_for(cfg: &ClusterConfig) -> Vec<MachineCalibration> {
    // Calibrations depend only on the spec; reuse per distinct machine.
    let mut cache: Vec<(&'static str, MachineCalibration)> = Vec::new();
    cfg.nodes
        .iter()
        .map(|spec| {
            if let Some((_, c)) = cache.iter().find(|(n, _)| *n == spec.name) {
                return c.clone();
            }
            let c = calibrate_machine(spec, 7);
            cache.push((spec.name, c.clone()));
            c
        })
        .collect()
}

fn run_small(n: usize, seed: u64) -> ClusterOutcome {
    let cfg = small_config(n, seed);
    let cals = cals_for(&cfg);
    let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    run_pipeline(&mut policies, &cfg, &cals)
}

fn assert_conservation(o: &ClusterOutcome) {
    // Cluster-wide: every offered request is completed, dropped, or
    // still in flight — exactly.
    assert_eq!(
        o.dispatched,
        o.completed as u64 + o.dropped + o.in_flight,
        "dispatched must equal completed + dropped + in_flight"
    );
    // Per shard: every injection is either served or still queued; no
    // request is counted on two shards at once.
    let mut stage_injections = 0u64;
    let mut stage_completions = 0u64;
    let mut still_queued = 0u64;
    for n in &o.per_node {
        assert_eq!(
            n.dispatched,
            n.completions as u64 + n.in_flight,
            "node conservation violated on {} (tier {})",
            n.machine,
            n.tier
        );
        stage_injections += n.dispatched;
        stage_completions += n.completions as u64;
        still_queued += n.in_flight;
    }
    // Stage totals tie out against the dispatcher's request ledger: a
    // request contributes one injection per stage it reached, and the
    // requests still inside the pipeline are queued on exactly one shard.
    assert_eq!(stage_injections, stage_completions + still_queued);
    assert_eq!(
        o.in_flight, still_queued,
        "dispatcher in-flight ledger must match the shards' queues"
    );
    assert!(o.completed > 0, "a healthy small run must complete requests");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// dispatched = completed + dropped (+ in flight), cluster-wide and
    /// per shard, for any seed and small pipeline size.
    #[test]
    fn engine_conserves_requests(seed in 0u64..1000, n in 3usize..6) {
        assert_conservation(&run_small(n, seed));
    }

    /// Equal seeds give identical outcomes — full structural equality of
    /// every counter and energy figure.
    #[test]
    fn engine_is_deterministic_for_equal_seeds(seed in 0u64..1000) {
        let (a, b) = (run_small(4, seed), run_small(4, seed));
        prop_assert_eq!(a.dispatched, b.dispatched);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.dropped, b.dropped);
        prop_assert_eq!(a.in_flight, b.in_flight);
        prop_assert_eq!(a.decisions, b.decisions);
        for (x, y) in a.per_node.iter().zip(&b.per_node) {
            prop_assert_eq!(x.dispatched, y.dispatched);
            prop_assert_eq!(x.completions, y.completions);
            prop_assert!(x.active_energy_j == y.active_energy_j, "energy must match bit-for-bit");
            prop_assert!(x.attributed_energy_j == y.attributed_energy_j);
        }
        for ((ka, va), (kb, vb)) in a.energy_by_app_j.iter().zip(&b.energy_by_app_j) {
            prop_assert_eq!(ka, kb);
            prop_assert!(va == vb);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Offered-request counts (and the rest of the outcome's counters)
    /// are invariant under the intra-cell shard count even when
    /// non-stationary traffic drives the elastic autoscaler: every
    /// routing, admission, and resize decision stays on the driving
    /// thread, so `--shards` can only change who advances kernels.
    #[test]
    fn traffic_offered_counts_invariant_across_shards(seed in 0u64..1000) {
        use cluster::{run_cluster, AutoscaleConfig};
        use workloads::{Diurnal, TrafficShape};

        let mut base = ClusterConfig::sharded(&Topology::scaled_fleet(4));
        base.seed = seed;
        base.duration = SimDuration::from_millis(1200);
        base.workers_per_core = 2;
        base.traffic = Some(TrafficShape {
            diurnal: Some(Diurnal {
                period: SimDuration::from_millis(1200),
                amplitude: 0.7,
                phase: 0.0,
            }),
            ..TrafficShape::steady()
        });
        base.autoscale = Some(AutoscaleConfig::standard(2, 3));
        let cals = cals_for(&base);
        let outcomes: Vec<ClusterOutcome> = [1usize, 3]
            .iter()
            .map(|&shards| {
                let mut cfg = base.clone();
                cfg.shards = shards;
                run_cluster(&mut SimpleBalance::new(), &cfg, &cals)
            })
            .collect();
        let (a, b) = (&outcomes[0], &outcomes[1]);
        prop_assert_eq!(a.dispatched, b.dispatched, "offered counts must not depend on --shards");
        prop_assert!(a.dispatched > 0, "the diurnal window must offer requests");
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.dropped, b.dropped);
        prop_assert_eq!(a.in_flight, b.in_flight);
        prop_assert_eq!(a.scale_outs, b.scale_outs);
        prop_assert_eq!(a.scale_ins, b.scale_ins);
        for (x, y) in a.per_node.iter().zip(&b.per_node) {
            prop_assert_eq!(x.dispatched, y.dispatched);
            prop_assert!(x.active_energy_j == y.active_energy_j, "energy must match bit-for-bit");
            prop_assert!(x.uptime_s == y.uptime_s, "resize instants must match bit-for-bit");
        }
    }
}
