//! The sharded N-node serving simulation (paper §3.4, §4.4, scaled).
//!
//! Each node is a full machine + kernel + facility running the worker
//! pools of every application. Nodes are arranged into serving tiers
//! (web → app → db); a dispatcher drives a deterministic open-loop
//! arrival process ([`workloads::OpenLoopGen`]) and routes every request
//! through the pipeline according to the per-tier
//! [`DistributionPolicy`]. Request contexts propagate across node
//! boundaries in the socket-message tag, as in §3.4: a node's reply
//! carries the tag back out, and the dispatcher forwards the *observed*
//! tag to the next tier — so a tag lost or corrupted in transit degrades
//! attribution exactly as it would on real hardware, while request flow
//! itself stays intact via a serial number in the message payload.
//!
//! Dispatcher decisions are batched per tick: the engine advances every
//! node to the tick boundary once, drains stage completions, runs
//! health checks, and only then routes the tick's batch of arrivals
//! against incrementally maintained load views. Per-request dispatcher
//! work is therefore O(policy) — independent of node count — which is
//! what keeps throughput flat as the fleet grows.
//!
//! # Failure recovery
//!
//! Beyond the passive fault riding of the degraded-node detector, the
//! engine models full crash/restart cycles and active request recovery:
//!
//! * **Node lifecycle** — a [`hwsim::FaultKind::NodeCrash`] window
//!   kills the node's kernel outright (Down), then restarts it through
//!   a WarmingUp phase back to Healthy. The facility journals its
//!   container state to a periodic [`ManagerCheckpoint`]; on restart
//!   the journal is restored, so cumulative attribution survives the
//!   crash with an explicitly accounted loss window
//!   ([`NodeOutcome::lost_energy_j`], [`CrashRecord`]).
//! * **Request recovery** ([`RecoveryConfig`]) — per-hop timeouts with
//!   seeded exponential backoff + jitter, bounded retries keyed by a
//!   stable request id (each send uses a fresh wire serial, so a late
//!   reply from a superseded attempt is recognized as stale and can
//!   never double-complete a request), and optional hedged sends after
//!   a tail timeout.
//! * **Circuit breaker** — the flat health-check penalty is replaced by
//!   a per-node closed/open/half-open breaker with the same detection
//!   signal and backoff constants.
//! * **Admission control** ([`AdmissionConfig`]) — queue-depth and
//!   power-headroom load shedding at the dispatcher front door, with
//!   typed [`ShedReason`]s.
//!
//! All recovery knobs default to *off*: a configuration that does not
//! opt in behaves byte-identically to the pre-recovery engine.

use crate::autoscale::{Autoscaler, AutoscaleConfig, BrownoutLevel, FleetSample, ScaleDecision};
use crate::obs::{ObsConfig, ObsOutcome, ObsPlane};
use crate::policy::{ArrivalView, DistributionPolicy, NodeView};
use crate::topology::{generation_rank, Topology};
use analysis::stats::Summary;
use hwsim::{plan_node_faults, DutyCycle, FaultConfig, Machine, MachineSpec, NodeFaultWindow};
use ossim::{ContextId, Kernel, KernelConfig, SocketId};
use power_containers::{
    Approach, ConditioningPolicy, FacilityConfig, FacilityState, ManagerCheckpoint,
    PowerContainerFacility,
};
use simkern::{FxHashMap, SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use workloads::{
    AppEnv, Arrival, MachineCalibration, OpenLoopGen, RunStats, ServerApp, TrafficGen,
    TrafficShape, WorkloadKind,
};

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node machine specs, flat across tiers; within a tier, newer
    /// machines should come first (use [`Topology`] to build this).
    pub nodes: Vec<MachineSpec>,
    /// Tier membership: `tiers[t]` lists the flat node indices serving
    /// pipeline stage `t`. The tiers must partition `0..nodes.len()`.
    pub tiers: Vec<Vec<usize>>,
    /// Applications in the combined workload (equal load shares).
    pub apps: Vec<WorkloadKind>,
    /// Run length.
    pub duration: SimDuration,
    /// Root seed.
    pub seed: u64,
    /// Worker-pool size per core per app.
    pub workers_per_core: usize,
    /// Offered volume as a fraction of the maximum the *simple balance*
    /// policy can support (the paper's experiment runs at that maximum).
    pub volume: f64,
    /// Cluster-wide active-power cap, enforced through per-request
    /// duty-cycle conditioning of each node's proportional share
    /// ([`ConditioningPolicy::node_share`]). `None` disables capping.
    pub power_cap_w: Option<f64>,
    /// Dispatcher batching quantum: nodes advance and decisions are
    /// made once per tick.
    pub tick: SimDuration,
    /// Retain per-request energy totals in
    /// [`ClusterOutcome::energy_by_ctx`] (costs memory proportional to
    /// the request count; off by default).
    pub retain_request_energy: bool,
    /// Fault injection: machine-level faults (meters, counters, tags)
    /// are applied to every node with a node-specific seed; the
    /// node-level slowdown/blackout/crash rates drive a precomputed
    /// window plan the dispatcher must ride out.
    pub faults: FaultConfig,
    /// Request-recovery machinery (timeouts, retries, hedging,
    /// checkpoint cadence). `None` (the default) disables all of it.
    pub recovery: Option<RecoveryConfig>,
    /// Front-door admission control. `None` (the default) admits
    /// every arrival.
    pub admission: Option<AdmissionConfig>,
    /// Trace sink; dispatcher events land on track 3, node `n`'s
    /// fault windows and per-node facility events on track `10 + n`.
    /// Disabled by default.
    pub telemetry: telemetry::Telemetry,
    /// Intra-cell worker shards: the node set is partitioned into this
    /// many contiguous chunks, and each chunk's kernels advance on
    /// their own thread between tick barriers. Every dispatcher
    /// decision, all cross-node traffic, and the telemetry/accounting
    /// merges stay on the driving thread in node order, so records,
    /// traces, and outcomes are byte-identical at every shard count
    /// (`1` — the default — runs fully inline).
    pub shards: usize,
    /// Self-calibrating model bank. When set, every node runs the
    /// `Recalibrated` approach with a per-regime [`ModelBank`]
    /// (keyed by machine generation × DVFS level × workload mix)
    /// instead of a single fixed `ChipShare` model; drift counters
    /// flow into [`ClusterOutcome::degrade`].
    ///
    /// [`ModelBank`]: power_containers::ModelBank
    pub model_bank: Option<power_containers::BankConfig>,
    /// Always-on observability plane: streaming sketches/rollups, the
    /// energy-SLO burn-rate monitor, and (opt-in) per-request energy
    /// provenance, delivered in [`ClusterOutcome::obs`]. `None` — the
    /// default — runs the engine byte-identically to before the plane
    /// existed.
    pub obs: Option<ObsConfig>,
    /// Kernel scheduling policy per node: entry `n % sched.len()` is
    /// used for node `n`, so a single entry applies fleet-wide and a
    /// longer list interleaves policies across nodes. An empty list
    /// (never produced by the constructors) also means round-robin.
    pub sched: Vec<ossim::SchedulerKind>,
    /// Non-stationary traffic shape (diurnal × flash crowds × sessions).
    /// `None` — the default — drives the legacy stationary
    /// [`OpenLoopGen`] byte-identically to before the traffic layer
    /// existed; `Some` swaps in a [`TrafficGen`] at the same mean
    /// per-app rates.
    pub traffic: Option<TrafficShape>,
    /// Elastic autoscaling (requires a single-tier cluster). `None` —
    /// the default — keeps the whole topology active for the entire
    /// run, byte-identically to the pre-elasticity engine.
    pub autoscale: Option<AutoscaleConfig>,
}

impl ClusterConfig {
    /// The paper's setup: SandyBridge + Woodcrest in a single tier,
    /// GAE-Vosao + RSA-crypto at the simple-balance maximum volume.
    pub fn paper_setup() -> ClusterConfig {
        ClusterConfig {
            nodes: vec![MachineSpec::sandybridge(), MachineSpec::woodcrest()],
            tiers: vec![vec![0, 1]],
            apps: vec![WorkloadKind::GaeVosao, WorkloadKind::RsaCrypto],
            duration: SimDuration::from_secs(10),
            seed: 42,
            workers_per_core: 4,
            volume: 1.0,
            power_cap_w: None,
            tick: SimDuration::from_millis(1),
            retain_request_energy: false,
            faults: FaultConfig::none(),
            recovery: None,
            admission: None,
            telemetry: telemetry::Telemetry::disabled(),
            shards: 1,
            model_bank: None,
            obs: None,
            sched: vec![ossim::SchedulerKind::RoundRobin],
            traffic: None,
            autoscale: None,
        }
    }

    /// A config serving the paper's GAE-Vosao + RSA-crypto mix on an
    /// arbitrary [`Topology`].
    pub fn sharded(topology: &Topology) -> ClusterConfig {
        ClusterConfig {
            nodes: topology.flat_specs(),
            tiers: topology.tier_indices(),
            ..ClusterConfig::paper_setup()
        }
    }

    /// The scheduling policy node `n` boots with (see
    /// [`ClusterConfig::sched`] for the cycling rule).
    pub fn sched_for(&self, node: usize) -> ossim::SchedulerKind {
        if self.sched.is_empty() {
            return ossim::SchedulerKind::RoundRobin;
        }
        self.sched[node % self.sched.len()].clone()
    }
}

/// Per-hop timeout, retry, hedging, and checkpoint-cadence knobs of the
/// dispatcher's request-recovery machinery.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// A hop's deadline is `hop_timeout_mult ×` its expected service
    /// seconds on the chosen node (floored by
    /// [`RecoveryConfig::min_timeout`]).
    pub hop_timeout_mult: f64,
    /// Deadline floor, so sub-millisecond services do not time out on
    /// ordinary queueing.
    pub min_timeout: SimDuration,
    /// Re-dispatch budget per hop; a request that exhausts it is shed
    /// with [`ShedReason::RetriesExhausted`] (or counted
    /// [`ClusterOutcome::lost_in_crash`] when a crash killed it).
    pub max_retries: u32,
    /// First-retry backoff; attempt `k` waits `2^(k-1) ×` this plus a
    /// seeded jitter below one base unit.
    pub backoff_base: SimDuration,
    /// Send a hedged duplicate to a second node once a hop has waited
    /// this long without reply. `None` disables hedging.
    pub hedge_after: Option<SimDuration>,
    /// Cadence of the per-node container-state checkpoint journal
    /// (only taken when crash faults are configured).
    pub checkpoint_every: SimDuration,
}

impl RecoveryConfig {
    /// Defaults tuned for the chaos sweep: generous per-hop deadlines,
    /// three retries, ~20 ms first backoff, hedging off.
    pub fn standard() -> RecoveryConfig {
        RecoveryConfig {
            hop_timeout_mult: 60.0,
            min_timeout: SimDuration::from_millis(250),
            max_retries: 3,
            backoff_base: SimDuration::from_millis(20),
            hedge_after: None,
            checkpoint_every: SimDuration::from_millis(50),
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig::standard()
    }
}

/// Front-door load-shedding thresholds.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Shed new arrivals while tier 0's summed outstanding-work
    /// estimate exceeds this many requests per tier-0 core.
    pub max_queue_per_core: f64,
    /// With a power cap configured, shed new arrivals while the
    /// fleet's instantaneous active power exceeds this fraction of the
    /// cap.
    pub power_headroom: f64,
}

impl AdmissionConfig {
    /// Defaults: eight queued requests per core, 97 % of the cap.
    pub fn standard() -> AdmissionConfig {
        AdmissionConfig { max_queue_per_core: 8.0, power_headroom: 0.97 }
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig::standard()
    }
}

/// Why the dispatcher gave up on (or refused) a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Every node of the target tier was unavailable (down, tripped
    /// breaker, or inside a blackout/crash window) and no retry budget
    /// remained.
    NoHealthyNode,
    /// Admission control: tier-0 queue depth above the configured
    /// bound.
    QueueDepth,
    /// Admission control: fleet active power above the configured
    /// fraction of the cap.
    PowerHeadroom,
    /// The per-hop retry budget ran out without a reply.
    RetriesExhausted,
    /// The brownout ladder shed an arrival whose session was marked
    /// optional ([`workloads::Arrival::optional`]).
    BrownoutOptional,
}

impl ShedReason {
    /// Every reason, in [`ClusterOutcome::shed`] index order.
    pub const ALL: [ShedReason; 5] = [
        ShedReason::NoHealthyNode,
        ShedReason::QueueDepth,
        ShedReason::PowerHeadroom,
        ShedReason::RetriesExhausted,
        ShedReason::BrownoutOptional,
    ];

    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::NoHealthyNode => "no-healthy-node",
            ShedReason::QueueDepth => "queue-depth",
            ShedReason::PowerHeadroom => "power-headroom",
            ShedReason::RetriesExhausted => "retries-exhausted",
            ShedReason::BrownoutOptional => "brownout-optional",
        }
    }

    /// Index into [`ClusterOutcome::shed`].
    pub fn index(self) -> usize {
        match self {
            ShedReason::NoHealthyNode => 0,
            ShedReason::QueueDepth => 1,
            ShedReason::PowerHeadroom => 2,
            ShedReason::RetriesExhausted => 3,
            ShedReason::BrownoutOptional => 4,
        }
    }

    /// The pc-telemetry counter this reason increments.
    fn counter(self) -> &'static str {
        match self {
            ShedReason::NoHealthyNode => "cluster.shed.no-healthy-node",
            ShedReason::QueueDepth => "cluster.shed.queue-depth",
            ShedReason::PowerHeadroom => "cluster.shed.power-headroom",
            ShedReason::RetriesExhausted => "cluster.shed.retries-exhausted",
            ShedReason::BrownoutOptional => "cluster.shed.brownout-optional",
        }
    }
}

/// One node crash/restart cycle, as journaled by the engine.
#[derive(Debug, Clone)]
pub struct CrashRecord {
    /// Flat node index.
    pub node: usize,
    /// When the crash window started (the kernel died here).
    pub at: SimTime,
    /// When the node's kernel came back (warm-up starts here).
    pub restarted_at: SimTime,
    /// Attributed energy accumulated since the last checkpoint —
    /// irrecoverably lost with the crash (the loss window).
    pub lost_energy_j: f64,
    /// In-flight requests on the node when it died.
    pub lost_requests: u64,
    /// Live containers force-released from the restored checkpoint.
    pub restored_containers: u64,
    /// Age of the restored checkpoint at the moment of the crash.
    pub checkpoint_age: SimDuration,
}

/// Which elasticity transition a [`ScaleEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// The controller provisioned a standby node.
    Out,
    /// The controller drained an active node to standby.
    In,
    /// The provision half of a rolling-upgrade pair.
    UpgradeOut,
    /// The drain half of a rolling-upgrade pair.
    UpgradeIn,
}

impl ScaleKind {
    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ScaleKind::Out => "scale-out",
            ScaleKind::In => "scale-in",
            ScaleKind::UpgradeOut => "upgrade-out",
            ScaleKind::UpgradeIn => "upgrade-in",
        }
    }
}

/// One completed fleet-resize transition, as journaled by the engine.
/// A scale-out completes when the provisioned node starts warming up; a
/// scale-in completes when the drained node freezes to standby.
#[derive(Debug, Clone)]
pub struct ScaleEvent {
    /// Flat node index.
    pub node: usize,
    /// Transition direction.
    pub kind: ScaleKind,
    /// When the controller decided the resize.
    pub decided_at: SimTime,
    /// When the transition completed (warm-up start / standby freeze).
    pub completed_at: SimTime,
    /// Attributed energy lost by the transition, Joules. A clean drain
    /// journals a final checkpoint at the freeze instant, so this is
    /// exactly `0.0` — unlike a crash loss window.
    pub lost_energy_j: f64,
    /// In-flight requests force-killed by a drain-deadline expiry
    /// (always 0 on a clean drain; the stragglers re-enter the retry
    /// machinery where budget remains).
    pub lost_requests: u64,
    /// `true` when the drain deadline expired before the node emptied.
    pub forced: bool,
    /// Warm-up energy charged to the provisioning container for this
    /// transition (idle draw over boot + warm-up), Joules.
    pub provision_energy_j: f64,
}

/// Elasticity state of one node, orthogonal to [`Lifecycle`] (which
/// keeps tracking crash/restart health): a node's kernel only runs
/// while `Active` or `Draining`; `Standby` and `Provisioning` hold it
/// frozen and out of every routing view.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScaleState {
    /// In the routing views, serving load.
    Active,
    /// Frozen, out of the views, available to provision.
    Standby,
    /// Bought but not yet landed: boot latency until `ready`, then the
    /// node rebuilds, restores its journal and starts warming up.
    Provisioning { decided_at: SimTime, ready: SimTime, kind: ScaleKind },
    /// Out of the views, finishing its outstanding work; force-retired
    /// at `deadline` if stragglers remain.
    Draining { decided_at: SimTime, deadline: SimTime, kind: ScaleKind },
}

/// The dispatcher's trace track.
pub(crate) const DISPATCHER_TRACK: u32 = 3;

/// The trace track of node `n` (fault windows, per-node markers).
fn node_track(n: usize) -> u32 {
    10 + n as u32
}

/// Health-check period of the dispatcher's degraded-node detector.
const HEALTH_CHECK_EVERY: SimDuration = SimDuration::from_millis(100);
/// Initial breaker-open duration when a node is detected degraded.
const PENALTY_BASE: SimDuration = SimDuration::from_millis(200);
/// Breaker-open ceiling under exponential backoff.
const PENALTY_MAX: SimDuration = SimDuration::from_millis(1600);
/// Checkpoint cadence when crash faults are on but no
/// [`RecoveryConfig`] overrides it.
const DEFAULT_CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(50);

/// Per-node circuit breaker. Closed admits; a detected stall trips it
/// Open for an exponentially backed-off window; once the window
/// passes it half-opens (admitting probes) and the next clean health
/// check closes it again.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    Closed,
    Open { until: SimTime },
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
struct Breaker {
    state: BreakerState,
    backoff: SimDuration,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker { state: BreakerState::Closed, backoff: PENALTY_BASE }
    }

    fn admits(&self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Open { until } => now >= until,
            _ => true,
        }
    }

    fn tick(&mut self, now: SimTime) {
        if let BreakerState::Open { until } = self.state {
            if now >= until {
                self.state = BreakerState::HalfOpen;
            }
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open { until: now + self.backoff };
        self.backoff = (self.backoff + self.backoff).min(PENALTY_MAX);
    }

    fn note_progress(&mut self) {
        self.state = BreakerState::Closed;
        self.backoff = PENALTY_BASE;
    }
}

/// Crash/restart state machine of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lifecycle {
    Healthy,
    /// The kernel is dead; nothing runs until `until`.
    Down { until: SimTime },
    /// Restarted, admitting a bounded probe load until `until`.
    WarmingUp { until: SimTime },
}

struct Node {
    kernel: Kernel,
    facility: Rc<RefCell<FacilityState>>,
    stats: Rc<RefCell<RunStats>>,
    /// Per-app worker inboxes, with a round-robin cursor each.
    inboxes: Vec<(Vec<SocketId>, usize)>,
    /// Dispatcher-side endpoint of this node's completion channel; the
    /// worker pools respond here while still bound, so replies carry
    /// the request tag back across the node boundary (§3.4).
    reply_rx: SocketId,
    /// Expected service seconds of each outstanding request, by serial.
    /// Keyed through the deterministic [`FxHashMap`]; every reader that
    /// iterates it sorts first.
    outstanding: FxHashMap<u64, f64>,
    outstanding_std: f64,
    /// Mean service seconds across the offered mix on this node.
    mean_service: f64,
    /// Requests injected into this node (initial dispatches + hops +
    /// retries + hedges).
    injected: u64,
    /// Stage completions drained from this node.
    responses: u64,
    /// Which tier this node serves.
    tier: usize,
    /// This node's slowdown/blackout/crash windows, in start order.
    fault_windows: Vec<NodeFaultWindow>,
    next_window: usize,
    /// The window currently in force, if any.
    active_window: Option<NodeFaultWindow>,
    /// Dispatcher-side health state.
    breaker: Breaker,
    lifecycle: Lifecycle,
    /// Warm-up length applied after each restart.
    warmup: SimDuration,
    /// Set when `advance_to` hits a crash-window start; the engine
    /// rebuilds the node (journaling the loss) before anything else
    /// touches it.
    pending_crash: bool,
    /// Restart count; salts the rebuilt kernel's seeds so incarnations
    /// draw decorrelated randomness (incarnation 0 reduces to the
    /// legacy seeds exactly).
    incarnation: u32,
    crashes: u32,
    /// Active energy of dead incarnations, Joules.
    carried_energy_j: f64,
    /// Machine-fault counts of dead incarnations.
    carried_fault_counts: [u64; hwsim::FaultKind::ALL.len()],
    carried_tags_lost: u64,
    carried_tags_corrupted: u64,
    /// Attributed energy lost in crash loss windows, Joules.
    lost_energy_j: f64,
    /// In-flight requests killed by crashes on this node.
    lost_requests: u64,
    /// Latest container-state journal entry.
    last_checkpoint: ManagerCheckpoint,
    next_checkpoint_at: SimTime,
    checkpoints: u64,
    last_health_check: SimTime,
    responses_at_check: u64,
    /// Elasticity state; always `Active` without [`ClusterConfig::autoscale`].
    scale: ScaleState,
    /// When the current active stretch began (`None` while frozen).
    active_since: Option<SimTime>,
    /// Seconds spent active (or draining) across every stretch; the
    /// idle-energy burden is `machine_idle_w × uptime_s`.
    uptime_s: f64,
    /// This node's private trace sink, shared only with this node's
    /// facility. The engine drains it into the main sink in node order
    /// at every tick barrier and folds the metrics registry in at the
    /// end, so the exported trace is identical at every shard count.
    tele: telemetry::Telemetry,
    /// This node's trace track (`10 + node index`).
    track: u32,
}

// SAFETY: a `Node` is a self-contained simulation: its kernel, the app
// tasks inside it, the facility hooks, and the `stats`/`facility`
// handles all point into one object graph built by
// `build_node_runtime` for this node alone (the non-`Send` `Rc`s never
// cross a node boundary), and `tele` is its private `Arc`-backed sink.
// The engine moves whole nodes across shard threads at tick barriers
// and never lets two threads touch one node concurrently: shards own
// disjoint `&mut [Node]` chunks and the scope join is the
// synchronization point before the driving thread resumes.
#[allow(unsafe_code)]
unsafe impl Send for Node {}

impl Node {
    /// Removes `serial` from the outstanding estimate.
    fn settle(&mut self, serial: u64) {
        if let Some(secs) = self.outstanding.remove(&serial) {
            self.outstanding_std -= secs / self.mean_service;
        }
        self.responses += 1;
    }

    /// Adds `serial` (with service estimate `secs`) to the outstanding
    /// estimate.
    fn assign(&mut self, serial: u64, secs: f64) {
        self.outstanding.insert(serial, secs);
        self.outstanding_std += secs / self.mean_service;
        self.injected += 1;
    }

    /// Advances the node's kernel to `t`, applying any fault-window
    /// transitions exactly at their boundaries. A slowdown caps every
    /// core's duty cycle at the window's DVFS fraction; a blackout
    /// freezes the node outright — its kernel does not advance (so no
    /// request completes and no message is processed) until the window
    /// passes, after which it works through the backlog. A crash stops
    /// the advance at the window start with [`Node::pending_crash`]
    /// set; the engine journals the loss and rebuilds the node before
    /// calling again.
    fn advance_to(&mut self, t: SimTime) {
        if self.pending_crash || !self.participates() {
            return;
        }
        loop {
            let boundary = match (&self.active_window, self.fault_windows.get(self.next_window))
            {
                (Some(w), _) => w.end,
                (None, Some(w)) => w.start,
                (None, None) => break,
            };
            if boundary > t {
                break;
            }
            match self.active_window.take() {
                Some(w) => {
                    match w.kind {
                        hwsim::FaultKind::NodeSlowdown => {
                            self.kernel.run_until(boundary);
                            self.set_all_duty(DutyCycle::FULL);
                        }
                        hwsim::FaultKind::NodeCrash => {
                            // The rebuilt kernel comes back here and
                            // warms up before taking full load.
                            self.lifecycle =
                                Lifecycle::WarmingUp { until: w.end + self.warmup };
                            self.breaker.state = BreakerState::HalfOpen;
                        }
                        // A blackout held the kernel frozen; the
                        // run_until below (or the next call) replays
                        // the backlog.
                        _ => {}
                    }
                    self.tele.end_span(w.end, self.track);
                }
                None => {
                    let w = self.fault_windows[self.next_window];
                    self.next_window += 1;
                    self.kernel.run_until(w.start);
                    match w.kind {
                        hwsim::FaultKind::NodeSlowdown => {
                            self.set_all_duty(DutyCycle::at_most(w.factor));
                            self.tele.begin_span(
                                w.start,
                                "cluster",
                                "slowdown",
                                self.track,
                                &[("factor", w.factor.into())],
                            );
                        }
                        hwsim::FaultKind::NodeCrash => {
                            self.tele.begin_span(w.start, "cluster", "crash", self.track, &[]);
                            self.lifecycle = Lifecycle::Down { until: w.end };
                            self.pending_crash = true;
                            self.active_window = Some(w);
                            return;
                        }
                        _ => {
                            self.tele.begin_span(
                                w.start,
                                "cluster",
                                "blackout",
                                self.track,
                                &[],
                            );
                        }
                    }
                    self.active_window = Some(w);
                }
            }
        }
        // Blackout and (post-rebuild) crash windows both hold the
        // kernel frozen until the window passes.
        let frozen = matches!(
            &self.active_window,
            Some(w) if w.kind != hwsim::FaultKind::NodeSlowdown
        );
        if !frozen {
            self.kernel.run_until(t);
        }
    }

    fn set_all_duty(&mut self, duty: DutyCycle) {
        for c in 0..self.kernel.machine().spec().total_cores() {
            self.kernel.machine_mut().set_duty_cycle(hwsim::CoreId(c), duty);
        }
    }

    /// `true` when the dispatcher may send this node work: not down,
    /// not inside a blackout/crash window (a connection attempt would
    /// observably fail), breaker admitting, and — while warming up —
    /// below a one-request-per-core probe load.
    fn available(&self, now: SimTime) -> bool {
        if self.pending_crash || self.scale != ScaleState::Active {
            return false;
        }
        if let Some(w) = &self.active_window {
            if w.kind != hwsim::FaultKind::NodeSlowdown {
                return false;
            }
        }
        match self.lifecycle {
            Lifecycle::Down { .. } => false,
            Lifecycle::WarmingUp { .. } => {
                self.outstanding_std < self.kernel.machine().spec().total_cores() as f64
                    && self.breaker.admits(now)
            }
            Lifecycle::Healthy => self.breaker.admits(now),
        }
    }

    /// Restart-aware timers: warm-up expiry and breaker half-opening.
    fn lifecycle_tick(&mut self, now: SimTime) {
        if let Lifecycle::WarmingUp { until } = self.lifecycle {
            if now >= until {
                self.lifecycle = Lifecycle::Healthy;
            }
        }
        self.breaker.tick(now);
    }

    /// Periodic liveness probe: outstanding work with no stage
    /// completions since the last check trips the breaker (open window
    /// doubles up to [`PENALTY_MAX`]); progress closes it. Returns
    /// `true` when a new degradation was detected.
    fn health_check(&mut self, now: SimTime) -> bool {
        if now.duration_since(self.last_health_check) < HEALTH_CHECK_EVERY {
            return false;
        }
        let down = matches!(self.lifecycle, Lifecycle::Down { .. });
        let stalled = !down
            && !self.outstanding.is_empty()
            && self.responses == self.responses_at_check;
        self.last_health_check = now;
        self.responses_at_check = self.responses;
        if stalled {
            self.breaker.trip(now);
            true
        } else {
            if !down {
                self.breaker.note_progress();
            }
            false
        }
    }

    /// `true` while the node's kernel runs (active or draining); a
    /// frozen standby/provisioning node neither advances nor accrues.
    fn participates(&self) -> bool {
        matches!(self.scale, ScaleState::Active | ScaleState::Draining { .. })
    }

    /// Energy the facility attributed on this node (requests +
    /// background, CPU + I/O) — mirrors
    /// `workloads::RunOutcome::attributed_energy_j`. After a restart
    /// this reads the restored-checkpoint totals plus everything since.
    fn attributed_energy_j(&self) -> f64 {
        let f = self.facility.borrow();
        let c = f.containers();
        c.total_energy_with_background_j()
            + c.total_request_io_energy_j()
            + c.background().io_energy_j()
    }
}

/// Per-node results of a cluster run.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Machine name.
    pub machine: &'static str,
    /// Which pipeline tier the node served.
    pub tier: usize,
    /// Active energy drawn over the run, Joules (every incarnation).
    pub active_energy_j: f64,
    /// Energy the node's facility attributed (requests + background,
    /// CPU + I/O), Joules — compare against `active_energy_j` for the
    /// per-node conservation invariant. After crashes this is conserved
    /// only modulo [`NodeOutcome::lost_energy_j`].
    pub attributed_energy_j: f64,
    /// Active energy usage rate, Watts (the paper's Fig. 14 metric).
    pub energy_rate_w: f64,
    /// Requests injected into this node (dispatches + pipeline hops +
    /// retries + hedges).
    pub dispatched: u64,
    /// Stage completions this node served.
    pub completions: usize,
    /// Requests still queued or running on this node at the end.
    pub in_flight: u64,
    /// In-flight requests killed by crashes of this node. The exact
    /// per-node identity is
    /// `dispatched == completions + in_flight + lost_requests`.
    pub lost_requests: u64,
    /// Attributed energy lost in this node's crash loss windows,
    /// Joules (work done since the last checkpoint).
    pub lost_energy_j: f64,
    /// Crash/restart cycles this node went through.
    pub crashes: u64,
    /// Mean utilization over the run (the final incarnation's counters
    /// after a crash).
    pub utilization: f64,
    /// Seconds this node spent active or draining. The full run
    /// duration without autoscaling; the sum of active stretches with
    /// it.
    pub uptime_s: f64,
    /// Idle-power burden over the active stretches, Joules
    /// (`machine_idle_w × uptime_s`) — what scale-in saves.
    pub idle_energy_j: f64,
}

/// Cumulative attributed energy of one request across every node it
/// touched (only populated with
/// [`ClusterConfig::retain_request_energy`]).
#[derive(Debug, Clone, Copy)]
pub struct CtxEnergy {
    /// The request's true context id (as allocated at dispatch).
    pub ctx: u64,
    /// Energy attributed to that identity across the fleet, Joules.
    pub energy_j: f64,
    /// How many distinct nodes attributed energy to it.
    pub nodes: u32,
}

/// Results of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The tier-0 policy that produced this outcome.
    pub policy: &'static str,
    /// Per-node breakdown (same order as the config).
    pub per_node: Vec<NodeOutcome>,
    /// Graceful-degradation decisions across the fleet: every node's
    /// facility counters plus the dispatcher's retries and drops.
    pub degrade: power_containers::DegradeStats,
    /// End-to-end response-time summary per application, seconds.
    pub response_by_app: Vec<(WorkloadKind, Summary)>,
    /// Per-application attributed energy, Joules — the dispatcher's
    /// comprehensive accounting assembled from the per-request container
    /// records on every node, resolved through the true request identity
    /// (§3.4). Tag loss or corruption in transit makes energy fall out
    /// of this accounting, exactly as it would on real hardware.
    pub energy_by_app_j: Vec<(WorkloadKind, f64)>,
    /// Per-request attributed energy across nodes (empty unless
    /// [`ClusterConfig::retain_request_energy`] is set).
    pub energy_by_ctx: Vec<CtxEnergy>,
    /// Requests the load generator offered to the dispatcher.
    pub dispatched: u64,
    /// Requests that completed the full pipeline.
    pub completed: usize,
    /// Requests the dispatcher steered away from an unavailable node
    /// to a healthy one.
    pub rerouted: u64,
    /// Requests the dispatcher gave up on, for any reason: the exact
    /// identity is `dropped == shed.iter().sum() + lost_in_crash`, and
    /// the conservation invariant is
    /// `dispatched == completed + dropped + in_flight`.
    pub dropped: u64,
    /// Typed shed counts, indexed by [`ShedReason::index`].
    pub shed: [u64; ShedReason::ALL.len()],
    /// Requests killed by a node crash after their retry budget (if
    /// any) was exhausted.
    pub lost_in_crash: u64,
    /// Re-dispatch attempts after a hop timeout or a crash.
    pub retried: u64,
    /// Hedged duplicate sends.
    pub hedged: u64,
    /// Replies from superseded attempts, recognized by their stale
    /// wire serial and dropped without effect (the dedup guarantee).
    pub stale_replies: u64,
    /// Node crash/restart cycles across the fleet.
    pub crashes: u64,
    /// Container-state checkpoints journaled across the fleet.
    pub checkpoints: u64,
    /// One entry per crash/restart cycle, in processing order.
    pub crash_log: Vec<CrashRecord>,
    /// Requests still inside the pipeline when the run ended
    /// (including any waiting in the retry queue).
    pub in_flight: u64,
    /// Routing decisions the dispatcher made (dispatches + hops +
    /// retries).
    pub decisions: u64,
    /// Health-check degradation detections across the run.
    pub degradations_detected: u64,
    /// Context tags stripped in transit across all nodes.
    pub tags_lost: u64,
    /// Context tags corrupted in transit across all nodes.
    pub tags_corrupted: u64,
    /// Machine-level faults injected across all nodes, by kind (indexed
    /// like [`hwsim::FaultKind::ALL`]; node crashes land in the
    /// [`hwsim::FaultKind::NodeCrash`] slot).
    pub fault_counts: [u64; hwsim::FaultKind::ALL.len()],
    /// Observability-plane results (sketches, rollups, typed alerts,
    /// provenance). `None` unless [`ClusterConfig::obs`] was set.
    pub obs: Option<Box<ObsOutcome>>,
    /// One entry per completed resize transition, in completion order
    /// (empty without [`ClusterConfig::autoscale`]).
    pub scale_log: Vec<ScaleEvent>,
    /// Completed scale-outs (including upgrade provision halves).
    pub scale_outs: u64,
    /// Completed scale-ins (including upgrade drain halves).
    pub scale_ins: u64,
    /// Rolling-upgrade pairs started.
    pub upgrades: u64,
    /// Brownout-ladder climbs (one per level stepped up).
    pub brownout_engagements: u64,
    /// Brownout-ladder descents (one per level stepped down).
    pub brownout_releases: u64,
    /// Controller evaluations performed.
    pub autoscale_evals: u64,
    /// Warm-up energy charged to provisioning transitions, Joules.
    pub provisioning_energy_j: f64,
    /// Fleet idle-power burden (sum of per-node idle energies), Joules.
    pub idle_energy_j: f64,
    /// Highest fleet active power observed at any tick barrier, Watts
    /// (0 when no power cap / admission machinery sampled it).
    pub peak_power_w: f64,
}

impl ClusterOutcome {
    /// Combined active energy usage rate across nodes, Watts.
    pub fn total_energy_rate_w(&self) -> f64 {
        self.per_node.iter().map(|n| n.energy_rate_w).sum()
    }

    /// Total shed requests across every [`ShedReason`].
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }
}

/// Service seconds of one request of `app`/`label` on `spec`.
fn service_secs(app: &dyn ServerApp, spec: &MachineSpec) -> f64 {
    let scale = spec.work_scale(&app.representative_profile());
    app.mean_request_cycles() * scale / (spec.freq_ghz * 1e9)
}

/// The per-app arrival rate giving an equal cycle split at the maximum
/// volume the simple-balance policy sustains: the bottleneck node —
/// across every tier, since each request visits each tier once — is the
/// slowest one receiving its tier's equal share of every stream.
fn per_app_rate(cfg: &ClusterConfig) -> f64 {
    let apps: Vec<Box<dyn ServerApp>> = cfg.apps.iter().map(|k| k.app()).collect();
    let mut worst = 0.0_f64;
    for tier in &cfg.tiers {
        let share = 1.0 / tier.len() as f64;
        for &ni in tier {
            let spec = &cfg.nodes[ni];
            let cores = spec.total_cores() as f64;
            let util_per_rate: f64 = apps
                .iter()
                .map(|a| share * service_secs(a.as_ref(), spec) / cores)
                .sum();
            worst = worst.max(util_per_rate);
        }
    }
    // Target ~88% utilization on the constrained node at volume 1.0.
    0.88 * cfg.volume / worst
}

/// Total request arrivals per simulated second the configuration offers
/// (all apps combined) — what experiments use to size run durations for
/// a target request count.
pub fn offered_cluster_rate(cfg: &ClusterConfig) -> f64 {
    per_app_rate(cfg) * cfg.apps.len() as f64
}

/// One live request's dispatcher-side state, keyed by a stable request
/// id. Every send (dispatch, hop, retry, hedge) uses a fresh wire
/// serial, so the dispatcher can tell a live attempt's reply from a
/// superseded one.
struct InFlight {
    app: usize,
    label: u32,
    arrived: SimTime,
    /// Tier currently serving the request.
    stage: usize,
    /// Tag to put on the wire for (re)sends of the current stage: the
    /// true identity at stage 0, the tag observed on the previous
    /// stage's reply afterwards (§3.4 — loss and corruption propagate).
    wire: Option<ContextId>,
    /// Node serving the primary attempt.
    node: usize,
    /// Wire serial of the primary attempt.
    serial: u64,
    /// Re-dispatches consumed on the current hop.
    attempt: u32,
    sent_at: SimTime,
    /// Primary attempt's deadline ([`SimTime::MAX`] with recovery off).
    deadline: SimTime,
    /// Outstanding hedge, as `(node, serial)`.
    hedge: Option<(usize, u64)>,
    /// Parked in the retry queue (no live attempt on any node).
    waiting: bool,
}

/// Runs the cluster under a single `policy` (requires a single-tier
/// configuration — the paper's §4.4 shape).
///
/// `cals` supplies per-node calibrations (same order as `cfg.nodes`).
pub fn run_cluster(
    policy: &mut dyn DistributionPolicy,
    cfg: &ClusterConfig,
    cals: &[MachineCalibration],
) -> ClusterOutcome {
    assert_eq!(
        cfg.tiers.len(),
        1,
        "run_cluster drives a single-tier cluster; use run_pipeline for multi-stage"
    );
    run_engine(&mut [policy], cfg, cals)
}

/// Runs a multi-stage cluster, one policy per tier (`policies[t]`
/// routes stage `t`).
pub fn run_pipeline(
    policies: &mut [Box<dyn DistributionPolicy>],
    cfg: &ClusterConfig,
    cals: &[MachineCalibration],
) -> ClusterOutcome {
    let mut refs: Vec<&mut dyn DistributionPolicy> =
        policies.iter_mut().map(|p| p.as_mut() as &mut dyn DistributionPolicy).collect();
    run_engine(&mut refs, cfg, cals)
}

/// Incrementally maintained per-tier routing views: one dense
/// `Vec<NodeView>` per tier, updated in place whenever a node's
/// outstanding estimate changes, plus a static node → (tier, position)
/// map. Routing a request therefore reads the tier's ready-made slice
/// instead of materializing a tier-sized `Vec` per decision — which at
/// megafleet scale (10³ nodes × 10⁶ requests) was the dominant
/// dispatcher cost.
struct TierViews {
    views: Vec<Vec<NodeView>>,
    /// Flat node indices of each tier's *active* members, in config
    /// order (`views[t]` is parallel to `members[t]`). Without
    /// autoscaling every node is active and this is exactly
    /// `cfg.tiers`.
    members: Vec<Vec<usize>>,
    pos: Vec<(usize, usize)>,
    active: Vec<bool>,
}

impl TierViews {
    fn new(cfg: &ClusterConfig, active: Vec<bool>, nodes: &[Node]) -> TierViews {
        let mut tv = TierViews {
            views: vec![Vec::new(); cfg.tiers.len()],
            members: vec![Vec::new(); cfg.tiers.len()],
            pos: vec![(0usize, 0usize); cfg.nodes.len()],
            active,
        };
        for t in 0..cfg.tiers.len() {
            tv.rebuild_tier(t, cfg, nodes);
        }
        tv
    }

    /// Rebuilds one tier's member list and views from the activity
    /// mask, preserving config order (so the all-active mask reproduces
    /// the legacy views byte-identically).
    fn rebuild_tier(&mut self, t: usize, cfg: &ClusterConfig, nodes: &[Node]) {
        self.members[t] = cfg.tiers[t].iter().copied().filter(|&i| self.active[i]).collect();
        self.views[t] = self.members[t]
            .iter()
            .map(|&i| NodeView {
                outstanding: nodes[i].outstanding_std,
                cores: cfg.nodes[i].total_cores(),
                rank: generation_rank(&cfg.nodes[i]),
            })
            .collect();
        for (p, &i) in self.members[t].iter().enumerate() {
            self.pos[i] = (t, p);
        }
    }

    /// Adds or removes node `n` from its tier's routing membership.
    fn set_active(&mut self, n: usize, tier: usize, on: bool, cfg: &ClusterConfig, nodes: &[Node]) {
        if self.active[n] == on {
            return;
        }
        self.active[n] = on;
        self.rebuild_tier(tier, cfg, nodes);
    }

    /// Refreshes node `n`'s view after its outstanding estimate changed
    /// (no-op for a node outside the routing membership).
    #[inline]
    fn sync(&mut self, n: usize, outstanding_std: f64) {
        if !self.active[n] {
            return;
        }
        let (t, p) = self.pos[n];
        self.views[t][p].outstanding = outstanding_std;
    }

    #[inline]
    fn tier(&self, t: usize) -> &[NodeView] {
        &self.views[t]
    }

    #[inline]
    fn members(&self, t: usize) -> &[usize] {
        &self.members[t]
    }
}

/// The engine's arrival source: the legacy stationary Poisson generator,
/// or the diurnal/flash-crowd/session-structured [`TrafficGen`] when
/// [`ClusterConfig::traffic`] is set.
enum ArrivalGen {
    Open(OpenLoopGen),
    Traffic(Box<TrafficGen>),
}

impl ArrivalGen {
    fn next(&mut self, apps: &[Box<dyn ServerApp>]) -> Option<Arrival> {
        match self {
            ArrivalGen::Open(g) => g.next(apps),
            ArrivalGen::Traffic(g) => g.next(apps),
        }
    }
}

/// Wire serial → request id, as a slab indexed by the (sequential)
/// serial instead of a hash map: O(1) with no hashing or tombstone
/// churn on the dispatch/settle hot path. `u64::MAX` marks a serial
/// with no live request (stale).
struct SerialMap {
    slots: Vec<u64>,
}

impl SerialMap {
    const NONE: u64 = u64::MAX;

    fn new() -> SerialMap {
        SerialMap { slots: Vec::new() }
    }

    #[inline]
    fn insert(&mut self, serial: u64, req_id: u64) {
        let i = serial as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Self::NONE);
        }
        self.slots[i] = req_id;
    }

    #[inline]
    fn get(&self, serial: u64) -> Option<u64> {
        match self.slots.get(serial as usize) {
            Some(&r) if r != Self::NONE => Some(r),
            _ => None,
        }
    }

    #[inline]
    fn remove(&mut self, serial: u64) -> Option<u64> {
        match self.slots.get_mut(serial as usize) {
            Some(r) if *r != Self::NONE => Some(std::mem::replace(r, Self::NONE)),
            _ => None,
        }
    }
}

/// Looks up the app index for a request context in the sequential
/// context→app slab (contexts are allocated from 1, so slot `ctx-1`).
/// Out-of-range (corrupted or background) contexts miss, exactly as
/// the old hash-map lookup did.
#[inline]
fn app_of(ctx_app: &[u8], ctx: ossim::ContextId) -> Option<usize> {
    ctx_app
        .get((ctx.0 as usize).wrapping_sub(1))
        .map(|&a| a as usize)
}

/// Chooses a node of `tier` for `req` via `policy`, applying the
/// availability/reroute machinery. `views` is the tier's incrementally
/// maintained routing slice (same order as `tier`). Returns the flat
/// node index, or `None` when every node of the tier is unavailable
/// (the caller sheds or retries).
#[allow(clippy::too_many_arguments)]
fn route(
    policy: &mut dyn DistributionPolicy,
    tier: &[usize],
    views: &[NodeView],
    nodes: &[Node],
    req: ArrivalView,
    t: SimTime,
    tele: &telemetry::Telemetry,
    rerouted: &mut u64,
    decisions: &mut u64,
) -> Option<usize> {
    if tier.is_empty() {
        // A fully drained tier (possible only transiently under
        // autoscaling) routes nowhere; the caller sheds or retries.
        return None;
    }
    *decisions += 1;
    let mut chosen = tier[policy.choose(req, views)];
    if !nodes[chosen].available(t) {
        // Bounded retry: probe the tier's remaining nodes for the
        // available one with the least outstanding work; if every node
        // is unavailable, hand the request back to the caller rather
        // than pile onto a degraded machine.
        let alt = tier
            .iter()
            .copied()
            .filter(|&i| i != chosen && nodes[i].available(t))
            .min_by(|&a, &b| nodes[a].outstanding_std.total_cmp(&nodes[b].outstanding_std));
        match alt {
            Some(i) => {
                tele.instant_on(
                    t,
                    "cluster",
                    "reroute",
                    DISPATCHER_TRACK,
                    &[("from", (chosen as u64).into()), ("to", (i as u64).into())],
                );
                tele.add_count("cluster.rerouted", 1);
                chosen = i;
                *rerouted += 1;
            }
            None => return None,
        }
    }
    Some(chosen)
}

/// Injects one stage of `serial` into `node`, with the given context
/// tag on the wire (`Some` true identity at dispatch; whatever tag the
/// previous stage's reply carried at a hop).
fn inject_stage(
    node: &mut Node,
    app_idx: usize,
    serial: u64,
    label: u32,
    wire_ctx: Option<ContextId>,
    secs: f64,
    t: SimTime,
) {
    if let Some(ctx) = wire_ctx {
        node.stats.borrow_mut().record_arrival(ctx, label, t);
        node.facility.borrow_mut().containers_mut().set_label(ctx, label, t);
    }
    node.assign(serial, secs);
    let (inbox_list, cursor) = &mut node.inboxes[app_idx];
    let inbox = inbox_list[*cursor % inbox_list.len()];
    *cursor += 1;
    let payload = (serial << 32) | label as u64;
    node.kernel.inject_message(inbox, 512, wire_ctx, payload);
}

/// Sends `fl`'s current stage to `node` as the primary attempt with a
/// fresh wire `serial`, arming the per-hop deadline and refreshing the
/// node's routing view.
#[allow(clippy::too_many_arguments)]
fn dispatch_attempt(
    target: usize,
    node: &mut Node,
    views: &mut TierViews,
    fl: &mut InFlight,
    serial_req: &mut SerialMap,
    req_id: u64,
    serial: u64,
    secs: f64,
    recovery: Option<&RecoveryConfig>,
    t: SimTime,
) {
    fl.node = target;
    fl.serial = serial;
    fl.sent_at = t;
    fl.waiting = false;
    fl.deadline = match recovery {
        Some(rec) => t + hop_deadline(rec, secs),
        None => SimTime::MAX,
    };
    serial_req.insert(serial, req_id);
    inject_stage(node, fl.app, serial, fl.label, fl.wire, secs, t);
    views.sync(target, node.outstanding_std);
}

/// Deadline of one hop with expected service time `secs`.
fn hop_deadline(rec: &RecoveryConfig, secs: f64) -> SimDuration {
    SimDuration::from_secs_f64(secs * rec.hop_timeout_mult).max(rec.min_timeout)
}

/// Seeded exponential backoff with jitter for retry `attempt` of
/// `req_id` (deterministic in the root seed, the request and the
/// attempt — independent of scheduling order).
fn retry_backoff(rec: &RecoveryConfig, seed: u64, req_id: u64, attempt: u32) -> SimDuration {
    let base = rec.backoff_base.as_nanos().max(1);
    let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(6));
    let mut rng = SimRng::new(
        seed ^ req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 48),
    );
    SimDuration::from_nanos(exp.saturating_add(rng.next_below(base)))
}

/// Counts and traces one typed shed.
fn note_shed(
    tele: &telemetry::Telemetry,
    shed: &mut [u64; ShedReason::ALL.len()],
    dropped: &mut u64,
    t: SimTime,
    reason: ShedReason,
) {
    shed[reason.index()] += 1;
    *dropped += 1;
    tele.instant_on(
        t,
        "cluster",
        "shed",
        DISPATCHER_TRACK,
        &[("reason", (reason.index() as u64).into())],
    );
    tele.add_count("cluster.dropped", 1);
    tele.add_count(reason.counter(), 1);
}

/// Parks `fl` in the retry queue with backoff + jitter.
#[allow(clippy::too_many_arguments)]
fn schedule_retry(
    tele: &telemetry::Telemetry,
    retry_queue: &mut BTreeMap<(SimTime, u64), ()>,
    rec: &RecoveryConfig,
    seed: u64,
    req_id: u64,
    fl: &mut InFlight,
    retried: &mut u64,
    t: SimTime,
) {
    fl.attempt += 1;
    *retried += 1;
    fl.waiting = true;
    let delay = retry_backoff(rec, seed, req_id, fl.attempt);
    retry_queue.insert((t + delay, req_id), ());
    tele.instant_on(
        t,
        "cluster",
        "retry",
        DISPATCHER_TRACK,
        &[("attempt", (fl.attempt as u64).into())],
    );
    tele.add_count("cluster.retried", 1);
}

/// Builds (or rebuilds, after a crash) node `n`'s kernel, facility and
/// worker pools. `incarnation` salts every seed; incarnation 0 reduces
/// exactly to the legacy seed derivation, so crash-free runs are
/// byte-identical to the pre-recovery engine.
/// Everything `build_node_runtime` hands back: the kernel, its
/// facility state, the per-app worker inboxes, and the reply socket.
type NodeRuntime = (Kernel, Rc<RefCell<FacilityState>>, Vec<(Vec<SocketId>, usize)>, SocketId);

#[allow(clippy::too_many_arguments)]
fn build_node_runtime(
    n: usize,
    incarnation: u32,
    start: SimTime,
    cfg: &ClusterConfig,
    cal: &MachineCalibration,
    apps: &[Box<dyn ServerApp>],
    total_cores: usize,
    stats: Rc<RefCell<RunStats>>,
    tele: &telemetry::Telemetry,
) -> NodeRuntime {
    let spec = &cfg.nodes[n];
    let inc = incarnation as u64;
    // With a model bank the node runs the full recalibration loop
    // (meter alignment + per-regime refits); otherwise the legacy
    // fixed ChipShare model, byte-identical to pre-bank runs.
    let approach =
        if cfg.model_bank.is_some() { Approach::Recalibrated } else { Approach::ChipShare };
    let meter = (approach == Approach::Recalibrated).then(|| {
        if spec.meters.iter().any(|m| m.name == "on-chip") { "on-chip" } else { "wattsup" }
    });
    let recalibrate_every = if meter == Some("wattsup") { 2 } else { 16 };
    let model_bank = cfg.model_bank.clone().map(|mut bank| {
        // Keep the bank's per-slot refit cadence in lockstep with the
        // facility's per-meter cadence, as the workloads harness does.
        bank.recalibrate_every = recalibrate_every;
        bank
    });
    let facility = PowerContainerFacility::new(
        cal.model_for(approach),
        (approach == Approach::Recalibrated).then_some(&cal.set),
        spec,
        FacilityConfig {
            approach,
            meter,
            meter_idle_w: meter.map(|m| cal.meter_idle(m)).unwrap_or(0.0),
            align_every: if meter == Some("wattsup") { 4 } else { 16 },
            recalibrate_every,
            model_bank,
            // Records feed the §3.4 response tagging: each completed
            // request's cumulative energy flows back to the
            // dispatcher for comprehensive accounting.
            retain_records: true,
            // A cluster-wide cap decomposes into per-node shares
            // enforced by ordinary per-request conditioning.
            conditioning: cfg
                .power_cap_w
                .map(|cap| ConditioningPolicy::node_share(cap, spec.total_cores(), total_cores)),
            // The node's private sink: shard threads record into it
            // race-free, and the engine merges in node order at each
            // tick barrier. (Kernel-level tracing stays off here:
            // per-tick switch events across N nodes would dwarf the
            // facility signal.)
            telemetry: tele.clone(),
            // Only alignment and refit read the model/metrics history;
            // a meterless node keeps a single slot of each.
            trace_capacity: if meter.is_some() {
                FacilityConfig::default().trace_capacity
            } else {
                1
            },
            ..FacilityConfig::default()
        },
    );
    let state = facility.state();
    let mut machine = Machine::new(
        spec.clone(),
        cfg.seed.wrapping_add(n as u64).wrapping_add(inc.wrapping_mul(0xA076_1D64_78BD_642F)),
    );
    if meter.is_none() {
        // Nothing polls this node's meters: queue no reports, even
        // across a restarted incarnation's fast-forward below.
        machine.discard_meter_reports();
    }
    if cfg.faults.is_active() {
        // Same fault profile on every node, decorrelated by seed.
        machine.set_fault_config(FaultConfig {
            seed: (cfg.faults.seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(inc.wrapping_mul(0xE703_7ED1_A0B4_28DB)),
            ..cfg.faults.clone()
        });
    }
    // Kernel-level tracing stays off in cluster nodes; only the
    // scheduling policy is taken from the cluster config.
    let kernel_config = KernelConfig { sched: cfg.sched_for(n), ..KernelConfig::default() };
    let mut kernel = Kernel::new(machine, kernel_config);
    // A restarted incarnation boots at the crash instant: the empty
    // kernel fast-forwards to `start` *before* the facility or any app
    // task exists, so no incarnation ever replays (or re-accrues energy
    // for) the interval it was dead. Incarnation 0 starts at zero and
    // this is a no-op.
    kernel.run_until(start);
    kernel.install_hooks(Box::new(facility));
    let (notify_tx, reply_rx) = kernel.new_socket_pair();
    let mut inboxes = Vec::new();
    for app in apps {
        let env = AppEnv {
            stats: Rc::clone(&stats),
            workers: cfg.workers_per_core * spec.total_cores(),
            spec: spec.clone(),
            seed: cfg
                .seed
                .wrapping_add(1000 + n as u64)
                .wrapping_add(inc.wrapping_mul(0x2545_F491_4F6C_DD1D)),
            notify: Some(notify_tx),
        };
        inboxes.push((app.setup(&mut kernel, &env), 0usize));
    }
    (kernel, state, inboxes, reply_rx)
}

/// Advances every node's kernel to the tick boundary `t`, splitting
/// the fleet into `shards` contiguous chunks that run on their own
/// scoped threads. Nodes never interact inside a tick — cross-node
/// traffic moves only through the dispatcher at barriers — so each
/// node computes bit-identical state regardless of which thread hosts
/// it, and `shards <= 1` runs the very same per-node code inline.
fn advance_shards(nodes: &mut [Node], t: SimTime, shards: usize) {
    if shards <= 1 || nodes.len() <= 1 {
        for node in nodes.iter_mut() {
            node.advance_to(t);
        }
        return;
    }
    let chunk = nodes.len().div_ceil(shards.min(nodes.len()));
    std::thread::scope(|scope| {
        for part in nodes.chunks_mut(chunk) {
            scope.spawn(move || {
                for node in part {
                    node.advance_to(t);
                }
            });
        }
    });
}

/// Drains every node's private event log into the main sink, in node
/// order — the barrier merge. Serial and sharded runs produce the same
/// stream: within a tick, node events appear grouped by node index,
/// followed by the dispatcher's own events for that tick.
fn merge_node_events(main: &telemetry::Telemetry, nodes: &[Node]) {
    if !main.enabled() {
        return;
    }
    for node in nodes {
        main.append_events(node.tele.drain_events());
    }
}

fn run_engine(
    policies: &mut [&mut dyn DistributionPolicy],
    cfg: &ClusterConfig,
    cals: &[MachineCalibration],
) -> ClusterOutcome {
    assert_eq!(cals.len(), cfg.nodes.len(), "one calibration per node");
    assert_eq!(policies.len(), cfg.tiers.len(), "one policy per tier");
    assert!(!cfg.tick.is_zero(), "dispatcher tick must be positive");
    {
        // The tiers must partition the flat node list.
        let mut seen = vec![false; cfg.nodes.len()];
        for &i in cfg.tiers.iter().flatten() {
            assert!(i < cfg.nodes.len(), "tier references unknown node {i}");
            assert!(!seen[i], "node {i} appears in two tiers");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "every node must belong to a tier");
        assert!(cfg.tiers.iter().all(|t| !t.is_empty()), "tiers must be nonempty");
    }
    if let Some(ac) = cfg.autoscale.as_ref() {
        assert_eq!(cfg.tiers.len(), 1, "autoscaling drives a single-tier cluster");
        assert!(
            ac.initial_nodes <= cfg.tiers[0].len(),
            "initial fleet larger than the topology"
        );
    }
    let apps: Vec<Box<dyn ServerApp>> = cfg.apps.iter().map(|k| k.app()).collect();
    let total_cores: usize = cfg.nodes.iter().map(MachineSpec::total_cores).sum();
    let tier_of: HashMap<usize, usize> = cfg
        .tiers
        .iter()
        .enumerate()
        .flat_map(|(t, ix)| ix.iter().map(move |&i| (i, t)))
        .collect();
    let checkpoint_every = cfg
        .recovery
        .as_ref()
        .map(|r| r.checkpoint_every)
        .unwrap_or(DEFAULT_CHECKPOINT_EVERY);
    let crashes_possible = cfg.faults.node_crash_hz > 0.0;

    // Initially active set: everything without autoscaling; the first
    // `initial_nodes` flat indices with it. The topology sorts newest
    // generation first, so the initial fleet is the newest machines and
    // scale-out walks toward older standbys.
    let initially_active: Vec<bool> = match cfg.autoscale.as_ref() {
        Some(ac) => (0..cfg.nodes.len()).map(|n| n < ac.initial_nodes).collect(),
        None => vec![true; cfg.nodes.len()],
    };

    let mut nodes: Vec<Node> = Vec::new();
    for (n, spec) in cfg.nodes.iter().enumerate() {
        let stats = Rc::new(RefCell::new(RunStats::new()));
        let tele = if cfg.telemetry.enabled() {
            telemetry::Telemetry::recording()
        } else {
            telemetry::Telemetry::disabled()
        };
        let (kernel, facility, inboxes, reply_rx) = build_node_runtime(
            n,
            0,
            SimTime::ZERO,
            cfg,
            &cals[n],
            &apps,
            total_cores,
            Rc::clone(&stats),
            &tele,
        );
        let mean_service = apps
            .iter()
            .map(|a| service_secs(a.as_ref(), spec))
            .sum::<f64>()
            / apps.len() as f64;
        nodes.push(Node {
            kernel,
            facility,
            stats,
            inboxes,
            reply_rx,
            outstanding: FxHashMap::default(),
            outstanding_std: 0.0,
            mean_service,
            injected: 0,
            responses: 0,
            tier: tier_of[&n],
            fault_windows: Vec::new(),
            next_window: 0,
            active_window: None,
            breaker: Breaker::new(),
            lifecycle: Lifecycle::Healthy,
            warmup: cfg.faults.node_warmup_len,
            pending_crash: false,
            incarnation: 0,
            crashes: 0,
            carried_energy_j: 0.0,
            carried_fault_counts: [0; hwsim::FaultKind::ALL.len()],
            carried_tags_lost: 0,
            carried_tags_corrupted: 0,
            lost_energy_j: 0.0,
            lost_requests: 0,
            last_checkpoint: ManagerCheckpoint::empty(),
            next_checkpoint_at: if crashes_possible {
                SimTime::ZERO + checkpoint_every
            } else {
                SimTime::MAX
            },
            checkpoints: 0,
            last_health_check: SimTime::ZERO,
            responses_at_check: 0,
            scale: if initially_active[n] { ScaleState::Active } else { ScaleState::Standby },
            active_since: initially_active[n].then_some(SimTime::ZERO),
            uptime_s: 0.0,
            tele,
            track: node_track(n),
        });
    }
    for w in plan_node_faults(&cfg.faults, nodes.len(), cfg.duration) {
        nodes[w.node].fault_windows.push(w);
    }

    // Per-node service estimate per app, so dispatch does not clone
    // machine specs on the hot path.
    let service: Vec<Vec<f64>> = cfg
        .nodes
        .iter()
        .map(|spec| apps.iter().map(|a| service_secs(a.as_ref(), spec)).collect())
        .collect();
    // Admission reads the *active* tier-0 core count, maintained across
    // resizes (equal to the static total without autoscaling).
    let mut tier0_active_cores: usize = cfg.tiers[0]
        .iter()
        .filter(|&&i| initially_active[i])
        .map(|&i| cfg.nodes[i].total_cores())
        .sum();

    let rate = per_app_rate(cfg);
    let end = SimTime::ZERO + cfg.duration;
    // Both arrival sources offer the same mean per-app rates, so a
    // fixed-fleet and an autoscaled run of one config face identical
    // traffic (the traffic generator is itself deterministic in the
    // seed alone).
    let mut gen = match cfg.traffic.as_ref() {
        Some(shape) => ArrivalGen::Traffic(Box::new(TrafficGen::new(
            cfg.seed,
            &vec![rate; apps.len()],
            end,
            shape,
        ))),
        None => ArrivalGen::Open(OpenLoopGen::new(cfg.seed, &vec![rate; apps.len()], end)),
    };
    let mut pending = gen.next(&apps);

    // Live requests by stable request id; `serial_req` resolves a wire
    // serial back to its request (a serial absent here is stale).
    // `inflight` iterations (timeouts, hedging) sort their harvest, so
    // the deterministic FxHashMap is safe here.
    let mut inflight: FxHashMap<u64, InFlight> = FxHashMap::default();
    let mut serial_req = SerialMap::new();
    let mut retry_queue: BTreeMap<(SimTime, u64), ()> = BTreeMap::new();
    // Context ids are allocated sequentially from 1, so ctx → app is a
    // dense slab: `ctx_app[ctx - 1]`. A corrupted wire tag outside the
    // allocated range simply misses, exactly as with a map.
    assert!(cfg.apps.len() <= u8::MAX as usize, "app index must fit u8");
    let mut ctx_app: Vec<u8> = Vec::new();
    let mut views = TierViews::new(cfg, initially_active.clone(), &nodes);
    // Reusable scratch: drained segments and due-request harvests live
    // across ticks instead of being reallocated per node per tick.
    let mut seg_buf: Vec<ossim::Segment> = Vec::new();
    let mut due_buf: Vec<u64> = Vec::new();
    let mut summaries: Vec<Summary> = vec![Summary::new(); apps.len()];
    let mut next_serial = 0u64;
    let mut next_req = 0u64;
    let mut next_ctx = 1u64;
    let mut dispatched = 0u64;
    let mut completed = 0usize;
    let mut rerouted = 0u64;
    let mut dropped = 0u64;
    let mut shed = [0u64; ShedReason::ALL.len()];
    let mut lost_in_crash = 0u64;
    let mut retried = 0u64;
    let mut hedged = 0u64;
    let mut stale_replies = 0u64;
    let mut crash_log: Vec<CrashRecord> = Vec::new();
    let mut decisions = 0u64;
    let mut degradations_detected = 0u64;
    // Elasticity state: the pure controller, the resize journal, and
    // the rolling-upgrade schedule cursor. All actuation happens on the
    // driving thread at tick barriers.
    let mut scaler = cfg.autoscale.map(Autoscaler::new);
    let mut scale_log: Vec<ScaleEvent> = Vec::new();
    let mut scale_outs = 0u64;
    let mut scale_ins = 0u64;
    let mut upgrades = 0u64;
    let mut brownout_engagements = 0u64;
    let mut brownout_releases = 0u64;
    let mut provisioning_energy_j = 0.0f64;
    let mut peak_power_w = 0.0f64;
    let mut next_upgrade_at = cfg
        .autoscale
        .as_ref()
        .and_then(|ac| ac.upgrade.as_ref().map(|up| SimTime::ZERO + up.start));
    let mut upgrades_left =
        cfg.autoscale.as_ref().and_then(|ac| ac.upgrade.as_ref()).map_or(0, |up| up.count);
    // The observability plane lives entirely on this (driving) thread;
    // its window samples are read at tick barriers in node order, so
    // its output is byte-identical at every shard count.
    let mut obs: Option<ObsPlane> = cfg.obs.as_ref().map(|oc| {
        ObsPlane::new(
            oc,
            cfg.nodes.len(),
            cfg.apps.iter().map(|k| k.name()).collect(),
            cfg.power_cap_w,
            cfg.duration,
        )
    });
    let mut obs_samples: Vec<(f64, f64)> = Vec::new();

    let mut t = SimTime::ZERO;
    loop {
        t = (t + cfg.tick).min(end);
        // 1. Advance every node to the tick boundary (once per tick, not
        //    once per arrival — the batching that keeps dispatcher work
        //    flat as the fleet grows), in parallel across the shard
        //    threads. A node hitting a crash-window start stops there
        //    with `pending_crash` set. The barrier merge then folds the
        //    shard-local event logs back in node order, so phases 1.5+
        //    observe exactly the serial engine's state and trace.
        advance_shards(&mut nodes, t, cfg.shards);
        merge_node_events(&cfg.telemetry, &nodes);
        // 1.5 Crash processing: journal the loss window, carry the dead
        //     incarnation's counters, rebuild the node, restore the
        //     checkpoint, and requeue (or lose) the killed in-flights.
        if crashes_possible {
            for n in 0..nodes.len() {
                if !nodes[n].pending_crash {
                    continue;
                }
                let Some(w) = nodes[n].active_window else { continue };
                let (killed, lost_e, restored, cp_age) = {
                    let node = &mut nodes[n];
                    let cp_age = w.start.duration_since(node.last_checkpoint.taken_at);
                    let lost_e = (node.attributed_energy_j()
                        - node.last_checkpoint.attributed_energy_j())
                    .max(0.0);
                    node.lost_energy_j += lost_e;
                    let m = node.kernel.machine();
                    node.carried_energy_j += m.true_active_energy_j();
                    for (tot, c) in
                        node.carried_fault_counts.iter_mut().zip(m.fault_log().counts())
                    {
                        *tot += c;
                    }
                    let ks = node.kernel.stats();
                    node.carried_tags_lost += ks.tags_lost;
                    node.carried_tags_corrupted += ks.tags_corrupted;
                    let mut killed: Vec<u64> = node.outstanding.keys().copied().collect();
                    killed.sort_unstable();
                    node.outstanding.clear();
                    node.outstanding_std = 0.0;
                    node.lost_requests += killed.len() as u64;
                    node.crashes += 1;
                    node.incarnation += 1;
                    let tele = node.tele.clone();
                    let (kernel, facility, inboxes, reply_rx) = build_node_runtime(
                        n,
                        node.incarnation,
                        w.start,
                        cfg,
                        &cals[n],
                        &apps,
                        total_cores,
                        Rc::clone(&node.stats),
                        &tele,
                    );
                    // The dead incarnation's record log moves to the new
                    // one; restore truncates it to the checkpoint.
                    let log = node.facility.borrow_mut().containers_mut().take_records();
                    node.kernel = kernel;
                    node.facility = facility;
                    node.inboxes = inboxes;
                    node.reply_rx = reply_rx;
                    let restored = node
                        .facility
                        .borrow_mut()
                        .containers_mut()
                        .restore(&node.last_checkpoint, log, w.start);
                    // Re-journal the restored state immediately so a
                    // back-to-back crash cannot lose the same window
                    // twice.
                    node.last_checkpoint =
                        node.facility.borrow().containers().checkpoint(w.start);
                    node.checkpoints += 1;
                    node.next_checkpoint_at = t + checkpoint_every;
                    node.breaker =
                        Breaker { state: BreakerState::Open { until: w.end }, backoff: PENALTY_BASE };
                    node.responses_at_check = node.responses;
                    node.last_health_check = t;
                    node.pending_crash = false;
                    (killed, lost_e, restored, cp_age)
                };
                views.sync(n, 0.0);
                crash_log.push(CrashRecord {
                    node: n,
                    at: w.start,
                    restarted_at: w.end,
                    lost_energy_j: lost_e,
                    lost_requests: killed.len() as u64,
                    restored_containers: restored,
                    checkpoint_age: cp_age,
                });
                cfg.telemetry.instant_on(
                    t,
                    "cluster",
                    "restore",
                    nodes[n].track,
                    &[("restored", restored.into()), ("lost_j", lost_e.into())],
                );
                cfg.telemetry.add_count("cluster.crashes", 1);
                // Requeue the killed in-flights: a hedge copy dies
                // silently, a primary promotes its hedge or retries,
                // and a request out of budget is lost to the crash.
                for serial in killed {
                    let Some(req_id) = serial_req.remove(serial) else { continue };
                    let Some(fl) = inflight.get_mut(&req_id) else { continue };
                    if fl.serial != serial {
                        if fl.hedge.map(|(_, s)| s) == Some(serial) {
                            fl.hedge = None;
                        }
                        continue;
                    }
                    if let Some((hn, hs)) = fl.hedge.take() {
                        fl.node = hn;
                        fl.serial = hs;
                        continue;
                    }
                    match cfg.recovery.as_ref() {
                        Some(rec) if fl.attempt < rec.max_retries => {
                            schedule_retry(
                                &cfg.telemetry,
                                &mut retry_queue,
                                rec,
                                cfg.seed,
                                req_id,
                                fl,
                                &mut retried,
                                t,
                            );
                        }
                        _ => {
                            inflight.remove(&req_id);
                            dropped += 1;
                            lost_in_crash += 1;
                            cfg.telemetry.add_count("cluster.lost_in_crash", 1);
                        }
                    }
                }
            }
            // 1.75 Checkpoint journal: periodically snapshot every live
            //      node's container state.
            for node in nodes.iter_mut() {
                if t < node.next_checkpoint_at
                    || matches!(node.lifecycle, Lifecycle::Down { .. })
                    || !node.participates()
                {
                    continue;
                }
                node.last_checkpoint = node.facility.borrow().containers().checkpoint(t);
                node.checkpoints += 1;
                node.next_checkpoint_at = t + checkpoint_every;
            }
        }
        // 2. Drain stage completions; forward mid-pipeline requests to
        //    the next tier (carrying the tag observed on the wire) and
        //    finalize requests leaving the last tier. Replies from
        //    superseded attempts are recognized by their stale serial
        //    and dropped (still settling the serving node's books).
        for n in 0..nodes.len() {
            let rx = nodes[n].reply_rx;
            seg_buf.clear();
            nodes[n].kernel.drain_messages_into(rx, &mut seg_buf);
            for seg in seg_buf.drain(..) {
                let serial = seg.payload >> 32;
                nodes[n].settle(serial);
                views.sync(n, nodes[n].outstanding_std);
                let Some(req_id) = serial_req.get(serial) else {
                    stale_replies += 1;
                    continue;
                };
                serial_req.remove(serial);
                let Some(fl) = inflight.get_mut(&req_id) else { continue };
                if fl.serial == serial {
                    // Primary won; a hedge still out becomes stale.
                    if let Some((_, hs)) = fl.hedge.take() {
                        serial_req.remove(hs);
                    }
                } else if fl.hedge.map(|(_, s)| s) == Some(serial) {
                    // Hedge won; the primary's late reply becomes stale.
                    serial_req.remove(fl.serial);
                    fl.hedge = None;
                } else {
                    stale_replies += 1;
                    continue;
                }
                fl.waiting = false;
                let next_stage = fl.stage + 1;
                if next_stage < cfg.tiers.len() {
                    let (app_idx, label) = (fl.app, fl.label);
                    cfg.telemetry.instant_on(
                        t,
                        "cluster",
                        "hop",
                        DISPATCHER_TRACK,
                        &[("to_tier", (next_stage as u64).into())],
                    );
                    let req = ArrivalView { app: cfg.apps[app_idx], label };
                    match route(
                        policies[next_stage],
                        views.members(next_stage),
                        views.tier(next_stage),
                        &nodes,
                        req,
                        t,
                        &cfg.telemetry,
                        &mut rerouted,
                        &mut decisions,
                    ) {
                        Some(target) => {
                            fl.stage = next_stage;
                            fl.attempt = 0;
                            // Propagate the identity as observed on the
                            // wire: a lost tag stays lost, a corrupted
                            // one misattributes downstream stages.
                            fl.wire = seg.ctx;
                            let serial2 = next_serial;
                            next_serial += 1;
                            dispatch_attempt(
                                target,
                                &mut nodes[target],
                                &mut views,
                                fl,
                                &mut serial_req,
                                req_id,
                                serial2,
                                service[target][app_idx],
                                cfg.recovery.as_ref(),
                                t,
                            );
                        }
                        None => match cfg.recovery.as_ref() {
                            Some(rec) if fl.attempt < rec.max_retries => {
                                fl.stage = next_stage;
                                fl.wire = seg.ctx;
                                schedule_retry(
                                    &cfg.telemetry,
                                    &mut retry_queue,
                                    rec,
                                    cfg.seed,
                                    req_id,
                                    fl,
                                    &mut retried,
                                    t,
                                );
                            }
                            _ => {
                                inflight.remove(&req_id);
                                note_shed(
                                    &cfg.telemetry,
                                    &mut shed,
                                    &mut dropped,
                                    t,
                                    ShedReason::NoHealthyNode,
                                );
                            }
                        },
                    }
                } else {
                    let latency_s = t.duration_since(fl.arrived).as_secs_f64();
                    summaries[fl.app].record(latency_s);
                    if let Some(o) = obs.as_mut() {
                        o.note_completion(fl.app, latency_s);
                    }
                    completed += 1;
                    inflight.remove(&req_id);
                }
            }
        }
        // 2.5 Timeouts: a primary past its deadline invalidates its
        //     live serials (late replies become stale — the dedup
        //     guarantee) and retries or sheds.
        if let Some(rec) = cfg.recovery.as_ref() {
            due_buf.clear();
            due_buf.extend(
                inflight
                    .iter()
                    .filter(|(_, fl)| !fl.waiting && fl.deadline <= t)
                    .map(|(&id, _)| id),
            );
            due_buf.sort_unstable();
            for &req_id in due_buf.iter() {
                let Some(fl) = inflight.get_mut(&req_id) else { continue };
                serial_req.remove(fl.serial);
                if let Some((_, hs)) = fl.hedge.take() {
                    serial_req.remove(hs);
                }
                if fl.attempt >= rec.max_retries {
                    inflight.remove(&req_id);
                    note_shed(
                        &cfg.telemetry,
                        &mut shed,
                        &mut dropped,
                        t,
                        ShedReason::RetriesExhausted,
                    );
                } else {
                    schedule_retry(
                        &cfg.telemetry,
                        &mut retry_queue,
                        rec,
                        cfg.seed,
                        req_id,
                        fl,
                        &mut retried,
                        t,
                    );
                }
            }
            // 2.6 Hedged sends: duplicate a slow hop onto the least
            //     loaded other node of its tier; first reply wins.
            if let Some(h) = rec.hedge_after {
                due_buf.clear();
                due_buf.extend(
                    inflight
                        .iter()
                        .filter(|(_, fl)| {
                            !fl.waiting
                                && fl.hedge.is_none()
                                && fl.deadline > t
                                && t.duration_since(fl.sent_at) >= h
                        })
                        .map(|(&id, _)| id),
                );
                due_buf.sort_unstable();
                for &req_id in due_buf.iter() {
                    let Some(fl) = inflight.get_mut(&req_id) else { continue };
                    let alt = views
                        .members(fl.stage)
                        .iter()
                        .copied()
                        .filter(|&i| i != fl.node && nodes[i].available(t))
                        .min_by(|&a, &b| {
                            nodes[a].outstanding_std.total_cmp(&nodes[b].outstanding_std)
                        });
                    let Some(alt) = alt else { continue };
                    let serial2 = next_serial;
                    next_serial += 1;
                    fl.hedge = Some((alt, serial2));
                    serial_req.insert(serial2, req_id);
                    inject_stage(
                        &mut nodes[alt],
                        fl.app,
                        serial2,
                        fl.label,
                        fl.wire,
                        service[alt][fl.app],
                        t,
                    );
                    views.sync(alt, nodes[alt].outstanding_std);
                    hedged += 1;
                    cfg.telemetry.instant_on(
                        t,
                        "cluster",
                        "hedge",
                        DISPATCHER_TRACK,
                        &[("to", (alt as u64).into())],
                    );
                    cfg.telemetry.add_count("cluster.hedged", 1);
                }
            }
        }
        // 3. Health checks and lifecycle timers (frozen standby /
        //    provisioning nodes hold no work and skip both).
        for (n, node) in nodes.iter_mut().enumerate() {
            if !node.participates() {
                continue;
            }
            node.lifecycle_tick(t);
            if node.health_check(t) {
                degradations_detected += 1;
                let open_ms = match node.breaker.state {
                    BreakerState::Open { until } => {
                        until.duration_since(t).as_secs_f64() * 1e3
                    }
                    _ => 0.0,
                };
                cfg.telemetry.instant_on(
                    t,
                    "cluster",
                    "degraded",
                    DISPATCHER_TRACK,
                    &[("node", (n as u64).into()), ("penalty_ms", open_ms.into())],
                );
                cfg.telemetry.add_count("cluster.degradations", 1);
            }
        }
        // 3.5 Re-dispatch requests whose backoff expired.
        if let Some(rec) = cfg.recovery.as_ref() {
            // Not a `while let`: under edition 2021 the scrutinee's
            // borrow of `retry_queue` would live through the body,
            // which removes from it.
            #[allow(clippy::while_let_loop)]
            loop {
                let Some((&(at, req_id), _)) = retry_queue.iter().next() else { break };
                if at > t {
                    break;
                }
                retry_queue.remove(&(at, req_id));
                let Some(fl) = inflight.get_mut(&req_id) else { continue };
                if !fl.waiting {
                    continue;
                }
                let req = ArrivalView { app: cfg.apps[fl.app], label: fl.label };
                match route(
                    policies[fl.stage],
                    views.members(fl.stage),
                    views.tier(fl.stage),
                    &nodes,
                    req,
                    t,
                    &cfg.telemetry,
                    &mut rerouted,
                    &mut decisions,
                ) {
                    Some(target) => {
                        let serial = next_serial;
                        next_serial += 1;
                        dispatch_attempt(
                            target,
                            &mut nodes[target],
                            &mut views,
                            fl,
                            &mut serial_req,
                            req_id,
                            serial,
                            service[target][fl.app],
                            Some(rec),
                            t,
                        );
                    }
                    None if fl.attempt < rec.max_retries => {
                        schedule_retry(
                            &cfg.telemetry,
                            &mut retry_queue,
                            rec,
                            cfg.seed,
                            req_id,
                            fl,
                            &mut retried,
                            t,
                        );
                    }
                    None => {
                        inflight.remove(&req_id);
                        note_shed(
                            &cfg.telemetry,
                            &mut shed,
                            &mut dropped,
                            t,
                            ShedReason::NoHealthyNode,
                        );
                    }
                }
            }
        }
        // 3.7 Elasticity, all on the driving thread so resizes are
        //     byte-identical at every --jobs/--shards count: sample the
        //     fleet power, land provisioned nodes, progress drains,
        //     fire the rolling-upgrade schedule, then run one
        //     controller evaluation when due.
        let fleet_power_w: f64 = if cfg.power_cap_w.is_some()
            && (cfg.admission.is_some() || scaler.is_some())
        {
            // Only kernels that advance draw power: a frozen standby's
            // machine still *reports* the instantaneous state it was
            // built with (worker pools parked on cores), which would
            // read as a permanently busy fleet.
            nodes
                .iter()
                .filter(|nd| nd.participates())
                .map(|nd| nd.kernel.machine().true_active_power_watts())
                .sum()
        } else {
            0.0
        };
        peak_power_w = peak_power_w.max(fleet_power_w);
        if let Some(sc) = scaler.as_mut() {
            let ac = *sc.config();
            // (a) Land provisioned nodes whose boot latency expired:
            //     carry the dead stretch's counters, rebuild a fresh
            //     incarnation at `t` (the crash-restart machinery,
            //     minus the loss window), restore the retirement
            //     checkpoint, and start warming up. Boot + warm-up
            //     idle draw is charged to the provisioning transition.
            for n in 0..nodes.len() {
                let ScaleState::Provisioning { decided_at, ready, kind } = nodes[n].scale
                else {
                    continue;
                };
                if t < ready {
                    continue;
                }
                {
                    let node = &mut nodes[n];
                    let m = node.kernel.machine();
                    node.carried_energy_j += m.true_active_energy_j();
                    for (tot, c) in
                        node.carried_fault_counts.iter_mut().zip(m.fault_log().counts())
                    {
                        *tot += c;
                    }
                    let ks = node.kernel.stats();
                    node.carried_tags_lost += ks.tags_lost;
                    node.carried_tags_corrupted += ks.tags_corrupted;
                    node.incarnation += 1;
                    let tele = node.tele.clone();
                    let (kernel, facility, inboxes, reply_rx) = build_node_runtime(
                        n,
                        node.incarnation,
                        t,
                        cfg,
                        &cals[n],
                        &apps,
                        total_cores,
                        Rc::clone(&node.stats),
                        &tele,
                    );
                    let log = node.facility.borrow_mut().containers_mut().take_records();
                    node.kernel = kernel;
                    node.facility = facility;
                    node.inboxes = inboxes;
                    node.reply_rx = reply_rx;
                    let _ = node
                        .facility
                        .borrow_mut()
                        .containers_mut()
                        .restore(&node.last_checkpoint, log, t);
                    node.last_checkpoint =
                        node.facility.borrow().containers().checkpoint(t);
                    node.checkpoints += 1;
                    node.next_checkpoint_at =
                        if crashes_possible { t + checkpoint_every } else { SimTime::MAX };
                    // Fault windows that opened while the node was
                    // frozen never happened for it.
                    while node.next_window < node.fault_windows.len()
                        && node.fault_windows[node.next_window].start < t
                    {
                        node.next_window += 1;
                    }
                    node.active_window = None;
                    node.breaker = Breaker::new();
                    node.lifecycle = Lifecycle::WarmingUp { until: t + ac.warmup };
                    node.responses_at_check = node.responses;
                    node.last_health_check = t;
                    node.scale = ScaleState::Active;
                    node.active_since = Some(t);
                }
                let spec = &cfg.nodes[n];
                let boot_j = spec.truth.machine_idle_w()
                    * (ac.provision_delay + ac.warmup).as_secs_f64();
                provisioning_energy_j += boot_j;
                tier0_active_cores += spec.total_cores();
                let tier = nodes[n].tier;
                views.set_active(n, tier, true, cfg, &nodes);
                scale_outs += 1;
                scale_log.push(ScaleEvent {
                    node: n,
                    kind,
                    decided_at,
                    completed_at: t,
                    lost_energy_j: 0.0,
                    lost_requests: 0,
                    forced: false,
                    provision_energy_j: boot_j,
                });
                cfg.telemetry.instant_on(
                    t,
                    "cluster",
                    kind.name(),
                    DISPATCHER_TRACK,
                    &[("node", (n as u64).into()), ("boot_j", boot_j.into())],
                );
                cfg.telemetry.add_count("autoscale.scale_out", 1);
            }
            // (b) Progress draining nodes. A node whose outstanding
            //     work emptied retires cleanly: the final checkpoint is
            //     taken at the freeze instant, so the journaled loss is
            //     *exactly* zero (attribution accrues into the same
            //     totals the checkpoint snapshots — unlike a crash,
            //     which loses everything since the last periodic
            //     journal entry). A node past its drain deadline
            //     force-kills its stragglers — they re-enter the retry
            //     machinery like crash victims — and retires anyway;
            //     their partially-done work stays attributed, so even a
            //     forced drain loses requests but not energy.
            for (n, node) in nodes.iter_mut().enumerate() {
                let ScaleState::Draining { decided_at, deadline, kind } = node.scale
                else {
                    continue;
                };
                if node.pending_crash {
                    // The crash machinery owns this node this tick; the
                    // rebuilt (emptied) node retires on a later tick.
                    continue;
                }
                let forced = t >= deadline && !node.outstanding.is_empty();
                if !node.outstanding.is_empty() && !forced {
                    continue;
                }
                let (killed, lost_e) = {
                    let mut killed: Vec<u64> = Vec::new();
                    if forced {
                        killed = node.outstanding.keys().copied().collect();
                        killed.sort_unstable();
                        node.outstanding.clear();
                        node.outstanding_std = 0.0;
                        node.lost_requests += killed.len() as u64;
                    }
                    if node.active_window.take().is_some() {
                        node.tele.end_span(t, node.track);
                    }
                    node.last_checkpoint =
                        node.facility.borrow().containers().checkpoint(t);
                    node.checkpoints += 1;
                    node.next_checkpoint_at = SimTime::MAX;
                    // The live totals and the checkpoint sum the same
                    // per-container energies in different association
                    // orders, so a clean drain can read a few ULPs
                    // apart; below a nanojoule the checkpoint IS the
                    // state (a real crash loss window is joules).
                    let raw = node.attributed_energy_j()
                        - node.last_checkpoint.attributed_energy_j();
                    let lost_e = if raw < 1e-9 { 0.0 } else { raw };
                    if let Some(s) = node.active_since.take() {
                        node.uptime_s += t.duration_since(s).as_secs_f64();
                    }
                    node.lifecycle = Lifecycle::Healthy;
                    node.breaker = Breaker::new();
                    node.scale = ScaleState::Standby;
                    (killed, lost_e)
                };
                let killed_n = killed.len() as u64;
                for serial in killed {
                    let Some(req_id) = serial_req.remove(serial) else { continue };
                    let Some(fl) = inflight.get_mut(&req_id) else { continue };
                    if fl.serial != serial {
                        if fl.hedge.map(|(_, s)| s) == Some(serial) {
                            fl.hedge = None;
                        }
                        continue;
                    }
                    if let Some((hn, hs)) = fl.hedge.take() {
                        fl.node = hn;
                        fl.serial = hs;
                        continue;
                    }
                    match cfg.recovery.as_ref() {
                        Some(rec) if fl.attempt < rec.max_retries => {
                            schedule_retry(
                                &cfg.telemetry,
                                &mut retry_queue,
                                rec,
                                cfg.seed,
                                req_id,
                                fl,
                                &mut retried,
                                t,
                            );
                        }
                        _ => {
                            inflight.remove(&req_id);
                            dropped += 1;
                            lost_in_crash += 1;
                            cfg.telemetry.add_count("cluster.lost_in_crash", 1);
                        }
                    }
                }
                scale_ins += 1;
                scale_log.push(ScaleEvent {
                    node: n,
                    kind,
                    decided_at,
                    completed_at: t,
                    lost_energy_j: lost_e,
                    lost_requests: killed_n,
                    forced,
                    provision_energy_j: 0.0,
                });
                cfg.telemetry.instant_on(
                    t,
                    "cluster",
                    kind.name(),
                    DISPATCHER_TRACK,
                    &[
                        ("node", (n as u64).into()),
                        ("forced", (forced as u64).into()),
                        ("lost_j", lost_e.into()),
                    ],
                );
                cfg.telemetry.add_count("autoscale.scale_in", 1);
            }
            // (c) Rolling generation upgrades: at each scheduled slot,
            //     drain the oldest active node (highest flat index —
            //     the topology sorts newest first) and provision the
            //     newest standby, as one paired swap.
            if let Some(up) = ac.upgrade {
                while upgrades_left > 0 && next_upgrade_at.is_some_and(|at| t >= at) {
                    let victim = (0..nodes.len()).rev().find(|&i| {
                        matches!(nodes[i].scale, ScaleState::Active)
                            && nodes[i].lifecycle == Lifecycle::Healthy
                            && !nodes[i].pending_crash
                    });
                    let fresh = (0..nodes.len())
                        .find(|&i| matches!(nodes[i].scale, ScaleState::Standby));
                    // A slot with no standby (elasticity bought them
                    // all) or no healthy victim holds its place and
                    // retries next tick rather than skipping the swap.
                    let (Some(victim), Some(fresh)) = (victim, fresh) else { break };
                    next_upgrade_at = next_upgrade_at.map(|at| at + up.every);
                    upgrades_left -= 1;
                    nodes[victim].scale = ScaleState::Draining {
                        decided_at: t,
                        deadline: t + ac.drain_deadline,
                        kind: ScaleKind::UpgradeIn,
                    };
                    tier0_active_cores -= cfg.nodes[victim].total_cores();
                    let tier = nodes[victim].tier;
                    views.set_active(victim, tier, false, cfg, &nodes);
                    nodes[fresh].scale = ScaleState::Provisioning {
                        decided_at: t,
                        ready: t + ac.provision_delay,
                        kind: ScaleKind::UpgradeOut,
                    };
                    upgrades += 1;
                    cfg.telemetry.instant_on(
                        t,
                        "cluster",
                        "upgrade",
                        DISPATCHER_TRACK,
                        &[("out", (victim as u64).into()), ("in", (fresh as u64).into())],
                    );
                    cfg.telemetry.add_count("autoscale.upgrade", 1);
                }
            }
            // (d) One controller evaluation when due.
            if sc.due(t) {
                let mut active = 0usize;
                let mut landing = 0usize;
                let mut draining = 0usize;
                let mut standby = 0usize;
                let mut out_std = 0.0f64;
                for node in nodes.iter() {
                    match node.scale {
                        ScaleState::Active => {
                            active += 1;
                            out_std += node.outstanding_std;
                            if matches!(node.lifecycle, Lifecycle::WarmingUp { .. }) {
                                landing += 1;
                            }
                        }
                        ScaleState::Provisioning { .. } => landing += 1,
                        ScaleState::Draining { .. } => draining += 1,
                        ScaleState::Standby => standby += 1,
                    }
                }
                let sample = FleetSample {
                    now: t,
                    active,
                    landing,
                    draining,
                    standby,
                    util: if tier0_active_cores > 0 {
                        out_std / tier0_active_cores as f64
                    } else {
                        f64::INFINITY
                    },
                    power_frac: cfg.power_cap_w.map_or(0.0, |cap| fleet_power_w / cap),
                };
                let prev_level = sc.level();
                let (decision, level) = sc.decide(&sample);
                if level != prev_level {
                    if level > prev_level {
                        brownout_engagements += 1;
                        cfg.telemetry.add_count("autoscale.brownout.engage", 1);
                    } else {
                        brownout_releases += 1;
                        cfg.telemetry.add_count("autoscale.brownout.release", 1);
                    }
                    cfg.telemetry.instant_on(
                        t,
                        "cluster",
                        "brownout",
                        DISPATCHER_TRACK,
                        &[("level", (level.index() as u64).into())],
                    );
                }
                // DVFS clamp: re-asserted on every active node each
                // evaluation while the top rung holds (covering nodes
                // that landed since), restored to full duty on release.
                // A slowdown fault window in force is overridden until
                // its own end boundary; the chaos rungs tolerate that
                // interplay.
                if level == BrownoutLevel::DvfsClamp {
                    for node in nodes.iter_mut() {
                        if matches!(node.scale, ScaleState::Active) {
                            node.set_all_duty(DutyCycle::at_most(ac.brownout.dvfs_clamp));
                        }
                    }
                } else if prev_level == BrownoutLevel::DvfsClamp {
                    for node in nodes.iter_mut() {
                        if node.participates() {
                            node.set_all_duty(DutyCycle::FULL);
                        }
                    }
                }
                match decision {
                    ScaleDecision::Out(k) => {
                        let mut started = 0usize;
                        for (n, node) in nodes.iter_mut().enumerate() {
                            if started == k {
                                break;
                            }
                            if !matches!(node.scale, ScaleState::Standby) {
                                continue;
                            }
                            node.scale = ScaleState::Provisioning {
                                decided_at: t,
                                ready: t + ac.provision_delay,
                                kind: ScaleKind::Out,
                            };
                            started += 1;
                            cfg.telemetry.instant_on(
                                t,
                                "cluster",
                                "provision",
                                DISPATCHER_TRACK,
                                &[("node", (n as u64).into())],
                            );
                        }
                    }
                    ScaleDecision::In(k) => {
                        let mut started = 0usize;
                        for n in (0..nodes.len()).rev() {
                            if started == k {
                                break;
                            }
                            if !matches!(nodes[n].scale, ScaleState::Active)
                                || nodes[n].lifecycle != Lifecycle::Healthy
                                || nodes[n].pending_crash
                            {
                                continue;
                            }
                            nodes[n].scale = ScaleState::Draining {
                                decided_at: t,
                                deadline: t + ac.drain_deadline,
                                kind: ScaleKind::In,
                            };
                            tier0_active_cores -= cfg.nodes[n].total_cores();
                            let tier = nodes[n].tier;
                            views.set_active(n, tier, false, cfg, &nodes);
                            started += 1;
                            cfg.telemetry.instant_on(
                                t,
                                "cluster",
                                "drain",
                                DISPATCHER_TRACK,
                                &[("node", (n as u64).into())],
                            );
                        }
                    }
                    ScaleDecision::Hold => {}
                }
            }
        }
        // 4. Admission control (brownout-aware: the ladder sheds
        //    optional sessions first, then tightens the queue bound),
        //    then dispatch the tick's batch of arrivals into tier 0.
        let brownout = scaler.as_ref().map_or(BrownoutLevel::Normal, Autoscaler::level);
        let admission_scale = if brownout >= BrownoutLevel::TightenAdmission {
            cfg.autoscale.as_ref().map_or(1.0, |ac| ac.brownout.admission_tighten)
        } else {
            1.0
        };
        while let Some(a) = pending {
            if a.at > t {
                break;
            }
            pending = gen.next(&apps);
            dispatched += 1;
            cfg.telemetry.add_count("cluster.dispatched", 1);
            if brownout >= BrownoutLevel::ShedOptional && a.optional {
                note_shed(
                    &cfg.telemetry,
                    &mut shed,
                    &mut dropped,
                    a.at,
                    ShedReason::BrownoutOptional,
                );
                continue;
            }
            if let Some(adm) = cfg.admission.as_ref() {
                let depth: f64 =
                    views.members(0).iter().map(|&i| nodes[i].outstanding_std).sum();
                if depth > adm.max_queue_per_core * tier0_active_cores as f64 * admission_scale
                {
                    note_shed(&cfg.telemetry, &mut shed, &mut dropped, a.at, ShedReason::QueueDepth);
                    continue;
                }
                if let Some(cap) = cfg.power_cap_w {
                    if fleet_power_w > adm.power_headroom * cap {
                        note_shed(
                            &cfg.telemetry,
                            &mut shed,
                            &mut dropped,
                            a.at,
                            ShedReason::PowerHeadroom,
                        );
                        continue;
                    }
                }
            }
            let req = ArrivalView { app: cfg.apps[a.app], label: a.label };
            let Some(target) = route(
                policies[0],
                views.members(0),
                views.tier(0),
                &nodes,
                req,
                a.at,
                &cfg.telemetry,
                &mut rerouted,
                &mut decisions,
            ) else {
                note_shed(&cfg.telemetry, &mut shed, &mut dropped, a.at, ShedReason::NoHealthyNode);
                continue;
            };
            let serial = next_serial;
            next_serial += 1;
            debug_assert!(serial < u32::MAX as u64, "serial space exhausted");
            let req_id = next_req;
            next_req += 1;
            let ctx = ContextId(next_ctx);
            next_ctx += 1;
            // `ctx` is exactly `ctx_app.len() + 1`, so a push keeps the
            // slab aligned with the sequential id space.
            debug_assert_eq!(next_ctx as usize, ctx_app.len() + 2);
            ctx_app.push(a.app as u8);
            let mut fl = InFlight {
                app: a.app,
                label: a.label,
                arrived: a.at,
                stage: 0,
                wire: Some(ctx),
                node: target,
                serial,
                attempt: 0,
                sent_at: a.at,
                deadline: SimTime::MAX,
                hedge: None,
                waiting: false,
            };
            dispatch_attempt(
                target,
                &mut nodes[target],
                &mut views,
                &mut fl,
                &mut serial_req,
                req_id,
                serial,
                service[target][a.app],
                cfg.recovery.as_ref(),
                a.at,
            );
            inflight.insert(req_id, fl);
        }
        // 5. Observability window close: at the first tick at or past a
        //    window boundary, read every node's cumulative energy in
        //    node order and feed the rollups + burn-rate monitor. Only
        //    full windows close; a trailing partial window is dropped.
        if let Some(o) = obs.as_mut() {
            if o.due(t) {
                obs_samples.clear();
                obs_samples.extend(nodes.iter().map(|n| {
                    (
                        n.carried_energy_j + n.kernel.machine().true_active_energy_j(),
                        n.attributed_energy_j(),
                    )
                }));
                let degrade: u64 = nodes
                    .iter()
                    .map(|n| n.facility.borrow().degrade_stats().drift_total())
                    .sum();
                o.close_window(
                    t,
                    &obs_samples,
                    completed as u64,
                    dropped,
                    degrade,
                    &cfg.telemetry,
                );
            }
        }
        if t >= end {
            break;
        }
    }
    // Final settle: close any window still open, replay frozen backlogs
    // so energy accounting covers the whole run, and drain the last
    // responses.
    advance_shards(&mut nodes, end, cfg.shards);
    for node in &mut nodes {
        // Frozen standby/provisioning nodes stay frozen: their kernels
        // hold the state journaled at retirement and accrue nothing.
        if !node.participates() {
            continue;
        }
        if let Some(w) = node.active_window.take() {
            let _ = w;
            node.tele.end_span(end, node.track);
        }
        node.kernel.run_until(end);
    }
    merge_node_events(&cfg.telemetry, &nodes);
    for node in nodes.iter_mut() {
        let rx = node.reply_rx;
        seg_buf.clear();
        node.kernel.drain_messages_into(rx, &mut seg_buf);
        for seg in seg_buf.drain(..) {
            let serial = seg.payload >> 32;
            node.settle(serial);
            let Some(req_id) = serial_req.get(serial) else {
                stale_replies += 1;
                continue;
            };
            let Some(fl) = inflight.get(&req_id) else { continue };
            let is_primary = fl.serial == serial;
            let is_hedge = fl.hedge.map(|(_, s)| s) == Some(serial);
            if !is_primary && !is_hedge {
                stale_replies += 1;
                continue;
            }
            serial_req.remove(serial);
            if fl.stage + 1 < cfg.tiers.len() {
                // The next stage can no longer run; the request stays
                // accounted as in flight.
                continue;
            }
            let latency_s = end.duration_since(fl.arrived).as_secs_f64();
            summaries[fl.app].record(latency_s);
            if let Some(o) = obs.as_mut() {
                o.note_completion(fl.app, latency_s);
            }
            completed += 1;
            if let Some(fl) = inflight.remove(&req_id) {
                serial_req.remove(fl.serial);
                if let Some((_, hs)) = fl.hedge {
                    serial_req.remove(hs);
                }
            }
        }
    }
    // Fold each node's private metrics registry (facility counters,
    // gauges, histograms, span bookkeeping) into the main sink, in node
    // order — deterministic at every shard count.
    if cfg.telemetry.enabled() {
        for node in &nodes {
            cfg.telemetry.absorb(&node.tele);
        }
    }
    let mut degrade = nodes
        .iter()
        .map(|n| n.facility.borrow().degrade_stats())
        .fold(power_containers::DegradeStats::default(), |acc, d| acc + d);
    degrade.requests_retried += retried;
    degrade.requests_shed += dropped;

    let secs = cfg.duration.as_secs_f64();
    // Close the books on uptime: nodes still active (or draining) at
    // the end accrue through `end`; a fixed fleet therefore reads
    // exactly the run duration per node.
    for node in nodes.iter_mut() {
        if let Some(s) = node.active_since.take() {
            node.uptime_s += end.duration_since(s).as_secs_f64();
        }
    }
    let per_node: Vec<NodeOutcome> = nodes
        .iter()
        .map(|n| {
            let m = n.kernel.machine();
            let cores = m.spec().total_cores();
            let util = (0..cores)
                .map(|c| m.counters(hwsim::CoreId(c)).core_utilization())
                .sum::<f64>()
                / cores as f64;
            let active_energy_j = n.carried_energy_j + m.true_active_energy_j();
            NodeOutcome {
                machine: m.spec().name,
                tier: n.tier,
                active_energy_j,
                attributed_energy_j: n.attributed_energy_j(),
                energy_rate_w: active_energy_j / secs,
                dispatched: n.injected,
                completions: n.responses as usize,
                in_flight: n.outstanding.len() as u64,
                lost_requests: n.lost_requests,
                lost_energy_j: n.lost_energy_j,
                crashes: n.crashes as u64,
                utilization: util,
                uptime_s: n.uptime_s,
                idle_energy_j: m.spec().truth.machine_idle_w() * n.uptime_s,
            }
        })
        .collect();
    let fleet_idle_energy_j: f64 = per_node.iter().map(|n| n.idle_energy_j).sum();

    // The comprehensive per-app energy accounting, resolved through the
    // dispatcher's ctx→app map over every node's container records and
    // still-live containers (labels are app-local and may collide across
    // apps). The energy per identity is exactly what the §3.4 response
    // tag carries back from each serving machine; records created under
    // lost or corrupted identities simply fall out of the per-app sums.
    let mut energies = vec![0.0f64; apps.len()];
    // ctx → (energy, node count, app index) — the app rides along so the
    // obs feed below needs no second identity lookup per request.
    let mut by_ctx: FxHashMap<u64, (f64, u32, u32)> = FxHashMap::default();
    // The obs plane's energy-per-request sketches need the same per-ctx
    // assembly `retain_request_energy` builds; without either consumer
    // the per-ctx maps are skipped entirely.
    let want_ctx = cfg.retain_request_energy || obs.is_some();
    if want_ctx {
        by_ctx.reserve(
            nodes.iter().map(|n| n.facility.borrow().containers().records().len()).sum(),
        );
    }
    let mut seen_here: FxHashMap<u64, (f64, u32)> = FxHashMap::default();
    for node in &nodes {
        let facility = node.facility.borrow();
        seen_here.clear();
        for r in facility.containers().records() {
            if let Some(app_idx) = app_of(&ctx_app, r.ctx) {
                energies[app_idx] += r.energy_j + r.io_energy_j;
                if want_ctx {
                    seen_here.entry(r.ctx.0).or_insert((0.0, app_idx as u32)).0 +=
                        r.energy_j + r.io_energy_j;
                }
            }
        }
        for (ctx, c) in facility.containers().iter_live() {
            if let Some(app_idx) = app_of(&ctx_app, ctx) {
                energies[app_idx] += c.total_energy_j();
                if want_ctx {
                    seen_here.entry(ctx.0).or_insert((0.0, app_idx as u32)).0 +=
                        c.total_energy_j();
                }
            }
        }
        for (&ctx, &(e, app_idx)) in seen_here.iter() {
            let entry = by_ctx.entry(ctx).or_insert((0.0, 0, app_idx));
            entry.0 += e;
            entry.1 += 1;
        }
    }
    if let Some(o) = obs.as_mut() {
        // Sketch observation is commutative (integer bucket adds), so
        // the map's iteration order is fine here — no sort needed.
        for (_, &(energy_j, _, app_idx)) in by_ctx.iter() {
            o.note_request_energy(Some(app_idx as usize), energy_j);
        }
    }
    let mut energy_by_ctx: Vec<CtxEnergy> = Vec::new();
    if cfg.retain_request_energy {
        energy_by_ctx = by_ctx
            .into_iter()
            .map(|(ctx, (energy_j, nodes, _))| CtxEnergy { ctx, energy_j, nodes })
            .collect();
        energy_by_ctx.sort_by_key(|c| c.ctx);
    }

    let response_by_app = cfg.apps.iter().copied().zip(summaries).collect();
    let energy_by_app_j = cfg.apps.iter().copied().zip(energies).collect();
    let mut fault_counts = [0u64; hwsim::FaultKind::ALL.len()];
    let mut tags_lost = 0u64;
    let mut tags_corrupted = 0u64;
    let mut crashes = 0u64;
    let mut checkpoints = 0u64;
    for node in &nodes {
        for (total, n) in
            fault_counts.iter_mut().zip(node.kernel.machine().fault_log().counts())
        {
            *total += n;
        }
        for (total, n) in fault_counts.iter_mut().zip(node.carried_fault_counts) {
            *total += n;
        }
        let ks = node.kernel.stats();
        tags_lost += ks.tags_lost + node.carried_tags_lost;
        tags_corrupted += ks.tags_corrupted + node.carried_tags_corrupted;
        crashes += node.crashes as u64;
        checkpoints += node.checkpoints;
    }
    if let Some(ix) =
        hwsim::FaultKind::ALL.iter().position(|k| *k == hwsim::FaultKind::NodeCrash)
    {
        fault_counts[ix] += crashes;
    }
    // Per-request energy provenance: every retained container record
    // (and still-live container) becomes one node → incarnation →
    // container leaf with cpu/throttled/io segments. A record's
    // incarnation is the number of this node's crashes at or before its
    // creation, so records restored from a crash journal keep the
    // incarnation they accrued in.
    let provenance: Vec<telemetry::obs::ProvenanceEntry> =
        if obs.as_ref().is_some_and(ObsPlane::wants_provenance) {
            let mut crash_times: Vec<Vec<SimTime>> = vec![Vec::new(); nodes.len()];
            for cr in &crash_log {
                crash_times[cr.node].push(cr.at);
            }
            let mut out = Vec::new();
            for (n, node) in nodes.iter().enumerate() {
                let f = node.facility.borrow();
                let inc_of = |created: SimTime| {
                    crash_times[n].iter().take_while(|&&ct| ct <= created).count() as u32
                };
                for r in f.containers().records() {
                    out.push(telemetry::obs::ProvenanceEntry {
                        node: n as u32,
                        incarnation: inc_of(r.created_at),
                        ctx: r.ctx.0,
                        label: r.label.map(i64::from).unwrap_or(-1),
                        cpu_j: (r.energy_j - r.throttled_j).max(0.0),
                        throttled_j: r.throttled_j,
                        io_j: r.io_energy_j,
                    });
                }
                for (ctx, c) in f.containers().iter_live() {
                    out.push(telemetry::obs::ProvenanceEntry {
                        node: n as u32,
                        incarnation: node.crashes,
                        ctx: ctx.0,
                        label: c.label().map(i64::from).unwrap_or(-1),
                        cpu_j: (c.energy_j() - c.throttled_j()).max(0.0),
                        throttled_j: c.throttled_j(),
                        io_j: c.io_energy_j(),
                    });
                }
            }
            out
        } else {
            Vec::new()
        };
    let obs_outcome = obs.map(|o| Box::new(o.finish(provenance)));
    ClusterOutcome {
        policy: policies[0].name(),
        degrade,
        per_node,
        response_by_app,
        energy_by_app_j,
        energy_by_ctx,
        dispatched,
        completed,
        rerouted,
        dropped,
        shed,
        lost_in_crash,
        retried,
        hedged,
        stale_replies,
        crashes,
        checkpoints,
        crash_log,
        in_flight: inflight.len() as u64,
        decisions,
        degradations_detected,
        tags_lost,
        tags_corrupted,
        fault_counts,
        obs: obs_outcome,
        scale_log,
        scale_outs,
        scale_ins,
        upgrades,
        brownout_engagements,
        brownout_releases,
        autoscale_evals: scaler.as_ref().map_or(0, Autoscaler::evals),
        provisioning_energy_j,
        idle_energy_j: fleet_idle_energy_j,
        peak_power_w,
    }
}
