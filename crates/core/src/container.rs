//! Power container state and lifecycle (paper §3.3, §3.5).
//!
//! A power container accumulates the power-relevant activity of one
//! request context: event counters, modeled energy, I/O energy, recent
//! power, and control state. Containers are reference-counted by the
//! tasks bound to them and their live state is released when the last
//! task unbinds (the paper's 784-byte structure with a reference
//! counter); a compact [`ContainerRecord`] can be retained for analysis.
//!
//! # Layout
//!
//! Live state is a slab of parallel arrays (struct-of-arrays) rather
//! than a map of one big struct per container:
//!
//! * [`ContainerMeta`] — identity and control fields touched on
//!   bind/unbind and policy changes,
//! * [`ContainerAccounting`] — the floats the per-sample attribution
//!   hot path reads and writes,
//! * one [`CounterBlock`] row of cumulative event counts.
//!
//! Rows live at a stable slot until the container is released; freed
//! slots are recycled LIFO. A context-id → slot index keyed through the
//! deterministic [`FxHashMap`] (plus a one-entry cache for the common
//! consecutive-samples-same-context case) resolves lookups. Attribution
//! therefore walks three dense arrays instead of chasing one ~800-byte
//! heap node per container, and [`ContainerManager::iter_live`] yields
//! containers in slot order — a deterministic order, unlike the
//! randomized `std` map order, so callers may fold floating-point sums
//! over it without breaking run-to-run identity.

use crate::metrics::MetricVector;
use hwsim::CounterBlock;
use ossim::ContextId;
use simkern::{FxHashMap, SimTime};

/// Smoothing factor for the container's recent-power estimate.
const POWER_EWMA_ALPHA: f64 = 0.5;

/// Identity and control state of one container (cold on the attribution
/// path: touched on bind/unbind, labeling and policy changes).
#[derive(Debug, Clone)]
struct ContainerMeta {
    /// Raw context id owning this slot (meaningful only while `in_use`).
    ctx: u64,
    created_at: SimTime,
    refcount: u32,
    in_use: bool,
    label: Option<u32>,
    /// Explicit per-request power cap, overriding the system policy.
    power_cap_w: Option<f64>,
    /// Cumulative-energy budget; exceeding it forces maximum throttling
    /// (the Cinder-style "energy as a first-class resource" control the
    /// paper's related work discusses).
    energy_budget_j: Option<f64>,
}

impl ContainerMeta {
    fn new(ctx: u64, now: SimTime) -> ContainerMeta {
        ContainerMeta {
            ctx,
            created_at: now,
            refcount: 0,
            in_use: true,
            label: None,
            power_cap_w: None,
            energy_budget_j: None,
        }
    }
}

/// The accounting row the per-sample attribution hot path updates.
#[derive(Debug, Clone)]
struct ContainerAccounting {
    last_active: SimTime,
    /// Cumulative modeled CPU/memory energy in Joules.
    energy_j: f64,
    /// Cumulative attributed peripheral I/O energy in Joules.
    io_energy_j: f64,
    /// Portion of `energy_j` accrued during intervals executed at a duty
    /// fraction below 1.0 — the "throttled" provenance segment (energy
    /// spent while the container was under DVFS/duty-cycle control).
    throttled_j: f64,
    /// Seconds of CPU time attributed (wall time of sampled intervals).
    busy_seconds: f64,
    /// Time-weighted duty-cycle fraction actually applied.
    duty_weighted: f64,
    /// Most recent sampled power (EWMA), Watts.
    recent_power_w: f64,
    /// Most recent *unthrottled* power estimate (power ÷ duty fraction).
    unthrottled_power_w: f64,
}

impl ContainerAccounting {
    fn new(now: SimTime) -> ContainerAccounting {
        ContainerAccounting {
            last_active: now,
            energy_j: 0.0,
            io_energy_j: 0.0,
            throttled_j: 0.0,
            busy_seconds: 0.0,
            duty_weighted: 0.0,
            recent_power_w: 0.0,
            unthrottled_power_w: 0.0,
        }
    }

    /// Folds one sampled interval into the row.
    fn apply_sample(&mut self, watts: f64, duty: f64, dt_secs: f64, now: SimTime) {
        self.energy_j += watts * dt_secs;
        if duty < 1.0 {
            self.throttled_j += watts * dt_secs;
        }
        self.busy_seconds += dt_secs;
        self.duty_weighted += duty * dt_secs;
        self.last_active = now;
        self.recent_power_w =
            POWER_EWMA_ALPHA * watts + (1.0 - POWER_EWMA_ALPHA) * self.recent_power_w;
        let unthrottled = if duty > 0.0 { watts / duty } else { watts };
        self.unthrottled_power_w = POWER_EWMA_ALPHA * unthrottled
            + (1.0 - POWER_EWMA_ALPHA) * self.unthrottled_power_w;
    }
}

/// A read-only view of one live container's state (the public face of
/// the struct-of-arrays rows).
#[derive(Debug, Clone, Copy)]
pub struct ContainerView<'a> {
    meta: &'a ContainerMeta,
    acct: &'a ContainerAccounting,
    events: &'a CounterBlock,
}

impl ContainerView<'_> {
    /// Cumulative modeled CPU/memory energy in Joules.
    pub fn energy_j(&self) -> f64 {
        self.acct.energy_j
    }

    /// Cumulative attributed I/O energy in Joules.
    pub fn io_energy_j(&self) -> f64 {
        self.acct.io_energy_j
    }

    /// Portion of [`Self::energy_j`] accrued while executing at a duty
    /// fraction below 1.0 (the throttled provenance segment).
    pub fn throttled_j(&self) -> f64 {
        self.acct.throttled_j
    }

    /// Total attributed energy (CPU + I/O).
    pub fn total_energy_j(&self) -> f64 {
        self.acct.energy_j + self.acct.io_energy_j
    }

    /// Seconds of attributed CPU execution.
    pub fn busy_seconds(&self) -> f64 {
        self.acct.busy_seconds
    }

    /// Most recent sampled power (EWMA-smoothed), Watts.
    pub fn recent_power_w(&self) -> f64 {
        self.acct.recent_power_w
    }

    /// Most recent unthrottled-power estimate, Watts.
    pub fn unthrottled_power_w(&self) -> f64 {
        self.acct.unthrottled_power_w
    }

    /// Mean power while executing: energy over attributed CPU seconds.
    pub fn mean_power_w(&self) -> f64 {
        if self.acct.busy_seconds > 0.0 {
            self.acct.energy_j / self.acct.busy_seconds
        } else {
            0.0
        }
    }

    /// Time-weighted average duty-cycle fraction applied while executing.
    pub fn mean_duty(&self) -> f64 {
        if self.acct.busy_seconds > 0.0 {
            self.acct.duty_weighted / self.acct.busy_seconds
        } else {
            1.0
        }
    }

    /// Number of tasks currently bound.
    pub fn refcount(&self) -> u32 {
        self.meta.refcount
    }

    /// The workload-assigned label (request type), if any.
    pub fn label(&self) -> Option<u32> {
        self.meta.label
    }

    /// The per-request power cap, if set.
    pub fn power_cap_w(&self) -> Option<f64> {
        self.meta.power_cap_w
    }

    /// The per-request cumulative-energy budget, if set.
    pub fn energy_budget_j(&self) -> Option<f64> {
        self.meta.energy_budget_j
    }

    /// `true` once the request has consumed its entire energy budget.
    pub fn over_energy_budget(&self) -> bool {
        self.meta
            .energy_budget_j
            .is_some_and(|b| self.acct.energy_j + self.acct.io_energy_j >= b)
    }

    /// Cumulative attributed events.
    pub fn events(&self) -> &CounterBlock {
        self.events
    }
}

/// Compact retained record of a completed container.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerRecord {
    /// The request context this container tracked.
    pub ctx: ContextId,
    /// Workload-assigned request-type label.
    pub label: Option<u32>,
    /// Container creation time.
    pub created_at: SimTime,
    /// When the last bound task unbound.
    pub finished_at: SimTime,
    /// Modeled CPU/memory energy, Joules.
    pub energy_j: f64,
    /// Attributed I/O energy, Joules.
    pub io_energy_j: f64,
    /// Portion of `energy_j` accrued while throttled (duty < 1.0).
    pub throttled_j: f64,
    /// Attributed CPU seconds.
    pub busy_seconds: f64,
    /// Mean power while executing, Watts.
    pub mean_power_w: f64,
    /// Mean unthrottled power estimate, Watts.
    pub unthrottled_power_w: f64,
    /// Time-weighted mean duty fraction applied.
    pub mean_duty: f64,
}

/// Owns every live container plus the special background container for
/// activity with no traceable request context (§4.2's GAE background
/// processing).
#[derive(Debug, Clone)]
pub struct ContainerManager {
    /// Slot-parallel identity/control rows.
    meta: Vec<ContainerMeta>,
    /// Slot-parallel accounting rows (the attribution hot path).
    acct: Vec<ContainerAccounting>,
    /// Slot-parallel cumulative event counts.
    events: Vec<CounterBlock>,
    /// Freed slots, recycled LIFO.
    free: Vec<u32>,
    /// Context id → slot index for live containers.
    index: FxHashMap<u64, u32>,
    /// One-entry lookup cache (ctx, slot); hit on consecutive samples
    /// for the same context, the common case during a scheduling
    /// quantum. Valid only if `index` still maps `.0` to `.1`.
    cache: Option<(u64, u32)>,
    bg_meta: ContainerMeta,
    bg_acct: ContainerAccounting,
    bg_events: CounterBlock,
    records: Vec<ContainerRecord>,
    retain_records: bool,
    total_request_energy_j: f64,
    total_request_io_energy_j: f64,
    released: u64,
}

impl ContainerManager {
    /// Creates an empty manager. When `retain_records` is set, completed
    /// containers leave a [`ContainerRecord`] behind for analysis.
    pub fn new(retain_records: bool) -> ContainerManager {
        let mut bg_meta = ContainerMeta::new(0, SimTime::ZERO);
        bg_meta.in_use = false;
        ContainerManager {
            meta: Vec::new(),
            acct: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
            cache: None,
            bg_meta,
            bg_acct: ContainerAccounting::new(SimTime::ZERO),
            bg_events: CounterBlock::default(),
            records: Vec::new(),
            retain_records,
            total_request_energy_j: 0.0,
            total_request_io_energy_j: 0.0,
            released: 0,
        }
    }

    /// Resolves `ctx` to its live slot, if any.
    #[inline]
    fn lookup(&self, ctx: u64) -> Option<u32> {
        if let Some((c, s)) = self.cache {
            if c == ctx {
                return Some(s);
            }
        }
        self.index.get(&ctx).copied()
    }

    /// Resolves `ctx` to its live slot, creating one (recycling a freed
    /// slot if available) on first sight.
    fn slot_for(&mut self, ctx: u64, now: SimTime) -> u32 {
        if let Some((c, s)) = self.cache {
            if c == ctx {
                return s;
            }
        }
        if let Some(&s) = self.index.get(&ctx) {
            self.cache = Some((ctx, s));
            return s;
        }
        let s = match self.free.pop() {
            Some(s) => {
                self.meta[s as usize] = ContainerMeta::new(ctx, now);
                self.acct[s as usize] = ContainerAccounting::new(now);
                self.events[s as usize] = CounterBlock::default();
                s
            }
            None => {
                let s = self.meta.len() as u32;
                self.meta.push(ContainerMeta::new(ctx, now));
                self.acct.push(ContainerAccounting::new(now));
                self.events.push(CounterBlock::default());
                s
            }
        };
        self.index.insert(ctx, s);
        self.cache = Some((ctx, s));
        s
    }

    /// Releases the container at `slot` into the record log.
    fn release(&mut self, slot: u32, now: SimTime) {
        let s = slot as usize;
        let ctx = self.meta[s].ctx;
        self.index.remove(&ctx);
        if self.cache.is_some_and(|(c, _)| c == ctx) {
            self.cache = None;
        }
        self.meta[s].in_use = false;
        self.free.push(slot);
        self.released += 1;
        if self.retain_records {
            let (m, a) = (&self.meta[s], &self.acct[s]);
            self.records.push(ContainerRecord {
                ctx: ContextId(ctx),
                label: m.label,
                created_at: m.created_at,
                finished_at: now,
                energy_j: a.energy_j,
                io_energy_j: a.io_energy_j,
                throttled_j: a.throttled_j,
                busy_seconds: a.busy_seconds,
                mean_power_w: if a.busy_seconds > 0.0 {
                    a.energy_j / a.busy_seconds
                } else {
                    0.0
                },
                unthrottled_power_w: a.unthrottled_power_w,
                mean_duty: if a.busy_seconds > 0.0 {
                    a.duty_weighted / a.busy_seconds
                } else {
                    1.0
                },
            });
        }
    }

    /// Binds a task to `ctx`, creating the container on first binding.
    pub fn bind(&mut self, ctx: ContextId, now: SimTime) {
        let s = self.slot_for(ctx.0, now);
        self.meta[s as usize].refcount += 1;
    }

    /// Unbinds one task from `ctx`; the container is released (and
    /// optionally recorded) when the last task unbinds. A no-op for
    /// unknown contexts.
    pub fn unbind(&mut self, ctx: ContextId, now: SimTime) {
        let Some(s) = self.lookup(ctx.0) else { return };
        let m = &mut self.meta[s as usize];
        m.refcount = m.refcount.saturating_sub(1);
        if m.refcount == 0 {
            self.release(s, now);
        }
    }

    /// Attributes one sampled interval to `ctx` (or to the background
    /// container for `None`): modeled `watts` over `dt_secs` of wall time
    /// executed at duty fraction `duty`, with the interval's event delta.
    pub fn attribute(
        &mut self,
        ctx: Option<ContextId>,
        watts: f64,
        duty: f64,
        dt_secs: f64,
        events: &CounterBlock,
        now: SimTime,
    ) {
        match ctx {
            Some(id) => {
                self.total_request_energy_j += watts * dt_secs;
                let s = self.slot_for(id.0, now) as usize;
                self.events[s].accumulate(events);
                self.acct[s].apply_sample(watts, duty, dt_secs, now);
            }
            None => {
                self.bg_events.accumulate(events);
                self.bg_acct.apply_sample(watts, duty, dt_secs, now);
            }
        }
    }

    /// Attributes peripheral I/O energy to `ctx` (or the background
    /// container).
    pub fn attribute_io(&mut self, ctx: Option<ContextId>, joules: f64, now: SimTime) {
        match ctx {
            Some(id) => {
                self.total_request_io_energy_j += joules;
                let s = self.slot_for(id.0, now) as usize;
                self.acct[s].io_energy_j += joules;
                self.acct[s].last_active = now;
            }
            None => {
                self.bg_acct.io_energy_j += joules;
                self.bg_acct.last_active = now;
            }
        }
    }

    /// Labels `ctx`'s container with a request type (used by workload
    /// drivers so experiments can group per-type energy profiles).
    pub fn set_label(&mut self, ctx: ContextId, label: u32, now: SimTime) {
        let s = self.slot_for(ctx.0, now);
        self.meta[s as usize].label = Some(label);
    }

    /// Sets (or clears) a per-request power cap for `ctx`.
    pub fn set_power_cap(&mut self, ctx: ContextId, cap_w: Option<f64>, now: SimTime) {
        let s = self.slot_for(ctx.0, now);
        self.meta[s as usize].power_cap_w = cap_w;
    }

    /// Sets (or clears) a per-request cumulative-energy budget for `ctx`.
    pub fn set_energy_budget(&mut self, ctx: ContextId, budget_j: Option<f64>, now: SimTime) {
        let s = self.slot_for(ctx.0, now);
        self.meta[s as usize].energy_budget_j = budget_j;
    }

    #[inline]
    fn view(&self, s: usize) -> ContainerView<'_> {
        ContainerView {
            meta: &self.meta[s],
            acct: &self.acct[s],
            events: &self.events[s],
        }
    }

    /// The live container for `ctx`, if any.
    pub fn get(&self, ctx: ContextId) -> Option<ContainerView<'_>> {
        self.lookup(ctx.0).map(|s| self.view(s as usize))
    }

    /// The background container (activity with no request context).
    pub fn background(&self) -> ContainerView<'_> {
        ContainerView {
            meta: &self.bg_meta,
            acct: &self.bg_acct,
            events: &self.bg_events,
        }
    }

    /// Records of completed containers (empty unless retention is on).
    pub fn records(&self) -> &[ContainerRecord] {
        &self.records
    }

    /// Number of live containers.
    pub fn live_count(&self) -> usize {
        self.index.len()
    }

    /// Number of containers released so far.
    pub fn released_count(&self) -> u64 {
        self.released
    }

    /// Total modeled energy attributed to *requests* (live + completed,
    /// excluding background), Joules.
    pub fn total_request_energy_j(&self) -> f64 {
        self.total_request_energy_j
    }

    /// Total I/O energy attributed to requests, Joules.
    pub fn total_request_io_energy_j(&self) -> f64 {
        self.total_request_io_energy_j
    }

    /// Total modeled energy including the background container, Joules —
    /// the quantity the Fig. 8 validation compares against measured
    /// system energy.
    pub fn total_energy_with_background_j(&self) -> f64 {
        self.total_request_energy_j + self.bg_acct.energy_j
    }

    /// In-memory size of one live container's state in bytes: the sum of
    /// its three slot-parallel rows (the paper reports 784 bytes for its
    /// kernel structure).
    pub fn container_state_bytes() -> usize {
        std::mem::size_of::<ContainerMeta>()
            + std::mem::size_of::<ContainerAccounting>()
            + std::mem::size_of::<CounterBlock>()
    }

    /// Iterates over live containers in slot order. Slot order is a
    /// deterministic function of the bind/release history (freed slots
    /// recycle LIFO), so — unlike a randomized map order — results folded
    /// over this iterator are identical across runs.
    pub fn iter_live(&self) -> impl Iterator<Item = (ContextId, ContainerView<'_>)> {
        (0..self.meta.len()).filter_map(move |s| {
            if self.meta[s].in_use {
                Some((ContextId(self.meta[s].ctx), self.view(s)))
            } else {
                None
            }
        })
    }

    /// Rolls completed records up by label — the paper's client-level
    /// accounting ("fine-grained attribution of energy usage to clients
    /// and their individual requests"): each label plays the role of one
    /// client or request class.
    pub fn energy_by_label(&self) -> Vec<LabelEnergy> {
        let mut map: FxHashMap<u32, LabelEnergy> = FxHashMap::default();
        for r in &self.records {
            let Some(label) = r.label else { continue };
            let e = map.entry(label).or_insert(LabelEnergy {
                label,
                requests: 0,
                energy_j: 0.0,
                io_energy_j: 0.0,
                busy_seconds: 0.0,
            });
            e.requests += 1;
            e.energy_j += r.energy_j;
            e.io_energy_j += r.io_energy_j;
            e.busy_seconds += r.busy_seconds;
        }
        let mut out: Vec<LabelEnergy> = map.into_values().collect();
        out.sort_by_key(|e| e.label);
        out
    }
}

/// A point-in-time snapshot of one live container, as journaled into a
/// [`ManagerCheckpoint`] before a node crash.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerSnapshot {
    /// The request context the container tracks.
    pub ctx: ContextId,
    /// Workload-assigned label, if any.
    pub label: Option<u32>,
    /// Tasks bound at checkpoint time.
    pub refcount: u32,
    /// Container creation time.
    pub created_at: SimTime,
    /// Cumulative modeled CPU/memory energy at checkpoint time, Joules.
    pub energy_j: f64,
    /// Cumulative attributed I/O energy at checkpoint time, Joules.
    pub io_energy_j: f64,
    /// Portion of `energy_j` accrued while throttled, at checkpoint time.
    pub throttled_j: f64,
    /// Cumulative attributed CPU seconds at checkpoint time.
    pub busy_seconds: f64,
}

/// A deterministic checkpoint of a [`ContainerManager`]: everything a
/// crashing node journals so per-request attribution survives a restart
/// (§3.3's per-request state, made crash-durable). Restoring a
/// checkpoint recreates the cumulative totals, the retained records and
/// the live containers' accumulated energy; only attribution performed
/// *after* the checkpoint is lost in a crash, and that loss window is
/// exactly `attributed-at-crash − checkpoint.attributed_energy_j()`.
///
/// The manager's record log is append-only (records are only ever
/// pushed), so the records retained at checkpoint time are always a
/// prefix of the live log. The checkpoint therefore journals only a
/// watermark into that log (`records_len`), like a write-ahead log's
/// commit offset: taking a checkpoint costs O(live containers), and a
/// restore moves the dead incarnation's log into the new manager and
/// truncates it to the watermark instead of copying any record.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerCheckpoint {
    /// When the checkpoint was taken.
    pub taken_at: SimTime,
    /// Live containers at checkpoint time, sorted by context id so the
    /// journal is byte-stable.
    pub live: Vec<ContainerSnapshot>,
    /// Background container's modeled energy, Joules.
    pub background_energy_j: f64,
    /// Background container's I/O energy, Joules.
    pub background_io_energy_j: f64,
    /// Cumulative request CPU/memory energy total, Joules.
    pub total_request_energy_j: f64,
    /// Cumulative request I/O energy total, Joules.
    pub total_request_io_energy_j: f64,
    /// Containers released before the checkpoint.
    pub released: u64,
    /// Length of the retained record log at checkpoint time: the
    /// watermark up to which the log is journaled.
    pub records_len: usize,
}

impl ManagerCheckpoint {
    /// An empty checkpoint (a freshly booted node's journal entry).
    pub fn empty() -> ManagerCheckpoint {
        ManagerCheckpoint {
            taken_at: SimTime::ZERO,
            live: Vec::new(),
            background_energy_j: 0.0,
            background_io_energy_j: 0.0,
            total_request_energy_j: 0.0,
            total_request_io_energy_j: 0.0,
            released: 0,
            records_len: 0,
        }
    }

    /// Total attributed energy captured by the checkpoint (requests +
    /// background, CPU + I/O) — the same quantity the cluster's per-node
    /// conservation invariant compares against measured active energy.
    pub fn attributed_energy_j(&self) -> f64 {
        self.total_request_energy_j
            + self.total_request_io_energy_j
            + self.background_energy_j
            + self.background_io_energy_j
    }

    /// A canonical, byte-stable rendering of the checkpoint (one header
    /// line plus one line per live container). Two checkpoints of equal
    /// state render identically, so crash journals can be compared across
    /// runs.
    pub fn digest(&self) -> String {
        let mut out = format!(
            "ckpt at={} live={} released={} records={} req={:.9} io={:.9} bg={:.9} bgio={:.9}\n",
            self.taken_at.as_nanos(),
            self.live.len(),
            self.released,
            self.records_len,
            self.total_request_energy_j,
            self.total_request_io_energy_j,
            self.background_energy_j,
            self.background_io_energy_j,
        );
        for s in &self.live {
            out.push_str(&format!(
                "live ctx={} refs={} label={} e={:.9} io={:.9} busy={:.9}\n",
                s.ctx.0,
                s.refcount,
                s.label.map(i64::from).unwrap_or(-1),
                s.energy_j,
                s.io_energy_j,
                s.busy_seconds,
            ));
        }
        out
    }
}

impl ContainerManager {
    /// Journals the manager's full state into a [`ManagerCheckpoint`]
    /// (the crash-durable log entry a node writes periodically).
    pub fn checkpoint(&self, now: SimTime) -> ManagerCheckpoint {
        let mut live: Vec<ContainerSnapshot> = (0..self.meta.len())
            .filter(|&s| self.meta[s].in_use)
            .map(|s| ContainerSnapshot {
                ctx: ContextId(self.meta[s].ctx),
                label: self.meta[s].label,
                refcount: self.meta[s].refcount,
                created_at: self.meta[s].created_at,
                energy_j: self.acct[s].energy_j,
                io_energy_j: self.acct[s].io_energy_j,
                throttled_j: self.acct[s].throttled_j,
                busy_seconds: self.acct[s].busy_seconds,
            })
            .collect();
        live.sort_by_key(|s| s.ctx.0);
        ManagerCheckpoint {
            taken_at: now,
            live,
            background_energy_j: self.bg_acct.energy_j,
            background_io_energy_j: self.bg_acct.io_energy_j,
            total_request_energy_j: self.total_request_energy_j,
            total_request_io_energy_j: self.total_request_io_energy_j,
            released: self.released,
            records_len: self.records.len(),
        }
    }

    /// Moves the retained record log out of this manager, leaving it
    /// empty. A crashing node hands its dead incarnation's log to
    /// [`ContainerManager::restore`] on the rebuilt manager.
    pub fn take_records(&mut self) -> Vec<ContainerRecord> {
        std::mem::take(&mut self.records)
    }

    /// Restores checkpointed state into this (freshly created) manager
    /// after a crash/restart at `now`. `log` is the record log of the
    /// incarnation that wrote `cp` (see [`ContainerManager::take_records`]);
    /// it is truncated to the checkpoint's watermark and adopted, so
    /// records released after the checkpoint are lost with the crash.
    ///
    /// Cumulative totals, the background container's energy and the
    /// retained records come back exactly as journaled. Containers that
    /// were *live* at checkpoint time are force-released into records:
    /// the tasks bound to them died with the crashed kernel, so their
    /// accumulated energy is preserved but their refcounts drop to zero —
    /// every journaled container is either restored (as a record) or
    /// dropped, none is double-freed. Returns the number of live
    /// containers force-released.
    ///
    /// # Panics
    ///
    /// Panics if the manager has already attributed, bound or recorded
    /// anything — restore targets only a fresh post-restart manager — or
    /// if `log` is shorter than the checkpoint's watermark, i.e. it is
    /// not the log the checkpoint was taken from.
    pub fn restore(
        &mut self,
        cp: &ManagerCheckpoint,
        mut log: Vec<ContainerRecord>,
        now: SimTime,
    ) -> u64 {
        assert!(
            self.index.is_empty()
                && self.released == 0
                && self.total_request_energy_j == 0.0
                && self.records.is_empty(),
            "restore targets a freshly created manager"
        );
        assert!(
            log.len() >= cp.records_len,
            "restore needs the checkpointed record log: got {} records, watermark is {}",
            log.len(),
            cp.records_len
        );
        self.total_request_energy_j = cp.total_request_energy_j;
        self.total_request_io_energy_j = cp.total_request_io_energy_j;
        self.bg_acct.energy_j = cp.background_energy_j;
        self.bg_acct.io_energy_j = cp.background_io_energy_j;
        if self.retain_records {
            log.truncate(cp.records_len);
            self.records = log;
        }
        for s in &cp.live {
            self.released += 1;
            if self.retain_records {
                self.records.push(ContainerRecord {
                    ctx: s.ctx,
                    label: s.label,
                    created_at: s.created_at,
                    finished_at: now,
                    energy_j: s.energy_j,
                    io_energy_j: s.io_energy_j,
                    throttled_j: s.throttled_j,
                    busy_seconds: s.busy_seconds,
                    mean_power_w: if s.busy_seconds > 0.0 {
                        s.energy_j / s.busy_seconds
                    } else {
                        0.0
                    },
                    unthrottled_power_w: 0.0,
                    mean_duty: 1.0,
                });
            }
        }
        self.released += cp.released;
        cp.live.len() as u64
    }
}

/// Aggregated energy accounting for one request class / client (label).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelEnergy {
    /// The label rolled up.
    pub label: u32,
    /// Completed requests carrying this label.
    pub requests: usize,
    /// Total modeled CPU/memory energy, Joules.
    pub energy_j: f64,
    /// Total attributed I/O energy, Joules.
    pub io_energy_j: f64,
    /// Total attributed CPU seconds.
    pub busy_seconds: f64,
}

impl LabelEnergy {
    /// Mean total energy per request, Joules.
    pub fn mean_energy_j(&self) -> f64 {
        (self.energy_j + self.io_energy_j) / self.requests.max(1) as f64
    }
}

/// Convenience: builds the metric vector of a container's lifetime-average
/// activity (used in tests and diagnostics).
pub fn lifetime_metrics(c: ContainerView<'_>) -> MetricVector {
    MetricVector::from_counters(c.events())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(dt_cycles: f64) -> CounterBlock {
        CounterBlock {
            elapsed_cycles: dt_cycles,
            nonhalt_cycles: dt_cycles,
            instructions: dt_cycles * 2.0,
            ..CounterBlock::default()
        }
    }

    #[test]
    fn bind_unbind_releases_at_zero() {
        let mut m = ContainerManager::new(true);
        let ctx = ContextId(1);
        m.bind(ctx, SimTime::ZERO);
        m.bind(ctx, SimTime::ZERO);
        m.unbind(ctx, SimTime::from_millis(1));
        assert_eq!(m.live_count(), 1, "still one binding");
        m.unbind(ctx, SimTime::from_millis(2));
        assert_eq!(m.live_count(), 0);
        assert_eq!(m.released_count(), 1);
        assert_eq!(m.records().len(), 1);
        assert_eq!(m.records()[0].finished_at, SimTime::from_millis(2));
    }

    #[test]
    fn attribution_accumulates_energy_and_time() {
        let mut m = ContainerManager::new(false);
        let ctx = ContextId(7);
        m.bind(ctx, SimTime::ZERO);
        m.attribute(Some(ctx), 10.0, 1.0, 0.001, &events(1000.0), SimTime::from_millis(1));
        m.attribute(Some(ctx), 20.0, 1.0, 0.001, &events(1000.0), SimTime::from_millis(2));
        let c = m.get(ctx).unwrap();
        assert!((c.energy_j() - 0.030).abs() < 1e-12);
        assert!((c.busy_seconds() - 0.002).abs() < 1e-15);
        assert!((c.mean_power_w() - 15.0).abs() < 1e-9);
        assert_eq!(c.events().instructions, 4000.0);
    }

    #[test]
    fn background_catches_untagged_activity() {
        let mut m = ContainerManager::new(false);
        m.attribute(None, 5.0, 1.0, 0.002, &events(100.0), SimTime::from_millis(1));
        assert!((m.background().energy_j() - 0.010).abs() < 1e-12);
        assert_eq!(m.total_request_energy_j(), 0.0);
        assert!((m.total_energy_with_background_j() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn unthrottled_power_divides_by_duty() {
        let mut m = ContainerManager::new(false);
        let ctx = ContextId(3);
        m.bind(ctx, SimTime::ZERO);
        for _ in 0..20 {
            m.attribute(Some(ctx), 5.0, 0.5, 0.001, &events(500.0), SimTime::from_millis(1));
        }
        let c = m.get(ctx).unwrap();
        assert!((c.unthrottled_power_w() - 10.0).abs() < 0.1);
        assert!((c.mean_duty() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn throttled_segment_tracks_duty_limited_energy() {
        let mut m = ContainerManager::new(true);
        let ctx = ContextId(6);
        m.bind(ctx, SimTime::ZERO);
        // 1 J at full duty, then 0.5 J while duty-limited.
        m.attribute(Some(ctx), 10.0, 1.0, 0.1, &events(1.0), SimTime::ZERO);
        m.attribute(Some(ctx), 5.0, 0.5, 0.1, &events(1.0), SimTime::ZERO);
        let c = m.get(ctx).unwrap();
        assert!((c.energy_j() - 1.5).abs() < 1e-12);
        assert!((c.throttled_j() - 0.5).abs() < 1e-12);
        // The segment survives checkpoint/restore and release-to-record.
        let cp = m.checkpoint(SimTime::from_millis(1));
        assert!((cp.live[0].throttled_j - 0.5).abs() < 1e-12);
        let mut fresh = ContainerManager::new(true);
        fresh.restore(&cp, Vec::new(), SimTime::from_millis(2));
        assert!((fresh.records()[0].throttled_j - 0.5).abs() < 1e-12);
        m.unbind(ctx, SimTime::from_millis(1));
        assert!((m.records()[0].throttled_j - 0.5).abs() < 1e-12);
    }

    #[test]
    fn record_retention_is_optional() {
        let mut m = ContainerManager::new(false);
        let ctx = ContextId(9);
        m.bind(ctx, SimTime::ZERO);
        m.unbind(ctx, SimTime::from_millis(1));
        assert!(m.records().is_empty());
        assert_eq!(m.released_count(), 1);
    }

    #[test]
    fn energy_budget_trips_when_consumed() {
        let mut m = ContainerManager::new(false);
        let ctx = ContextId(5);
        m.bind(ctx, SimTime::ZERO);
        m.set_energy_budget(ctx, Some(1.0), SimTime::ZERO);
        assert!(!m.get(ctx).unwrap().over_energy_budget());
        m.attribute(Some(ctx), 10.0, 1.0, 0.05, &CounterBlock::default(), SimTime::ZERO);
        assert!(!m.get(ctx).unwrap().over_energy_budget(), "0.5 J of 1 J used");
        m.attribute_io(Some(ctx), 0.6, SimTime::ZERO);
        assert!(m.get(ctx).unwrap().over_energy_budget(), "1.1 J of 1 J used");
    }

    #[test]
    fn labels_and_caps_survive_into_records() {
        let mut m = ContainerManager::new(true);
        let ctx = ContextId(4);
        m.bind(ctx, SimTime::ZERO);
        m.set_label(ctx, 42, SimTime::ZERO);
        m.set_power_cap(ctx, Some(10.0), SimTime::ZERO);
        assert_eq!(m.get(ctx).unwrap().power_cap_w(), Some(10.0));
        m.unbind(ctx, SimTime::from_millis(1));
        assert_eq!(m.records()[0].label, Some(42));
    }

    #[test]
    fn unbind_unknown_context_is_noop() {
        let mut m = ContainerManager::new(true);
        m.unbind(ContextId(999), SimTime::ZERO);
        assert_eq!(m.released_count(), 0);
    }

    #[test]
    fn energy_totals_track_requests_separately() {
        let mut m = ContainerManager::new(false);
        let ctx = ContextId(1);
        m.bind(ctx, SimTime::ZERO);
        m.attribute(Some(ctx), 10.0, 1.0, 0.1, &events(1.0), SimTime::ZERO);
        m.attribute(None, 10.0, 1.0, 0.1, &events(1.0), SimTime::ZERO);
        m.attribute_io(Some(ctx), 0.5, SimTime::ZERO);
        assert!((m.total_request_energy_j() - 1.0).abs() < 1e-12);
        assert!((m.total_request_io_energy_j() - 0.5).abs() < 1e-12);
        assert!((m.total_energy_with_background_j() - 2.0).abs() < 1e-12);
        // Totals survive container release.
        m.unbind(ctx, SimTime::ZERO);
        assert!((m.total_request_energy_j() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn container_state_is_compact() {
        // The paper's structure is 784 bytes; ours should be of the same
        // order (well under 1 KiB across the three slot-parallel rows).
        assert!(ContainerManager::container_state_bytes() < 1024);
    }

    #[test]
    fn slots_are_recycled_lifo_and_iteration_is_slot_ordered() {
        let mut m = ContainerManager::new(false);
        for id in [10u64, 20, 30] {
            m.bind(ContextId(id), SimTime::ZERO);
        }
        // Release the middle container; its slot (1) must be reused by
        // the next container created, so iteration yields 10, 40, 30.
        m.unbind(ContextId(20), SimTime::from_millis(1));
        m.bind(ContextId(40), SimTime::from_millis(2));
        let order: Vec<u64> = m.iter_live().map(|(ctx, _)| ctx.0).collect();
        assert_eq!(order, vec![10, 40, 30]);
        assert_eq!(m.live_count(), 3);
        // A recycled slot starts from zeroed accounting.
        let c = m.get(ContextId(40)).unwrap();
        assert_eq!(c.energy_j(), 0.0);
        assert_eq!(c.refcount(), 1);
        assert_eq!(c.label(), None);
    }

    #[test]
    fn lookup_cache_survives_release_of_other_context() {
        let mut m = ContainerManager::new(false);
        let (a, b) = (ContextId(1), ContextId(2));
        m.bind(a, SimTime::ZERO);
        m.bind(b, SimTime::ZERO);
        m.attribute(Some(a), 10.0, 1.0, 0.1, &events(1.0), SimTime::ZERO);
        // Releasing `b` must not corrupt a cached lookup of `a`, and
        // releasing `a` itself must invalidate the cache.
        m.unbind(b, SimTime::ZERO);
        assert!((m.get(a).unwrap().energy_j() - 1.0).abs() < 1e-12);
        m.unbind(a, SimTime::ZERO);
        assert!(m.get(a).is_none());
        // Re-binding the same ctx lands in a fresh (recycled) slot.
        m.bind(a, SimTime::from_millis(5));
        assert_eq!(m.get(a).unwrap().energy_j(), 0.0);
    }

    #[test]
    fn energy_by_label_rolls_up_records() {
        let mut m = ContainerManager::new(true);
        for (id, label, watts) in [(1u64, 7u32, 10.0), (2, 7, 20.0), (3, 9, 5.0)] {
            let ctx = ContextId(id);
            m.bind(ctx, SimTime::ZERO);
            m.set_label(ctx, label, SimTime::ZERO);
            m.attribute(Some(ctx), watts, 1.0, 0.1, &CounterBlock::default(), SimTime::ZERO);
            m.unbind(ctx, SimTime::from_millis(1));
        }
        let rollup = m.energy_by_label();
        assert_eq!(rollup.len(), 2);
        let seven = rollup.iter().find(|e| e.label == 7).unwrap();
        assert_eq!(seven.requests, 2);
        assert!((seven.energy_j - 3.0).abs() < 1e-12);
        assert!((seven.mean_energy_j() - 1.5).abs() < 1e-12);
        let nine = rollup.iter().find(|e| e.label == 9).unwrap();
        assert_eq!(nine.requests, 1);
        assert!((nine.busy_seconds - 0.1).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_restore_round_trips_totals_and_records() {
        let mut m = ContainerManager::new(true);
        let done = ContextId(1);
        m.bind(done, SimTime::ZERO);
        m.attribute(Some(done), 10.0, 1.0, 0.1, &events(10.0), SimTime::from_millis(1));
        m.unbind(done, SimTime::from_millis(2));
        let live = ContextId(2);
        m.bind(live, SimTime::from_millis(3));
        m.set_label(live, 7, SimTime::from_millis(3));
        m.attribute(Some(live), 20.0, 1.0, 0.1, &events(10.0), SimTime::from_millis(4));
        m.attribute(None, 5.0, 1.0, 0.1, &events(1.0), SimTime::from_millis(4));
        m.attribute_io(Some(live), 0.25, SimTime::from_millis(4));

        let cp = m.checkpoint(SimTime::from_millis(5));
        assert_eq!(cp.live.len(), 1);
        assert_eq!(cp.released, 1);
        assert_eq!(cp.records_len, 1);
        let attributed = m.total_energy_with_background_j()
            + m.total_request_io_energy_j()
            + m.background().io_energy_j();
        assert!((cp.attributed_energy_j() - attributed).abs() < 1e-12);

        // A record released after the checkpoint is lost with the crash.
        m.unbind(live, SimTime::from_millis(6));
        assert_eq!(m.records().len(), 2);
        let mut fresh = ContainerManager::new(true);
        let force_released = fresh.restore(&cp, m.take_records(), SimTime::from_millis(9));
        assert!(m.records().is_empty(), "the log was moved, not copied");
        assert_eq!(force_released, 1);
        // Totals are exactly the journaled ones; the live container came
        // back as a record (its bound task died with the crash), so
        // nothing is live and nothing was double-freed.
        assert_eq!(fresh.live_count(), 0);
        assert_eq!(fresh.released_count(), 2);
        assert_eq!(fresh.records().len(), 2);
        assert!((fresh.total_request_energy_j() - m.total_request_energy_j()).abs() < 1e-12);
        assert!((fresh.total_request_io_energy_j() - 0.25).abs() < 1e-12);
        assert!((fresh.background().energy_j() - 0.5).abs() < 1e-12);
        let restored = fresh.records().iter().find(|r| r.ctx == live).unwrap();
        assert_eq!(restored.label, Some(7));
        assert!((restored.energy_j - 2.0).abs() < 1e-12);
        assert_eq!(restored.finished_at, SimTime::from_millis(9));
    }

    #[test]
    fn checkpoint_digest_is_stable_and_ordered() {
        let mut m = ContainerManager::new(false);
        // Insert in reverse id order; the digest must sort by ctx.
        for id in [9u64, 3, 5] {
            m.bind(ContextId(id), SimTime::ZERO);
            m.attribute(
                Some(ContextId(id)),
                id as f64,
                1.0,
                0.01,
                &events(1.0),
                SimTime::ZERO,
            );
        }
        let a = m.checkpoint(SimTime::from_millis(1));
        let b = m.checkpoint(SimTime::from_millis(1));
        assert_eq!(a.digest(), b.digest());
        let digest = a.digest();
        let lines: Vec<&str> = digest.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("ctx=3") && lines[3].contains("ctx=9"));
    }

    #[test]
    fn empty_checkpoint_restores_to_nothing() {
        let mut fresh = ContainerManager::new(true);
        assert_eq!(fresh.restore(&ManagerCheckpoint::empty(), Vec::new(), SimTime::ZERO), 0);
        assert_eq!(fresh.live_count(), 0);
        assert_eq!(fresh.released_count(), 0);
        assert_eq!(fresh.total_energy_with_background_j(), 0.0);
    }

    #[test]
    #[should_panic(expected = "restore needs the checkpointed record log")]
    fn restore_rejects_a_log_shorter_than_the_watermark() {
        let mut m = ContainerManager::new(true);
        for id in [1u64, 2] {
            m.bind(ContextId(id), SimTime::ZERO);
            m.unbind(ContextId(id), SimTime::from_millis(1));
        }
        let cp = m.checkpoint(SimTime::from_millis(2));
        assert_eq!(cp.records_len, 2);
        let mut short = m.take_records();
        short.pop();
        ContainerManager::new(true).restore(&cp, short, SimTime::from_millis(3));
    }

    #[test]
    fn lifetime_metrics_reflect_events() {
        let mut m = ContainerManager::new(false);
        let ctx = ContextId(2);
        m.bind(ctx, SimTime::ZERO);
        m.attribute(Some(ctx), 1.0, 1.0, 0.001, &events(1000.0), SimTime::ZERO);
        let metrics = lifetime_metrics(m.get(ctx).unwrap());
        assert!((metrics.ins - 2.0).abs() < 1e-12);
    }
}
