//! Time-sliced history rings for model estimates and metrics.
//!
//! Measurement alignment (§3.2) compares a *series* of model estimates
//! against delayed meter readings, and recalibration needs the metric
//! vector that was live during each (re-aligned) measurement window. Both
//! need a bounded history of time-integrated values on a fixed grid;
//! [`TraceRing`] provides it.
//!
//! Interval queries are the alignment scan's inner loop, so the ring keeps
//! a lazily-maintained prefix-sum cursor over its slots: an interval
//! integral is two partial edge slots plus one prefix-sum difference,
//! `O(1)` amortized, instead of a walk over every covered slot.

use simkern::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::{AddAssign, Mul};

/// A bounded ring of per-slot time integrals on a fixed time grid.
///
/// `add(t, value, dt)` accumulates `value · dt` into the slot containing
/// `t`; queries return integrals (and covered seconds) over arbitrary
/// intervals, approximating partial slots by linear fraction.
///
/// # Example
///
/// ```
/// use power_containers::TraceRing;
/// use simkern::{SimDuration, SimTime};
///
/// let mut ring: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 100);
/// ring.add(SimTime::from_micros(500), 40.0, SimDuration::from_millis(1));
/// let (integral, secs) = ring.integral_between(SimTime::ZERO, SimTime::from_millis(1));
/// assert!((integral / secs - 40.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct TraceRing<T> {
    slot: SimDuration,
    capacity: usize,
    /// Index of the first retained slot.
    base: u64,
    values: VecDeque<(T, f64)>,
    /// Prefix-sum cursor, rebuilt lazily after out-of-order writes.
    cursor: RefCell<Cursor<T>>,
}

/// Cached cumulative sums over the retained slots.
///
/// `cum[i]` is `anchor + Σ values[0..=i]`; only entries `0..cum.len()` are
/// valid (writes truncate the suffix they dirty). `anchor` carries the
/// total of evicted slots so entries never need rewriting on eviction:
/// window sums are differences of `cum` entries, which cancel it.
#[derive(Debug, Clone)]
struct Cursor<T> {
    cum: VecDeque<(T, f64)>,
    anchor: (T, f64),
}

impl<T: Default + Copy + AddAssign + Mul<f64, Output = T>> TraceRing<T> {
    /// Creates a ring of `capacity` slots of length `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is zero or `capacity` is zero.
    pub fn new(slot: SimDuration, capacity: usize) -> TraceRing<T> {
        assert!(!slot.is_zero(), "slot length must be positive");
        assert!(capacity > 0, "capacity must be positive");
        TraceRing {
            slot,
            capacity,
            base: 0,
            values: VecDeque::new(),
            cursor: RefCell::new(Cursor { cum: VecDeque::new(), anchor: (T::default(), 0.0) }),
        }
    }

    /// The slot length.
    pub fn slot(&self) -> SimDuration {
        self.slot
    }

    fn slot_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.slot.as_nanos()
    }

    /// Accumulates `value · dt` into the slot containing `t` (typically
    /// the *end* of the sampled interval; sampling periods are much
    /// shorter than slots, so the approximation is tight).
    pub fn add(&mut self, t: SimTime, value: T, dt: SimDuration) {
        let idx = self.slot_of(t.saturating_sub_for_slot(self.slot));
        let cursor = self.cursor.get_mut();
        // Grow forward to include idx.
        if self.values.is_empty() {
            self.base = idx;
            self.values.push_back((T::default(), 0.0));
        }
        while self.base + (self.values.len() as u64) <= idx {
            // Evict before pushing so a full ring never holds
            // `capacity + 1` slots (which would double the deque).
            if self.values.len() == self.capacity {
                self.values.pop_front();
                self.base += 1;
                // Roll the evicted slot's total into the anchor so the
                // remaining prefix sums stay valid untouched.
                if let Some(front) = cursor.cum.pop_front() {
                    cursor.anchor = front;
                }
            }
            self.values.push_back((T::default(), 0.0));
        }
        if idx < self.base {
            return; // too old; history already evicted
        }
        let off = (idx - self.base) as usize;
        let secs = dt.as_secs_f64();
        let entry = &mut self.values[off];
        entry.0 += value * secs;
        entry.1 += secs;
        // The common case is a write to the newest slot; folding it into
        // the cursor keeps queries O(1) without ever rebuilding.
        if off + 1 == cursor.cum.len() {
            let back = cursor.cum.back_mut().expect("non-empty cum");
            back.0 += value * secs;
            back.1 += secs;
        } else {
            cursor.cum.truncate(off.min(cursor.cum.len()));
        }
    }

    /// Extends the cursor so slots `0..upto` have valid prefix sums.
    fn ensure_cum(&self, upto: usize) {
        let mut cursor = self.cursor.borrow_mut();
        if cursor.cum.len() >= upto {
            return;
        }
        if cursor.cum.is_empty() {
            cursor.anchor = (T::default(), 0.0);
        }
        let mut total = *cursor.cum.back().unwrap_or(&cursor.anchor);
        for i in cursor.cum.len()..upto {
            let (v, s) = self.values[i];
            total.0 += v;
            total.1 += s;
            cursor.cum.push_back(total);
        }
    }

    /// `cum[hi] − cum[lo]`: the exact sum of slots `lo+1..=hi`.
    fn cum_diff(&self, lo: usize, hi: usize) -> (T, f64) {
        let cursor = self.cursor.borrow();
        let (hv, hs) = cursor.cum[hi];
        let (lv, ls) = cursor.cum[lo];
        let mut v = hv;
        v += lv * -1.0;
        (v, hs - ls)
    }

    /// The integral and covered seconds over `[t0, t1)`, weighting partial
    /// slots by overlap fraction. Returns zeros when the interval predates
    /// retained history.
    pub fn integral_between(&self, t0: SimTime, t1: SimTime) -> (T, f64) {
        let mut total = T::default();
        let mut secs = 0.0;
        if t1 <= t0 || self.values.is_empty() {
            return (total, secs);
        }
        let slot_ns = self.slot.as_nanos();
        // Clamp to retained slots up front: queries anchored at old times
        // must not walk (or build sums for) evicted history.
        let first = self.slot_of(t0).max(self.base);
        let last = self
            .slot_of(t1 - SimDuration::from_nanos(1))
            .min(self.base + self.values.len() as u64 - 1);
        if first > last {
            return (total, secs);
        }
        let frac_of = |idx: u64| {
            let slot_start = idx * slot_ns;
            let slot_end = slot_start + slot_ns;
            let lo = slot_start.max(t0.as_nanos());
            let hi = slot_end.min(t1.as_nanos());
            (hi.saturating_sub(lo)) as f64 / slot_ns as f64
        };
        let off_first = (first - self.base) as usize;
        let off_last = (last - self.base) as usize;
        if off_first == off_last {
            let (v, s) = self.values[off_first];
            let frac = frac_of(first);
            total += v * frac;
            secs += s * frac;
            return (total, secs);
        }
        // First and last slots may be partial; everything between them is
        // covered in full and comes from the prefix-sum cursor.
        let (v, s) = self.values[off_first];
        let frac = frac_of(first);
        total += v * frac;
        secs += s * frac;
        if off_last - off_first >= 2 {
            self.ensure_cum(off_last);
            let (mv, ms) = self.cum_diff(off_first, off_last - 1);
            total += mv;
            secs += ms;
        }
        let (v, s) = self.values[off_last];
        let frac = frac_of(last);
        total += v * frac;
        secs += s * frac;
        (total, secs)
    }

    /// Average value over `[t0, t1)`, or `None` when (almost) no time was
    /// recorded there.
    pub fn average_between(&self, t0: SimTime, t1: SimTime) -> Option<T> {
        let (integral, secs) = self.integral_between(t0, t1);
        (secs > 1e-9).then(|| integral * (1.0 / secs))
    }

    /// The integral over `[t0, t1)` divided by the *wall-clock* length of
    /// the interval, treating unrecorded slots as zero. This is the right
    /// normalization for machine-level quantities built from per-core
    /// contributions (each core adds its own `value·dt`; idle cores add
    /// nothing). Returns `None` when the interval lies entirely outside
    /// retained history.
    pub fn mean_over_wall(&self, t0: SimTime, t1: SimTime) -> Option<T> {
        if t1 <= t0 || self.values.is_empty() {
            return None;
        }
        let last_retained = self.base + self.values.len() as u64;
        let first = self.slot_of(t0);
        if first + 1 < self.base + 1 || first >= last_retained {
            // Either evicted history or entirely in the future.
            if self.slot_of(t1 - SimDuration::from_nanos(1)) < self.base {
                return None;
            }
        }
        let (integral, _) = self.integral_between(t0, t1);
        let wall = t1.duration_since(t0).as_secs_f64();
        Some(integral * (1.0 / wall))
    }

    /// The most recent `n` completed slot averages ending at the slot
    /// containing `now` (exclusive), most recent first. Slots with no
    /// recorded time yield `T::default()`.
    pub fn recent_series(&self, now: SimTime, n: usize) -> Vec<T> {
        let current = self.slot_of(now);
        let mut out = Vec::with_capacity(n);
        for k in 1..=n as u64 {
            if current < k {
                break;
            }
            let idx = current - k;
            let v = if idx >= self.base {
                self.values
                    .get((idx - self.base) as usize)
                    .map(|&(v, s)| if s > 1e-12 { v * (1.0 / s) } else { T::default() })
                    .unwrap_or_default()
            } else {
                T::default()
            };
            out.push(v);
        }
        out
    }
}

/// Helper so `add(t, ...)` attributes to the slot the interval *ended* in
/// rather than spilling into the next slot when `t` lands exactly on a
/// boundary.
trait SlotAnchor {
    fn saturating_sub_for_slot(self, slot: SimDuration) -> Self;
}

impl SlotAnchor for SimTime {
    fn saturating_sub_for_slot(self, slot: SimDuration) -> SimTime {
        let _ = slot;
        if self.as_nanos() == 0 {
            self
        } else {
            self - SimDuration::from_nanos(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> TraceRing<f64> {
        TraceRing::new(SimDuration::from_millis(1), 16)
    }

    #[test]
    fn single_slot_average() {
        let mut r = ring();
        r.add(SimTime::from_micros(300), 10.0, SimDuration::from_micros(300));
        r.add(SimTime::from_micros(900), 30.0, SimDuration::from_micros(600));
        let avg = r.average_between(SimTime::ZERO, SimTime::from_millis(1)).unwrap();
        // (10*0.3 + 30*0.6) / 0.9
        assert!((avg - 23.333333).abs() < 1e-3, "avg {avg}");
    }

    #[test]
    fn boundary_sample_lands_in_ending_slot() {
        let mut r = ring();
        r.add(SimTime::from_millis(1), 42.0, SimDuration::from_millis(1));
        let avg = r.average_between(SimTime::ZERO, SimTime::from_millis(1)).unwrap();
        assert!((avg - 42.0).abs() < 1e-9);
        assert!(r.average_between(SimTime::from_millis(1), SimTime::from_millis(2)).is_none());
    }

    #[test]
    fn multi_slot_query_sums_partials() {
        let mut r = ring();
        r.add(SimTime::from_micros(500), 10.0, SimDuration::from_millis(1));
        r.add(SimTime::from_micros(1500), 20.0, SimDuration::from_millis(1));
        // Query covering second half of slot 0 and first half of slot 1.
        let (integral, secs) =
            r.integral_between(SimTime::from_micros(500), SimTime::from_micros(1500));
        assert!((secs - 1e-3).abs() < 1e-9);
        assert!((integral - (10.0e-3 * 0.5 + 20.0e-3 * 0.5)).abs() < 1e-9);
    }

    #[test]
    fn eviction_forgets_old_slots() {
        let mut r = ring();
        r.add(SimTime::from_micros(100), 5.0, SimDuration::from_micros(100));
        for ms in 1..40u64 {
            r.add(
                SimTime::from_millis(ms) + SimDuration::from_micros(100),
                1.0,
                SimDuration::from_micros(100),
            );
        }
        let (_, secs) = r.integral_between(SimTime::ZERO, SimTime::from_millis(1));
        assert_eq!(secs, 0.0, "slot 0 must be evicted");
    }

    #[test]
    fn recent_series_is_most_recent_first() {
        let mut r = ring();
        for ms in 0..5u64 {
            r.add(
                SimTime::from_millis(ms) + SimDuration::from_micros(500),
                ms as f64,
                SimDuration::from_millis(1),
            );
        }
        let series = r.recent_series(SimTime::from_millis(5), 3);
        assert_eq!(series, vec![4.0, 3.0, 2.0]);
    }

    #[test]
    fn empty_interval_yields_none() {
        let r = ring();
        assert!(r.average_between(SimTime::ZERO, SimTime::from_millis(1)).is_none());
        let mut r2 = ring();
        r2.add(SimTime::from_micros(1), 1.0, SimDuration::from_micros(1));
        assert!(r2
            .average_between(SimTime::from_millis(5), SimTime::from_millis(6))
            .is_none());
    }

    #[test]
    fn works_with_metric_vectors() {
        use crate::metrics::MetricVector;
        let mut r: TraceRing<MetricVector> = TraceRing::new(SimDuration::from_millis(1), 8);
        let m = MetricVector { core: 1.0, ins: 2.0, ..MetricVector::default() };
        r.add(SimTime::from_micros(400), m, SimDuration::from_micros(400));
        let avg = r.average_between(SimTime::ZERO, SimTime::from_millis(1)).unwrap();
        assert!((avg.core - 1.0).abs() < 1e-9);
        assert!((avg.ins - 2.0).abs() < 1e-9);
    }

    /// Walk-based reference for [`TraceRing::integral_between`], the
    /// pre-cursor implementation.
    fn integral_walk(r: &TraceRing<f64>, t0: SimTime, t1: SimTime) -> (f64, f64) {
        let mut total = 0.0;
        let mut secs = 0.0;
        if t1 <= t0 || r.values.is_empty() {
            return (total, secs);
        }
        let slot_ns = r.slot.as_nanos();
        let first = r.slot_of(t0);
        let last = r.slot_of(t1 - SimDuration::from_nanos(1));
        for idx in first..=last {
            if idx < r.base {
                continue;
            }
            let off = (idx - r.base) as usize;
            let Some(&(v, s)) = r.values.get(off) else { continue };
            let slot_start = idx * slot_ns;
            let slot_end = slot_start + slot_ns;
            let lo = slot_start.max(t0.as_nanos());
            let hi = slot_end.min(t1.as_nanos());
            let frac = (hi.saturating_sub(lo)) as f64 / slot_ns as f64;
            total += v * frac;
            secs += s * frac;
        }
        (total, secs)
    }

    #[test]
    fn cursor_matches_walk_under_mixed_traffic() {
        // Deterministic mix of in-order writes, occasional out-of-order
        // writes (dirtying the cursor), evictions, and interleaved
        // queries of every shape.
        let mut r: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 16);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..400u64 {
            let t = SimTime::from_micros(step * 400 + rng() % 300);
            r.add(t, (rng() % 100) as f64, SimDuration::from_micros(100 + rng() % 400));
            if step % 7 == 0 && step > 20 {
                // Out-of-order write a few slots back.
                let back = SimTime::from_micros((step - 10) * 400);
                r.add(back, 3.0, SimDuration::from_micros(50));
            }
            if step % 3 == 0 {
                let a = rng() % (step * 400 + 1);
                let b = a + rng() % 5_000;
                let (t0, t1) = (SimTime::from_micros(a), SimTime::from_micros(b));
                let (fast_v, fast_s) = r.integral_between(t0, t1);
                let (ref_v, ref_s) = integral_walk(&r, t0, t1);
                assert!(
                    (fast_v - ref_v).abs() < 1e-9 && (fast_s - ref_s).abs() < 1e-12,
                    "step {step}: cursor ({fast_v}, {fast_s}) vs walk ({ref_v}, {ref_s})"
                );
            }
        }
    }

    #[test]
    fn full_ring_stays_within_its_capacity_and_answers_like_full_history() {
        for capacity in [1usize, 5, 16, 64] {
            let mut r: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), capacity);
            // Every slot ever written, never evicted: the reference.
            let mut history = vec![(0.0f64, 0.0f64); 3 * capacity + 1];
            let mut state = 0x2545_F491_4F6C_DD1Du64 ^ capacity as u64;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for slot in 0..3 * capacity as u64 {
                let t = SimTime::from_micros(slot * 1000 + 1 + rng() % 999);
                let (v, dt) = ((rng() % 100) as f64, SimDuration::from_micros(50 + rng() % 900));
                r.add(t, v, dt);
                history[slot as usize].0 += v * dt.as_secs_f64();
                history[slot as usize].1 += dt.as_secs_f64();
                let newest = slot;
                let oldest = (newest + 1).saturating_sub(capacity as u64);
                for _ in 0..3 {
                    let a = rng() % ((slot + 2) * 1000);
                    let b = a + 1 + rng() % (2_000 * capacity as u64);
                    let (t0, t1) = (SimTime::from_micros(a), SimTime::from_micros(b));
                    let (mut v_ref, mut s_ref) = (0.0, 0.0);
                    for idx in oldest..=newest {
                        let lo = (idx * 1000).max(a);
                        let hi = ((idx + 1) * 1000).min(b);
                        let frac = hi.saturating_sub(lo) as f64 / 1000.0;
                        v_ref += history[idx as usize].0 * frac;
                        s_ref += history[idx as usize].1 * frac;
                    }
                    let (v, s) = r.integral_between(t0, t1);
                    assert!(
                        (v - v_ref).abs() < 1e-9 && (s - s_ref).abs() < 1e-12,
                        "capacity {capacity}, slot {slot}, [{a}, {b}) us: \
                         ({v}, {s}) vs full history ({v_ref}, {s_ref})"
                    );
                }
                let series = r.recent_series(SimTime::from_millis(slot + 1), capacity);
                for (k, got) in series.iter().enumerate() {
                    let (v, s) = history[(slot - k as u64) as usize];
                    assert!((got - v / s).abs() < 1e-9, "capacity {capacity}, slot {slot}");
                }
            }
            // std never allocates a non-empty deque below 4 slots.
            let bound = capacity.next_power_of_two().max(4);
            assert_eq!(r.values.len(), capacity);
            assert!(r.values.capacity() <= bound, "values grew to {}", r.values.capacity());
            let cum = r.cursor.borrow().cum.capacity();
            assert!(cum <= bound, "cursor grew to {cum}");
        }
    }

    #[test]
    fn query_before_history_is_cheap_and_zero() {
        // A ring whose base has advanced far: a query anchored at t=0 must
        // clamp to retained history rather than walking every slot since
        // the origin (and must still report nothing).
        let mut r = ring();
        let far = 1_000_000u64;
        r.add(SimTime::from_millis(far), 7.0, SimDuration::from_millis(1));
        let (v, s) = r.integral_between(SimTime::ZERO, SimTime::from_millis(1));
        assert_eq!(v, 0.0);
        assert_eq!(s, 0.0);
        let (v, s) = r.integral_between(SimTime::ZERO, SimTime::from_millis(far + 1));
        assert!((v - 7.0e-3).abs() < 1e-12);
        assert!((s - 1e-3).abs() < 1e-12);
    }
}
