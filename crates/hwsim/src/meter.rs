//! Power meters with windowed integration and delivery delay.
//!
//! The paper uses two measurement instruments: the SandyBridge on-chip
//! energy meter (1 ms energy accumulation, read with ≈1 ms effective lag)
//! and a Wattsup wall-power meter (1 s reports delivered ≈1.2 s late over
//! USB). Both are *integrating* meters: each report is the average power
//! over a window, and the report only becomes visible to software some
//! delay after the window closes. The alignment machinery of §3.2 exists
//! precisely because of that delay.

use simkern::{SimDuration, SimTime};
use std::collections::VecDeque;

/// What a meter measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeterScope {
    /// Processor package(s) only: package idle + core/uncore active power.
    Package,
    /// The whole machine: platform idle + packages + peripheral devices.
    Machine,
}

/// Identifies one meter on a machine (index into the machine's meter list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MeterId(pub usize);

/// Static description of a power meter.
#[derive(Debug, Clone, PartialEq)]
pub struct MeterSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// What the meter measures.
    pub scope: MeterScope,
    /// Length of each integration window.
    pub period: SimDuration,
    /// Delay between a window closing and its report becoming visible.
    pub delay: SimDuration,
    /// Multiplicative Gaussian measurement noise (standard deviation as a
    /// fraction of the reading).
    pub noise_frac: f64,
}

impl MeterSpec {
    /// The SandyBridge-style on-chip package meter: 1 ms windows, 1 ms
    /// delivery delay, very low noise.
    pub fn on_chip() -> MeterSpec {
        MeterSpec {
            name: "on-chip",
            scope: MeterScope::Package,
            period: SimDuration::from_millis(1),
            delay: SimDuration::from_millis(1),
            noise_frac: 0.004,
        }
    }

    /// The Wattsup-style external meter: whole-machine power, 1 s windows,
    /// 1.2 s delivery delay through the USB interface.
    pub fn wattsup() -> MeterSpec {
        MeterSpec {
            name: "wattsup",
            scope: MeterScope::Machine,
            period: SimDuration::from_secs(1),
            delay: SimDuration::from_millis(1200),
            noise_frac: 0.01,
        }
    }
}

/// One completed measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterReport {
    /// When the window opened.
    pub window_start: SimTime,
    /// When the window closed.
    pub window_end: SimTime,
    /// Average power over the window, in Watts (noise included).
    pub avg_watts: f64,
    /// When the report becomes visible to software.
    pub visible_at: SimTime,
}

/// Runtime state of one meter: the open integration window plus reports
/// whose delivery delay has not yet elapsed.
#[derive(Debug, Clone)]
pub(crate) struct MeterState {
    pub spec: MeterSpec,
    window_start: SimTime,
    energy_j: f64,
    pending: VecDeque<MeterReport>,
}

impl MeterState {
    pub fn new(spec: MeterSpec) -> MeterState {
        MeterState {
            spec,
            window_start: SimTime::ZERO,
            energy_j: 0.0,
            pending: VecDeque::new(),
        }
    }

    /// The instant the current window closes.
    pub fn window_end(&self) -> SimTime {
        self.window_start + self.spec.period
    }

    /// Integrates `watts` over `dt` into the open window.
    pub fn integrate(&mut self, watts: f64, dt: SimDuration) {
        self.energy_j += watts * dt.as_secs_f64();
    }

    /// Closes the current window at `now` (which must equal
    /// [`MeterState::window_end`]), emitting a report with the given
    /// multiplicative noise factor applied.
    pub fn close_window(&mut self, now: SimTime, noise_factor: f64) {
        let secs = self.spec.period.as_secs_f64();
        let avg = if secs > 0.0 { self.energy_j / secs } else { 0.0 };
        self.pending.push_back(MeterReport {
            window_start: self.window_start,
            window_end: now,
            avg_watts: (avg * noise_factor).max(0.0),
            visible_at: now + self.spec.delay,
        });
        self.skip_window(now);
    }

    /// Closes the current window at `now` without emitting a report.
    pub fn skip_window(&mut self, now: SimTime) {
        debug_assert_eq!(now, self.window_end(), "window closed at wrong instant");
        self.window_start = now;
        self.energy_j = 0.0;
    }

    /// Drops every undelivered report and releases the queue's memory.
    pub fn clear_pending(&mut self) {
        self.pending = VecDeque::new();
    }

    /// Discards the most recently closed, still-undelivered report —
    /// fault injection's meter dropout. Returns `false` when nothing was
    /// pending.
    pub fn drop_last_pending(&mut self) -> bool {
        self.pending.pop_back().is_some()
    }

    /// Postpones the most recently closed, still-undelivered report by
    /// `extra` — fault injection's extra delivery lag. Reports are
    /// delivered in window order, so a delayed report also holds back
    /// any windows closed after it (in-order transport, as on a USB
    /// meter link).
    pub fn delay_last_pending(&mut self, extra: SimDuration) {
        if let Some(r) = self.pending.back_mut() {
            r.visible_at += extra;
        }
    }

    /// Removes and returns every report visible at or before `now`, in
    /// window order.
    pub fn pop_visible(&mut self, now: SimTime) -> Vec<MeterReport> {
        let mut out = Vec::new();
        while let Some(front) = self.pending.front() {
            if front.visible_at <= now {
                out.push(self.pending.pop_front().expect("front checked"));
            } else {
                break;
            }
        }
        out
    }

    /// Number of reports still awaiting delivery.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_power_integrates_to_average() {
        let mut m = MeterState::new(MeterSpec::on_chip());
        m.integrate(30.0, SimDuration::from_millis(1));
        m.close_window(SimTime::from_millis(1), 1.0);
        let reports = m.pop_visible(SimTime::from_millis(2));
        assert_eq!(reports.len(), 1);
        assert!((reports[0].avg_watts - 30.0).abs() < 1e-9);
    }

    #[test]
    fn reports_stay_hidden_until_delay_elapses() {
        let mut m = MeterState::new(MeterSpec::wattsup());
        m.integrate(100.0, SimDuration::from_secs(1));
        m.close_window(SimTime::from_secs(1), 1.0);
        assert!(m.pop_visible(SimTime::from_millis(2100)).is_empty());
        let reports = m.pop_visible(SimTime::from_millis(2200));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].visible_at, SimTime::from_millis(2200));
    }

    #[test]
    fn partial_window_integration_accumulates() {
        let mut m = MeterState::new(MeterSpec::on_chip());
        m.integrate(10.0, SimDuration::from_micros(500));
        m.integrate(50.0, SimDuration::from_micros(500));
        m.close_window(SimTime::from_millis(1), 1.0);
        let r = m.pop_visible(SimTime::from_millis(5)).remove(0);
        assert!((r.avg_watts - 30.0).abs() < 1e-9);
    }

    #[test]
    fn windows_advance_back_to_back() {
        let mut m = MeterState::new(MeterSpec::on_chip());
        m.close_window(SimTime::from_millis(1), 1.0);
        assert_eq!(m.window_end(), SimTime::from_millis(2));
        m.close_window(SimTime::from_millis(2), 1.0);
        assert_eq!(m.pending_len(), 2);
    }

    #[test]
    fn noise_factor_scales_reading() {
        let mut m = MeterState::new(MeterSpec::on_chip());
        m.integrate(40.0, SimDuration::from_millis(1));
        m.close_window(SimTime::from_millis(1), 1.05);
        let r = m.pop_visible(SimTime::MAX).remove(0);
        assert!((r.avg_watts - 42.0).abs() < 1e-9);
    }

    #[test]
    fn negative_noise_floors_at_zero() {
        let mut m = MeterState::new(MeterSpec::on_chip());
        m.integrate(40.0, SimDuration::from_millis(1));
        m.close_window(SimTime::from_millis(1), -1.0);
        let r = m.pop_visible(SimTime::MAX).remove(0);
        assert_eq!(r.avg_watts, 0.0);
    }
}
