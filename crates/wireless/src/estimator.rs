//! Byte-based sliding-window load tracking.
//!
//! Gateways (for SoI idle detection and BH2's thresholds) track their own
//! backhaul load as "bytes carried over the last estimation window" — the
//! paper estimates load over 1-minute intervals (§5.1). [`LoadWindow`] keeps
//! a time-ordered deque of byte deposits and reports the windowed rate.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sliding-window byte-rate tracker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadWindow {
    window_ms: u64,
    /// `(t_ms, bytes)` deposits, oldest first.
    deposits: VecDeque<(u64, u64)>,
    /// Running sum of `bytes` over `deposits`.
    sum_bytes: u64,
}

impl LoadWindow {
    /// Creates a tracker with the given window (paper: 60 s).
    pub fn new(window_ms: u64) -> Self {
        assert!(window_ms > 0);
        LoadWindow { window_ms, deposits: VecDeque::new(), sum_bytes: 0 }
    }

    /// Window length in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    /// Records `bytes` transferred at time `t_ms` (non-decreasing times).
    pub fn add(&mut self, t_ms: u64, bytes: u64) {
        if let Some(&(last, _)) = self.deposits.back() {
            debug_assert!(t_ms >= last, "deposits out of order");
        }
        self.deposits.push_back((t_ms, bytes));
        self.sum_bytes += bytes;
        self.evict(t_ms);
    }

    /// Drops deposits older than the window relative to `now_ms`.
    fn evict(&mut self, now_ms: u64) {
        while let Some(&(t, b)) = self.deposits.front() {
            if t + self.window_ms <= now_ms {
                self.deposits.pop_front();
                self.sum_bytes -= b;
            } else {
                break;
            }
        }
    }

    /// Bytes observed in the window ending at `now_ms`.
    pub fn bytes_in_window(&mut self, now_ms: u64) -> u64 {
        self.evict(now_ms);
        self.sum_bytes
    }

    /// Windowed average rate in bit/s at `now_ms`.
    pub fn rate_bps(&mut self, now_ms: u64) -> f64 {
        self.bytes_in_window(now_ms) as f64 * 8.0 * 1_000.0 / self.window_ms as f64
    }

    /// Windowed load as a fraction of `capacity_bps`, clamped to `[0, 1]`.
    pub fn load_fraction(&mut self, now_ms: u64, capacity_bps: f64) -> f64 {
        debug_assert!(capacity_bps > 0.0);
        (self.rate_bps(now_ms) / capacity_bps).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_over_window() {
        let mut w = LoadWindow::new(60_000);
        // 450 kB over a minute = 60 kbit/s.
        w.add(0, 150_000);
        w.add(30_000, 150_000);
        w.add(59_000, 150_000);
        let rate = w.rate_bps(59_000);
        assert!((rate - 60_000.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn old_deposits_age_out() {
        let mut w = LoadWindow::new(10_000);
        w.add(0, 1_000);
        assert_eq!(w.bytes_in_window(5_000), 1_000);
        assert_eq!(w.bytes_in_window(10_000), 0);
    }

    #[test]
    fn load_fraction_clamps() {
        let mut w = LoadWindow::new(1_000);
        w.add(0, 10_000_000);
        assert_eq!(w.load_fraction(0, 6.0e6), 1.0);
        let mut empty = LoadWindow::new(1_000);
        assert_eq!(empty.load_fraction(0, 6.0e6), 0.0);
    }

    #[test]
    fn eviction_is_left_inclusive() {
        let mut w = LoadWindow::new(10_000);
        w.add(0, 100);
        // A deposit exactly window-old is evicted (half-open window).
        assert_eq!(w.bytes_in_window(9_999), 100);
        assert_eq!(w.bytes_in_window(10_000), 0);
    }
}
