//! What one pass of a workload measured.

use crate::speed::HostClock;
use crate::trace::SpanRecord;

/// One pass: set-up, the timed part, and its checked outputs.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds per set-up repetition at reference speed (the reported
    /// value is the median).
    pub setup_s: Vec<f64>,
    /// Wall time of the timed part.
    pub wall_s: f64,
    /// The same at reference speed (`speed`); equal to `wall_s` in
    /// traced passes.
    pub ref_wall_s: f64,
    /// Host-speed probe times of the pass, µs.
    pub probe_us: Vec<f64>,
    /// Simulated channel time covered by the timed part.
    pub sim_s: f64,
    /// Sender work per display frame (per data cycle on the GOB-level
    /// workload), milliseconds at reference speed.
    pub tx_ms: Vec<f64>,
    /// Receiver work per data cycle, milliseconds at reference speed.
    pub rx_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; empty when every output checked out.
    pub errors: Vec<String>,
    pub goodput_kbps: f64,
    pub gob_availability: f64,
    /// Ratios and counts read from public return values after the run.
    pub ratios: Vec<(&'static str, f64)>,
    /// Spans of the timed part (traced passes only).
    pub spans: Vec<SpanRecord>,
}

impl Outcome {
    /// Simulated time ÷ wall time at reference speed.
    pub fn realtime_factor(&self) -> f64 {
        self.sim_s / self.ref_wall_s
    }

    /// Simulated time ÷ wall time as measured.
    pub fn raw_realtime_factor(&self) -> f64 {
        self.sim_s / self.wall_s
    }

    /// Takes the timed part's wall totals and probe times from `clock`.
    pub fn set_clock(&mut self, clock: &HostClock) {
        self.wall_s = clock.wall_s;
        self.ref_wall_s = clock.ref_wall_s;
        self.probe_us = clock.probe_us();
    }
}

/// Quantile by linear interpolation between closest ranks (the
/// "inclusive" definition); 0 for no samples. `values` need not be sorted.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Resets the process's RSS high-water mark to its current RSS, so that
/// `peak_rss_mb` covers the workload's live state and steady state, not
/// the harness check or the discarded set-up repetitions.
pub fn reset_peak_rss() {
    // Best effort: on a kernel without `clear_refs` the mark stays the
    // process lifetime's.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
