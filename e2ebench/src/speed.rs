//! Host-speed normalisation of the end-to-end timings.
//!
//! A shared virtual machine does not run at one speed. On the 2-vCPU
//! reference host the same `net_closed_loop` work, timed in 0.4 s windows,
//! varied by 30% (standard deviation of the log ratio between two runs of
//! one seed) with no steal time, no other guest process, and per-thread
//! CPU time equal to wall time; the slow stretches last from under a
//! second to minutes. CPU time, longer runs and low quantiles therefore do
//! not remove the change: another tenant of the physical core takes
//! execution resources from the benchmark while it runs.
//!
//! So the benchmark times a fixed probe, which calls no product code,
//! between work units (never inside a timed interval) at least every
//! [`CALIBRATE_EVERY`], and reports every end-to-end timing at reference
//! speed:
//!
//! ```text
//! reported = measured × REFERENCE_NS ÷ median(last WINDOW probe times)
//! ```
//!
//! The probe is a branchy loop over a fixed pattern: of the probes tried
//! (ALU throughput, branches, dependent loads over 256 KiB to 4 MiB, and a
//! mix), branch work tracked the workloads' slow stretches best, in size
//! as well as in time. A product change
//! moves the reported timings as it moves the measured ones; a change of
//! host speed moves the probe in the same direction and mostly cancels.
//! The raw figures are printed beside the normalised ones.

use crate::outcome::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe time that defines reference speed, ns: about the probe's time on
/// the reference host.
pub const REFERENCE_NS: f64 = 65_000.0;

/// Longest timed stretch between two probes.
const CALIBRATE_EVERY: Duration = Duration::from_millis(50);

/// Probe times the current scale is the median of.
const WINDOW: usize = 5;

/// Back-to-back probe runs per calibration; the fastest counts, so that
/// the first run's cache and predictor warm-up after the workload does not.
const REPEATS: usize = 3;

/// The probe's fixed input: a pseudo-random byte pattern its branches
/// follow, too long for a branch predictor to learn perfectly.
struct Probe {
    pattern: Vec<u8>,
}

impl Probe {
    fn new() -> Self {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let pattern = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        Self { pattern }
    }

    /// Runs the fixed work once (about 65 µs on the reference host).
    fn run(&self) -> u64 {
        let (mut a, mut b) = (0u64, 0u64);
        for _ in 0..2 {
            for &v in black_box(&self.pattern) {
                if v & 1 == 1 {
                    a = a.wrapping_add(v as u64);
                } else {
                    b ^= v as u64;
                }
                if v & 6 == 2 {
                    a = a.rotate_left(3);
                } else if v & 6 == 4 {
                    b = b.wrapping_mul(3);
                }
                if v > 200 {
                    a ^= b;
                }
            }
        }
        a ^ b
    }
}

/// The timed part of one pass, in wall time and at reference speed.
pub struct HostClock {
    probe: Option<Probe>,
    recent: [f64; WINDOW],
    next: usize,
    /// Every probe time of the pass, ns.
    probe_ns: Vec<f64>,
    last_calibration: Instant,
    segment_start: Instant,
    /// Wall time of the timed segments, s.
    pub wall_s: f64,
    /// The same at reference speed, s.
    pub ref_wall_s: f64,
}

impl HostClock {
    /// A clock that normalises when `enabled`, and otherwise reports wall
    /// time unscaled and never probes (traced passes, so that no probe
    /// sits between their spans).
    pub fn new(enabled: bool) -> Self {
        let mut clock = Self {
            probe: enabled.then(Probe::new),
            recent: [REFERENCE_NS; WINDOW],
            next: 0,
            probe_ns: Vec::new(),
            last_calibration: Instant::now(),
            segment_start: Instant::now(),
            wall_s: 0.0,
            ref_wall_s: 0.0,
        };
        clock.refresh();
        clock
    }

    /// Replaces every probe time the scale is taken from, e.g. right
    /// before the timed part after a long untimed stretch.
    pub fn refresh(&mut self) {
        for _ in 0..WINDOW {
            self.calibrate();
        }
    }

    /// Times the probe: the fastest of [`REPEATS`] runs.
    pub fn calibrate(&mut self) {
        let Some(probe) = &self.probe else {
            return;
        };
        let ns = (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                black_box(probe.run());
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        self.recent[self.next] = ns;
        self.next = (self.next + 1) % WINDOW;
        self.probe_ns.push(ns);
        self.last_calibration = Instant::now();
    }

    /// Reference-speed seconds per measured second, from the latest
    /// probe times.
    pub fn scale(&self) -> f64 {
        if self.probe.is_some() {
            REFERENCE_NS / median(&self.recent)
        } else {
            1.0
        }
    }

    /// `d` at reference speed, seconds.
    pub fn ref_s(&self, d: Duration) -> f64 {
        d.as_secs_f64() * self.scale()
    }

    /// Starts a timed segment.
    pub fn start(&mut self) {
        self.segment_start = Instant::now();
    }

    /// Ends the timed segment begun by [`HostClock::start`], adds it to the
    /// wall totals, and probes if a probe is due.
    pub fn lap(&mut self) {
        let d = self.segment_start.elapsed();
        self.wall_s += d.as_secs_f64();
        self.ref_wall_s += self.ref_s(d);
        if self.last_calibration.elapsed() >= CALIBRATE_EVERY {
            self.calibrate();
        }
    }

    /// Every probe time of the pass, µs.
    pub fn probe_us(&self) -> Vec<f64> {
        self.probe_ns.iter().map(|ns| ns / 1e3).collect()
    }
}
