//! `paper_video`: the whole pixel chain at paper scale — video synthesis,
//! sender render, display emission, rolling-shutter capture and one
//! streaming `Demultiplexer` — driven one display frame at a time.
//!
//! The frame loop is `sim::pipeline::Simulation::run`'s, call for call,
//! except that the emission window is handed to the camera as a slice of
//! the `VecDeque` instead of a fresh clone; [`check_against_harness`]
//! proves the two produce the same decoded cycles.

use crate::adapters::{TimedPayload, TimedVideo};
use crate::outcome::{ratio, reset_peak_rss, Outcome};
use crate::speed::HostClock;
use crate::trace::{self, Layer, Window};
use inframe_camera::{Camera, Shutter};
use inframe_code::parity::GobStats;
use inframe_core::demux::RegionCache;
use inframe_core::metrics::bit_accuracy;
use inframe_core::sender::{PrbsPayload, Sender};
use inframe_core::{DecodedDataFrame, Demultiplexer, KernelBackend, ParallelEngine};
use inframe_display::{DisplayStream, FrameEmission};
use inframe_obs::Telemetry;
use inframe_sim::{Scale, Scenario, Simulation, SimulationConfig};
use inframe_video::VideoSource;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Display frames per data cycle. τ = 24 (not the paper's 12) keeps the
/// share of frames that pull a payload (1/24 ≈ 4%) well away from the
/// 10% a p90 sits at; see README.md, "Tail rule".
const TAU: u32 = 24;

/// Render and demux workers.
pub const WORKERS: usize = 1;

/// The receivers' stable-half phase gate: captures past this phase of
/// their cycle are not scored (`Demultiplexer::push_capture`, `sim::fleet`).
pub const PHASE_GATE: f64 = 0.45;

/// The simulation configuration at `scale`, with every knob the
/// environment could otherwise set pinned.
pub fn config(scale: Scale, cycles: u32, seed: u64) -> SimulationConfig {
    let mut inframe = scale.inframe();
    inframe.kernel = KernelBackend::Quantized;
    inframe.tau = TAU;
    SimulationConfig {
        inframe,
        display: scale.display(),
        camera: scale.camera(),
        geometry: scale.geometry(),
        cycles,
        seed,
    }
}

type ChainSender = Sender<TimedVideo<Box<dyn VideoSource>>, TimedPayload<PrbsPayload>>;

/// Sender → display → camera → demultiplexer, stepped one display frame
/// at a time.
struct Chain {
    sender: ChainSender,
    display: DisplayStream,
    camera: Camera,
    demux: Demultiplexer,
    engine: Arc<ParallelEngine>,
    window: VecDeque<FrameEmission>,
    exposure_mid: f64,
    cycle_s: f64,
    tau: u64,
    decoded: Vec<DecodedDataFrame>,
    /// Reference-speed seconds per measured second for the next step.
    scale: f64,
    /// Receiver time per data cycle (by the capture's cycle), ns at
    /// reference speed.
    rx_ns: Vec<f64>,
    /// Successful captures per data cycle.
    captures_by_cycle: Vec<u64>,
    /// Captures inside the phase gate per data cycle.
    scored_by_cycle: Vec<u64>,
    captures_ok: u64,
    captures_failed: u64,
}

impl Chain {
    /// Builds the chain exactly as `Simulation::run` does, but on an
    /// explicit engine.
    fn new(c: &SimulationConfig, workers: usize) -> Self {
        let video = Scenario::Video.source(c.inframe.display_w, c.inframe.display_h, c.seed);
        let engine = Arc::new(ParallelEngine::new(workers));
        let payload = TimedPayload {
            inner: PrbsPayload::new(c.seed),
            layer: Layer::SenderPayload,
        };
        let sender = Sender::with_engine(c.inframe, TimedVideo(video), payload, engine.clone());
        let registration = c.geometry.display_to_sensor(
            c.inframe.display_w,
            c.inframe.display_h,
            c.camera.width,
            c.camera.height,
        );
        let cache = RegionCache::build(&c.inframe, &registration, c.camera.width, c.camera.height);
        let demux = Demultiplexer::with_cache(c.inframe, cache, engine.clone());
        let readout = match c.camera.shutter {
            Shutter::Global => 0.0,
            Shutter::Rolling { readout_s } => readout_s,
        };
        Self {
            sender,
            display: DisplayStream::new(c.display),
            camera: Camera::new(c.camera, c.geometry, c.seed ^ 0xCA_3E1A),
            demux,
            engine,
            window: VecDeque::new(),
            exposure_mid: readout / 2.0 + c.camera.exposure_s / 2.0,
            cycle_s: c.inframe.tau as f64 / c.inframe.refresh_hz,
            tau: c.inframe.tau as u64,
            decoded: Vec::new(),
            scale: 1.0,
            rx_ns: Vec::new(),
            captures_by_cycle: Vec::new(),
            scored_by_cycle: Vec::new(),
            captures_ok: 0,
            captures_failed: 0,
        }
    }

    /// Emits display frame `index` and captures every camera frame it
    /// completes. Returns the sender's time for the frame in ms at
    /// reference speed, or `None` when the video ended.
    fn step(&mut self, index: u64) -> Option<f64> {
        trace::set_cycle(index / self.tau);
        let (frame, tx) = trace::timed(Layer::SenderRender, || self.sender.next_frame());
        let frame = frame?;
        let (emission, _) =
            trace::timed(Layer::DisplayPresent, || self.display.present(&frame.plane));
        drop(frame);
        let window_end = emission.t_start + emission.duration;
        self.window.push_back(emission);
        loop {
            let (need_start, need_end) = self.camera.required_window();
            if need_end > window_end {
                break;
            }
            while self
                .window
                .front()
                .is_some_and(|e| e.t_start + e.duration <= need_start + 1e-12)
            {
                self.window.pop_front();
            }
            let t_mid =
                self.camera.config().frame_start(self.camera.next_index()) + self.exposure_mid;
            let cycle = (t_mid / self.cycle_s).floor().max(0.0) as usize;
            trace::set_cycle(cycle as u64);
            let emissions = self.window.make_contiguous();
            let (captured, _) =
                trace::timed(Layer::CameraCapture, || self.camera.capture(emissions));
            match captured {
                Ok(cap) => {
                    self.captures_ok += 1;
                    let (done, rx) = trace::timed(Layer::DemuxPushCapture, || {
                        self.demux.push_capture(&cap.plane, t_mid)
                    });
                    grow(&mut self.rx_ns, cycle)[cycle] += rx.as_nanos() as f64 * self.scale;
                    grow(&mut self.captures_by_cycle, cycle)[cycle] += 1;
                    let scored = (t_mid / self.cycle_s).fract() < PHASE_GATE;
                    grow(&mut self.scored_by_cycle, cycle)[cycle] += scored as u64;
                    self.decoded.extend(done);
                }
                Err(_) => {
                    self.captures_failed += 1;
                    self.camera.skip_frame();
                }
            }
        }
        Some(tx.as_secs_f64() * 1e3 * self.scale)
    }

    /// Flushes the cycle still being accumulated.
    fn finish(&mut self) {
        let (done, _) = trace::timed(Layer::DemuxPushCapture, || self.demux.finish());
        self.decoded.extend(done);
    }
}

fn grow<T: Default + Clone>(v: &mut Vec<T>, i: usize) -> &mut Vec<T> {
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    v
}

/// One pass of `paper_video`: cycle 0 warms up untimed, cycles
/// `1..=cycles` are timed and scored, and one tail cycle lets the camera
/// finish their captures.
pub fn run(seed: u64, cycles: u32, setups: usize, traced: bool) -> Outcome {
    let c = config(Scale::Paper, cycles + 2, seed);
    let mut out = Outcome::default();
    let mut clock = HostClock::new(!traced);
    let mut chain = None;
    for _ in 0..setups {
        drop(chain.take());
        clock.calibrate();
        let t = Instant::now();
        chain = Some(Chain::new(&c, WORKERS));
        out.setup_s.push(clock.ref_s(t.elapsed()));
    }
    let mut chain = chain.expect("at least one set-up");
    reset_peak_rss();
    let tau = c.inframe.tau as u64;
    let total_frames = c.cycles as u64 * tau;
    for f in 0..tau {
        chain.step(f).expect("the clip outlasts the run");
    }
    let busy_before = chain.engine.busy();
    let ok_before = chain.captures_ok;
    let failed_before = chain.captures_failed;
    clock.refresh();
    let window = Window::start(traced);
    for f in tau..total_frames {
        chain.scale = clock.scale();
        clock.start();
        let tx = chain.step(f).expect("the clip outlasts the run");
        clock.lap();
        out.tx_ms.push(tx);
    }
    chain.scale = clock.scale();
    clock.start();
    chain.finish();
    clock.lap();
    out.spans = window.stop();
    out.set_clock(&clock);
    let wall = out.wall_s;
    out.sim_s = (total_frames - tau) as f64 / c.inframe.refresh_hz;
    let busy = (chain.engine.busy() - busy_before).as_secs_f64();

    let scored = 1..=cycles as usize;
    out.rx_ms = scored.clone().map(|cy| chain.rx_ns[cy] / 1e6).collect();
    let mut stats = GobStats::default();
    let (mut bits_ok, mut bits_cmp, mut decoded) = (0, 0, 0u64);
    for d in chain
        .decoded
        .iter()
        .filter(|d| scored.contains(&(d.cycle as usize)))
    {
        decoded += 1;
        stats.merge(&d.stats);
        match chain.sender.sent_payload(d.cycle) {
            Some(truth) => {
                let (ok, cmp) = bit_accuracy(&d.payload, truth);
                bits_ok += ok;
                bits_cmp += cmp;
            }
            None => out
                .errors
                .push(format!("no ground truth for cycle {}", d.cycle)),
        }
    }
    let attempts = chain.captures_ok - ok_before + chain.captures_failed - failed_before;
    out.attempted = attempts + cycles as u64;
    out.failed = chain.captures_failed - failed_before + (cycles as u64 - decoded);
    let accuracy = ratio(bits_ok as f64, bits_cmp as f64);
    if accuracy < MIN_BIT_ACCURACY {
        out.errors.push(format!(
            "bit accuracy {accuracy:.4} below {MIN_BIT_ACCURACY} ({bits_ok}/{bits_cmp})"
        ));
    }
    let cycle_s = c.inframe.tau as f64 / c.inframe.refresh_hz;
    out.goodput_kbps = bits_ok as f64 / (cycles as f64 * cycle_s) / 1e3;
    out.gob_availability = ratio(stats.available as f64, stats.total() as f64);
    let pushed: u64 = scored.clone().map(|cy| chain.captures_by_cycle[cy]).sum();
    let gated_in: u64 = scored.map(|cy| chain.scored_by_cycle[cy]).sum();
    out.ratios = vec![
        (
            "camera.capture.ok_ratio",
            ratio((chain.captures_ok - ok_before) as f64, attempts as f64),
        ),
        (
            "core.demux.scored_ratio",
            ratio(gated_in as f64, pushed as f64),
        ),
        (
            "core.parallel.utilization",
            busy / (chain.engine.workers() as f64 * wall),
        ),
    ];
    out
}

/// Decoded bits that disagree with the sent payload come only from GOBs
/// whose parity check missed an error; on this workload that is well
/// under 1% of the compared bits.
const MIN_BIT_ACCURACY: f64 = 0.99;

/// Cycles of the harness check: the second lets the first decode.
const CHECK_CYCLES: u32 = 2;

/// Runs the chain and `Simulation::run` on the workload's own paper-scale
/// configuration (same seed), cut to [`CHECK_CYCLES`] cycles, and compares
/// decoded cycles, GOB statistics and bit counts exactly.
pub fn check_against_harness(seed: u64) -> Result<(), String> {
    let c = config(Scale::Paper, CHECK_CYCLES, seed);
    let mut chain = Chain::new(&c, WORKERS);
    for f in 0..c.cycles as u64 * c.inframe.tau as u64 {
        if chain.step(f).is_none() {
            break;
        }
    }
    chain.finish();
    let mut stats = GobStats::default();
    let (mut bits_ok, mut bits_cmp) = (0, 0);
    for d in &chain.decoded {
        stats.merge(&d.stats);
        if let Some(truth) = chain.sender.sent_payload(d.cycle) {
            let (ok, cmp) = bit_accuracy(&d.payload, truth);
            bits_ok += ok;
            bits_cmp += cmp;
        }
    }
    let video = Scenario::Video.source(c.inframe.display_w, c.inframe.display_h, c.seed);
    let sim = Simulation::new(c).run_with_telemetry(video, &Telemetry::new());
    if sim.decoded != chain.decoded {
        return Err(format!(
            "paper_video loop decoded {} cycles differently from Simulation::run ({} cycles)",
            chain.decoded.len(),
            sim.decoded.len()
        ));
    }
    if sim.stats != stats || sim.bits_correct != bits_ok || sim.bits_compared != bits_cmp {
        return Err(format!(
            "paper_video loop stats {stats:?} bits {bits_ok}/{bits_cmp} differ from \
             Simulation::run {:?} bits {}/{}",
            sim.stats, sim.bits_correct, sim.bits_compared
        ));
    }
    if chain.decoded.is_empty() {
        return Err("paper_video harness check decoded no cycle".into());
    }
    Ok(())
}
