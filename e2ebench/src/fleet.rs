//! `fleet_quick`: one Quick-scale display watched by about a thousand
//! heterogeneous receivers through a few phase-bin cameras, scored in
//! batch and stepped in bulk.
//!
//! The frame loop and the population draw are `sim::fleet::run_fleet`'s;
//! [`check`] proves that at a short length the two agree receiver for
//! receiver. Two differences are deliberate: each camera gets its
//! emissions as a slice of the window instead of a filtered clone, and
//! the Sender renders on the same pinned two-worker engine as the scorer.

use crate::adapters::{TimedPayload, TimedVideo};
use crate::outcome::{median, ratio, reset_peak_rss, Outcome};
use crate::pixel::PHASE_GATE;
use crate::speed::HostClock;
use crate::trace::{self, Layer, Window};
use inframe_camera::perturb::ae_gain_q12;
use inframe_camera::{Camera, Shutter};
use inframe_code::parity::GobStats;
use inframe_code::prbs::Xoshiro256;
use inframe_core::batch::{SKIP, UNREADABLE};
use inframe_core::demux::RegionCache;
use inframe_core::sender::Sender;
use inframe_core::{BatchScorer, DataLayout, ParallelEngine, ScoreClass};
use inframe_display::{DisplayStream, FrameEmission};
use inframe_frame::perturb::{CaptureTransform, OcclusionRect};
use inframe_frame::qplane;
use inframe_link::{absorb_cycle_bulk, Carousel, CompletionTarget, ReceiverSession};
use inframe_obs::Telemetry;
use inframe_sim::faults::occlusion_rect;
use inframe_sim::{FleetConfig, Scale};
use inframe_video::VideoSource;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Batch-scoring, bulk-stepping and render workers (≤ nproc = 2;
/// `FleetConfig::quick`'s default of 4 oversubscribes a 2-core host).
pub const WORKERS: usize = 2;

/// Receiver population.
pub const RECEIVERS: usize = 1000;

/// The fleet configuration: `FleetConfig::quick` with the kernel, the
/// worker count and τ pinned, and auto-exposure and white balance at most
/// one grid step off, so that every seed draws the same set of score
/// classes (with two steps, the rarest corners of the grid appear for some
/// seeds only, and the per-capture scoring cost with them).
pub fn config(receivers: usize, cycles: u32, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::quick(receivers, cycles, seed);
    cfg.sim = crate::pixel::config(Scale::Quick, cycles, seed);
    cfg.workers = WORKERS;
    cfg.max_gain_steps = 1;
    cfg.max_awb_steps = 1;
    cfg
}

struct Profile {
    bin: usize,
    join_cycle: u64,
    class_clean: u32,
    class_occluded: Option<u32>,
    occlusion_cycles: Option<(u64, u64)>,
    drop_rng: Xoshiro256,
}

impl Profile {
    fn class_at(&self, cycle: u64) -> u32 {
        match (self.class_occluded, self.occlusion_cycles) {
            (Some(c), Some((from, until))) if cycle >= from && cycle < until => c,
            _ => self.class_clean,
        }
    }
}

struct Population {
    profiles: Vec<Profile>,
    transforms: Vec<CaptureTransform>,
    classes: Vec<ScoreClass>,
}

type TransformKey = (i32, i16, Option<(usize, usize, usize, usize, i16)>);

fn intern_transform(
    transforms: &mut Vec<CaptureTransform>,
    seen: &mut BTreeMap<TransformKey, u32>,
    t: CaptureTransform,
) -> u32 {
    let key = (
        t.gain_q12,
        t.awb_raw,
        t.occlusion.map(|o| (o.x0, o.y0, o.w, o.h, o.level_raw)),
    );
    *seen.entry(key).or_insert_with(|| {
        transforms.push(t);
        (transforms.len() - 1) as u32
    })
}

fn intern_class(
    classes: &mut Vec<ScoreClass>,
    seen: &mut BTreeMap<(u32, i64), u32>,
    transform: u32,
    noise_raw_sq: i64,
) -> u32 {
    *seen.entry((transform, noise_raw_sq)).or_insert_with(|| {
        classes.push(ScoreClass {
            transform,
            noise_raw_sq,
        });
        (classes.len() - 1) as u32
    })
}

/// The seeded receiver population, drawn exactly as `sim::fleet` draws it.
fn draw_population(cfg: &FleetConfig, sensor_w: usize, sensor_h: usize) -> Population {
    let mut rng = Xoshiro256::seed_from_u64(cfg.sim.seed ^ 0xD1CE);
    let mut transforms = Vec::new();
    let mut tmap = BTreeMap::new();
    let mut classes = Vec::new();
    let mut cmap = BTreeMap::new();
    let (x0, y0, w, h) = occlusion_rect(sensor_w, sensor_h, cfg.occlusion_area);
    let occ = OcclusionRect {
        x0,
        y0,
        w,
        h,
        level_raw: 128 * qplane::ONE,
    };
    let cycles = cfg.sim.cycles as u64;
    let profiles = (0..cfg.receivers)
        .map(|r| {
            let k = ((1.1 * rng.next_gaussian()).round() as i32)
                .clamp(-cfg.max_gain_steps, cfg.max_gain_steps);
            let gain_q12 = ae_gain_q12(cfg.ae_step_q12, k);
            let steps = ((1.2 * rng.next_gaussian()).round() as i32)
                .clamp(-cfg.max_awb_steps, cfg.max_awb_steps);
            let awb_raw = (steps as i16) * cfg.awb_step_raw;
            let noise_raw_sq = if cfg.noise_sigma_code > 0.0 {
                let sigma = cfg.noise_sigma_code * (0.3 * rng.next_gaussian()).exp();
                let octaves = (sigma / cfg.noise_sigma_code).log2().round();
                ScoreClass::noise_raw_sq_from_sigma(cfg.noise_sigma_code * octaves.exp2())
            } else {
                0
            };
            let clean = CaptureTransform {
                gain_q12,
                awb_raw,
                occlusion: None,
            };
            let tc = intern_transform(&mut transforms, &mut tmap, clean);
            let class_clean = intern_class(&mut classes, &mut cmap, tc, noise_raw_sq);
            let occluded = rng.next_f64() < cfg.occluded_frac && !occ.is_empty();
            let (class_occluded, occlusion_cycles) = if occluded {
                let from = cycles / 4 + (rng.next_f64() * (cycles as f64 / 4.0)) as u64;
                let until = (from + cycles.div_ceil(4).max(1)).min(cycles);
                let t = CaptureTransform {
                    occlusion: Some(occ),
                    ..clean
                };
                let to = intern_transform(&mut transforms, &mut tmap, t);
                (
                    Some(intern_class(&mut classes, &mut cmap, to, noise_raw_sq)),
                    Some((from, until)),
                )
            } else {
                (None, None)
            };
            let join_cycle = if cfg.max_join_cycle == 0 {
                0
            } else {
                (rng.next_f64() * (cfg.max_join_cycle + 1) as f64) as u64
            };
            Profile {
                bin: r % cfg.phase_bins.max(1),
                join_cycle: join_cycle.min(cfg.max_join_cycle),
                class_clean,
                class_occluded,
                occlusion_cycles,
                drop_rng: Xoshiro256::seed_from_u64(
                    cfg.sim.seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD60B,
                ),
            }
        })
        .collect();
    Population {
        profiles,
        transforms,
        classes,
    }
}

type FleetSender = Sender<TimedVideo<Box<dyn VideoSource>>, TimedPayload<Carousel>>;

/// The shared chain plus the receiver fleet, stepped one display frame at
/// a time.
struct Fleet {
    cfg: FleetConfig,
    data: Vec<u8>,
    sender: FleetSender,
    display: DisplayStream,
    cameras: Vec<Camera>,
    engine: Arc<ParallelEngine>,
    layout: DataLayout,
    scorer: BatchScorer,
    pop: Population,
    sessions: Vec<ReceiverSession>,
    best: Vec<f32>,
    next_best: Vec<f32>,
    assign: Vec<u32>,
    verdicts: Vec<Option<bool>>,
    row: Vec<Option<bool>>,
    active: Vec<bool>,
    window: VecDeque<FrameEmission>,
    bin_cycle: Vec<i64>,
    current_cycle: u64,
    exposure_mid: f64,
    cycle_s: f64,
    captures_scored: u64,
    captures_ok: u64,
    captures_failed: u64,
    dropped: u64,
    /// Reference-speed seconds per measured second for the next step.
    scale: f64,
    /// Receiver time per data cycle, ns at reference speed.
    rx_ns: Vec<f64>,
}

impl Fleet {
    fn new(cfg: &FleetConfig) -> Self {
        let c = &cfg.sim;
        let layout = DataLayout::from_config(&c.inframe);
        let mut carousel = Carousel::for_channel(&layout, c.inframe.coding);
        let data: Vec<u8> = {
            let mut rng = Xoshiro256::seed_from_u64(c.seed ^ 0x0B1E);
            (0..cfg.object_len).map(|_| rng.next_byte()).collect()
        };
        carousel.add_object(cfg.object_id, 1, &data);
        let geometry = carousel.geometry();
        let video = cfg
            .scenario
            .source(c.inframe.display_w, c.inframe.display_h, c.seed);
        let engine = Arc::new(ParallelEngine::new(cfg.workers));
        let payload = TimedPayload {
            inner: carousel,
            layer: Layer::CarouselNextPayload,
        };
        let sender = Sender::with_engine(c.inframe, TimedVideo(video), payload, engine.clone());
        let frame_period = 1.0 / c.inframe.refresh_hz;
        let frames_per_capture = (1.0 / (c.camera.fps * frame_period)).round().max(1.0) as usize;
        let cameras = (0..cfg.phase_bins)
            .map(|k| {
                let mut cam = c.camera;
                cam.phase_s += frame_period * (k % frames_per_capture) as f64;
                Camera::new(cam, c.geometry, c.seed ^ 0xCA_3E1A ^ (k as u64) << 17)
            })
            .collect();
        let registration = c.geometry.display_to_sensor(
            c.inframe.display_w,
            c.inframe.display_h,
            c.camera.width,
            c.camera.height,
        );
        let cache = RegionCache::build(&c.inframe, &registration, c.camera.width, c.camera.height);
        let scorer = BatchScorer::new(c.inframe, cache, engine.clone());
        let nb = scorer.num_blocks();
        let pop = draw_population(cfg, c.camera.width, c.camera.height);
        let sessions = (0..cfg.receivers)
            .map(|_| {
                ReceiverSession::new(
                    &c.inframe,
                    geometry,
                    CompletionTarget::AllOf(vec![cfg.object_id]),
                )
            })
            .collect();
        let readout = match c.camera.shutter {
            Shutter::Global => 0.0,
            Shutter::Rolling { readout_s } => readout_s,
        };
        Self {
            data,
            sender,
            display: DisplayStream::new(c.display),
            cameras,
            engine,
            layout,
            scorer,
            pop,
            sessions,
            best: vec![UNREADABLE; cfg.receivers * nb],
            next_best: vec![UNREADABLE; cfg.receivers * nb],
            assign: vec![SKIP; cfg.receivers],
            verdicts: vec![None; cfg.receivers * nb],
            row: Vec::with_capacity(nb),
            active: vec![false; cfg.receivers],
            window: VecDeque::new(),
            bin_cycle: vec![-1; cfg.phase_bins],
            current_cycle: 0,
            exposure_mid: readout / 2.0 + c.camera.exposure_s / 2.0,
            cycle_s: c.inframe.tau as f64 / c.inframe.refresh_hz,
            captures_scored: 0,
            captures_ok: 0,
            captures_failed: 0,
            dropped: 0,
            scale: 1.0,
            rx_ns: vec![0.0; c.cycles as usize + 1],
            cfg: cfg.clone(),
        }
    }

    /// Emits display frame `index`, scores every bin capture it
    /// completes, and steps the fleet through each cycle every bin has
    /// moved past. Returns the sender's time for the frame, ms at
    /// reference speed.
    fn step(&mut self, index: u64) -> f64 {
        let tau = self.cfg.sim.inframe.tau as u64;
        let cycles = self.cfg.sim.cycles as u64;
        trace::set_cycle(index / tau);
        let (frame, tx) = trace::timed(Layer::SenderRender, || self.sender.next_frame());
        let frame = frame.expect("a solid clip never ends");
        let (emission, _) =
            trace::timed(Layer::DisplayPresent, || self.display.present(&frame.plane));
        drop(frame);
        let window_end = emission.t_start + emission.duration;
        self.window.push_back(emission);
        for k in 0..self.cameras.len() {
            loop {
                let camera = &mut self.cameras[k];
                let (need_start, need_end) = camera.required_window();
                if need_end > window_end {
                    break;
                }
                let window = self.window.make_contiguous();
                let first =
                    window.partition_point(|e| e.t_start + e.duration <= need_start + 1e-12);
                let t_mid = camera.config().frame_start(camera.next_index()) + self.exposure_mid;
                let (captured, _) =
                    trace::timed(Layer::CameraCapture, || camera.capture(&window[first..]));
                let plane = match captured {
                    Ok(cap) => cap.plane,
                    Err(_) => {
                        self.captures_failed += 1;
                        camera.skip_frame();
                        continue;
                    }
                };
                self.captures_ok += 1;
                if t_mid < 0.0 {
                    continue;
                }
                let cycle = (t_mid / self.cycle_s).floor() as u64;
                self.bin_cycle[k] = self.bin_cycle[k].max(cycle as i64);
                let phase = (t_mid / self.cycle_s).fract();
                if phase >= PHASE_GATE || cycle >= cycles {
                    continue;
                }
                trace::set_cycle(cycle);
                let (_, score) = trace::timed(Layer::BatchScoreClasses, || {
                    self.scorer
                        .score_classes(&plane, &self.pop.transforms, &self.pop.classes)
                });
                self.captures_scored += 1;
                for (r, profile) in self.pop.profiles.iter_mut().enumerate() {
                    self.assign[r] = SKIP;
                    if profile.bin != k {
                        continue;
                    }
                    // Drawn for every bin capture, joined or not, so late
                    // joiners stay deterministic.
                    let dropped_now = profile.drop_rng.next_f64() < self.cfg.drop_rate;
                    if cycle < profile.join_cycle {
                        continue;
                    }
                    if dropped_now {
                        self.dropped += 1;
                        continue;
                    }
                    self.assign[r] = profile.class_at(cycle);
                }
                let table = if cycle == self.current_cycle {
                    &mut self.best
                } else {
                    &mut self.next_best
                };
                let (_, merge) = trace::timed(Layer::BatchFanout, || {
                    self.scorer.merge_assigned(&self.assign, table)
                });
                self.rx_ns[cycle as usize] += (score + merge).as_nanos() as f64 * self.scale;
            }
        }
        let min_need = self
            .cameras
            .iter()
            .map(|cam| cam.required_window().0)
            .fold(f64::INFINITY, f64::min);
        while self
            .window
            .front()
            .is_some_and(|e| e.t_start + e.duration <= min_need + 1e-12)
        {
            self.window.pop_front();
        }
        while self
            .bin_cycle
            .iter()
            .all(|&bc| bc > self.current_cycle as i64)
            && self.current_cycle < cycles
        {
            self.flush_cycle();
        }
        tx.as_secs_f64() * 1e3 * self.scale
    }

    /// Turns every receiver's best-score row into verdicts and steps the
    /// joined sessions through the current cycle in bulk.
    fn flush_cycle(&mut self) {
        let cycle = self.current_cycle;
        trace::set_cycle(cycle);
        let nb = self.scorer.num_blocks();
        let (_, fanout) = trace::timed(Layer::BatchFanout, || {
            for (r, profile) in self.pop.profiles.iter().enumerate() {
                self.active[r] = cycle >= profile.join_cycle;
                self.scorer
                    .verdicts_into(&self.best[r * nb..(r + 1) * nb], &mut self.row);
                self.verdicts[r * nb..(r + 1) * nb].copy_from_slice(&self.row);
            }
        });
        let (_, absorb) = trace::timed(Layer::SessionAbsorb, || {
            absorb_cycle_bulk(
                &self.engine,
                &self.layout,
                self.cfg.sim.inframe.coding,
                &mut self.sessions,
                &self.verdicts,
                &self.active,
                cycle,
            )
        });
        self.rx_ns[cycle as usize] += (fanout + absorb).as_nanos() as f64 * self.scale;
        std::mem::swap(&mut self.best, &mut self.next_best);
        self.next_best.fill(UNREADABLE);
        self.current_cycle += 1;
    }

    /// Flushes the cycles still in flight after the last frame.
    fn finish(&mut self) {
        while self.current_cycle < self.cfg.sim.cycles as u64 {
            self.flush_cycle();
        }
    }
}

/// One pass of `fleet_quick`: cycle 0 warms up untimed, cycles
/// `1..=cycles` are timed, and one tail cycle lets every bin finish.
///
/// A sender sample is the mean per display frame over one data cycle's
/// τ frames: one frame is well under 100 µs of sender work at Quick scale,
/// and every cycle holds the same mix of video and payload pulls.
pub fn run(seed: u64, cycles: u32, setups: usize, traced: bool) -> Outcome {
    let cfg = config(RECEIVERS, cycles + 2, seed);
    let mut out = Outcome::default();
    let mut clock = HostClock::new(!traced);
    let mut fleet = None;
    for _ in 0..setups {
        drop(fleet.take());
        clock.calibrate();
        let t = Instant::now();
        fleet = Some(Fleet::new(&cfg));
        out.setup_s.push(clock.ref_s(t.elapsed()));
    }
    let mut fleet = fleet.expect("at least one set-up");
    reset_peak_rss();
    let tau = cfg.sim.inframe.tau as u64;
    let total_frames = cfg.sim.cycles as u64 * tau;
    for f in 0..tau {
        fleet.step(f);
    }
    let busy_before = fleet.engine.busy();
    clock.refresh();
    let window = Window::start(traced);
    let mut cycle_tx_ms = 0.0;
    for f in tau..total_frames {
        fleet.scale = clock.scale();
        clock.start();
        cycle_tx_ms += fleet.step(f);
        clock.lap();
        if (f + 1).is_multiple_of(tau) {
            out.tx_ms.push(cycle_tx_ms / tau as f64);
            cycle_tx_ms = 0.0;
        }
    }
    fleet.scale = clock.scale();
    clock.start();
    fleet.finish();
    clock.lap();
    out.spans = window.stop();
    out.set_clock(&clock);
    let wall = out.wall_s;
    out.sim_s = (total_frames - tau) as f64 / cfg.sim.inframe.refresh_hz;
    let busy = (fleet.engine.busy() - busy_before).as_secs_f64();
    out.rx_ms = (1..=cycles as usize)
        .map(|c| fleet.rx_ns[c] / 1e6)
        .collect();

    let id = cfg.object_id;
    let mut stats = GobStats::default();
    let (mut received, mut useful) = (0u64, 0u64);
    let mut eps = Vec::new();
    out.attempted = fleet.sessions.len() as u64;
    for (r, s) in fleet.sessions.iter().enumerate() {
        stats.merge(s.stats());
        if let Some(d) = s.decoder(id) {
            received += d.received();
            useful += d.received() - d.redundant();
        }
        if s.completion_cycle(id).is_none() {
            out.failed += 1;
        } else if s.object(id) != Some(&fleet.data[..]) {
            out.errors
                .push(format!("receiver {r} completed with wrong bytes"));
        } else {
            eps.extend(s.epsilon(id));
        }
    }
    // Figure 7's goodput over the pooled receiver GOB statistics: raw
    // payload rate × availability × (1 − error rate), per receiver.
    let raw_kbps = fleet.layout.payload_bits_parity() as f64 / fleet.cycle_s / 1e3;
    out.goodput_kbps = raw_kbps
        * ratio(
            (stats.available - stats.erroneous) as f64,
            (stats.available + stats.unavailable) as f64,
        );
    out.gob_availability = ratio(
        stats.available as f64,
        (stats.available + stats.unavailable) as f64,
    );
    let classes = fleet.pop.classes.len() as f64;
    out.ratios = vec![
        (
            "camera.capture.ok_ratio",
            ratio(
                fleet.captures_ok as f64,
                (fleet.captures_ok + fleet.captures_failed) as f64,
            ),
        ),
        ("core.batch.classes_per_capture", classes),
        (
            "core.batch.receivers_per_class",
            ratio(RECEIVERS as f64, classes),
        ),
        (
            "link.session.symbol_useful_ratio",
            ratio(useful as f64, received as f64),
        ),
        ("link.session.eps_p50", median(&eps)),
        (
            "core.parallel.utilization",
            busy / (fleet.engine.workers() as f64 * wall),
        ),
    ];
    out
}

/// Runs this loop and `sim::run_fleet` on the same short configuration
/// and compares every receiver's completion and availability, the drop
/// count and the number of batched scorings.
pub fn check(seed: u64) -> Result<(), String> {
    let cfg = config(48, 16, seed);
    let mut fleet = Fleet::new(&cfg);
    for f in 0..cfg.sim.cycles as u64 * cfg.sim.inframe.tau as u64 {
        fleet.step(f);
    }
    fleet.finish();
    let report = inframe_sim::fleet::run_fleet_with_telemetry(&cfg, &Telemetry::new());
    let mut completion: Vec<u64> = fleet
        .sessions
        .iter()
        .zip(&fleet.pop.profiles)
        .filter_map(|(s, p)| {
            s.completion_cycle(cfg.object_id)
                .map(|d| d.saturating_sub(p.join_cycle))
        })
        .collect();
    completion.sort_unstable();
    let mut availability: Vec<f64> = fleet
        .sessions
        .iter()
        .map(|s| {
            let st = s.stats();
            if st.available + st.unavailable == 0 {
                0.0
            } else {
                st.available_ratio()
            }
        })
        .collect();
    availability.sort_unstable_by(f64::total_cmp);
    let ours = (
        fleet.captures_scored,
        fleet.dropped,
        completion,
        availability,
    );
    let theirs = (
        report.captures_scored,
        report.dropped,
        report.completion_cycles,
        report.availability,
    );
    if ours != theirs {
        return Err(format!(
            "fleet_quick loop disagrees with run_fleet: scored/dropped {}/{} vs {}/{}",
            ours.0, ours.1, theirs.0, theirs.1
        ));
    }
    Ok(())
}
