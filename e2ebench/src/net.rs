//! `net_closed_loop`: the addressed network stack at GOB level — one
//! `NetSender` over a 5×3 spatial tiling, a population of `NetReceiver`s
//! behind lossy `RegionChannel`s, feedback over lossy `Backchannel`s,
//! selective-repeat ARQ and per-region δ re-modulation. No pixel layer
//! runs.
//!
//! A run steps a number of independent cells in lockstep; each cell runs
//! one episode after another. An episode is one
//! `sim::netsim::run_net_scenario` scenario, stepped cycle by cycle in
//! the harness's per-cycle order until every flow has arrived;
//! [`check_against_harness`] proves the step reproduces the harness's
//! outcome exactly.

use crate::outcome::{ratio, reset_peak_rss, Outcome};
use crate::speed::HostClock;
use crate::trace::{self, Layer, Window};
use inframe_core::layout::DataLayout;
use inframe_core::region::RegionMap;
use inframe_core::InFrameConfig;
use inframe_link::control::ControllerPolicy;
use inframe_net::{
    AddressFilter, ArqMode, ArqPolicy, DeadlineClass, MacAddr, NetReceiver, NetSender,
    RegionControllerBank, StreamQos,
};
use inframe_sim::backchannel::{Backchannel, BackchannelConfig};
use inframe_sim::netsim::{
    ClosedLoopSpec, FlowDelivery, LoopStats, NetDatagramSpec, NetReceiverSpec, NetScenarioConfig,
    NetScenarioOutcome, NetStreamSpec, ReceiverOutcome,
};
use inframe_sim::{run_net_scenario, RegionChannel, RegionOcclusion};
use std::time::Instant;

/// Independent cells (one display, one `NetSender`, one audience each)
/// stepped in lockstep. One sender's cycle is a few microseconds; the
/// cells make each timed unit well over 100 µs of sender work.
const CELLS: u64 = 12;

/// Receivers per cell.
const STATIONS: u16 = 12;

/// Untimed lockstep cycles before the timed part. Per-cycle cost climbs
/// over the first thousand or so cycles of a process (the heap settles
/// under the episode churn) before it levels off.
const WARMUP_CYCLES: u64 = 1000;

/// Warm-up stagger between consecutive cells, in cycles: `CELLS ×
/// STAGGER` is about one episode (~310 cycles).
const STAGGER: u64 = 26;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01B3;

/// SplitMix64 step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Datagram bytes exactly as `sim::netsim` derives them: byte `k` is
/// SplitMix64 at `state0 + k·γ`.
fn datagram_bytes(seed: u64, index: usize, len: usize) -> Vec<u8> {
    let state0 = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len as u64)
        .map(|k| mix(state0.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))) as u8)
        .collect()
}

/// The scenario of episode `episode` of a run seeded `seed`: three
/// streams (bulk unicast, interactive group ticker, realtime broadcast
/// beacon), 12 receivers with per-receiver erasure, two bad tiles on a
/// third of them, a mid-episode occlusion on a sixth, and a delayed,
/// jittered, lossy back-channel. Only the seed varies between episodes.
pub fn scenario(seed: u64, episode: u64) -> NetScenarioConfig {
    let seed = mix(seed ^ episode.wrapping_mul(0xA24B_AED4_963E_E407));
    let streams = vec![
        NetStreamSpec {
            id: 0,
            qos: StreamQos::bulk(),
            max_fragment: 64,
        },
        NetStreamSpec {
            id: 1,
            qos: StreamQos {
                priority: 2,
                weight: 1,
                deadline: DeadlineClass::Interactive,
            },
            max_fragment: 32,
        },
        NetStreamSpec {
            id: 2,
            qos: StreamQos {
                priority: 1,
                weight: 1,
                deadline: DeadlineClass::Realtime,
            },
            max_fragment: 32,
        },
    ];
    let addr = |i: u16| 0x0101 + i;
    let mut datagrams = Vec::new();
    for i in (0..STATIONS).step_by(3) {
        datagrams.push(NetDatagramSpec {
            stream: 0,
            dst: addr(i),
            len: 400,
        });
    }
    for (group, len) in [(0xFF05, 240), (0xFF06, 160)] {
        datagrams.push(NetDatagramSpec {
            stream: 1,
            dst: group,
            len,
        });
    }
    datagrams.push(NetDatagramSpec {
        stream: 2,
        dst: 0xFFFF,
        len: 96,
    });
    let receivers = (0..STATIONS)
        .map(|i| {
            let mut groups = vec![if i % 2 == 0 { 0xFF05 } else { 0xFF06 }];
            if i % 5 == 0 {
                groups.push(0xFF06);
            }
            groups.dedup();
            let base = 0.002 + 0.001 * (i % 4) as f64;
            let region_erasures = if i % 3 == 1 {
                let mut e = vec![base; 15];
                e[(i as usize * 7) % 15] = 0.03;
                e[(i as usize * 11 + 4) % 15] = 0.03;
                e
            } else {
                Vec::new()
            };
            let occlusions = if i % 6 == 5 {
                vec![RegionOcclusion {
                    region: i as usize % 15,
                    from_cycle: 10,
                    until_cycle: 40,
                }]
            } else {
                Vec::new()
            };
            NetReceiverSpec {
                addr: addr(i),
                groups,
                base_erasure: base,
                region_erasures,
                occlusions,
            }
        })
        .collect();
    NetScenarioConfig {
        tiles_x: 5,
        tiles_y: 3,
        streams,
        datagrams,
        receivers,
        max_cycles: 4000,
        seed,
        closed_loop: Some(ClosedLoopSpec {
            arq: ArqPolicy {
                seed,
                ..ArqPolicy::default()
            },
            report_every: 4,
            backchannel: BackchannelConfig {
                delay_cycles: 1,
                jitter_cycles: 1,
                loss: 0.1,
                faults: Vec::new(),
            },
            remodulate: true,
            delta_step: ControllerPolicy::default().delta_step,
        }),
    }
}

struct Station {
    rx: NetReceiver,
    chan: RegionChannel,
    bc: Option<Backchannel>,
    expected: Vec<FlowDelivery>,
    completed_cycle: Option<u64>,
    gobs_seen: u64,
    gobs_readable: u64,
}

/// One scenario, built as `run_net_scenario` builds it and stepped in its
/// per-cycle order.
struct Episode {
    config: NetScenarioConfig,
    tx: NetSender,
    bank: Option<RegionControllerBank>,
    stations: Vec<Station>,
    datagram_buf: Vec<u8>,
    loop_stats: Option<LoopStats>,
    prev_mode: Option<ArqMode>,
    cycle: u64,
    done: bool,
}

impl Episode {
    fn new(config: NetScenarioConfig) -> Self {
        let layout = DataLayout::from_config(&InFrameConfig::paper());
        let map = RegionMap::new(&layout, config.tiles_x, config.tiles_y);
        let mut tx = NetSender::new(map.clone(), MacAddr::new(0x0001));
        for s in &config.streams {
            tx.open_stream(s.id, s.qos, s.max_fragment);
        }
        if let Some(cl) = &config.closed_loop {
            tx.enable_arq(cl.arq);
        }
        let bank = config
            .closed_loop
            .as_ref()
            .filter(|cl| cl.remodulate)
            .map(|cl| {
                let inframe = InFrameConfig::paper();
                let policy = ControllerPolicy {
                    taus: vec![inframe.tau],
                    delta_step: cl.delta_step,
                    target_availability: 0.985,
                    hysteresis: 0.008,
                    ..ControllerPolicy::default()
                };
                RegionControllerBank::new(&inframe, policy, map.clone())
            });
        let payloads: Vec<Vec<u8>> = config
            .datagrams
            .iter()
            .enumerate()
            .map(|(i, d)| datagram_bytes(config.seed, i, d.len))
            .collect();
        for (d, bytes) in config.datagrams.iter().zip(&payloads) {
            tx.send_datagram(d.stream, MacAddr::new(d.dst), bytes);
        }
        let stations = config
            .receivers
            .iter()
            .map(|spec| {
                let mut filter = AddressFilter::new(MacAddr::new(spec.addr));
                for &g in &spec.groups {
                    filter.join_group(MacAddr::new(g));
                }
                let mut rx = NetReceiver::new(map.clone(), filter);
                for s in &config.streams {
                    rx.open_stream(s.id, 256, s.max_fragment, 1 << 16);
                }
                let erasures = if spec.region_erasures.is_empty() {
                    vec![spec.base_erasure; map.num_regions()]
                } else {
                    spec.region_erasures.clone()
                };
                let mut chan = RegionChannel::new(
                    map.clone(),
                    &erasures,
                    config.seed ^ (spec.addr as u64) << 16,
                );
                for &occ in &spec.occlusions {
                    chan.add_occlusion(occ);
                }
                let bc = config.closed_loop.as_ref().map(|cl| {
                    Backchannel::new(
                        cl.backchannel.clone(),
                        config.seed ^ ((spec.addr as u64) << 8) ^ 0xFEED,
                    )
                });
                let mut expected: Vec<FlowDelivery> = Vec::new();
                for (d, payload) in config.datagrams.iter().zip(&payloads) {
                    if !spec.expects(d.dst) {
                        continue;
                    }
                    let pos = expected
                        .iter()
                        .position(|f| f.stream == d.stream && f.dst == d.dst);
                    let flow = match pos {
                        Some(p) => &mut expected[p],
                        None => {
                            expected.push(FlowDelivery {
                                stream: d.stream,
                                dst: d.dst,
                                expected_datagrams: 0,
                                expected_bytes: 0,
                                expected_digest: FNV_OFFSET,
                                delivered_datagrams: 0,
                                delivered_bytes: 0,
                                digest: 0,
                            });
                            expected.last_mut().expect("just pushed")
                        }
                    };
                    for &b in payload {
                        flow.expected_digest =
                            (flow.expected_digest ^ b as u64).wrapping_mul(FNV_PRIME);
                    }
                    flow.expected_bytes += d.len as u64;
                    flow.expected_datagrams += 1;
                }
                Station {
                    rx,
                    chan,
                    bc,
                    expected,
                    completed_cycle: None,
                    gobs_seen: 0,
                    gobs_readable: 0,
                }
            })
            .collect();
        let loop_stats = config.closed_loop.as_ref().map(|_| LoopStats::default());
        let prev_mode = tx.arq_mode();
        Self {
            config,
            tx,
            bank,
            stations,
            datagram_buf: Vec::new(),
            loop_stats,
            prev_mode,
            cycle: 0,
            done: false,
        }
    }

    /// Runs one cycle. Returns `(sender ms, receiver ms)`.
    fn step(&mut self) -> (f64, f64) {
        let cycle = self.cycle;
        let (payload, tx_time) = trace::timed(Layer::NetSenderNextCyclePayload, || {
            self.tx.next_cycle_payload()
        });
        let mut rx_ns = 0u64;
        let mut all_done = true;
        for st in &mut self.stations {
            if st.completed_cycle.is_some() {
                continue;
            }
            let (seen, _) = trace::timed(Layer::SimChannelTransmit, || {
                st.chan.transmit_payload(&payload, cycle)
            });
            st.gobs_seen += seen.len() as u64;
            st.gobs_readable += seen.iter().filter(|b| b.is_some()).count() as u64;
            let datagram_buf = &mut self.datagram_buf;
            let streams = &self.config.streams;
            let (_, push) = trace::timed(Layer::NetReceiverPushCycle, || {
                st.rx.push_cycle(&seen);
                for s in streams {
                    while st.rx.pop_datagram(s.id, datagram_buf) {}
                }
            });
            rx_ns += push.as_nanos() as u64;
            if let (Some(cl), Some(bc)) = (&self.config.closed_loop, &mut st.bc) {
                if (cycle + 1).is_multiple_of(cl.report_every) {
                    let rx = &mut st.rx;
                    let (_, fb) = trace::timed(Layer::NetFeedback, || {
                        let report = rx.build_feedback(cycle);
                        bc.send(&report, cycle);
                    });
                    rx_ns += fb.as_nanos() as u64;
                }
            }
            let done = st.expected.iter().all(|e| {
                let lane = st.rx.stream_lane(e.stream, MacAddr::new(e.dst));
                lane.is_some_and(|l| {
                    l.delivered_datagrams() == e.expected_datagrams
                        && l.digest() == e.expected_digest
                })
            });
            if done {
                st.completed_cycle = Some(cycle);
            } else {
                all_done = false;
            }
        }
        if let Some(stats) = self.loop_stats.as_mut() {
            let tx = &mut self.tx;
            let stations = &mut self.stations;
            let bank = &mut self.bank;
            let (mode, fb) = trace::timed(Layer::NetFeedback, || {
                for st in stations.iter_mut() {
                    if let Some(bc) = &mut st.bc {
                        bc.poll(cycle, |report| {
                            if !tx.ingest_feedback(report) {
                                stats.reports_stale += 1;
                            }
                        });
                    }
                }
                if let Some(bank) = bank {
                    if tx.observe_feedback_window(bank) {
                        stats.commands_applied += 1;
                        for r in 0..bank.num_regions() {
                            let cmd = bank.command(r);
                            for st in stations.iter_mut() {
                                st.chan.set_region_modulation(r, cmd);
                            }
                        }
                    }
                }
                tx.arq_mode()
            });
            rx_ns += fb.as_nanos() as u64;
            match (self.prev_mode, mode) {
                (Some(ArqMode::Closed), Some(ArqMode::Fountain)) => stats.fallbacks += 1,
                (Some(ArqMode::Fountain), Some(ArqMode::Closed)) => stats.recoveries += 1,
                _ => {}
            }
            self.prev_mode = mode;
        }
        self.cycle += 1;
        self.done = all_done || self.cycle >= self.config.max_cycles;
        (tx_time.as_secs_f64() * 1e3, rx_ns as f64 / 1e6)
    }

    /// The outcome in `run_net_scenario`'s shape.
    fn outcome(&self) -> NetScenarioOutcome {
        let mut loop_stats = self.loop_stats.clone();
        if let Some(stats) = loop_stats.as_mut() {
            for st in &self.stations {
                if let Some(bc) = &st.bc {
                    stats.reports_sent += bc.sent();
                    stats.reports_delivered += bc.delivered();
                    stats.reports_lost += bc.lost();
                }
            }
            stats.retransmits = self.tx.arq().map_or(0, |a| a.retransmits());
        }
        NetScenarioOutcome {
            cycles_run: self.cycle,
            loop_stats,
            receivers: self
                .stations
                .iter()
                .zip(&self.config.receivers)
                .map(|(st, spec)| ReceiverOutcome {
                    addr: spec.addr,
                    flows: st
                        .expected
                        .iter()
                        .map(|&e| {
                            let mut e = e;
                            if let Some(lane) = st.rx.stream_lane(e.stream, MacAddr::new(e.dst)) {
                                e.delivered_datagrams = lane.delivered_datagrams();
                                e.delivered_bytes = lane.delivered_bytes();
                                e.digest = lane.digest();
                            }
                            e
                        })
                        .collect(),
                    completed_cycle: st.completed_cycle,
                    frames_rx: st.rx.frames_rx(),
                    frames_filtered: st.rx.frames_filtered(),
                    symbols_filtered: st.rx.symbols_filtered(),
                })
                .collect(),
        }
    }
}

/// Simulated seconds per data cycle on the paper layout (τ = 12 at
/// 120 Hz).
fn cycle_s() -> f64 {
    let c = InFrameConfig::paper();
    c.tau as f64 / c.refresh_hz
}

/// What the finished episodes of a pass delivered.
#[derive(Default)]
struct Ledger {
    flows: u64,
    flows_incomplete: u64,
    flows_corrupt: u64,
    bytes_ok: u64,
    cycles: u64,
    gobs_seen: u64,
    gobs_readable: u64,
    frames_rx: u64,
    frames_all: u64,
    retransmits: u64,
    reports_sent: u64,
    reports_delivered: u64,
}

impl Ledger {
    fn add(&mut self, ep: &Episode) {
        let o = ep.outcome();
        self.cycles += o.cycles_run;
        for (r, st) in o.receivers.iter().zip(&ep.stations) {
            for f in &r.flows {
                self.flows += 1;
                if f.complete() {
                    self.bytes_ok += f.delivered_bytes;
                } else if f.delivered_datagrams < f.expected_datagrams {
                    // Still missing datagrams when the episode hit
                    // `max_cycles`: a failed operation, not wrong data.
                    self.flows_incomplete += 1;
                } else {
                    self.flows_corrupt += 1;
                }
            }
            self.gobs_seen += st.gobs_seen;
            self.gobs_readable += st.gobs_readable;
            self.frames_rx += r.frames_rx;
            self.frames_all += r.frames_rx + r.frames_filtered + st.rx.frames_rejected();
        }
        if let Some(ls) = &o.loop_stats {
            self.retransmits += ls.retransmits;
            self.reports_sent += ls.reports_sent;
            self.reports_delivered += ls.reports_delivered;
        }
    }
}

/// One cell: a display with its own sender and audience, running one
/// episode after another.
struct Cell {
    seed: u64,
    episodes: u64,
    ep: Episode,
}

impl Cell {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            episodes: 1,
            ep: Episode::new(scenario(seed, 0)),
        }
    }

    /// Builds the cell's next episode. Its first cycle, which holds the
    /// fresh sender's first encode and the receivers' first lanes, is
    /// stepped with the other cells' cycles.
    fn next_episode(&mut self) {
        self.ep = Episode::new(scenario(self.seed, self.episodes));
        self.episodes += 1;
    }
}

/// One pass of `net_closed_loop`: `cycles` timed data cycles over all
/// cells in lockstep. A cell whose episode finished builds the next one
/// between cycles, outside the timed part; the new episode's first cycle
/// is timed like any other.
pub fn run(seed: u64, cycles: u32, setups: usize, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::new(!traced);
    let mut cells = Vec::new();
    for _ in 0..setups {
        cells.clear();
        clock.calibrate();
        let t = Instant::now();
        cells = (0..CELLS).map(|c| Cell::new(mix(seed ^ c << 32))).collect();
        out.setup_s.push(clock.ref_s(t.elapsed()));
    }
    reset_peak_rss();
    let mut ledger = Ledger::default();
    let window = Window::start(traced);
    // Untimed warm-up: each cell's first cycle, then a stagger of
    // `c × STAGGER` cycles for cell `c`, so that from the first timed
    // cycle on the cells sit at evenly spread points of their episodes
    // instead of all starting in the cheap systematic phase together.
    trace::set_cycle(trace::UNTIMED);
    for (c, cell) in cells.iter_mut().enumerate() {
        cell.ep.step();
        for _ in 0..c as u64 * STAGGER {
            if cell.ep.done {
                ledger.add(&cell.ep);
                cell.next_episode();
            } else {
                cell.ep.step();
            }
        }
    }
    for cycle in 0..WARMUP_CYCLES + cycles as u64 {
        trace::set_cycle(trace::UNTIMED);
        for cell in cells.iter_mut().filter(|c| c.ep.done) {
            ledger.add(&cell.ep);
            cell.next_episode();
        }
        let timed = cycle >= WARMUP_CYCLES;
        if timed {
            trace::set_cycle(cycle - WARMUP_CYCLES);
        }
        if cycle == WARMUP_CYCLES {
            clock.refresh();
        }
        let scale = clock.scale();
        clock.start();
        let (mut tx, mut rx) = (0.0, 0.0);
        for cell in cells.iter_mut().filter(|c| !c.ep.done) {
            let (t_ms, r_ms) = cell.ep.step();
            tx += t_ms;
            rx += r_ms;
        }
        if timed {
            clock.lap();
            out.tx_ms.push(tx * scale);
            out.rx_ms.push(rx * scale);
        }
    }
    for cell in cells.iter().filter(|c| c.ep.done) {
        ledger.add(&cell.ep);
    }
    out.spans = window.stop();
    out.set_clock(&clock);
    out.sim_s = cycles as f64 * cycle_s();
    out.attempted = ledger.flows;
    out.failed = ledger.flows_incomplete + ledger.flows_corrupt;
    if ledger.flows_corrupt > 0 {
        out.errors.push(format!(
            "{} of {} flows delivered every datagram but failed their FNV digest",
            ledger.flows_corrupt, ledger.flows
        ));
    }
    out.goodput_kbps = ledger.bytes_ok as f64 * 8.0 / (ledger.cycles as f64 * cycle_s()) / 1e3;
    out.gob_availability = ratio(ledger.gobs_readable as f64, ledger.gobs_seen as f64);
    out.ratios = vec![
        (
            "net.receiver.frame_accept_ratio",
            ratio(ledger.frames_rx as f64, ledger.frames_all as f64),
        ),
        (
            "net.arq.retransmits_per_cycle",
            ratio(ledger.retransmits as f64, ledger.cycles as f64),
        ),
        (
            "net.feedback.delivered_ratio",
            ratio(ledger.reports_delivered as f64, ledger.reports_sent as f64),
        ),
    ];
    out
}

/// Runs the first episode of cell 0, cut to a short length, through the
/// benchmark's step and through `run_net_scenario`, and compares the outcomes
/// field for field.
pub fn check_against_harness(seed: u64) -> Result<(), String> {
    let mut cfg = scenario(mix(seed), 0);
    cfg.max_cycles = 60;
    let mut ep = Episode::new(cfg.clone());
    while !ep.done {
        ep.step();
    }
    let ours = format!("{:?}", ep.outcome());
    let theirs = format!("{:?}", run_net_scenario(&cfg));
    if ours != theirs {
        return Err("net_closed_loop step outcome differs from run_net_scenario".into());
    }
    Ok(())
}
