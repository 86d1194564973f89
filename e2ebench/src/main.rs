//! Whole-chain benchmark of the InFrame workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper_video --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (`paper_video`, `fleet_quick` or `net_closed_loop`)
//! through the product's public layer APIs, checks its outputs, and
//! prints one JSON object as the last line of stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! README.md in this directory defines every metric.

mod adapters;
mod fleet;
mod net;
mod outcome;
mod pixel;
mod speed;
mod trace;

use outcome::{median, quantile, ratio, Outcome};
use std::fmt::Write as _;
use trace::{Layer, LayerStats};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;

/// The fewest samples a p90 may be reported from (the tail rule).
const MIN_TAIL_SAMPLES: usize = 100;

struct Workload {
    name: &'static str,
    /// Timed work units (data cycles, or net episodes) per `--seconds`,
    /// sized so one untraced run measures about `--seconds` on a 2-core
    /// x86-64 host. The unit count, not the clock, ends a run, so every
    /// run of a seed does identical work.
    units_per_second: f64,
    min_units: u32,
    /// Fewest units per traced-run pass: enough for every receiver of the
    /// fleet to finish, and for the network cells to cycle episodes.
    min_trace_units: u32,
    workers: usize,
    run: fn(u64, u32, usize, bool) -> Outcome,
    check: fn(u64) -> Result<(), String>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_video",
        units_per_second: 0.3,
        min_units: 6,
        min_trace_units: 2,
        workers: pixel::WORKERS,
        run: pixel::run,
        check: pixel::check_against_harness,
    },
    Workload {
        name: "fleet_quick",
        units_per_second: 6.0,
        min_units: 110,
        min_trace_units: 110,
        workers: fleet::WORKERS,
        run: fleet::run,
        check: fleet::check,
    },
    Workload {
        name: "net_closed_loop",
        units_per_second: 400.0,
        min_units: 110,
        min_trace_units: 500,
        workers: 1,
        run: net::run,
        check: net::check_against_harness,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s >= 1)
            .ok_or("--seconds >= 1 is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The environment knobs the product reads. Each is recorded, then pinned
/// so that no outside setting changes what a run measures.
const ENV_KNOBS: [&str; 4] = [
    "INFRAME_OBS",
    "INFRAME_KERNEL",
    "INFRAME_WORKERS",
    "INFRAME_SIMD",
];

fn pin_environment(workers: usize) -> String {
    let mut seen = String::new();
    for (i, k) in ENV_KNOBS.iter().enumerate() {
        let v = std::env::var(k).ok();
        let _ = write!(
            seen,
            "{}\"{k}\": {}",
            if i > 0 { ", " } else { "" },
            v.map_or("null".to_string(), |v| format!("{v:?}"))
        );
    }
    let detected = inframe_frame::simd::detected_level();
    // Single-threaded here: no other thread reads the environment yet.
    std::env::remove_var("INFRAME_OBS");
    std::env::set_var("INFRAME_KERNEL", "quantized");
    std::env::set_var("INFRAME_WORKERS", workers.to_string());
    std::env::set_var("INFRAME_SIMD", format!("{detected:?}").to_ascii_lowercase());
    inframe_frame::simd::force_level(Some(detected));
    seen
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn end_to_end(o: &Outcome, errors: &mut Vec<String>) -> Metrics {
    for (what, n) in [("tx", o.tx_ms.len()), ("rx", o.rx_ms.len())] {
        if n == 0 {
            errors.push(format!("no {what} samples"));
        }
    }
    if o.tx_ms.len() < MIN_TAIL_SAMPLES {
        errors.push(format!(
            "tx_ms_p90 needs {MIN_TAIL_SAMPLES} samples, run has {}",
            o.tx_ms.len()
        ));
    }
    let mut m = Metrics(Vec::new());
    m.push("realtime_factor", o.realtime_factor(), "x");
    m.push("tx_ms_p50", quantile(&o.tx_ms, 0.5), "ms");
    m.push("tx_ms_p90", quantile(&o.tx_ms, 0.9), "ms");
    m.push("rx_ms_p50", quantile(&o.rx_ms, 0.5), "ms");
    m.push("setup_s", median(&o.setup_s), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m.push("goodput_kbps", o.goodput_kbps, "kbit/s");
    m.push("gob_availability", o.gob_availability, "ratio");
    m
}

/// Per-layer metrics from the traced passes' folded spans (`layers`, and
/// `covered_ns` of wall time inside top-level spans), their ratios, and
/// the untraced passes' realtime factor for the overhead estimate. Also
/// returns the `busy_share` table, sorted by share.
fn per_layer(
    layers: &[LayerStats],
    covered_ns: u64,
    traced: &[Outcome],
    untraced: &[Outcome],
) -> (Metrics, String) {
    let wall_s: f64 = traced.iter().map(|o| o.wall_s).sum();
    let wall_ns = wall_s * 1e9;
    let mut m = Metrics(Vec::new());
    let mut table: Vec<(f64, String)> = Vec::new();
    for (layer, s) in Layer::ALL.iter().zip(layers) {
        let name = layer.name();
        let share = ratio(s.self_ns as f64, wall_ns);
        let (p50, p90) = (quantile(&s.self_us, 0.5), quantile(&s.self_us, 0.9));
        m.push(format!("{name}.calls"), s.calls as f64, "count");
        m.push(format!("{name}.busy_share"), share, "ratio");
        m.push(format!("{name}.us_p50"), p50, "us");
        m.push(format!("{name}.us_p90"), p90, "us");
        m.push(
            format!("{name}.allocs_per_call"),
            ratio(s.self_allocs as f64, s.calls as f64),
            "count",
        );
        if s.calls > 0 {
            table.push((
                share,
                format!(
                    "{name:<32} {share:>8.4} {:>10} {p50:>12.2} {p90:>12.2} {:>10.2}",
                    s.calls,
                    ratio(s.self_allocs as f64, s.calls as f64)
                ),
            ));
        }
    }
    // Ratios: the mean over the traced passes of what each pass read.
    for &(name, unit) in &RATIOS {
        let vals: Vec<f64> = traced
            .iter()
            .filter_map(|o| o.ratios.iter().find(|(n, _)| *n == name).map(|r| r.1))
            .collect();
        let v = if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        m.push(name, v, unit);
    }
    let residual = 1.0 - ratio(covered_ns as f64, wall_ns);
    let rf =
        |os: &[Outcome]| os.iter().map(|o| o.raw_realtime_factor()).sum::<f64>() / os.len() as f64;
    let overhead = 1.0 - rf(traced) / rf(untraced);
    m.push("bench.residual_share", residual, "ratio");
    m.push("obs.trace_overhead", overhead, "ratio");
    table.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut text = format!(
        "{:<32} {:>8} {:>10} {:>12} {:>12} {:>10}\n",
        "layer (self time)", "busy", "calls", "us_p50", "us_p90", "allocs"
    );
    for (_, line) in table {
        text.push_str(&line);
        text.push('\n');
    }
    let _ = writeln!(text, "{:<32} {residual:>8.4}", "(not in any span)");
    let _ = writeln!(
        text,
        "trace overhead {overhead:.4} (ABBA, traced vs untraced realtime_factor)"
    );
    (m, text)
}

/// Ratios and counts the workloads read after a pass, with their units.
const RATIOS: [(&str, &str); 10] = [
    ("camera.capture.ok_ratio", "ratio"),
    ("core.demux.scored_ratio", "ratio"),
    ("core.batch.classes_per_capture", "count"),
    ("core.batch.receivers_per_class", "count"),
    ("link.session.symbol_useful_ratio", "ratio"),
    ("link.session.eps_p50", "ratio"),
    ("net.receiver.frame_accept_ratio", "ratio"),
    ("net.arq.retransmits_per_cycle", "count"),
    ("net.feedback.delivered_ratio", "ratio"),
    ("core.parallel.utilization", "ratio"),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <paper_video|fleet_quick|net_closed_loop> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let env_seen = pin_environment(w.workers);
    let units = ((args.seconds as f64 * w.units_per_second).round() as u32).max(w.min_units);
    println!(
        "{{\"bench\": \"e2ebench\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"units\": {units}, \"trace\": {}, \"kernel\": \"quantized\", \"workers\": {}, \
         \"simd_detected\": \"{:?}\", \"simd_active\": \"{:?}\", \"nproc\": {}, \
         \"env_at_start\": {{{env_seen}}}}}",
        w.name,
        args.seed,
        args.seconds,
        args.trace,
        w.workers,
        inframe_frame::simd::detected_level(),
        inframe_frame::simd::active_level(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut errors = Vec::new();
    if let Err(e) = (w.check)(args.seed) {
        errors.push(e);
    }
    let (metrics, passes) = if args.trace {
        // ABBA: untraced, traced, traced, untraced — a quarter of the
        // work each, so order and warm-up effects cancel in the overhead
        // estimate and the run takes about as long as an untraced one.
        let quarter = units.div_ceil(4).max(w.min_trace_units);
        let mut layers = vec![LayerStats::default(); Layer::ALL.len()];
        let mut covered_ns = 0;
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        for (i, with_spans) in [false, true, true, false].into_iter().enumerate() {
            let mut o = (w.run)(args.seed, quarter, 1, with_spans);
            if with_spans {
                covered_ns += trace::fold(&o.spans, &mut layers);
                if i == 1 {
                    let path = std::path::PathBuf::from(format!("e2ebench/traces/{}.tsv", w.name));
                    if let Err(e) = trace::write_spans(&path, &o.spans) {
                        eprintln!("e2ebench: span file not written: {e}");
                    }
                }
                o.spans = Vec::new();
                traced.push(o);
            } else {
                untraced.push(o);
            }
        }
        let (m, table) = per_layer(&layers, covered_ns, &traced, &untraced);
        print!("{table}");
        traced.append(&mut untraced);
        (m, traced)
    } else {
        let o = (w.run)(args.seed, units, SETUPS, false);
        let m = end_to_end(&o, &mut errors);
        let probe = &o.probe_us;
        println!(
            "host: speed probe p25/p50/p75 {:.1}/{:.1}/{:.1} us over {} probes \
             (reference speed: {:.1} us); raw realtime_factor {:.6}",
            quantile(probe, 0.25),
            quantile(probe, 0.5),
            quantile(probe, 0.75),
            probe.len(),
            speed::REFERENCE_NS / 1e3,
            o.raw_realtime_factor(),
        );
        println!(
            "samples at reference speed: tx {} (p50 {:.4} ms, p90 {:.4} ms), \
             rx {} (p50 {:.4} ms{})",
            o.tx_ms.len(),
            quantile(&o.tx_ms, 0.5),
            quantile(&o.tx_ms, 0.9),
            o.rx_ms.len(),
            quantile(&o.rx_ms, 0.5),
            if o.rx_ms.len() >= MIN_TAIL_SAMPLES {
                format!(", p90 {:.4} ms", quantile(&o.rx_ms, 0.9))
            } else {
                ", p90 withheld: fewer than 100 cycles".to_string()
            }
        );
        (m, vec![o])
    };
    let (mut attempted, mut failed) = (0, 0);
    for p in &passes {
        attempted += p.attempted;
        failed += p.failed;
        errors.extend(p.errors.iter().cloned());
    }
    for e in &errors {
        eprintln!("e2ebench: check failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        errors.is_empty(),
        metrics.json()
    );
}
