//! Timing and tracing from outside the product's layers.
//!
//! Every call the workloads make into a layer goes through [`timed`]. With
//! tracing off that is two `Instant` reads, which is what the end-to-end
//! timings use. With tracing on, each call also records a span (layer,
//! start, end, parent span, data-cycle id) and the allocations made inside
//! it, kept in memory until the pass ends. A span's
//! self time and self allocations exclude its children, so the sender's
//! render time is the `Sender::next_frame` span minus the video and
//! payload pulls its adapters record as children.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts heap allocations while [`count_allocations`] is on. The count is
/// a statistic that publishes no other data, hence `Relaxed`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off (on only during traced passes).
fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The layer boundaries the workloads time. Names are the per-layer metric
/// prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    VideoNextFrame,
    SenderRender,
    SenderPayload,
    CarouselNextPayload,
    DisplayPresent,
    CameraCapture,
    DemuxPushCapture,
    BatchScoreClasses,
    BatchFanout,
    SessionAbsorb,
    NetSenderNextCyclePayload,
    SimChannelTransmit,
    NetReceiverPushCycle,
    NetFeedback,
}

impl Layer {
    pub const ALL: [Layer; 14] = [
        Layer::VideoNextFrame,
        Layer::SenderRender,
        Layer::SenderPayload,
        Layer::CarouselNextPayload,
        Layer::DisplayPresent,
        Layer::CameraCapture,
        Layer::DemuxPushCapture,
        Layer::BatchScoreClasses,
        Layer::BatchFanout,
        Layer::SessionAbsorb,
        Layer::NetSenderNextCyclePayload,
        Layer::SimChannelTransmit,
        Layer::NetReceiverPushCycle,
        Layer::NetFeedback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::VideoNextFrame => "video.next_frame",
            Layer::SenderRender => "core.sender.render",
            Layer::SenderPayload => "core.sender.payload",
            Layer::CarouselNextPayload => "link.carousel.next_payload",
            Layer::DisplayPresent => "display.present",
            Layer::CameraCapture => "camera.capture",
            Layer::DemuxPushCapture => "core.demux.push_capture",
            Layer::BatchScoreClasses => "core.batch.score_classes",
            Layer::BatchFanout => "core.batch.fanout",
            Layer::SessionAbsorb => "link.session.absorb",
            Layer::NetSenderNextCyclePayload => "net.sender.next_cycle_payload",
            Layer::SimChannelTransmit => "sim.channel.transmit",
            Layer::NetReceiverPushCycle => "net.receiver.push_cycle",
            Layer::NetFeedback => "net.feedback",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed in ALL")
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    layer: Layer,
    /// Nanoseconds since the traced window began.
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<u32>,
    /// Data cycle the span belongs to.
    cycle: u64,
    /// Duration minus the time covered by child spans.
    self_ns: u64,
    /// Allocations inside the span minus those inside child spans.
    self_allocs: u64,
    child_ns: u64,
    child_allocs: u64,
    allocs_at_start: u64,
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    cycle: u64,
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        cycle: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// An open timing span, closed by `exit`.
#[must_use]
pub struct Span {
    start: Instant,
    id: Option<u32>,
}

/// Starts (or stops) recording spans on this thread and clears any
/// recorded so far. The traced window's clock starts now.
pub fn set_tracing(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.open.is_empty(), "tracing toggled inside an open span");
        t.enabled = on;
        t.epoch = Instant::now();
        t.spans.clear();
    });
}

/// Cycle tag of spans that belong to no timed cycle; [`fold`] skips them.
pub const UNTIMED: u64 = u64::MAX;

/// Tags the spans that follow with data cycle `cycle`.
pub fn set_cycle(cycle: u64) {
    TRACER.with(|t| t.borrow_mut().cycle = cycle);
}

/// Opens a span around one call into `layer`.
fn enter(layer: Layer) -> Span {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let id = t.spans.len() as u32;
        let rec = SpanRecord {
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: t.open.last().copied(),
            cycle: t.cycle,
            self_ns: 0,
            self_allocs: 0,
            child_ns: 0,
            child_allocs: 0,
            allocs_at_start: 0,
        };
        t.spans.push(rec);
        t.open.push(id);
        Some(id)
    });
    let start = Instant::now();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let ns = start.duration_since(t.epoch).as_nanos() as u64;
            let rec = &mut t.spans[id as usize];
            rec.start_ns = ns;
            // Read after the record is stored, so growing the span
            // buffer is not charged to the span.
            rec.allocs_at_start = allocs();
        });
    }
    Span { start, id }
}

/// Closes `span`, returning the call's wall time.
fn exit(span: Span) -> Duration {
    let end = Instant::now();
    let dur = end.duration_since(span.start);
    if let Some(id) = span.id {
        let allocs_now = allocs();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            assert_eq!(t.open.pop(), Some(id), "spans must close in LIFO order");
            let end_ns = end.duration_since(t.epoch).as_nanos() as u64;
            let rec = &mut t.spans[id as usize];
            rec.end_ns = end_ns;
            let dur_ns = end_ns - rec.start_ns;
            let allocs_in = allocs_now - rec.allocs_at_start;
            rec.self_ns = dur_ns.saturating_sub(rec.child_ns);
            rec.self_allocs = allocs_in.saturating_sub(rec.child_allocs);
            if let Some(p) = rec.parent {
                let parent = &mut t.spans[p as usize];
                parent.child_ns += dur_ns;
                parent.child_allocs += allocs_in;
            }
        });
    }
    dur
}

/// Times one call into `layer`: `(result, wall time)`.
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> (R, Duration) {
    let span = enter(layer);
    let r = f();
    (r, exit(span))
}

/// Takes the recorded spans.
fn take() -> Vec<SpanRecord> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.open.is_empty(), "spans taken while one is open");
        std::mem::take(&mut t.spans)
    })
}

/// Per-layer aggregate over one or more traced windows.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    pub self_us: Vec<f64>,
}

/// Folds spans into per-layer stats (indexed like [`Layer::ALL`]) and
/// returns the time covered by root spans.
pub fn fold(spans: &[SpanRecord], into: &mut [LayerStats]) -> u64 {
    let mut covered = 0;
    for s in spans.iter().filter(|s| s.cycle != UNTIMED) {
        let l = &mut into[s.layer.index()];
        l.calls += 1;
        l.self_ns += s.self_ns;
        l.self_allocs += s.self_allocs;
        l.self_us.push(s.self_ns as f64 / 1e3);
        if s.parent.is_none() {
            covered += s.end_ns - s.start_ns;
        }
    }
    covered
}

/// Most spans [`write_spans`] writes; a traced `net_closed_loop` pass
/// records millions.
const MAX_WRITTEN_SPANS: usize = 250_000;

/// Writes the first [`MAX_WRITTEN_SPANS`] spans as tab-separated lines:
/// id, layer, start_ns, end_ns, parent id (or -1), cycle (-1 untimed).
pub fn write_spans(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tlayer\tstart_ns\tend_ns\tparent\tcycle")?;
    for (i, s) in spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let cycle = if s.cycle == UNTIMED {
            -1
        } else {
            s.cycle as i64
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            cycle
        )?;
    }
    out.flush()
}

/// The timed part of one pass: starts tracing and allocation counting
/// when `traced`, and hands back the span record at [`Window::stop`].
pub struct Window {
    traced: bool,
}

impl Window {
    pub fn start(traced: bool) -> Self {
        set_tracing(traced);
        count_allocations(traced);
        Self { traced }
    }

    /// Ends the timed part and returns its spans.
    pub fn stop(self) -> Vec<SpanRecord> {
        count_allocations(false);
        let spans = take();
        if self.traced {
            set_tracing(false);
        }
        spans
    }
}
