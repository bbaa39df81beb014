//! The always-on flight recorder: a bounded ring of periodic
//! [`DiagnosticFrame`]s that freezes into a self-contained JSON
//! **diagnostic bundle** when a trigger fires, and whose cumulative
//! frames also back the windowed metrics ([`FlightRecorder::window`]).
//!
//! The broker's volatile diagnostics (span rings, explanation rings,
//! load state, breaker summaries) are each overwritten within seconds —
//! precisely the horizon on which an incident is noticed. The recorder
//! closes that gap like an aircraft flight recorder: it continuously
//! captures cheap periodic frames into a preallocated ring, and when
//! something goes wrong (a worker panic, a breaker trip, load-state
//! entry into `Critical`, a quality-drift alert, or a manual
//! `POST /debug/trigger`) it freezes the ring, assembles one JSON bundle
//! carrying the frames *plus* the triggering cause and whatever context
//! the embedder supplies, writes it to a bounded on-disk spool
//! (`tep-diag-<seq>.json`, oldest evicted), and keeps the newest bundle
//! in memory for `GET /debug/bundle`.
//!
//! Each frame keeps every stage's *cumulative* [`HistogramSnapshot`], so
//! the newest frame minus an older one is exactly what happened between
//! them: windowed rates and windowed percentiles come from the same ring
//! the bundles freeze, with no second snapshot mechanism.
//!
//! Steady-state discipline:
//!
//! * a not-yet-due [`FlightRecorder::tick`] is one relaxed atomic load
//!   plus an `Instant` subtraction;
//! * when a tick is due, one caller claims it with a CAS; the frame is
//!   written into a preallocated ring slot whose buffers are reused
//!   (`Vec::clear` keeps capacity, stage histograms are refilled in
//!   place), so after [`FlightRecorder::warm`] the tick path performs
//!   **zero allocations**;
//! * a tick that finds the ring locked (a bundle freeze or a window read
//!   in progress) skips the frame rather than block its caller;
//! * bundle assembly and window reads — the rare paths — allocate freely.
//!
//! The crate stays dependency-free: frames carry only names, numbers,
//! histogram snapshots and reusable strings, and the embedder passes
//! richer context (config fingerprint, span trees, explanations) as a
//! pre-rendered JSON object at trigger time.

use crate::escape::escape_json;
use crate::hist::HistogramSnapshot;
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning for a [`FlightRecorder`]; see the module docs for the design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring capacity in frames (clamped to at least 2). At the default
    /// 64 frames × 250 ms tick the ring covers the last ~16 s.
    pub frame_capacity: usize,
    /// Minimum spacing between frames (clamped to at least 1 ms so an
    /// enabled recorder can never busy-tick).
    pub tick_interval: Duration,
    /// Directory for the on-disk bundle spool; `None` keeps bundles in
    /// memory only. The directory is created on construction; spool I/O
    /// errors are counted ([`FlightRecorder::spool_errors`]), never
    /// propagated — diagnostics must not take down the broker.
    pub spool_dir: Option<PathBuf>,
    /// Bundle files kept on disk before the oldest is evicted (clamped
    /// to at least 1 when a spool directory is set).
    pub spool_capacity: usize,
    /// Minimum spacing between bundles of the *same* trigger kind, so a
    /// flapping breaker or a panic loop cannot turn the spool into a
    /// bundle storm. Distinct kinds are independent.
    pub trigger_cooldown: Duration,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            frame_capacity: 64,
            tick_interval: Duration::from_millis(250),
            spool_dir: None,
            spool_capacity: 8,
            trigger_cooldown: Duration::from_secs(5),
        }
    }
}

/// A reusable hot-theme slot inside a frame; the `String` keeps its
/// capacity across frame resets.
#[derive(Debug, Default)]
struct ThemeSlot {
    name: String,
    count: u64,
}

/// Writes `(name, count)` into the next pooled slot of `slots`, reusing
/// its `String` when the pool already holds one.
fn push_pooled(slots: &mut Vec<ThemeSlot>, len: &mut usize, name: &str, count: u64) {
    match slots.get_mut(*len) {
        Some(slot) => {
            slot.name.clear();
            slot.name.push_str(name);
            slot.count = count;
        }
        None => slots.push(ThemeSlot {
            name: name.to_string(),
            count,
        }),
    }
    *len += 1;
}

/// One periodic snapshot in the recorder ring: counters, gauges, static
/// labels, cumulative per-stage histograms, and the hottest themes, all
/// in reusable storage. Frames are written through a [`FrameWriter`] and
/// read back from a rendered bundle or a [`WindowedDelta`].
#[derive(Debug, Default)]
pub struct DiagnosticFrame {
    seq: u64,
    at_ns: u64,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    labels: Vec<(&'static str, &'static str)>,
    /// Cumulative stage histograms, pooled like `themes`: each slot's
    /// bucket table is allocated once and refilled in place.
    stages: Vec<(&'static str, HistogramSnapshot)>,
    /// Live prefix of `stages`.
    stages_len: usize,
    themes: Vec<ThemeSlot>,
    /// Live prefix of `themes`; slots past it keep their capacity.
    themes_len: usize,
    /// Hottest cost-attribution entries, `(label, sampled ns)`, pooled
    /// like `themes`.
    costs: Vec<ThemeSlot>,
    /// Live prefix of `costs`.
    costs_len: usize,
}

impl DiagnosticFrame {
    /// Frame sequence number (monotonic across the recorder's life).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Nanoseconds since the recorder's epoch when the frame was taken.
    pub fn at_ns(&self) -> u64 {
        self.at_ns
    }

    /// The recorded counters, in write order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// The recorded gauges, in write order.
    pub fn gauges(&self) -> &[(&'static str, f64)] {
        &self.gauges
    }

    /// The recorded static labels, in write order.
    pub fn labels(&self) -> &[(&'static str, &'static str)] {
        &self.labels
    }

    /// The recorded cumulative stage histograms, in write order.
    pub fn stages(&self) -> &[(&'static str, HistogramSnapshot)] {
        &self.stages[..self.stages_len]
    }

    fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    fn stage(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.stages()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// Rewinds every section for the next write, keeping all capacity.
    fn reset(&mut self, seq: u64, at_ns: u64) {
        self.seq = seq;
        self.at_ns = at_ns;
        self.counters.clear();
        self.gauges.clear();
        self.labels.clear();
        self.stages_len = 0;
        self.themes_len = 0;
        self.costs_len = 0;
    }

    fn render_json(&self, out: &mut String) {
        use fmt::Write;
        let _ = write!(
            out,
            "{{\"seq\": {}, \"at_ms\": {:.3}",
            self.seq,
            self.at_ns as f64 / 1e6
        );
        out.push_str(", \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{}\": {v}", escape_json(name));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{}\": {v:.3}", escape_json(name));
        }
        out.push_str("}, \"labels\": {");
        for (i, (name, v)) in self.labels.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": \"{}\"",
                escape_json(name),
                escape_json(v)
            );
        }
        out.push_str("}, \"stages\": [");
        for (i, (name, s)) in self.stages().iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"stage\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                escape_json(name),
                s.count(),
                s.p50().as_nanos(),
                s.p99().as_nanos(),
                s.max().as_nanos()
            );
        }
        out.push_str("], \"themes\": [");
        for (i, slot) in self.themes[..self.themes_len].iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"count\": {}}}",
                escape_json(&slot.name),
                slot.count
            );
        }
        out.push_str("], \"costs\": [");
        for (i, slot) in self.costs[..self.costs_len].iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ns\": {}}}",
                escape_json(&slot.name),
                slot.count
            );
        }
        out.push_str("]}");
    }
}

/// Write access to the frame being ticked.
pub struct FrameWriter<'a> {
    frame: &'a mut DiagnosticFrame,
}

impl fmt::Debug for FrameWriter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameWriter")
            .field("seq", &self.frame.seq)
            .finish_non_exhaustive()
    }
}

impl FrameWriter<'_> {
    /// Records a monotonic counter value.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.frame.counters.push((name, value));
    }

    /// Records a gauge value.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.frame.gauges.push((name, value));
    }

    /// Records a static label (e.g. `load_state = "healthy"`); both
    /// sides are `'static` so a label can never allocate.
    pub fn label(&mut self, name: &'static str, value: &'static str) {
        self.frame.labels.push((name, value));
    }

    /// Records one cumulative stage histogram: `fill` accumulates counts
    /// into the slot's pooled snapshot, cleared beforehand. Allocation-free
    /// once the slot has held this many stages.
    pub fn stage(&mut self, name: &'static str, fill: impl FnOnce(&mut HistogramSnapshot)) {
        let frame = &mut *self.frame;
        if frame.stages_len == frame.stages.len() {
            frame.stages.push((name, HistogramSnapshot::empty()));
        }
        let (slot_name, snap) = &mut frame.stages[frame.stages_len];
        *slot_name = name;
        snap.clear();
        fill(snap);
        frame.stages_len += 1;
    }

    /// Records one hot-theme entry, reusing a pooled `String` slot.
    /// Allocation-free once the slot pool has seen names at least this
    /// long.
    pub fn theme(&mut self, name: &str, count: u64) {
        push_pooled(
            &mut self.frame.themes,
            &mut self.frame.themes_len,
            name,
            count,
        );
    }

    /// Records one hot cost-attribution entry (`name`, sampled
    /// nanoseconds), reusing a pooled `String` slot like
    /// [`FrameWriter::theme`].
    pub fn cost(&mut self, name: &str, ns: u64) {
        push_pooled(&mut self.frame.costs, &mut self.frame.costs_len, name, ns);
    }
}

/// The difference between the newest frame and an older base frame:
/// what happened *during* the window ([`FlightRecorder::window`]).
#[derive(Debug, Clone)]
pub struct WindowedDelta {
    span: Duration,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl WindowedDelta {
    /// The time actually covered: at least the requested window, or less
    /// when the ring holds no frame that old.
    pub fn span(&self) -> Duration {
        self.span
    }

    /// How much counter `name` grew during the window (`None` if the
    /// newest frame does not carry it).
    pub fn counter_delta(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counter `name`'s per-second rate over the window.
    pub fn rate(&self, name: &str) -> Option<f64> {
        let secs = self.span.as_secs_f64();
        self.counter_delta(name).map(|d| d as f64 / secs)
    }

    /// The stage histogram of values recorded during the window — feed
    /// to `p50()`/`p95()`/`p99()` for windowed percentiles.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// All counter deltas, in the newest frame's order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// All stage histogram deltas, in the newest frame's order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &HistogramSnapshot)> + '_ {
        self.histograms.iter().map(|(n, s)| (*n, s))
    }
}

/// The frame ring behind one mutex.
struct FrameRing {
    slots: Vec<DiagnosticFrame>,
    /// Next slot to (over)write.
    head: usize,
    /// Occupied slots (grows to `slots.len()` and stays there).
    len: usize,
    next_seq: u64,
}

impl FrameRing {
    fn write_frame(&mut self, at_ns: u64, fill: impl FnOnce(&mut FrameWriter<'_>)) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = &mut self.slots[self.head];
        frame.reset(seq, at_ns);
        fill(&mut FrameWriter { frame });
        self.head = (self.head + 1) % self.slots.len();
        self.len = (self.len + 1).min(self.slots.len());
    }

    /// Occupied slots, oldest first.
    fn iter_oldest_first(&self) -> impl DoubleEndedIterator<Item = &DiagnosticFrame> {
        let start = (self.head + self.slots.len() - self.len) % self.slots.len();
        (0..self.len).map(move |i| &self.slots[(start + i) % self.slots.len()])
    }
}

/// Per-kind trigger bookkeeping and the on-disk spool state.
struct TriggerState {
    /// `(kind, last fire, ns since epoch)`; trigger kinds are a small
    /// closed set, so a flat vector beats a map.
    last_fire: Vec<(&'static str, u64)>,
    next_bundle_seq: u64,
    spool: VecDeque<PathBuf>,
}

/// The flight recorder; see the module docs. All methods take `&self`
/// and are safe to call from any broker thread.
pub struct FlightRecorder {
    config: RecorderConfig,
    epoch: Instant,
    /// Nanoseconds-since-epoch at which the next tick is due; claimed by
    /// CAS so concurrent dequeue paths record at most one frame per
    /// interval.
    next_due_ns: AtomicU64,
    ring: Mutex<FrameRing>,
    triggers: Mutex<TriggerState>,
    latest: Mutex<Option<Arc<String>>>,
    frames_recorded: AtomicU64,
    bundles_assembled: AtomicU64,
    spool_errors: AtomicU64,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("config", &self.config)
            .field("frames_recorded", &self.frames_recorded())
            .field("bundles_assembled", &self.bundles_assembled())
            .finish_non_exhaustive()
    }
}

/// A poisoned diagnostics mutex only means a panicking thread died while
/// writing plain data into a frame; the data is still the best evidence
/// available, so recover the guard instead of cascading the panic.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl FlightRecorder {
    /// Builds a recorder with preallocated (but cold) frame slots. Slot
    /// buffers grow on their first write; embedders that need the
    /// zero-allocation guarantee from the very first measured event
    /// should call [`FlightRecorder::warm`] once.
    pub fn new(mut config: RecorderConfig) -> FlightRecorder {
        config.frame_capacity = config.frame_capacity.max(2);
        config.tick_interval = config.tick_interval.max(Duration::from_millis(1));
        config.spool_capacity = config.spool_capacity.max(1);
        if let Some(dir) = &config.spool_dir {
            // Best-effort: a failed mkdir surfaces later as spool errors.
            let _ = std::fs::create_dir_all(dir);
        }
        let slots = (0..config.frame_capacity)
            .map(|_| DiagnosticFrame::default())
            .collect();
        FlightRecorder {
            epoch: Instant::now(),
            next_due_ns: AtomicU64::new(0),
            ring: Mutex::new(FrameRing {
                slots,
                head: 0,
                len: 0,
                next_seq: 0,
            }),
            triggers: Mutex::new(TriggerState {
                last_fire: Vec::with_capacity(8),
                next_bundle_seq: 0,
                spool: VecDeque::with_capacity(config.spool_capacity),
            }),
            latest: Mutex::new(None),
            frames_recorded: AtomicU64::new(0),
            bundles_assembled: AtomicU64::new(0),
            spool_errors: AtomicU64::new(0),
            config,
        }
    }

    /// The recorder's (clamped) configuration.
    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    fn now_ns(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The time the full ring spans: `frame_capacity × tick_interval`.
    /// A window longer than this cannot be read from the ring.
    pub fn horizon(&self) -> Duration {
        let frames = u32::try_from(self.config.frame_capacity).unwrap_or(u32::MAX);
        self.config.tick_interval.saturating_mul(frames)
    }

    /// Records a frame via `fill` if one is due at `now`, claiming the
    /// interval with a CAS so concurrent callers record at most one
    /// frame per interval. Returns whether a frame was recorded: `false`
    /// when not yet due (one relaxed load and a compare), when another
    /// caller claimed the interval, or when a bundle freeze or window
    /// read holds the ring — the frame is then forfeited rather than
    /// blocking the caller.
    pub fn tick(&self, now: Instant, fill: impl FnOnce(&mut FrameWriter<'_>)) -> bool {
        let now_ns = self.now_ns(now);
        let due = self.next_due_ns.load(Ordering::Relaxed);
        if now_ns < due {
            return false;
        }
        let next = now_ns + self.config.tick_interval.as_nanos() as u64;
        if self
            .next_due_ns
            .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return false; // another thread claimed this interval
        }
        let Ok(mut ring) = self.ring.try_lock() else {
            return false; // freeze or window read in progress; don't block
        };
        ring.write_frame(now_ns, fill);
        self.frames_recorded.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Records a frame unconditionally — no due check, no claim, blocks
    /// on the ring lock. For deterministic frame boundaries.
    pub fn force_tick(&self, fill: impl FnOnce(&mut FrameWriter<'_>)) {
        let now_ns = self.now_ns(Instant::now());
        lock_unpoisoned(&self.ring).write_frame(now_ns, fill);
        self.frames_recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes every ring slot once with `fill`, then rewinds the ring:
    /// the slots' buffers keep this frame shape's capacity, so later
    /// ticks never allocate, but no warm-up frame is left behind to pass
    /// for history. Afterwards [`FlightRecorder::frames`] is 0 and the
    /// next frame is seq 0.
    pub fn warm(&self, mut fill: impl FnMut(&mut FrameWriter<'_>)) {
        let mut ring = lock_unpoisoned(&self.ring);
        for _ in 0..ring.slots.len() {
            ring.write_frame(0, &mut fill);
        }
        ring.head = 0;
        ring.len = 0;
        ring.next_seq = 0;
    }

    /// The delta over (approximately) the last `span`: the newest frame
    /// minus the youngest frame at least `span` older than it. When no
    /// frame is that old the oldest is used, and [`WindowedDelta::span`]
    /// reports the shorter coverage. `None` until two frames exist, or
    /// when they share a timestamp.
    pub fn window(&self, span: Duration) -> Option<WindowedDelta> {
        let ring = lock_unpoisoned(&self.ring);
        if ring.len < 2 {
            return None;
        }
        let mut frames = ring.iter_oldest_first();
        let newest = frames.next_back()?;
        let oldest = frames.next()?;
        let span_ns = span.as_nanos() as u64;
        let base = frames
            .rev()
            .find(|f| newest.at_ns.saturating_sub(f.at_ns) >= span_ns)
            .unwrap_or(oldest);
        let covered = newest.at_ns.saturating_sub(base.at_ns);
        if covered == 0 {
            return None;
        }
        let counters = newest
            .counters
            .iter()
            .map(|&(name, now)| (name, now.saturating_sub(base.counter(name).unwrap_or(0))))
            .collect();
        let histograms = newest
            .stages()
            .iter()
            .map(|(name, now)| {
                let delta = match base.stage(name) {
                    Some(then) => now.delta_since(then),
                    None => now.clone(),
                };
                (*name, delta)
            })
            .collect();
        Some(WindowedDelta {
            span: Duration::from_nanos(covered),
            counters,
            histograms,
        })
    }

    /// Occupied ring slots (saturates at the frame capacity).
    pub fn frames(&self) -> usize {
        lock_unpoisoned(&self.ring).len
    }

    /// Total frames recorded over the recorder's life.
    pub fn frames_recorded(&self) -> u64 {
        self.frames_recorded.load(Ordering::Relaxed)
    }

    /// Total bundles assembled over the recorder's life.
    pub fn bundles_assembled(&self) -> u64 {
        self.bundles_assembled.load(Ordering::Relaxed)
    }

    /// Spool writes or evictions that failed (the bundle itself is still
    /// available via [`FlightRecorder::latest_bundle`]).
    pub fn spool_errors(&self) -> u64 {
        self.spool_errors.load(Ordering::Relaxed)
    }

    /// Whether a `kind` trigger would currently be accepted — a cheap
    /// cooldown peek so hot paths can skip building trigger detail and
    /// context strings while the kind is cooling down.
    pub fn trigger_armed(&self, kind: &'static str) -> bool {
        let now_ns = self.now_ns(Instant::now());
        let triggers = lock_unpoisoned(&self.triggers);
        self.cooled_down(&triggers, kind, now_ns)
    }

    fn cooled_down(&self, triggers: &TriggerState, kind: &str, now_ns: u64) -> bool {
        let cooldown = self.config.trigger_cooldown.as_nanos() as u64;
        triggers
            .last_fire
            .iter()
            .find(|(k, _)| *k == kind)
            .is_none_or(|(_, last)| now_ns.saturating_sub(*last) >= cooldown)
    }

    /// Fires a trigger: freezes the ring, assembles a bundle from the
    /// frames, the cause, and the embedder's pre-rendered `context_json`
    /// object, stores it as the latest bundle, and spools it to disk.
    /// Returns the bundle sequence number, or `None` when the kind is
    /// still cooling down ([`RecorderConfig::trigger_cooldown`]).
    pub fn trigger(&self, kind: &'static str, detail: &str, context_json: &str) -> Option<u64> {
        let now_ns = self.now_ns(Instant::now());
        let mut triggers = lock_unpoisoned(&self.triggers);
        if !self.cooled_down(&triggers, kind, now_ns) {
            return None;
        }
        match triggers.last_fire.iter_mut().find(|(k, _)| *k == kind) {
            Some(entry) => entry.1 = now_ns,
            None => triggers.last_fire.push((kind, now_ns)),
        }
        let seq = triggers.next_bundle_seq;
        triggers.next_bundle_seq += 1;
        let bundle = self.render_bundle(seq, kind, detail, now_ns, context_json);
        self.bundles_assembled.fetch_add(1, Ordering::Relaxed);
        let bundle = Arc::new(bundle);
        *lock_unpoisoned(&self.latest) = Some(Arc::clone(&bundle));
        self.spool(&mut triggers, seq, &bundle);
        Some(seq)
    }

    /// The newest assembled bundle, if any trigger has fired.
    pub fn latest_bundle(&self) -> Option<Arc<String>> {
        lock_unpoisoned(&self.latest).clone()
    }

    /// The bundle files currently on disk, oldest first. Empty without a
    /// spool directory.
    pub fn spool_files(&self) -> Vec<PathBuf> {
        lock_unpoisoned(&self.triggers)
            .spool
            .iter()
            .cloned()
            .collect()
    }

    fn render_bundle(
        &self,
        seq: u64,
        kind: &str,
        detail: &str,
        at_ns: u64,
        context_json: &str,
    ) -> String {
        use fmt::Write;
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\n  \"bundle_seq\": {seq},\n  \"cause\": {{\"kind\": \"{}\", \"detail\": \"{}\", \"at_ms\": {:.3}}},\n  \"frames\": [\n",
            escape_json(kind),
            escape_json(detail),
            at_ns as f64 / 1e6
        );
        {
            let ring = lock_unpoisoned(&self.ring);
            for (i, frame) in ring.iter_oldest_first().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str("    ");
                frame.render_json(&mut out);
            }
        }
        let context = context_json.trim();
        let context = if context.is_empty() { "{}" } else { context };
        let _ = write!(out, "\n  ],\n  \"context\": {context}\n}}\n");
        out
    }

    fn spool(&self, triggers: &mut TriggerState, seq: u64, bundle: &str) {
        let Some(dir) = &self.config.spool_dir else {
            return;
        };
        let path = dir.join(format!("tep-diag-{seq}.json"));
        if std::fs::write(&path, bundle).is_err() {
            self.spool_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        triggers.spool.push_back(path);
        while triggers.spool.len() > self.config.spool_capacity {
            let oldest = triggers.spool.pop_front().expect("len > capacity >= 1");
            if std::fs::remove_file(&oldest).is_err() {
                self.spool_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn fill_basic(w: &mut FrameWriter<'_>) {
        w.counter("processed", 7);
        w.gauge("queue_depth", 3.0);
        w.label("load_state", "healthy");
        let hist = LatencyHistogram::new();
        hist.record_nanos(1_000);
        hist.record_nanos(2_000);
        w.stage("queue_wait", |snap| hist.accumulate_into(snap));
        w.theme("energy policy", 5);
        w.cost("entry-3", 12_500);
    }

    fn unique_spool(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tep-recorder-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn tick_claims_at_most_one_frame_per_interval() {
        let rec = FlightRecorder::new(RecorderConfig {
            tick_interval: Duration::from_secs(3600),
            ..RecorderConfig::default()
        });
        assert!(
            rec.tick(Instant::now(), fill_basic),
            "a fresh recorder is immediately due"
        );
        assert!(
            !rec.tick(Instant::now(), fill_basic),
            "the interval was claimed"
        );
        assert_eq!(rec.frames(), 1);
        assert_eq!(rec.frames_recorded(), 1);
    }

    #[test]
    fn concurrent_ticks_record_one_frame() {
        let rec = Arc::new(FlightRecorder::new(RecorderConfig {
            tick_interval: Duration::from_secs(3600),
            ..RecorderConfig::default()
        }));
        let winners: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let rec = Arc::clone(&rec);
                    scope.spawn(move || usize::from(rec.tick(Instant::now(), fill_basic)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(winners, 1, "exactly one thread claims the due tick");
        assert_eq!(rec.frames(), 1);
    }

    #[test]
    fn ring_wraps_keeping_the_newest_frames() {
        let rec = FlightRecorder::new(RecorderConfig {
            frame_capacity: 3,
            ..RecorderConfig::default()
        });
        for i in 0..5u64 {
            rec.force_tick(|w| w.counter("i", i));
        }
        assert_eq!(rec.frames(), 3);
        rec.trigger("manual", "wrap test", "{}").expect("bundle");
        let bundle = rec.latest_bundle().expect("latest");
        // Only the newest three frames (seq 2, 3, 4) survive the wrap.
        assert!(!bundle.contains("\"seq\": 1,"));
        for seq in 2..5 {
            assert!(bundle.contains(&format!("\"seq\": {seq},")), "seq {seq}");
        }
    }

    #[test]
    fn bundle_carries_cause_frames_and_context() {
        let rec = FlightRecorder::new(RecorderConfig::default());
        rec.force_tick(fill_basic);
        rec.force_tick(fill_basic);
        let seq = rec
            .trigger(
                "worker_panic",
                "worker 3 died: \"boom\"",
                "{\"workers\": 2}",
            )
            .expect("first trigger fires");
        assert_eq!(seq, 0);
        let bundle = rec.latest_bundle().expect("latest bundle");
        assert!(bundle.contains("\"bundle_seq\": 0"));
        assert!(bundle.contains("\"kind\": \"worker_panic\""));
        assert!(
            bundle.contains("worker 3 died: \\\"boom\\\""),
            "detail is escaped"
        );
        assert!(bundle.contains("\"context\": {\"workers\": 2}"));
        assert!(bundle.contains("\"processed\": 7"));
        assert!(bundle.contains("\"load_state\": \"healthy\""));
        assert!(bundle.contains("\"stage\": \"queue_wait\""));
        assert!(bundle.contains("\"name\": \"energy policy\""));
        assert!(bundle.contains("\"costs\": [{\"name\": \"entry-3\", \"ns\": 12500}]"));
        assert_eq!(rec.bundles_assembled(), 1);
    }

    #[test]
    fn empty_context_degrades_to_an_empty_object() {
        let rec = FlightRecorder::new(RecorderConfig::default());
        rec.trigger("manual", "", "  \n");
        let bundle = rec.latest_bundle().expect("bundle");
        assert!(bundle.contains("\"context\": {}"));
    }

    #[test]
    fn cooldown_suppresses_same_kind_but_not_other_kinds() {
        let rec = FlightRecorder::new(RecorderConfig {
            trigger_cooldown: Duration::from_secs(3600),
            ..RecorderConfig::default()
        });
        assert!(rec.trigger_armed("breaker_trip"));
        assert_eq!(rec.trigger("breaker_trip", "s1", "{}"), Some(0));
        assert!(!rec.trigger_armed("breaker_trip"));
        assert_eq!(
            rec.trigger("breaker_trip", "s1 again", "{}"),
            None,
            "same kind cools down"
        );
        assert_eq!(
            rec.trigger("load_critical", "independent", "{}"),
            Some(1),
            "distinct kinds are independent"
        );
        // A zero cooldown never suppresses.
        let eager = FlightRecorder::new(RecorderConfig {
            trigger_cooldown: Duration::ZERO,
            ..RecorderConfig::default()
        });
        assert_eq!(eager.trigger("manual", "a", "{}"), Some(0));
        assert_eq!(eager.trigger("manual", "b", "{}"), Some(1));
    }

    #[test]
    fn spool_evicts_oldest_bundles() {
        let dir = unique_spool("evict");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(RecorderConfig {
            spool_dir: Some(dir.clone()),
            spool_capacity: 2,
            trigger_cooldown: Duration::ZERO,
            ..RecorderConfig::default()
        });
        rec.force_tick(fill_basic);
        for i in 0..4 {
            assert_eq!(rec.trigger("manual", &format!("t{i}"), "{}"), Some(i));
        }
        let files = rec.spool_files();
        assert_eq!(
            files,
            vec![dir.join("tep-diag-2.json"), dir.join("tep-diag-3.json")],
            "only the two newest bundles survive"
        );
        assert!(!dir.join("tep-diag-0.json").exists());
        assert!(!dir.join("tep-diag-1.json").exists());
        let newest = std::fs::read_to_string(dir.join("tep-diag-3.json")).unwrap();
        assert!(newest.contains("\"detail\": \"t3\""));
        assert_eq!(rec.spool_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steady_state_tick_reuses_frame_buffers() {
        // Not an allocator-level assertion (that lives in the bench
        // gate); this checks the mechanism it relies on — capacities
        // survive frame resets, so refills need no growth.
        let rec = FlightRecorder::new(RecorderConfig {
            frame_capacity: 2,
            ..RecorderConfig::default()
        });
        for _ in 0..6 {
            rec.force_tick(fill_basic);
        }
        let ring = lock_unpoisoned(&rec.ring);
        for frame in ring.slots.iter() {
            assert!(frame.counters.capacity() >= 1);
            assert_eq!(frame.stages.len(), 1, "stage slots are pooled, not dropped");
            assert_eq!(frame.themes.len(), 1, "theme slots are pooled, not dropped");
            assert_eq!(frame.costs.len(), 1, "cost slots are pooled, not dropped");
        }
    }

    #[test]
    fn warm_up_leaves_no_frames_but_keeps_the_buffers() {
        let rec = FlightRecorder::new(RecorderConfig {
            frame_capacity: 4,
            ..RecorderConfig::default()
        });
        rec.warm(fill_basic);
        assert_eq!(rec.frames(), 0, "warm-up copies are not history");
        assert_eq!(rec.frames_recorded(), 0);
        assert!(rec.tick(Instant::now(), fill_basic));
        assert_eq!(rec.frames(), 1);
        let ring = lock_unpoisoned(&rec.ring);
        let seqs: Vec<u64> = ring.iter_oldest_first().map(|f| f.seq).collect();
        assert_eq!(seqs, [0], "the first real frame is seq 0");
        for frame in ring.slots.iter() {
            assert!(frame.counters.capacity() >= 1, "counters kept capacity");
            assert_eq!(frame.stages.len(), 1, "stage buffer kept");
            assert_eq!(frame.themes.len(), 1, "theme slot kept");
            assert_eq!(frame.costs.len(), 1, "cost slot kept");
        }
    }

    /// Ticks `rec` at `at` with a frame carrying a cumulative `published`
    /// counter and a `match` stage holding `latencies_us`.
    fn tick_frame_at(rec: &FlightRecorder, at: Instant, published: u64, latencies_us: &[u64]) {
        let hist = LatencyHistogram::new();
        for us in latencies_us {
            hist.record_nanos(us * 1_000);
        }
        assert!(
            rec.tick(at, |w| {
                w.counter("published", published);
                w.stage("match", |snap| hist.accumulate_into(snap));
            }),
            "tick at an explicit instant is due"
        );
    }

    fn window_recorder(frame_capacity: usize, tick_secs: u64) -> FlightRecorder {
        FlightRecorder::new(RecorderConfig {
            frame_capacity,
            tick_interval: Duration::from_secs(tick_secs),
            ..RecorderConfig::default()
        })
    }

    #[test]
    fn windowed_rates_and_percentiles_from_cumulative_frames() {
        let rec = window_recorder(16, 10);
        let t0 = Instant::now();
        // Cumulative: 0 events at t0, 100 at +10s, 700 at +20s.
        tick_frame_at(&rec, t0, 0, &[]);
        tick_frame_at(&rec, t0 + Duration::from_secs(10), 100, &[10, 20]);
        tick_frame_at(
            &rec,
            t0 + Duration::from_secs(20),
            700,
            &[10, 20, 5_000, 5_000, 5_000],
        );
        // Last 10s: 600 events → 60 ev/s; three 5ms latencies recorded.
        let w = rec.window(Duration::from_secs(10)).unwrap();
        assert_eq!(w.span(), Duration::from_secs(10));
        assert_eq!(w.counter_delta("published"), Some(600));
        assert!((w.rate("published").unwrap() - 60.0).abs() < 1e-9);
        let h = w.histogram("match").unwrap();
        assert_eq!(h.count(), 3);
        assert!(h.p50() >= Duration::from_micros(5_000));
        // Last 60s falls back to the oldest frame: 700 events over 20s.
        let w = rec.window(Duration::from_secs(60)).unwrap();
        assert_eq!(w.span(), Duration::from_secs(20));
        assert_eq!(w.counter_delta("published"), Some(700));
        assert!((w.rate("published").unwrap() - 35.0).abs() < 1e-9);
        assert_eq!(w.histogram("match").unwrap().count(), 5);
    }

    #[test]
    fn needs_two_frames() {
        let rec = window_recorder(8, 1);
        assert!(rec.window(Duration::from_secs(10)).is_none());
        tick_frame_at(&rec, Instant::now(), 5, &[]);
        assert!(rec.window(Duration::from_secs(10)).is_none());
        assert_eq!(rec.frames(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_and_time_only_moves_forward() {
        let rec = window_recorder(2, 1);
        let t0 = Instant::now();
        tick_frame_at(&rec, t0, 1, &[]);
        tick_frame_at(&rec, t0 + Duration::from_secs(1), 2, &[]);
        tick_frame_at(&rec, t0 + Duration::from_secs(2), 3, &[]);
        assert_eq!(rec.frames(), 2, "capacity 2 keeps only the newest two");
        // An earlier instant is never due again.
        assert!(!rec.tick(t0, |w| w.counter("published", 99)));
        assert_eq!(rec.frames(), 2);
        let w = rec.window(Duration::from_secs(60)).unwrap();
        assert_eq!(w.counter_delta("published"), Some(1), "3 - 2");
    }

    #[test]
    fn counters_missing_from_the_base_frame_count_from_zero() {
        let rec = window_recorder(4, 5);
        let t0 = Instant::now();
        assert!(rec.tick(t0, |_| {}));
        tick_frame_at(&rec, t0 + Duration::from_secs(5), 40, &[7]);
        let w = rec.window(Duration::from_secs(5)).unwrap();
        assert_eq!(w.counter_delta("published"), Some(40));
        assert_eq!(w.histogram("match").unwrap().count(), 1);
        assert_eq!(w.counters().count(), 1);
        assert_eq!(w.histograms().count(), 1);
        assert!(w.counter_delta("absent").is_none());
        assert!(w.rate("absent").is_none());
    }

    #[test]
    fn horizon_is_capacity_times_tick() {
        assert_eq!(
            FlightRecorder::new(RecorderConfig::default()).horizon(),
            Duration::from_secs(16)
        );
        assert_eq!(window_recorder(256, 1).horizon(), Duration::from_secs(256));
    }
}
