//! Zero-cost-when-disabled observability: structured events + metrics.
//!
//! The paper's two headline guarantees — stabilization to `I` and crash
//! failure locality 2 — are pass/fail properties, but *how* a run
//! converges (which actions fired, how long hungry processes waited, how
//! far a crash's disturbance radiated) is invisible without
//! instrumentation. This module provides it in three layers:
//!
//! 1. A structured **event bus**: [`TelemetryEvent`]s (action firings,
//!    phase transitions, fault injections, message-layer verdicts), each
//!    stamped with the engine step, the process id and a monotonic
//!    logical clock, delivered to an [`EventSink`] ([`RingSink`] keeps
//!    the last N in memory, [`JsonlSink`] renders one JSON object per
//!    line with no external dependencies).
//! 2. A **metrics registry**: named counters, gauges and fixed-bucket
//!    histograms addressed by integer handles so the hot path never does
//!    a string lookup.
//! 3. **Derived observables**: [`disturbance_radius`] compares a faulty
//!    run against its fault-free twin and reports the maximum
//!    conflict-graph distance from the crash site at which any
//!    non-faulty process deviates — the empirical counterpart of the
//!    paper's failure-locality-2 theorem.
//!
//! The engine holds an `Option<Box<Telemetry>>`; every instrumentation
//! site is a single `if let Some(..)` branch, so the disabled path costs
//! one predictable-untaken branch per site (measured ≤ 2% on the ring(256)
//! incremental hot path, see T11). Telemetry never touches the engine's
//! RNG, scheduler or state, so attaching it cannot perturb a run.

use std::collections::VecDeque;
use std::fmt;

use crate::algorithm::Phase;
use crate::fault::FaultKind;
use crate::graph::{ProcessId, Topology};
use crate::json;
use crate::trace::Trace;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A message-layer verdict observed at the `mp` adversary boundary or in
/// the node protocol. Defined here (rather than in `crates/mp`) so sinks
/// and summaries can treat engine and network events uniformly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetOp {
    /// A message handed to the link layer.
    Send,
    /// The adversary dropped the message (loss, cut link, queue shed).
    Drop,
    /// The adversary produced `extra` duplicate deliveries.
    Dup {
        /// Number of extra copies beyond the original.
        extra: u32,
    },
    /// Delivery deferred by `steps` net steps.
    Delay {
        /// Deferral in net steps.
        steps: u64,
    },
    /// Payload altered in flight (byzantine-adjacent corruption).
    Corrupt,
    /// The node re-sent its last message (retransmit timer fired).
    Retransmit,
    /// A receiver adopted a seemingly-stale sequence number after
    /// `RESYNC_AFTER` consecutive stale deliveries.
    Resync,
}

impl NetOp {
    /// Stable lowercase label used in JSONL output and summaries.
    pub fn label(self) -> &'static str {
        match self {
            NetOp::Send => "send",
            NetOp::Drop => "drop",
            NetOp::Dup { .. } => "dup",
            NetOp::Delay { .. } => "delay",
            NetOp::Corrupt => "corrupt",
            NetOp::Retransmit => "retransmit",
            NetOp::Resync => "resync",
        }
    }
}

/// A verdict raised by the online monitor (`diners_mp::monitor`) about
/// one assembled global cut. Defined here — like [`NetOp`] — so alerts
/// ride the same event bus and sinks as engine and network events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// Two neighboring live processes were both eating in one
    /// consistent cut: the paper's safety property failed.
    NeighborsEating {
        /// One endpoint of the violated edge.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
    },
    /// An assembled cut failed the vector-clock consistency check — the
    /// snapshot protocol itself misbehaved.
    InconsistentCut,
    /// The process has been continuously hungry for `waited` net steps,
    /// beyond the configured service-level threshold.
    SloBreach {
        /// Continuous hunger observed so far, in net steps.
        waited: u64,
    },
    /// An SLO breach fired at a node `distance` > the locality radius
    /// from every dead node — the failure-locality guarantee failed.
    LocalityBreach {
        /// Conflict-graph distance to the nearest dead node.
        distance: u32,
    },
}

impl AlertKind {
    /// Stable lowercase label used in JSONL output and summaries.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::NeighborsEating { .. } => "neighbors-eating",
            AlertKind::InconsistentCut => "inconsistent-cut",
            AlertKind::SloBreach { .. } => "slo-breach",
            AlertKind::LocalityBreach { .. } => "locality-breach",
        }
    }
}

/// What happened. Mirrors (and extends) `trace::EventKind` with the
/// phase-transition and network kinds that the bounded trace does not
/// record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetryKind {
    /// A program action fired.
    Action {
        /// Action name from the algorithm's kind table (`"join"`, …).
        name: &'static str,
        /// Neighbor slot for per-neighbor actions.
        slot: Option<usize>,
    },
    /// One arbitrary step of a maliciously crashing process.
    MaliciousStep,
    /// A fault struck the target process.
    Fault(FaultKind),
    /// The process's diner phase changed.
    PhaseChange {
        /// Phase before the action.
        from: Phase,
        /// Phase after the action.
        to: Phase,
    },
    /// A message-layer verdict (see [`NetOp`]).
    Net(NetOp),
    /// An online-monitor verdict about a global cut (see [`AlertKind`]).
    Alert(AlertKind),
}

impl TelemetryKind {
    /// Stable label for JSONL output and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            TelemetryKind::Action { name, .. } => name,
            TelemetryKind::MaliciousStep => "malicious",
            TelemetryKind::Fault(_) => "fault",
            TelemetryKind::PhaseChange { .. } => "phase",
            TelemetryKind::Net(op) => op.label(),
            TelemetryKind::Alert(_) => "alert",
        }
    }
}

/// One observed occurrence, stamped with where and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Monotonic logical clock, unique per [`Telemetry`] instance:
    /// totally orders events even when several fire at the same step.
    pub clock: u64,
    /// Engine (or net) step at which the event occurred.
    pub step: u64,
    /// The process the event is about.
    pub pid: ProcessId,
    /// What happened.
    pub kind: TelemetryKind,
}

impl TelemetryEvent {
    /// Render as one JSON object (one JSONL line, sans newline).
    pub fn to_json(&self) -> String {
        let mut extra = String::new();
        match self.kind {
            TelemetryKind::Action { slot: Some(s), .. } => {
                extra = format!(",\"slot\":{s}");
            }
            TelemetryKind::Fault(k) => {
                extra = format!(",\"fault\":\"{k}\"");
            }
            TelemetryKind::PhaseChange { from, to } => {
                extra = format!(",\"from\":\"{from}\",\"to\":\"{to}\"");
            }
            TelemetryKind::Net(NetOp::Dup { extra: n }) => {
                extra = format!(",\"extra\":{n}");
            }
            TelemetryKind::Net(NetOp::Delay { steps }) => {
                extra = format!(",\"delay\":{steps}");
            }
            TelemetryKind::Alert(kind) => {
                extra = format!(",\"alert\":\"{}\"", kind.label());
                match kind {
                    AlertKind::NeighborsEating { a, b } => {
                        extra.push_str(&format!(",\"a\":{},\"b\":{}", a.index(), b.index()));
                    }
                    AlertKind::SloBreach { waited } => {
                        extra.push_str(&format!(",\"waited\":{waited}"));
                    }
                    AlertKind::LocalityBreach { distance } => {
                        extra.push_str(&format!(",\"distance\":{distance}"));
                    }
                    AlertKind::InconsistentCut => {}
                }
            }
            _ => {}
        }
        format!(
            "{{\"clock\":{},\"step\":{},\"pid\":{},\"kind\":\"{}\"{}}}",
            self.clock,
            self.step,
            self.pid.index(),
            self.kind.label(),
            extra
        )
    }
}

/// Where events go. Sinks must be cheap: they run inside the engine's
/// step loop whenever telemetry is attached.
pub trait EventSink {
    /// Consume one event.
    fn emit(&mut self, ev: &TelemetryEvent);

    /// Downcast hook so [`Telemetry::sink_as`] can recover the concrete
    /// sink after a run. Implement as `Some(self)` to opt in.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Bounded in-memory sink keeping the most recent `cap` events.
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TelemetryEvent>,
    total: u64,
}

impl RingSink {
    /// A ring keeping the last `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.clamp(1, 4096)),
            total: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.buf.iter()
    }

    /// Total events ever emitted (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }
}

impl EventSink for RingSink {
    fn emit(&mut self, ev: &TelemetryEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(*ev);
        self.total += 1;
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Sink rendering every event as one JSON line into an owned buffer.
#[derive(Default)]
pub struct JsonlSink {
    out: String,
    count: u64,
}

impl JsonlSink {
    /// An empty JSONL buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated JSONL text (one object per line).
    pub fn text(&self) -> &str {
        &self.out
    }

    /// Number of lines written.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, ev: &TelemetryEvent) {
        self.out.push_str(&ev.to_json());
        self.out.push('\n');
        self.count += 1;
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// JSONL parsing + replay summaries
// ---------------------------------------------------------------------------

/// Order-insensitive digest of an event stream: enough to check that a
/// serialized log replays to the same run shape without carrying
/// `&'static str` action names across the parse boundary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Total events.
    pub events: u64,
    /// `(kind label, count)` sorted by label.
    pub by_kind: Vec<(String, u64)>,
    /// `(pid, count)` sorted by pid.
    pub by_pid: Vec<(usize, u64)>,
    /// Largest step stamped on any event.
    pub max_step: u64,
    /// Clock of the last event (clocks are monotonic, so this is also
    /// the largest).
    pub last_clock: u64,
}

impl ReplaySummary {
    /// Summarize an in-memory event slice.
    pub fn of_events<'a>(events: impl IntoIterator<Item = &'a TelemetryEvent>) -> Self {
        let mut s = ReplaySummary::default();
        for ev in events {
            s.absorb(ev.kind.label(), ev.pid.index(), ev.step, ev.clock);
        }
        s
    }

    fn absorb(&mut self, label: &str, pid: usize, step: u64, clock: u64) {
        self.events += 1;
        match self
            .by_kind
            .binary_search_by(|(k, _)| k.as_str().cmp(label))
        {
            Ok(i) => self.by_kind[i].1 += 1,
            Err(i) => self.by_kind.insert(i, (label.to_string(), 1)),
        }
        match self.by_pid.binary_search_by_key(&pid, |&(p, _)| p) {
            Ok(i) => self.by_pid[i].1 += 1,
            Err(i) => self.by_pid.insert(i, (pid, 1)),
        }
        self.max_step = self.max_step.max(step);
        self.last_clock = self.last_clock.max(clock);
    }
}

/// The event-log format version [`JsonlSink`] writes. Logs may carry a
/// `"v"` field on any line (emitted by tools that frame their output);
/// when present it must match.
pub const JSONL_VERSION: u64 = 1;

/// Parse a JSONL event log produced by [`JsonlSink`] back into a
/// [`ReplaySummary`]. Verifies clock monotonicity while parsing.
///
/// # Errors
///
/// Returns a description (with the 1-based line number) of the first
/// malformed line: missing `{`/`}` framing or trailing garbage after the
/// closing brace, a truncated record, a missing or non-numeric field, an
/// unknown `"v"` version stamp, or a clock regression.
pub fn parse_jsonl(text: &str) -> Result<ReplaySummary, String> {
    let mut s = ReplaySummary::default();
    let mut prev_clock: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", i + 1);
        if !line.starts_with('{') {
            return Err(err("not a JSON object"));
        }
        if !line.ends_with('}') {
            // Truncated record, or garbage after the closing brace.
            return Err(err(if line.contains('}') {
                "trailing garbage after object"
            } else {
                "truncated record"
            }));
        }
        let num = |key: &str| -> Result<u64, String> {
            json::field(line, key)
                .ok_or_else(|| err(&format!("missing \"{key}\"")))?
                .parse::<u64>()
                .map_err(|_| err(&format!("bad \"{key}\"")))
        };
        if let Some(v) = json::field(line, "v") {
            let v: u64 = v.parse().map_err(|_| err("bad \"v\""))?;
            if v != JSONL_VERSION {
                return Err(err(&format!("unknown format version {v}")));
            }
        }
        let clock = num("clock")?;
        let step = num("step")?;
        let pid = num("pid")? as usize;
        let kind = json::field(line, "kind")
            .ok_or_else(|| err("missing \"kind\""))?
            .to_string();
        if let Some(prev) = prev_clock {
            if clock <= prev {
                return Err(err(&format!("clock regressed from {prev}")));
            }
        }
        prev_clock = Some(clock);
        s.absorb(&kind, pid, step, clock);
    }
    Ok(s)
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`; one overflow bucket catches the rest. Tracks count, sum,
/// min and max exactly regardless of bucketing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Power-of-two buckets up to 2^20: good default for step-valued
    /// latencies (hungry→eat, convergence times).
    pub fn pow2() -> Self {
        Self::with_bounds((0..=20).map(|i| 1u64 << i).collect())
    }

    /// Custom inclusive upper bucket edges (must be strictly increasing).
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Upper bucket edge below which at least fraction `q` (0..=1) of
    /// observations fall — bucket-resolution quantile. Returns the exact
    /// max for the overflow bucket, `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Some(if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// The inclusive upper bucket edges this histogram was built with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Fold `other` into `self`. Both histograms must share identical
    /// bucket bounds; the result is exactly the histogram that would
    /// have recorded both observation streams, so shard-per-node
    /// histograms can be aggregated into a cluster-wide view without
    /// losing count/sum/min/max fidelity.
    ///
    /// # Panics
    /// If the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge requires identical bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `(upper_edge, count)` for every non-empty bucket; the overflow
    /// bucket reports the observed max as its edge.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let edge = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                (edge, c)
            })
            .collect()
    }
}

/// Named counters, gauges and histograms behind integer handles: the hot
/// path pays one bounds-checked index + add, never a string lookup.
/// Registration is idempotent per name.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current counter value (`None` if the name was never registered).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Set a gauge to `value`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Raise a gauge to `value` if larger (high-watermark semantics).
    #[inline]
    pub fn set_max(&mut self, id: GaugeId, value: f64) {
        let g = &mut self.gauges[id.0].1;
        if value > *g {
            *g = value;
        }
    }

    /// Current gauge value (`None` if the name was never registered).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Register (or look up) a histogram with power-of-two buckets.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        self.histogram_with(name, Histogram::pow2)
    }

    /// Register (or look up) a histogram built by `make` on first use.
    pub fn histogram_with(&mut self, name: &str, make: impl FnOnce() -> Histogram) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), make()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.record(value);
    }

    /// A registered histogram by name.
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All gauges in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All histograms in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Fold every metric of `other` into `self`, registering any name
    /// `self` has not seen: counters add, gauges keep the maximum
    /// (high-watermark semantics — the only merge that is meaningful
    /// without knowing what the gauge measures), histograms merge
    /// bucket-wise via [`Histogram::merge`].
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            let id = self.counter(name);
            self.add(id, *v);
        }
        for (name, v) in &other.gauges {
            let id = self.gauge(name);
            self.set_max(id, *v);
        }
        for (name, h) in &other.histograms {
            let id = self.histogram_with(name, || Histogram::with_bounds(h.bounds.clone()));
            self.histograms[id.0].1.merge(h);
        }
    }

    /// Render the whole registry as one JSON object (hand-rolled, same
    /// style as `BENCH_engine.json`). Metric names are escaped as JSON
    /// strings, so quotes, backslashes and control characters in
    /// free-form names cannot corrupt the document.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(n, v)| format!("\"{}\":{v}", json::escape(n)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(n, v)| format!("\"{}\":{v:.3}", json::escape(n)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let buckets: Vec<String> = h
                    .nonzero_buckets()
                    .iter()
                    .map(|(edge, c)| format!("[{edge},{c}]"))
                    .collect();
                format!(
                    concat!(
                        "\"{}\":{{\"count\":{},\"mean\":{:.3},",
                        "\"min\":{},\"max\":{},\"buckets\":[{}]}}"
                    ),
                    json::escape(n),
                    h.count(),
                    h.mean(),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                    buckets.join(",")
                )
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format: one `# TYPE` header per metric family, dotted names
    /// mapped to underscores, histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`.
    ///
    /// Registry names may carry a label block in the conventional
    /// `base{key="value",...}` form; series sharing a base render under
    /// one `# TYPE` header with their labels preserved (keys sanitized,
    /// values escaped). Base names are sanitized to the exposition
    /// grammar: invalid characters become `_` and a leading digit is
    /// prefixed with `_`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<String> = Vec::new();
        let header = |out: &mut String, typed: &mut Vec<String>, base: &str, ty: &str| {
            if !typed.iter().any(|b| b == base) {
                out.push_str(&format!("# TYPE {base} {ty}\n"));
                typed.push(base.to_string());
            }
        };
        for (name, v) in &self.counters {
            let (base, labels) = prom_series_name(name);
            header(&mut out, &mut typed, &base, "counter");
            out.push_str(&format!("{base}{labels} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let (base, labels) = prom_series_name(name);
            header(&mut out, &mut typed, &base, "gauge");
            out.push_str(&format!("{base}{labels} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let (base, labels) = prom_series_name(name);
            header(&mut out, &mut typed, &base, "histogram");
            let with_le = |le: &str| {
                if labels.is_empty() {
                    format!("{{le=\"{le}\"}}")
                } else {
                    format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
                }
            };
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cumulative += c;
                let le = if i < h.bounds.len() {
                    h.bounds[i].to_string()
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!("{base}_bucket{} {cumulative}\n", with_le(&le)));
            }
            out.push_str(&format!(
                "{base}_sum{labels} {}\n{base}_count{labels} {}\n",
                h.sum, h.count
            ));
        }
        out
    }
}

/// Sanitize a metric (or label-key) base name to the Prometheus
/// exposition grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`: every invalid
/// character becomes `_`, a leading digit gets a `_` prefix, and the
/// empty string becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Split a registry name into its sanitized exposition base and a
/// rendered label block (`{k="v",...}`, or empty). Names without a
/// well-formed trailing `{...}` block are treated as plain (fully
/// sanitized) base names. Label values must not contain commas; quotes
/// and backslashes in values are escaped per the exposition format.
fn prom_series_name(name: &str) -> (String, String) {
    if let Some((base, rest)) = name.split_once('{') {
        if let Some(inner) = rest.strip_suffix('}') {
            if !rest[..rest.len() - 1].contains(['{', '}']) {
                return (sanitize_metric_name(base), render_label_block(inner));
            }
        }
    }
    (sanitize_metric_name(name), String::new())
}

fn render_label_block(inner: &str) -> String {
    let mut pairs: Vec<String> = Vec::new();
    for piece in inner.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let (key, value) = piece.split_once('=').unwrap_or((piece, ""));
        let value = value.trim().trim_matches('"');
        let mut escaped = String::with_capacity(value.len());
        for c in value.chars() {
            match c {
                '\\' => escaped.push_str("\\\\"),
                '"' => escaped.push_str("\\\""),
                '\n' => escaped.push_str("\\n"),
                c => escaped.push(c),
            }
        }
        // Label keys share the metric-name grammar minus ':'.
        let key = sanitize_metric_name(key.trim()).replace(':', "_");
        pairs.push(format!("{key}=\"{escaped}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

// ---------------------------------------------------------------------------
// Façade
// ---------------------------------------------------------------------------

/// The observability handle an engine (or net runtime) carries: a
/// monotonic logical clock, a metrics registry and an optional event
/// sink. Construct, attach via `EngineBuilder::telemetry`, and read back
/// with `Engine::telemetry()` after the run.
#[derive(Default)]
pub struct Telemetry {
    clock: u64,
    registry: MetricsRegistry,
    sink: Option<Box<dyn EventSink>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("clock", &self.clock)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl Telemetry {
    /// Metrics only, no event sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Metrics plus the given event sink.
    pub fn with_sink(sink: impl EventSink + 'static) -> Self {
        Telemetry {
            clock: 0,
            registry: MetricsRegistry::new(),
            sink: Some(Box::new(sink)),
        }
    }

    /// Record one event: stamps the logical clock and forwards to the
    /// sink if one is attached.
    #[inline]
    pub fn emit(&mut self, step: u64, pid: ProcessId, kind: TelemetryKind) {
        self.clock += 1;
        if let Some(sink) = &mut self.sink {
            let ev = TelemetryEvent {
                clock: self.clock,
                step,
                pid,
                kind,
            };
            sink.emit(&ev);
        }
    }

    /// Events recorded so far (clock of the last event).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable access to the metrics registry.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Borrow the sink back as a concrete type (e.g. to read a
    /// [`RingSink`]'s events or a [`JsonlSink`]'s text after a run).
    pub fn sink_as<S: EventSink + 'static>(&self) -> Option<&S> {
        self.sink.as_deref()?.as_any()?.downcast_ref::<S>()
    }
}

// ---------------------------------------------------------------------------
// Disturbance radius
// ---------------------------------------------------------------------------

/// Result of comparing a faulty run against its fault-free twin.
#[derive(Clone, Debug)]
pub struct DisturbanceReport {
    /// The crashed process.
    pub crash_site: ProcessId,
    /// Max conflict-graph distance from the crash site at which a
    /// non-faulty process deviated; 0 when nobody but the crash site did.
    pub radius: u32,
    /// Every deviating non-faulty process with its distance to the
    /// crash site.
    pub deviating: Vec<(ProcessId, u32)>,
}

/// What counts as a per-process deviation between the faulty run and
/// its fault-free twin.
///
/// A crash removes its victim from the daemon's pick competition, which
/// shifts the *global* interleaving: under any fair scheduler, every
/// process's raw action sequence eventually drifts from the baseline's,
/// no matter how far it sits from the crash. The paper's locality claim
/// is about *service* — a process outside the containment radius keeps
/// being served — so locality measurements must project the trace down
/// to service events and only count a *shortfall*.
#[derive(Clone, Debug)]
pub enum Deviation {
    /// Compare full per-process action-name sequences: a mismatch
    /// anywhere in the common prefix, or a length drift beyond `slack`
    /// actions, is a deviation. Schedule-sensitive (see above) — useful
    /// for lockstep determinism checks, not for locality measurement.
    Trace {
        /// Tolerated end-of-run action-count drift.
        slack: usize,
    },
    /// Compare per-process counts of the named service actions; a
    /// process deviates only if the faulty run falls short of the
    /// baseline by more than `slack` occurrences. A process that is
    /// served *more* (the crashed process's steps are redistributed)
    /// has not been disturbed in the paper's sense.
    Shortfall {
        /// Action names that constitute service (e.g. the transition
        /// into eating).
        actions: &'static [&'static str],
        /// Tolerated service-count shortfall.
        slack: u64,
    },
}

/// Untimed per-process action projection of a trace: the sequence of
/// action names `pid` executed, ignoring global interleaving.
fn projection(trace: &Trace, pid: ProcessId) -> Vec<&'static str> {
    trace
        .actions_of(pid)
        .into_iter()
        .map(|(_, name)| name)
        .collect()
}

impl Deviation {
    fn deviates(&self, base: &[&'static str], faulty: &[&'static str]) -> bool {
        match *self {
            Deviation::Trace { slack } => {
                let common = base.len().min(faulty.len());
                if base[..common] != faulty[..common] {
                    return true;
                }
                base.len().abs_diff(faulty.len()) > slack
            }
            Deviation::Shortfall { actions, slack } => {
                let count = |names: &[&'static str]| {
                    names.iter().filter(|n| actions.contains(n)).count() as u64
                };
                count(base).saturating_sub(count(faulty)) > slack
            }
        }
    }
}

/// Compute the empirical disturbance radius of a crash at `crash_site`:
/// compare the bounded traces of a faulty run and a fault-free twin
/// (identical topology, workload, scheduler, seed — both must have been
/// built with `record_trace(true)` and run for the same number of steps)
/// and report the farthest non-faulty process that deviates under
/// `rule`. The paper's locality-2 theorem predicts radius ≤ 2 under
/// [`Deviation::Shortfall`] over the service actions.
pub fn disturbance_radius(
    topo: &Topology,
    baseline: &Trace,
    faulty: &Trace,
    crash_site: ProcessId,
    rule: &Deviation,
) -> DisturbanceReport {
    let mut deviating = Vec::new();
    for p in topo.processes() {
        if p == crash_site {
            continue;
        }
        let base = projection(baseline, p);
        let fault = projection(faulty, p);
        if rule.deviates(&base, &fault) {
            deviating.push((p, topo.distance(crash_site, p)));
        }
    }
    let radius = deviating.iter().map(|&(_, d)| d).max().unwrap_or(0);
    DisturbanceReport {
        crash_site,
        radius,
        deviating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    fn ev(clock: u64, step: u64, pid: usize, kind: TelemetryKind) -> TelemetryEvent {
        TelemetryEvent {
            clock,
            step,
            pid: ProcessId(pid),
            kind,
        }
    }

    #[test]
    fn ring_sink_keeps_last_cap_events() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.emit(&ev(i + 1, i, 0, TelemetryKind::MaliciousStep));
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.dropped(), 2);
        let clocks: Vec<u64> = ring.events().map(|e| e.clock).collect();
        assert_eq!(clocks, [3, 4, 5]);
    }

    #[test]
    fn jsonl_round_trips_to_matching_summary() {
        let events = [
            ev(
                1,
                0,
                0,
                TelemetryKind::Action {
                    name: "join",
                    slot: None,
                },
            ),
            ev(
                2,
                0,
                1,
                TelemetryKind::Action {
                    name: "fixdepth",
                    slot: Some(1),
                },
            ),
            ev(3, 2, 1, TelemetryKind::Fault(FaultKind::Crash)),
            ev(
                4,
                3,
                2,
                TelemetryKind::PhaseChange {
                    from: Phase::Hungry,
                    to: Phase::Eating,
                },
            ),
            ev(5, 4, 2, TelemetryKind::Net(NetOp::Dup { extra: 2 })),
        ];
        let mut sink = JsonlSink::new();
        for e in &events {
            sink.emit(e);
        }
        assert_eq!(sink.count(), 5);
        let parsed = parse_jsonl(sink.text()).expect("well-formed JSONL");
        assert_eq!(parsed, ReplaySummary::of_events(&events));
        assert_eq!(parsed.events, 5);
        assert_eq!(parsed.max_step, 4);
        assert_eq!(parsed.last_clock, 5);
    }

    #[test]
    fn parse_rejects_clock_regression_and_garbage() {
        assert!(parse_jsonl("{\"clock\":2,\"step\":0,\"pid\":0,\"kind\":\"x\"}\n{\"clock\":1,\"step\":0,\"pid\":0,\"kind\":\"x\"}").is_err());
        assert!(parse_jsonl("{\"step\":0,\"pid\":0,\"kind\":\"x\"}").is_err());
        assert!(parse_jsonl("{\"clock\":no,\"step\":0,\"pid\":0,\"kind\":\"x\"}").is_err());
        assert!(parse_jsonl("").unwrap().events == 0);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::with_bounds(vec![1, 4, 16]);
        for v in [0, 1, 2, 5, 20, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 128.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.nonzero_buckets(), vec![(1, 2), (4, 1), (16, 1), (100, 2)]);
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(Histogram::pow2().quantile(0.5), None);
    }

    #[test]
    fn registry_handles_are_stable_and_idempotent() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("engine.actions");
        let b = reg.counter("engine.faults");
        assert_eq!(reg.counter("engine.actions"), a);
        reg.inc(a);
        reg.add(a, 2);
        reg.inc(b);
        assert_eq!(reg.counter_value("engine.actions"), Some(3));
        assert_eq!(reg.counter_value("engine.faults"), Some(1));
        assert_eq!(reg.counter_value("nope"), None);

        let g = reg.gauge("explore.peak_frontier");
        reg.set_max(g, 10.0);
        reg.set_max(g, 4.0);
        assert_eq!(reg.gauge_value("explore.peak_frontier"), Some(10.0));
        reg.set(g, 1.5);
        assert_eq!(reg.gauge_value("explore.peak_frontier"), Some(1.5));

        let h = reg.histogram("latency");
        reg.record(h, 3);
        reg.record(h, 900);
        assert_eq!(reg.histogram_value("latency").unwrap().count(), 2);

        let json = reg.to_json();
        for key in [
            "engine.actions",
            "explore.peak_frontier",
            "latency",
            "\"count\":2",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn telemetry_clock_is_monotonic_and_sink_optional() {
        let mut t = Telemetry::new();
        t.emit(0, ProcessId(0), TelemetryKind::MaliciousStep);
        t.emit(5, ProcessId(1), TelemetryKind::Net(NetOp::Send));
        assert_eq!(t.clock(), 2);

        let mut t = Telemetry::with_sink(RingSink::new(8));
        t.emit(0, ProcessId(0), TelemetryKind::MaliciousStep);
        t.emit(1, ProcessId(0), TelemetryKind::MaliciousStep);
        assert_eq!(t.clock(), 2);
        let ring = t.sink_as::<RingSink>().expect("ring sink recoverable");
        assert_eq!(ring.total(), 2);
        assert!(t.sink_as::<JsonlSink>().is_none());
    }

    #[test]
    fn disturbance_radius_localizes_to_deviating_processes() {
        use crate::trace::Event;
        let topo = Topology::line(5);
        let mut base = Trace::new();
        base.enable(true);
        let mut fault = Trace::new();
        fault.enable(true);
        let action = |step: u64, p: usize, name: &'static str| Event {
            step,
            pid: ProcessId(p),
            kind: EventKind::Action {
                kind: 0,
                slot: None,
                name,
            },
        };
        // Everyone does join,enter in both runs...
        for step in 0..2u64 {
            for p in 0..5 {
                let name = if step == 0 { "join" } else { "enter" };
                base.record(action(step, p, name));
                fault.record(action(step, p, name));
            }
        }
        // ...but in the faulty run p1 (distance 1 from crash at p0)
        // diverges in content and p2 (distance 2) stalls hard.
        base.record(action(2, 1, "exit"));
        fault.record(action(2, 1, "leave"));
        for step in 3..10u64 {
            base.record(action(step, 2, "enter"));
        }
        let rule = Deviation::Trace { slack: 2 };
        let report = disturbance_radius(&topo, &base, &fault, ProcessId(0), &rule);
        assert_eq!(report.radius, 2);
        let pids: Vec<usize> = report.deviating.iter().map(|&(p, _)| p.index()).collect();
        assert_eq!(pids, [1, 2]);

        // Slack swallows small length drift: with slack 8 the stall at p2
        // is within tolerance and only the content mismatch at p1 counts.
        let rule = Deviation::Trace { slack: 8 };
        let report = disturbance_radius(&topo, &base, &fault, ProcessId(0), &rule);
        assert_eq!(report.radius, 1);
        assert_eq!(report.deviating.len(), 1);

        // Service shortfall only sees p2's lost meals: p1's content swap
        // (exit vs leave) does not touch the "enter" count, and a
        // generous slack swallows the stall too.
        let rule = Deviation::Shortfall {
            actions: &["enter"],
            slack: 2,
        };
        let report = disturbance_radius(&topo, &base, &fault, ProcessId(0), &rule);
        assert_eq!(report.radius, 2);
        assert_eq!(report.deviating.len(), 1);
        let rule = Deviation::Shortfall {
            actions: &["enter"],
            slack: 16,
        };
        let report = disturbance_radius(&topo, &base, &fault, ProcessId(0), &rule);
        assert_eq!(report.radius, 0);
    }

    #[test]
    fn event_json_includes_kind_specific_fields() {
        let e = ev(
            7,
            3,
            2,
            TelemetryKind::Fault(FaultKind::MaliciousCrash { steps: 4 }),
        );
        let json = e.to_json();
        assert!(json.contains("\"fault\":\"malicious-crash(4)\""), "{json}");
        let e = ev(
            8,
            3,
            2,
            TelemetryKind::PhaseChange {
                from: Phase::Thinking,
                to: Phase::Hungry,
            },
        );
        assert!(e.to_json().contains("\"from\":\"T\",\"to\":\"H\""));
    }

    #[test]
    fn ring_sink_accounting_at_capacity_boundaries() {
        // Pin total()/dropped() semantics exactly at the capacity edge
        // and across wraparound: dropped() must stay 0 up to and
        // including the fill that reaches capacity, then grow by exactly
        // one per further emit, with total() always = emits so far.
        let cap = 4;
        let mut ring = RingSink::new(cap);
        assert_eq!((ring.total(), ring.dropped()), (0, 0));
        for i in 0..cap as u64 {
            ring.emit(&ev(i + 1, i, 0, TelemetryKind::MaliciousStep));
            assert_eq!(ring.total(), i + 1, "total after emit {}", i + 1);
            assert_eq!(ring.dropped(), 0, "no eviction below capacity");
        }
        assert_eq!(ring.events().count(), cap);
        // Wraparound: each further emit evicts exactly one.
        for extra in 1..=2 * cap as u64 {
            ring.emit(&ev(cap as u64 + extra, 0, 0, TelemetryKind::MaliciousStep));
            assert_eq!(ring.total(), cap as u64 + extra);
            assert_eq!(ring.dropped(), extra, "one eviction per overflow emit");
            assert_eq!(ring.events().count(), cap, "ring stays exactly full");
        }
        // Retained window is the most recent `cap` clocks.
        let clocks: Vec<u64> = ring.events().map(|e| e.clock).collect();
        let last = 3 * cap as u64;
        let want: Vec<u64> = (last - cap as u64 + 1..=last).collect();
        assert_eq!(clocks, want);

        // cap=1 degenerate ring: always holds exactly the last event.
        let mut one = RingSink::new(1);
        for i in 0..3 {
            one.emit(&ev(i + 1, i, 0, TelemetryKind::MaliciousStep));
        }
        assert_eq!((one.total(), one.dropped()), (3, 2));
        assert_eq!(one.events().map(|e| e.clock).collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn parse_jsonl_rejects_each_malformation_with_line_number() {
        let good = "{\"clock\":1,\"step\":0,\"pid\":0,\"kind\":\"x\"}";
        // Deterministic sweep: (input, substring the error must carry).
        let cases: &[(&str, &str)] = &[
            // Malformed line: not an object at all.
            ("clock:1 step:0", "line 1"),
            ("[1,2,3]", "not a JSON object"),
            // Truncated record.
            ("{\"clock\":1,\"step\":0", "truncated record"),
            // Trailing garbage after the closing brace.
            (
                "{\"clock\":1,\"step\":0,\"pid\":0,\"kind\":\"x\"} extra",
                "trailing garbage",
            ),
            // Unknown version header.
            (
                "{\"v\":99,\"clock\":1,\"step\":0,\"pid\":0,\"kind\":\"x\"}",
                "unknown format version 99",
            ),
            (
                "{\"v\":no,\"clock\":1,\"step\":0,\"pid\":0,\"kind\":\"x\"}",
                "bad \"v\"",
            ),
            // Missing / non-numeric fields.
            ("{\"step\":0,\"pid\":0,\"kind\":\"x\"}", "missing \"clock\""),
            ("{\"clock\":1,\"pid\":0,\"kind\":\"x\"}", "missing \"step\""),
            ("{\"clock\":1,\"step\":0,\"kind\":\"x\"}", "missing \"pid\""),
            ("{\"clock\":1,\"step\":0,\"pid\":0}", "missing \"kind\""),
            (
                "{\"clock\":-3,\"step\":0,\"pid\":0,\"kind\":\"x\"}",
                "bad \"clock\"",
            ),
        ];
        for (bad, want) in cases {
            let e = parse_jsonl(bad).expect_err(bad);
            assert!(
                e.contains(want),
                "input {bad:?}: error {e:?} lacks {want:?}"
            );
        }
        // Line numbers point at the offending line, not the first.
        let two = format!("{good}\n{{\"clock\":2,\"step\":0");
        let e = parse_jsonl(&two).unwrap_err();
        assert!(e.starts_with("line 2:"), "{e}");
        // A correct version stamp and blank lines are accepted.
        let stamped = "{\"v\":1,\"clock\":1,\"step\":0,\"pid\":0,\"kind\":\"x\"}\n\n";
        assert_eq!(parse_jsonl(stamped).unwrap().events, 1);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty histogram: every quantile is None.
        let empty = Histogram::with_bounds(vec![10, 20]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), None);
        }

        // Single observation, single finite bucket.
        let mut single = Histogram::with_bounds(vec![10]);
        single.record(7);
        assert_eq!(
            single.quantile(0.0),
            Some(7),
            "q=0 clamps to the min-holding bucket"
        );
        assert_eq!(single.quantile(0.5), Some(7));
        assert_eq!(single.quantile(1.0), Some(7));

        // q=0.0 still needs at least one observation (target.max(1)).
        let mut h = Histogram::with_bounds(vec![1, 4, 16]);
        for v in [0, 2, 5, 40] {
            h.record(v);
        }
        assert_eq!(
            h.quantile(0.0),
            Some(1),
            "q=0 lands in the first non-empty bucket"
        );
        assert_eq!(h.quantile(1.0), Some(40), "q=1 reports the exact max");
        // Out-of-range q is clamped, not an error.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));

        // Custom bounds: bucket-edge resolution, capped by the max.
        let mut c = Histogram::with_bounds(vec![100]);
        c.record(3);
        c.record(4);
        assert_eq!(c.quantile(0.5), Some(4), "edge reported no higher than max");

        // Overflow-bucket-only data.
        let mut o = Histogram::with_bounds(vec![1]);
        o.record(50);
        assert_eq!(o.quantile(0.5), Some(50));
        assert_eq!(o.quantile(1.0), Some(50));
    }

    #[test]
    fn histogram_merge_equals_single_stream() {
        // Deterministic structured sweep: merging shard histograms must
        // be indistinguishable from one histogram that saw every value.
        let streams: [&[u64]; 3] = [&[0, 1, 2, 5], &[20, 100, 3], &[]];
        let mut whole = Histogram::with_bounds(vec![1, 4, 16]);
        let mut folded = Histogram::with_bounds(vec![1, 4, 16]);
        for s in streams {
            let mut shard = Histogram::with_bounds(vec![1, 4, 16]);
            for &v in s {
                shard.record(v);
                whole.record(v);
            }
            folded.merge(&shard);
        }
        assert_eq!(folded, whole);
        // Merging an empty histogram is the identity.
        let before = folded.clone();
        folded.merge(&Histogram::with_bounds(vec![1, 4, 16]));
        assert_eq!(folded, before);
    }

    #[test]
    #[should_panic(expected = "identical bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::with_bounds(vec![1, 2]);
        a.merge(&Histogram::with_bounds(vec![1, 3]));
    }

    #[test]
    fn merged_quantiles_bound_per_shard_quantiles() {
        // Property: for every quantile q, the merged histogram's
        // bucket-resolution quantile lies within [min, max] of the
        // per-shard quantiles (empty shards excluded). Structured sweep
        // over shard shapes with very different spreads.
        let shards: [Vec<u64>; 4] = [
            (0..40).collect(),
            (0..10).map(|i| i * 97).collect(),
            vec![7; 25],
            (0..60).map(|i| 1 << (i % 12)).collect(),
        ];
        let mut hists: Vec<Histogram> = Vec::new();
        let mut merged = Histogram::pow2();
        for s in &shards {
            let mut h = Histogram::pow2();
            for &v in s {
                h.record(v);
            }
            merged.merge(&h);
            hists.push(h);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let per: Vec<u64> = hists.iter().filter_map(|h| h.quantile(q)).collect();
            let lo = *per.iter().min().unwrap();
            let hi = *per.iter().max().unwrap();
            let m = merged.quantile(q).unwrap();
            assert!(
                (lo..=hi).contains(&m),
                "q={q}: merged {m} outside shard envelope [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn registry_merge_from_aggregates_all_kinds() {
        let mut a = MetricsRegistry::new();
        let c = a.counter("cuts");
        a.add(c, 3);
        let g = a.gauge("epoch");
        a.set(g, 5.0);
        let h = a.histogram("wait");
        a.record(h, 4);

        let mut b = MetricsRegistry::new();
        let c = b.counter("cuts");
        b.add(c, 2);
        let c2 = b.counter("aborts");
        b.inc(c2);
        let g = b.gauge("epoch");
        b.set(g, 7.0);
        let h = b.histogram("wait");
        b.record(h, 9);

        a.merge_from(&b);
        assert_eq!(a.counter_value("cuts"), Some(5), "counters add");
        assert_eq!(a.counter_value("aborts"), Some(1), "missing names register");
        assert_eq!(a.gauge_value("epoch"), Some(7.0), "gauges high-watermark");
        let w = a.histogram_value("wait").unwrap();
        assert_eq!((w.count(), w.min(), w.max()), (2, Some(4), Some(9)));
    }

    #[test]
    fn hostile_metric_names_are_escaped_and_sanitized() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("9 bad \"name\"\\");
        reg.inc(c);
        let g = reg.gauge("wei rd{node=\"a\\b\"}");
        reg.set(g, 1.0);
        let h = reg.histogram_with("2tail{q=\"p\"99\"}", || Histogram::with_bounds(vec![1]));
        reg.record(h, 1);

        // JSON: quotes and backslashes in names cannot break the
        // document — still balanced, and every raw quote is escaped.
        let json = reg.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("9 bad \\\"name\\\"\\\\"), "{json}");
        let mut prev = ' ';
        let mut in_str = false;
        let mut depth = 0i32;
        for ch in json.chars() {
            match ch {
                '"' if prev != '\\' => in_str = !in_str,
                '{' if !in_str => depth += 1,
                '}' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "{json}");
            prev = if prev == '\\' && ch == '\\' { ' ' } else { ch };
        }
        assert!(!in_str && depth == 0, "unbalanced JSON: {json}");

        // Exposition: every series line's metric id matches the grammar
        // [a-zA-Z_:][a-zA-Z0-9_:]* and leading digits got a prefix.
        let text = reg.to_prometheus();
        assert!(text.contains("_9_bad__name__ 1\n"), "{text}");
        assert!(text.contains("wei_rd{node=\"a\\\\b\"} 1\n"), "{text}");
        assert!(text.contains("# TYPE _2tail histogram\n"), "{text}");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let id: String = line.chars().take_while(|&c| c != '{' && c != ' ').collect();
            assert!(
                id.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':'),
                "bad leading char in {line:?}"
            );
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad char in series id of {line:?}"
            );
        }
    }

    #[test]
    fn labeled_series_share_one_type_header() {
        let mut reg = MetricsRegistry::new();
        for node in 0..3 {
            let h = reg.histogram_with(&format!("mp.wait{{node=\"{node}\"}}"), || {
                Histogram::with_bounds(vec![8])
            });
            reg.record(h, node);
        }
        let text = reg.to_prometheus();
        assert_eq!(
            text.matches("# TYPE mp_wait histogram").count(),
            1,
            "{text}"
        );
        for node in 0..3 {
            assert!(
                text.contains(&format!("mp_wait_bucket{{node=\"{node}\",le=\"8\"}} 1\n")),
                "{text}"
            );
            assert!(
                text.contains(&format!("mp_wait_sum{{node=\"{node}\"}} {node}\n")),
                "{text}"
            );
            assert!(
                text.contains(&format!("mp_wait_count{{node=\"{node}\"}} 1\n")),
                "{text}"
            );
        }
    }

    #[test]
    fn alert_events_render_kind_specific_json() {
        let cases = [
            (
                AlertKind::NeighborsEating {
                    a: ProcessId(1),
                    b: ProcessId(2),
                },
                "\"alert\":\"neighbors-eating\",\"a\":1,\"b\":2",
            ),
            (AlertKind::InconsistentCut, "\"alert\":\"inconsistent-cut\""),
            (
                AlertKind::SloBreach { waited: 900 },
                "\"alert\":\"slo-breach\",\"waited\":900",
            ),
            (
                AlertKind::LocalityBreach { distance: 3 },
                "\"alert\":\"locality-breach\",\"distance\":3",
            ),
        ];
        for (i, (kind, want)) in cases.into_iter().enumerate() {
            let e = ev(i as u64 + 1, 5, 0, TelemetryKind::Alert(kind));
            let json = e.to_json();
            assert!(json.contains("\"kind\":\"alert\""), "{json}");
            assert!(json.contains(want), "{json} lacks {want}");
        }
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("engine.action.enter");
        reg.add(c, 5);
        let g = reg.gauge("explore.peak_frontier");
        reg.set(g, 2.5);
        let h = reg.histogram_with("wait.steps", || Histogram::with_bounds(vec![1, 4]));
        for v in [0, 2, 9] {
            reg.record(h, v);
        }
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE engine_action_enter counter\nengine_action_enter 5\n"));
        assert!(text.contains("# TYPE explore_peak_frontier gauge\nexplore_peak_frontier 2.5\n"));
        // Histogram buckets are cumulative and end at +Inf = count.
        assert!(text.contains("wait_steps_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("wait_steps_bucket{le=\"4\"} 2\n"), "{text}");
        assert!(
            text.contains("wait_steps_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("wait_steps_sum 11\n"));
        assert!(text.contains("wait_steps_count 3\n"));
        // No dotted names survive.
        assert!(!text.contains("engine.action"), "{text}");
    }
}
