//! The repository benchmark: three batch workloads over the public API
//! of `diners-sim`, `diners-core` and `diners-mp`, an end-to-end report
//! per run, and a separate traced run that splits the cost by layer.
//!
//! Every number is taken from outside the program: spans timed around
//! the public entry points the benchmark calls, wrappers around the
//! trait objects and closures it hands in, counts read from public
//! reports, and direct calls to public layer functions on states taken
//! from the same workload. See `README.md` for the workloads and the
//! layer-to-metric map.

use std::cell::Cell;
use std::time::Instant;

pub mod check_mca;
pub mod engine_ring;
pub mod simnet_grid;

/// Input size of a run: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is defined at.
    Full,
    /// Small inputs that exercise every code path in well under a second.
    Tiny,
}

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 3] = ["engine-ring", "check-mca", "simnet-grid"];

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("batch_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("graph.build_s", "s"),
    ("graph.rss_mb", "MB"),
    ("engine.run_ns_per_step", "ns"),
    ("engine.self_ns_per_step", "ns"),
    ("engine.executed", "count"),
    ("engine.quiescent", "count"),
    ("engine.action.join", "count"),
    ("engine.action.leave", "count"),
    ("engine.action.enter", "count"),
    ("engine.action.exit", "count"),
    ("engine.action.fixdepth", "count"),
    ("engine.write_violations", "count"),
    ("engine.hungry_to_eat_p50_steps", "steps"),
    ("engine.hungry_to_eat_p99_steps", "steps"),
    ("scheduler.pick_ns_per_step", "ns"),
    ("scheduler.enabled_len_mean", "moves"),
    ("workload.needs_calls_per_step", "calls/step"),
    ("workload.needs_ns_per_step", "ns"),
    ("algorithm.guard_ns_per_call", "ns"),
    ("algorithm.execute_ns_per_call", "ns"),
    ("codec.encode_ns_per_state", "ns"),
    ("codec.decode_ns_per_state", "ns"),
    ("explore.bytes_per_state", "B"),
    ("symmetry.canonicalize_ns_per_state", "ns"),
    ("symmetry.group_order", "count"),
    ("predicate.safety_ns_per_state", "ns"),
    ("predicate.legit_ns_per_state", "ns"),
    ("explore.states", "count"),
    ("explore.transitions", "count"),
    ("explore.dedup_rate", "ratio"),
    ("explore.layers", "count"),
    ("explore.peak_frontier", "count"),
    ("explore.self_ns_per_transition", "ns"),
    ("liveness.roots", "count"),
    ("liveness.states", "count"),
    ("liveness.transitions", "count"),
    ("liveness.sccs", "count"),
    ("liveness.fair_sccs", "count"),
    ("liveness.bad_states", "count"),
    ("liveness.self_ns_per_transition", "ns"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.meals_per_kevent", "meals/kevent"),
    ("simnet.shed", "count"),
    ("adversary.sent", "count"),
    ("adversary.dropped", "count"),
    ("adversary.duplicated", "count"),
    ("adversary.delayed", "count"),
    ("adversary.reordered", "count"),
    ("node.retransmits", "count"),
    ("node.resyncs", "count"),
    ("node.retransmit_ratio", "ratio"),
    ("monitor.epochs", "count"),
    ("monitor.cuts", "count"),
    ("monitor.hard_alerts", "count"),
    ("monitor.overhead_ratio", "ratio"),
    ("monitor.ns_per_event", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.batches", "count"),
];

/// One named value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` spells it.
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Correctness checks of one run: how many were made, which failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// FNV-1a over a stream of `u64` words: the digest of a batch's
/// simulated outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word into the digest.
    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold every word of `words`.
    pub fn extend(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.add(w);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What one untraced batch of a workload produced.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Seconds of program set-up before the first step.
    pub setup_s: f64,
    /// Seconds from the end of set-up to the batch's verdict.
    pub batch_s: f64,
    /// Digest of the simulated outputs.
    pub digest: Digest,
    /// Workload-specific figures (rates, split timings), per batch.
    pub details: Vec<Metric>,
}

/// A workload: inputs generated from a seed, an untraced batch, and a
/// traced batch that also returns per-layer metrics.
pub trait Workload {
    /// One untraced batch, recording its correctness checks.
    fn batch(&self, checks: &mut Checks) -> Batch;
    /// One traced batch: the same simulated work with every span and
    /// wrapper on, plus the per-layer metrics it measured.
    fn traced(&self, checks: &mut Checks) -> (Batch, Vec<Metric>);
}

/// Build the named workload's inputs from `seed`.
pub fn workload(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "engine-ring" => Box::new(engine_ring::EngineRing::new(seed, scale)),
        "check-mca" => Box::new(check_mca::CheckMca::new(seed, scale)),
        "simnet-grid" => Box::new(simnet_grid::SimnetGrid::new(seed, scale)),
        _ => return None,
    })
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness checks made and failed.
    pub checks: Checks,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific figures, medians over the batches.
    pub details: Vec<Metric>,
    /// Digest of the first batch's simulated outputs.
    pub digest: Digest,
    /// Batches measured.
    pub batches: usize,
}

/// Run `w` for at least `seconds` of batches (and at least `min_batches`
/// of them). Untraced, report the end-to-end medians; traced, alternate
/// traced and plain batches and report per-layer medians, except memory
/// deltas, which only the first traced batch measures cleanly.
pub fn run(w: &dyn Workload, seconds: f64, trace: bool, min_batches: usize) -> Outcome {
    let mut checks = Checks::default();
    let start = Instant::now();
    let mut plain: Vec<Batch> = Vec::new();
    let mut traced: Vec<(Batch, Vec<Metric>)> = Vec::new();
    while plain.len() < min_batches.max(1) || start.elapsed().as_secs_f64() < seconds {
        // Traced first, so the first traced batch runs in a fresh process
        // and its resident-memory deltas are not hidden by reused heap.
        if trace {
            traced.push(w.traced(&mut checks));
        }
        plain.push(w.batch(&mut checks));
    }
    let digest = plain[0].digest;
    for (i, b) in plain.iter().enumerate().skip(1) {
        checks.check(b.digest == digest, || {
            format!(
                "batch {i} digest {} != first batch {}",
                b.digest.hex(),
                digest.hex()
            )
        });
    }
    for (i, (b, _)) in traced.iter().enumerate() {
        checks.check(b.digest == digest, || {
            format!(
                "traced batch {i} digest {} != plain {}",
                b.digest.hex(),
                digest.hex()
            )
        });
    }
    let details = median_metrics(plain.iter().map(|b| b.details.as_slice()));
    let metrics = if trace {
        let mut layers = median_metrics(traced.iter().map(|(_, m)| m.as_slice()));
        for (m, first) in layers.iter_mut().zip(&traced[0].1) {
            if m.unit == "MB" {
                m.value = first.value;
            }
        }
        let plain_s = median(plain.iter().map(|b| b.batch_s));
        let traced_s = median(traced.iter().map(|(b, _)| b.batch_s));
        layers.push(metric("trace.overhead_ratio", traced_s / plain_s, "ratio"));
        layers.push(metric("trace.batches", traced.len() as f64, "count"));
        complete_layers(layers)
    } else {
        vec![
            metric("setup_s", median(plain.iter().map(|b| b.setup_s)), "s"),
            metric("batch_s", median(plain.iter().map(|b| b.batch_s)), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    Outcome {
        checks,
        metrics,
        details,
        digest,
        batches: plain.len(),
    }
}

/// Order `layers` as [`PER_LAYER`] lists them, filling the layers this
/// workload does not run with 0.
fn complete_layers(layers: Vec<Metric>) -> Vec<Metric> {
    for m in &layers {
        assert!(
            PER_LAYER
                .iter()
                .any(|&(name, unit)| name == m.name && unit == m.unit),
            "per-layer metric {} [{}] is not in the catalog",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            layers
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, unit))
        })
        .collect()
}

/// Per-name medians over several batches' metric lists (all lists name
/// the same metrics in the same order).
fn median_metrics<'a>(lists: impl Iterator<Item = &'a [Metric]> + Clone) -> Vec<Metric> {
    let Some(first) = lists.clone().next() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| metric(&m.name, median(lists.clone().map(|l| l[i].value)), m.unit))
        .collect()
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A `kB` field of `/proc/self/status`, in MB (0 where unavailable).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident memory of this process, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Time spent in, and calls of, a trait object or closure the benchmark
/// hands to the program.
#[derive(Default)]
pub struct Span {
    /// Nanoseconds spent inside.
    pub ns: Cell<u64>,
    /// Calls made.
    pub calls: Cell<u64>,
}

impl Span {
    /// Run `f`, adding its duration and one call.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + nanos(t));
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Mean nanoseconds per call.
    pub fn per_call(&self) -> f64 {
        self.ns.get() as f64 / self.calls.get().max(1) as f64
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nanoseconds elapsed since `t`.
pub fn nanos(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
