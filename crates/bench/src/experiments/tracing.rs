//! T12 — causal tracing, the flight recorder, and deterministic replay.
//!
//! Three guarantees about the forensic layer itself:
//!
//! 1. **Replay is bit-identical** — every recording in a topology ×
//!    scheduler × fault-plan sweep round-trips through the JSONL format
//!    and, driven into a fresh engine, reproduces the live run's final
//!    state, health, metric counters and violation trace exactly, with
//!    every digest checkpoint verifying.
//! 2. **Blame is local** — in single-crash scenarios, every blame chain
//!    the tracer finds within the 2-hop budget is rooted at the crash and
//!    stays within graph distance 2 of it (the per-incident form of the
//!    paper's failure-locality theorem), and such chains actually exist
//!    (the check is not vacuous). The unbounded chain-length distribution
//!    is reported alongside, so the locality bound is visible as a cliff
//!    in real data rather than an assertion.
//! 3. **Recording is cheap** — the flight recorder costs ≤ 5% of engine
//!    throughput on the large incremental configuration, so it can stay
//!    on for any run someone might later want to debug.

use std::time::Duration;

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::engine::{Engine, EnumerationMode};
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::json::BenchDoc;
use diners_sim::record::{Recording, Replayer};
use diners_sim::scheduler::{LeastRecentScheduler, RandomScheduler, Scheduler};
use diners_sim::table::{fmt_f64, fmt_opt, Table};
use diners_sim::telemetry::Histogram;
use diners_sim::workload::AlwaysHungry;
use diners_sim::Phase;

use crate::common::failing;
use crate::experiments::perf::steps_per_sec;

/// Everything T12 produces: human tables plus the JSON blob for CI
/// (`BENCH_trace.json`).
pub struct TraceReport {
    /// Replay verification per topology × scheduler × fault plan.
    pub replay: Table,
    /// Blame-chain statistics per single-crash scenario.
    pub blame: Table,
    /// Flight-recorder overhead on the hot engine loop.
    pub overhead: Table,
    /// Cells whose replay diverged or whose round trip drifted (must be 0).
    pub replay_failures: usize,
    /// Budget-2 blame chains found across all single-crash scenarios
    /// (must be > 0 — the locality check is only meaningful non-vacuously).
    pub rooted_chains: usize,
    /// Largest graph distance from a blamed span's process to the crash
    /// site over all budget-2 chains (the paper predicts ≤ 2).
    pub max_rooted_distance: u32,
    /// Relative slowdown (%) of the engine with the flight recorder
    /// attached at the default checkpoint cadence vs none attached.
    pub overhead_pct: f64,
    /// Machine-readable mirror of the tables.
    pub json: String,
}

/// The replay sweep's topology set. Sized so the full sweep still runs in
/// seconds: replay doubles every cell's step count.
fn replay_topologies(quick: bool) -> Vec<Topology> {
    if quick {
        vec![Topology::ring(6), Topology::line(5), Topology::star(5)]
    } else {
        vec![
            Topology::ring(8),
            Topology::line(9),
            Topology::grid(3, 3),
            Topology::star(6),
            Topology::ring(12),
        ]
    }
}

const SCHEDULER_NAMES: [&str; 2] = ["random", "least-recent"];

/// Scheduler factory keyed by index, so the live and replayed engines of
/// a cell can never share mutable scheduler state.
fn scheduler_at(i: usize, seed: u64) -> Box<dyn Scheduler> {
    match i {
        0 => Box::new(RandomScheduler::new(seed)),
        _ => Box::new(LeastRecentScheduler::new()),
    }
}

/// Fault plans for the replay sweep, scaled to the cell's horizon so
/// every fault actually fires. Targets stay below the smallest `n`.
fn fault_plans(steps: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::new().crash(steps / 8, 1)),
        (
            "malicious",
            FaultPlan::new().malicious_crash(steps / 10, 2, 8),
        ),
        (
            "combo",
            FaultPlan::new()
                .initially_dead(0)
                .malicious_crash(steps / 12, 3, 4)
                .transient_local(steps / 6, 2)
                .transient_global(steps / 4)
                .crash(steps / 3, 1),
        ),
        ("arbitrary", FaultPlan::new().from_arbitrary_state()),
    ]
}

/// Run one live cell, round-trip the recording through JSONL, replay it
/// on a fresh engine and compare everything observable. Returns the
/// number of verified checkpoints.
fn replay_cell(topo: &Topology, si: usize, plan: &FaultPlan, steps: u64) -> Result<usize, String> {
    let mut live = Engine::builder(MaliciousCrashDiners::corrected(), topo.clone())
        .scheduler(scheduler_at(si, 17))
        .faults(plan.clone())
        .seed(17)
        .enumeration(EnumerationMode::Incremental)
        .record_trace(true)
        .flight_recorder("mca-corrected")
        .build();
    live.run(steps);

    let rec = live.recording().expect("recorder attached");
    let text = rec.to_jsonl();
    let back = Recording::parse(&text).map_err(|e| format!("parse: {e}"))?;
    if back != rec {
        return Err("recording round trip changed the value".into());
    }
    if back.to_jsonl() != text {
        return Err("re-serialization drifted".into());
    }

    let (replayed, verified) =
        Replayer::run(&back, MaliciousCrashDiners::corrected(), AlwaysHungry)
            .map_err(|e| format!("replay: {e}"))?;
    if replayed.state() != live.state() {
        return Err("final state differs".into());
    }
    if replayed.health() != live.health() {
        return Err("final health differs".into());
    }
    if replayed.metrics() != live.metrics() {
        return Err("metric counters differ".into());
    }
    if replayed.trace().events() != live.trace().events() {
        return Err("violation/event traces differ".into());
    }
    Ok(verified)
}

fn replay_section(quick: bool, json: &mut Vec<String>) -> (Table, usize) {
    let steps: u64 = if quick { 1_500 } else { 6_000 };
    let mut table = Table::new(
        format!("T12: replay verification, corrected variant ({steps} steps/cell)"),
        ["topology", "scheduler", "plan", "checkpoints", "replay"],
    );
    let mut failures = 0usize;
    for topo in replay_topologies(quick) {
        for (si, sname) in SCHEDULER_NAMES.iter().enumerate() {
            for (plan_name, plan) in fault_plans(steps) {
                let (verdict, checkpoints) = match replay_cell(&topo, si, &plan, steps) {
                    Ok(v) => ("bit-identical".to_string(), v),
                    Err(e) => {
                        failures += 1;
                        (format!("FAILED: {e}"), 0)
                    }
                };
                table.row([
                    topo.name().to_string(),
                    sname.to_string(),
                    plan_name.to_string(),
                    checkpoints.to_string(),
                    verdict.clone(),
                ]);
                json.push(format!(
                    concat!(
                        "{{\"topology\":\"{}\",\"scheduler\":\"{}\",\"plan\":\"{}\",",
                        "\"steps\":{},\"checkpoints\":{},\"ok\":{}}}"
                    ),
                    topo.name(),
                    sname,
                    plan_name,
                    steps,
                    checkpoints,
                    verdict == "bit-identical",
                ));
            }
        }
    }
    (table, failures)
}

/// Find a step ≥ `min_step` at which `victim` is thinking, by probing a
/// fault-free twin (identical evolution up to the crash, since faults
/// only act when due). Crashing a thinking process keeps its neighbors
/// serviceable, so the blame section measures live causality rather than
/// a blocked system.
fn thinking_step(
    topo: &Topology,
    victim: ProcessId,
    seed: u64,
    min_step: u64,
    horizon: u64,
) -> Option<u64> {
    let alg = MaliciousCrashDiners::corrected();
    let mut probe = Engine::builder(alg, topo.clone())
        .scheduler(RandomScheduler::new(seed))
        .seed(seed)
        .enumeration(EnumerationMode::Incremental)
        .build();
    while probe.step_count() < horizon {
        probe.step();
        if probe.step_count() >= min_step
            && alg.phase(probe.state().local(victim)) == Phase::Thinking
        {
            return Some(probe.step_count());
        }
    }
    None
}

struct BlameStats {
    rooted: usize,
    max_distance: u32,
    unrooted: usize,
    hops: Histogram,
}

/// One single-crash scenario: crash `victim` while it thinks, trace the
/// rest of the run, and walk blame chains from every post-crash span.
fn blame_scenario(topo: &Topology, victim: ProcessId, steps: u64) -> (u64, BlameStats) {
    let seed = 29;
    let crash_step = thinking_step(topo, victim, seed, 50, steps).unwrap_or(50);
    let mut e = Engine::builder(MaliciousCrashDiners::corrected(), topo.clone())
        .scheduler(RandomScheduler::new(seed))
        .faults(FaultPlan::new().crash(crash_step, victim))
        .seed(seed)
        .enumeration(EnumerationMode::Incremental)
        .causal_tracing(true)
        .build();
    e.run(steps);
    let tracer = e.take_tracer().expect("tracer attached");
    let fault_span = tracer
        .fault_spans()
        .next()
        .expect("crash recorded as a span")
        .id;

    let mut stats = BlameStats {
        rooted: 0,
        max_distance: 0,
        unrooted: 0,
        hops: Histogram::pow2(),
    };
    for s in tracer.spans() {
        if s.kind.is_fault() || s.step <= crash_step {
            continue;
        }
        // The locality witness: a chain found within the 2-hop budget
        // must be rooted at the crash (the only fault) and stay within
        // graph distance 2 of it.
        if let Some(chain) = tracer.blame_within(s.id, 2) {
            debug_assert_eq!(chain.root(), fault_span);
            stats.rooted += 1;
            stats.max_distance = stats.max_distance.max(topo.distance(s.pid, victim));
        }
        // The unbounded depth distribution: how far causality actually
        // reaches, with spans causally independent of the crash counted
        // separately.
        match tracer.blame(s.id) {
            Some(chain) => stats.hops.record(chain.hops() as u64),
            None => stats.unrooted += 1,
        }
    }
    (crash_step, stats)
}

fn blame_section(quick: bool, json: &mut Vec<String>) -> (Table, usize, u32) {
    let steps: u64 = if quick { 1_500 } else { 5_000 };
    let mut table = Table::new(
        format!("T12: blame chains after a single crash ({steps} steps)"),
        [
            "topology",
            "victim",
            "crash",
            "rooted(≤2)",
            "max dist",
            "hops p50",
            "hops max",
            "unrooted",
        ],
    );
    let mut rooted_chains = 0usize;
    let mut max_rooted_distance = 0u32;
    for topo in replay_topologies(quick) {
        let victim = ProcessId(topo.len() / 2);
        let (crash_step, stats) = blame_scenario(&topo, victim, steps);
        rooted_chains += stats.rooted;
        max_rooted_distance = max_rooted_distance.max(stats.max_distance);
        table.row([
            topo.name().to_string(),
            victim.to_string(),
            crash_step.to_string(),
            stats.rooted.to_string(),
            stats.max_distance.to_string(),
            fmt_opt(stats.hops.quantile(0.5)),
            fmt_opt(stats.hops.max()),
            stats.unrooted.to_string(),
        ]);
        json.push(format!(
            concat!(
                "{{\"topology\":\"{}\",\"victim\":{},\"crash_step\":{},",
                "\"rooted_chains\":{},\"max_rooted_distance\":{},",
                "\"hops_p50\":{},\"hops_p90\":{},\"hops_max\":{},\"unrooted\":{}}}"
            ),
            topo.name(),
            victim.index(),
            crash_step,
            stats.rooted,
            stats.max_distance,
            stats.hops.quantile(0.5).unwrap_or(0),
            stats.hops.quantile(0.9).unwrap_or(0),
            stats.hops.max().unwrap_or(0),
            stats.unrooted,
        ));
    }
    (table, rooted_chains, max_rooted_distance)
}

fn overhead_engine(topo: &Topology, recorder: Option<u64>) -> Engine<MaliciousCrashDiners> {
    let mut b = Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
        .workload(AlwaysHungry)
        .scheduler(RandomScheduler::new(7))
        .seed(7)
        .enumeration(EnumerationMode::Incremental);
    if let Some(every) = recorder {
        b = b.flight_recorder_every("mca-paper", every);
    }
    b.build()
}

fn overhead_section(quick: bool, json: &mut Vec<String>) -> (Table, f64) {
    let budget = if quick {
        Duration::from_millis(120)
    } else {
        Duration::from_millis(400)
    };
    let topo = if quick {
        Topology::ring(64)
    } else {
        Topology::ring(256)
    };
    // Best-of-5 per configuration, with the configurations interleaved
    // round-robin: the recorder's cost is deterministic, the machine's
    // noise is not, and interleaving keeps a slow window (frequency
    // scaling, a neighbor process) from charging one config for it.
    let configs = [None, Some(256), Some(4096)];
    let mut peak = [0.0f64; 3];
    for _ in 0..5 {
        for (slot, recorder) in configs.iter().enumerate() {
            let rate = steps_per_sec(&mut overhead_engine(&topo, *recorder), budget).0;
            peak[slot] = peak[slot].max(rate);
        }
    }
    let [bare, default_cadence, sparse] = peak;
    let pct = |with: f64| (bare - with) / bare * 100.0;
    let mut table = Table::new(
        format!(
            "T12: flight-recorder overhead, {} incremental (interleaved best of 5 × {budget:?})",
            topo.name()
        ),
        ["config", "steps/sec", "overhead %"],
    );
    table.row(["none attached".to_string(), fmt_f64(bare, 0), "-".into()]);
    table.row([
        "recorder, checkpoint every 256".to_string(),
        fmt_f64(default_cadence, 0),
        fmt_f64(pct(default_cadence), 1),
    ]);
    table.row([
        "recorder, checkpoint every 4096".to_string(),
        fmt_f64(sparse, 0),
        fmt_f64(pct(sparse), 1),
    ]);
    json.push(format!(
        concat!(
            "{{\"topology\":\"{}\",\"bare_steps_per_sec\":{:.1},",
            "\"recorder_steps_per_sec\":{:.1},\"sparse_steps_per_sec\":{:.1},",
            "\"recorder_overhead_pct\":{:.2},\"sparse_overhead_pct\":{:.2}}}"
        ),
        topo.name(),
        bare,
        default_cadence,
        sparse,
        pct(default_cadence),
        pct(sparse),
    ));
    (table, pct(default_cadence))
}

/// Run the T12 sweep. `quick` shrinks topologies, horizons and budgets so
/// the sweep fits in integration tests and CI smoke runs.
pub fn run(quick: bool) -> TraceReport {
    let mut replay_json = Vec::new();
    let mut blame_json = Vec::new();
    let mut ovh_json = Vec::new();

    let (replay, replay_failures) = replay_section(quick, &mut replay_json);
    let (blame, rooted_chains, max_rooted_distance) = blame_section(quick, &mut blame_json);
    let (overhead, overhead_pct) = overhead_section(quick, &mut ovh_json);

    let json = BenchDoc::new(quick)
        .field("replay_failures", replay_failures)
        .field("rooted_chains", rooted_chains)
        .field("max_rooted_distance", max_rooted_distance)
        .field("recorder_overhead_pct", format!("{overhead_pct:.2}"))
        .rows("replay", &replay_json)
        .rows("blame", &blame_json)
        .field("overhead", ovh_json.join(","))
        .finish();

    TraceReport {
        replay,
        blame,
        overhead,
        replay_failures,
        rooted_chains,
        max_rooted_distance,
        overhead_pct,
        json,
    }
}

/// The T12 gate: every recording replays bit-identically, blame chains
/// exist and stay within distance 2 of their fault, and — at full
/// scale, where the timing is meaningful — the recorder costs ≤ 5%.
pub fn gate(r: &TraceReport, quick: bool) -> Vec<String> {
    failing([
        (r.replay_failures > 0).then(|| format!("{} replays diverged", r.replay_failures)),
        (r.rooted_chains == 0).then(|| "no rooted blame chain (vacuous check)".into()),
        (r.max_rooted_distance > 2).then(|| format!("blame distance {}", r.max_rooted_distance)),
        (!quick && r.overhead_pct > 5.0).then(|| format!("recorder {:.2}% > 5%", r.overhead_pct)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_on_each_doctored_condition() {
        let table = || Table::new("t", ["x"]);
        let healthy = || TraceReport {
            replay: table(),
            blame: table(),
            overhead: table(),
            replay_failures: 0,
            rooted_chains: 3,
            max_rooted_distance: 2,
            overhead_pct: 9.0,
            json: String::new(),
        };
        // The overhead budget binds at full scale only.
        assert!(gate(&healthy(), true).is_empty());
        assert_eq!(gate(&healthy(), false).len(), 1);
        let doctored: [fn(&mut TraceReport); 3] = [
            |r| r.replay_failures = 1,
            |r| r.rooted_chains = 0,
            |r| r.max_rooted_distance = 3,
        ];
        for doctor in doctored {
            let mut report = healthy();
            doctor(&mut report);
            assert_eq!(gate(&report, true).len(), 1);
        }
    }

    #[test]
    fn quick_sweep_replays_exactly_and_blames_locally() {
        let report = run(true);
        assert_eq!(
            report.replay_failures,
            0,
            "replay diverged:\n{}",
            report.replay.render()
        );
        // Non-vacuous locality: chains exist, and none escapes distance 2.
        assert!(report.rooted_chains > 0, "{}", report.blame.render());
        assert!(
            report.max_rooted_distance <= 2,
            "blame escaped the locality bound:\n{}",
            report.blame.render()
        );
        for (table, key) in [
            (&report.replay, "bit-identical"),
            (&report.blame, "ring"),
            (&report.overhead, "recorder"),
        ] {
            assert!(table.render().contains(key), "{}", table.render());
        }
        let json = &report.json;
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"quick\": true",
            "\"replay_failures\": 0",
            "\"rooted_chains\"",
            "\"max_rooted_distance\"",
            "\"recorder_overhead_pct\"",
            "\"replay\":",
            "\"blame\":",
            "\"overhead\":",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
    }
}
