//! T16 — online monitoring: detection latency, false-positive rate, and
//! snapshot/monitor overhead.
//!
//! Three claims about the observability plane itself:
//!
//! 1. **Violations are detected** — in a deliberately broken run (the
//!    fault injector forces a predicate violation and keeps it standing),
//!    the monitor raises the matching alert within a finite, small number
//!    of net steps. Both predicate families are exercised: safety (two
//!    neighboring eaters) and the liveness SLO (continuous hunger beyond
//!    the threshold).
//! 2. **Legitimate runs are quiet** — across a link-adversary ×
//!    fault-plan × seed sweep of ≥ 100 healthy runs, the monitor raises
//!    zero hard alerts (safety / inconsistent-cut / locality), while
//!    still completing snapshot epochs in every run (the quietness is
//!    not vacuous).
//! 3. **Watching is cheap** — the full plane (vector-clock stamping,
//!    snapshot epochs, cut assembly, predicate evaluation) costs ≤ 5% of
//!    [`SimNet`] throughput on the large ring, so it can stay on.

use std::time::{Duration, Instant};

use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::json::BenchDoc;
use diners_sim::table::{fmt_f64, Table};
use diners_sim::telemetry::AlertKind;
use diners_sim::Phase;

use diners_mp::{AdversaryPlan, MonitorSetup, SimNet};

use crate::common::failing;

/// Everything T16 produces: human tables plus the JSON blob for CI
/// (`BENCH_monitor.json`).
pub struct MonitorReport {
    /// Detection latency per injected-violation scenario.
    pub detection: Table,
    /// False-positive sweep per link plan × fault variant.
    pub fp: Table,
    /// Monitoring overhead on the hot [`SimNet`] loop.
    pub overhead: Table,
    /// Injected-violation scenarios run.
    pub injected: usize,
    /// Scenarios whose violation was never alerted (must be 0).
    pub undetected: usize,
    /// Sweep runs that finished with zero genuine violations — the
    /// denominator of the false-positive rate (must be ≥ 100 full-scale).
    pub healthy_runs: usize,
    /// Hard alerts raised on those healthy runs (must be 0).
    pub false_positives: usize,
    /// Sweep runs that completed no snapshot epoch (quietness would be
    /// vacuous; must be 0).
    pub cutless_runs: usize,
    /// Relative slowdown (%) of the net with the full monitoring plane
    /// at the default epoch cadence vs no plane attached.
    pub overhead_pct: f64,
    /// Machine-readable mirror of the tables.
    pub json: String,
}

/// Build one monitored net for the detection section.
fn detection_net(topo: &Topology, plan: AdversaryPlan, slo_wait: u64, seed: u64) -> SimNet {
    let mut net = SimNet::with_adversary(topo.clone(), FaultPlan::none(), plan, seed);
    net.enable_monitor(MonitorSetup {
        epoch_every: 50,
        slo_wait,
        ..MonitorSetup::default()
    });
    net
}

/// Drive an injected safety violation: force both endpoints of edge
/// (0, 1) into `Eating` every step (the node logic would repair a
/// one-shot overwrite, so the injector keeps the violation standing, as
/// a genuinely broken exclusion layer would). Returns the alert latency
/// in net steps, or `None` if the horizon expires unalerted.
fn inject_neighbors_eating(net: &mut SimNet, horizon: u64) -> (u64, Option<u64>) {
    let start = net.step_count();
    let matches_edge = |k: &AlertKind| {
        matches!(
            k,
            AlertKind::NeighborsEating { a, b }
                if (a.index(), b.index()) == (0, 1) || (a.index(), b.index()) == (1, 0)
        )
    };
    for _ in 0..horizon {
        net.inject_phase(ProcessId(0), Phase::Eating);
        net.inject_phase(ProcessId(1), Phase::Eating);
        net.step();
        let hit = net
            .monitor()
            .expect("monitor attached")
            .alerts()
            .iter()
            .find(|a| a.step >= start && matches_edge(&a.kind));
        if let Some(a) = hit {
            return (start, Some(a.step - start));
        }
    }
    (start, None)
}

/// Drive an injected liveness violation: black out every data link
/// (total loss), so fork tokens stop moving and hungry diners starve in
/// place. The shadow marker adversary keeps the plan it was built with,
/// so snapshot epochs still complete and the monitor keeps seeing cuts
/// of the now-starving system. Returns the latency to the first
/// `SloBreach` alert.
fn inject_starvation(net: &mut SimNet, horizon: u64) -> (u64, Option<u64>) {
    let start = net.step_count();
    net.set_loss_per_mille(900); // the adversary's cap: near-total loss
    for _ in 0..horizon {
        net.step();
        let hit = net
            .monitor()
            .expect("monitor attached")
            .alerts()
            .iter()
            .find(|a| a.step >= start && matches!(a.kind, AlertKind::SloBreach { .. }));
        if let Some(a) = hit {
            return (start, Some(a.step - start));
        }
    }
    (start, None)
}

fn detection_section(quick: bool, json: &mut Vec<String>) -> (Table, usize, usize) {
    let topos = if quick {
        vec![Topology::ring(6), Topology::line(5)]
    } else {
        vec![Topology::ring(8), Topology::line(7), Topology::ring(12)]
    };
    let seeds: u64 = if quick { 1 } else { 3 };
    let settle: u64 = if quick { 500 } else { 2_000 };
    let horizon: u64 = 10_000;
    // The SLO threshold for the starvation scenario: far above any wait a
    // healthy clean net produces, far below the horizon.
    let slo_wait = 600;

    let mut table = Table::new(
        format!(
            "T16: detection latency of injected violations (epoch every 50, horizon {horizon})"
        ),
        ["topology", "seed", "violation", "inject @", "latency"],
    );
    let mut injected = 0usize;
    let mut undetected = 0usize;
    let record = |table: &mut Table,
                  json: &mut Vec<String>,
                  topo: &Topology,
                  seed: u64,
                  kind: &str,
                  start: u64,
                  latency: Option<u64>| {
        table.row([
            topo.name().to_string(),
            seed.to_string(),
            kind.to_string(),
            start.to_string(),
            latency.map_or("MISSED".into(), |l| l.to_string()),
        ]);
        json.push(format!(
            concat!(
                "{{\"topology\":\"{}\",\"seed\":{},\"violation\":\"{}\",",
                "\"inject_step\":{},\"latency_steps\":{},\"detected\":{}}}"
            ),
            topo.name(),
            seed,
            kind,
            start,
            latency.map_or("null".into(), |l| l.to_string()),
            latency.is_some(),
        ));
    };

    for topo in &topos {
        for seed in 0..seeds {
            // Safety: a noisy link layer must not delay detection beyond
            // the horizon, let alone hide the violation.
            let noisy = AdversaryPlan::new().loss(100).delay(100, 3);
            let mut net = detection_net(topo, noisy, u64::MAX, 61 + seed);
            net.run(settle);
            let (start, latency) = inject_neighbors_eating(&mut net, horizon);
            injected += 1;
            undetected += usize::from(latency.is_none());
            record(
                &mut table,
                json,
                topo,
                seed,
                "neighbors-eating",
                start,
                latency,
            );

            // Liveness SLO: clean links while settling, so no hunger
            // episode is anywhere near the threshold when the blackout
            // begins to starve the diners.
            let mut net = detection_net(topo, AdversaryPlan::none(), slo_wait, 71 + seed);
            net.run(settle);
            let (start, latency) = inject_starvation(&mut net, horizon);
            injected += 1;
            undetected += usize::from(latency.is_none());
            record(
                &mut table,
                json,
                topo,
                seed,
                "slo-starvation",
                start,
                latency,
            );
        }
    }
    (table, injected, undetected)
}

/// The hostile link plans for the sweep — same vocabulary as the
/// snapshot property suite.
fn link_plans() -> Vec<(&'static str, AdversaryPlan)> {
    vec![
        ("clean", AdversaryPlan::none()),
        ("lossy", AdversaryPlan::new().loss(250)),
        ("duping", AdversaryPlan::new().duplication(300)),
        (
            "reordering",
            AdversaryPlan::new().delay(250, 6).reorder(250),
        ),
        (
            "kitchen-sink",
            AdversaryPlan::new()
                .loss(150)
                .duplication(150)
                .delay(150, 4)
                .reorder(150),
        ),
    ]
}

/// Legitimate process-fault variants, scaled to the run horizon. All of
/// these are *allowed* behaviors — the monitor must stay quiet.
fn fault_variants(steps: u64, quick: bool) -> Vec<(&'static str, FaultPlan)> {
    let mut v = vec![
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::new().crash(steps / 6, 2)),
        (
            "malicious",
            FaultPlan::new().malicious_crash(steps / 5, 4, 6),
        ),
    ];
    if !quick {
        v.push((
            "rebirth",
            FaultPlan::new()
                .crash(steps / 8, 1)
                .restart_fresh(steps / 3, 1),
        ));
        v.push((
            "combo",
            FaultPlan::new()
                .crash(steps / 8, 2)
                .malicious_crash(steps / 5, 4, 6)
                .restart_fresh(steps / 2, 2),
        ));
    }
    v
}

struct SweepCell {
    runs: usize,
    healthy: usize,
    min_cuts: u64,
    soft_alerts: u64,
    hard_alerts: u64,
    false_positives: usize,
    cutless: usize,
}

fn fp_section(quick: bool, json: &mut Vec<String>) -> (Table, usize, usize, usize) {
    let steps: u64 = if quick { 6_000 } else { 12_000 };
    let seeds: u64 = if quick { 1 } else { 5 };
    let mut table = Table::new(
        format!("T16: false-positive sweep, monitored ring(6) ({steps} steps/run, {seeds} seeds)"),
        [
            "links", "faults", "runs", "healthy", "min cuts", "soft", "hard", "FPs",
        ],
    );
    let mut healthy_runs = 0usize;
    let mut false_positives = 0usize;
    let mut cutless_runs = 0usize;
    for (lname, plan) in link_plans() {
        for (fname, faults) in fault_variants(steps, quick) {
            let mut cell = SweepCell {
                runs: 0,
                healthy: 0,
                min_cuts: u64::MAX,
                soft_alerts: 0,
                hard_alerts: 0,
                false_positives: 0,
                cutless: 0,
            };
            for seed in 0..seeds {
                let mut net = SimNet::with_adversary(
                    Topology::ring(6),
                    faults.clone(),
                    plan.clone(),
                    500 + seed,
                );
                net.enable_monitor(MonitorSetup {
                    epoch_every: 100,
                    ..MonitorSetup::default()
                });
                net.run(steps);
                let mon = net.monitor().expect("monitor attached");
                cell.runs += 1;
                cell.min_cuts = cell.min_cuts.min(mon.cuts());
                cell.cutless += usize::from(mon.cuts() == 0);
                cell.hard_alerts += mon.hard_alerts();
                cell.soft_alerts += mon.alerts().len() as u64 - mon.hard_alerts();
                // A run counts toward the false-positive denominator only
                // if it was genuinely violation-free end to end; a hard
                // alert on such a run is a false positive by definition.
                if net.violation_steps() == 0 {
                    cell.healthy += 1;
                    cell.false_positives += usize::from(mon.hard_alerts() > 0);
                }
            }
            healthy_runs += cell.healthy;
            false_positives += cell.false_positives;
            cutless_runs += cell.cutless;
            table.row([
                lname.to_string(),
                fname.to_string(),
                cell.runs.to_string(),
                cell.healthy.to_string(),
                cell.min_cuts.to_string(),
                cell.soft_alerts.to_string(),
                cell.hard_alerts.to_string(),
                cell.false_positives.to_string(),
            ]);
            json.push(format!(
                concat!(
                    "{{\"links\":\"{}\",\"faults\":\"{}\",\"runs\":{},",
                    "\"healthy_runs\":{},\"min_cuts\":{},\"soft_alerts\":{},",
                    "\"hard_alerts\":{},\"false_positives\":{}}}"
                ),
                lname,
                fname,
                cell.runs,
                cell.healthy,
                cell.min_cuts,
                cell.soft_alerts,
                cell.hard_alerts,
                cell.false_positives,
            ));
        }
    }
    (table, healthy_runs, false_positives, cutless_runs)
}

/// Sustained [`SimNet`] throughput over a wall-clock budget, after a
/// warmup chunk (mirrors `perf::steps_per_sec`, which is engine-typed).
fn net_steps_per_sec(net: &mut SimNet, budget: Duration) -> f64 {
    const CHUNK: u64 = 1_000;
    net.run(CHUNK); // warmup: queues, caches, fault state
    let start = Instant::now();
    let mut steps = 0u64;
    loop {
        net.run(CHUNK);
        steps += CHUNK;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return steps as f64 / elapsed.as_secs_f64();
        }
    }
}

fn overhead_net(topo: &Topology, epoch_every: Option<u64>) -> SimNet {
    let mut net = SimNet::new(topo.clone(), FaultPlan::none(), 7);
    if let Some(every) = epoch_every {
        net.enable_monitor(MonitorSetup {
            epoch_every: every,
            ..MonitorSetup::default()
        });
    }
    net
}

fn overhead_section(quick: bool, json: &mut Vec<String>) -> (Table, f64) {
    let (budget, reps) = if quick {
        (Duration::from_millis(60), 8)
    } else {
        (Duration::from_millis(100), 15)
    };
    let topo = if quick {
        Topology::ring(64)
    } else {
        Topology::ring(256)
    };
    // Epoch cadences scale with the ring: a full snapshot round costs
    // Θ(n²) (every participant contributes an n-entry clock), so the
    // sane operating point for a large net is a round every ~20 actions
    // per node. The aggressive ~2-actions-per-node cadence is measured
    // and reported alongside so the per-round cost stays visible.
    let n = topo.len() as u64;
    let (aggressive, operating) = (2 * n, 20 * n);
    // Many short interleaved trials, best-of per configuration: the
    // plane's cost is deterministic but the machine drifts through fast
    // and slow phases that dwarf it, so each config needs enough shots
    // spread across the whole window to catch the fast state (T12's
    // methodology, with shorter trials and more of them).
    let configs = [None, Some(aggressive), Some(operating)];
    let mut peak = [0.0f64; 3];
    for _ in 0..reps {
        for (slot, every) in configs.iter().enumerate() {
            let rate = net_steps_per_sec(&mut overhead_net(&topo, *every), budget);
            peak[slot] = peak[slot].max(rate);
        }
    }
    let [bare, hot, steady] = peak;
    let pct = |with: f64| (bare - with) / bare * 100.0;
    let mut table = Table::new(
        format!(
            "T16: monitoring overhead, {} (interleaved best of {reps} × {budget:?})",
            topo.name()
        ),
        ["config", "steps/sec", "overhead %"],
    );
    table.row(["unmonitored".to_string(), fmt_f64(bare, 0), "-".into()]);
    table.row([
        format!("monitored, epoch every {aggressive} (~2 acts/node)"),
        fmt_f64(hot, 0),
        fmt_f64(pct(hot), 1),
    ]);
    table.row([
        format!("monitored, epoch every {operating} (~20 acts/node)"),
        fmt_f64(steady, 0),
        fmt_f64(pct(steady), 1),
    ]);
    json.push(format!(
        concat!(
            "{{\"topology\":\"{}\",\"bare_steps_per_sec\":{:.1},",
            "\"aggressive_epoch_every\":{},\"aggressive_steps_per_sec\":{:.1},",
            "\"aggressive_overhead_pct\":{:.2},",
            "\"operating_epoch_every\":{},\"operating_steps_per_sec\":{:.1},",
            "\"monitor_overhead_pct\":{:.2}}}"
        ),
        topo.name(),
        bare,
        aggressive,
        hot,
        pct(hot),
        operating,
        steady,
        pct(steady),
    ));
    (table, pct(steady))
}

/// Run the T16 sweep. `quick` shrinks topologies, horizons, seed counts
/// and budgets so the sweep fits in integration tests and CI smoke runs.
pub fn run(quick: bool) -> MonitorReport {
    let mut det_json = Vec::new();
    let mut fp_json = Vec::new();
    let mut ovh_json = Vec::new();

    // Overhead first: it is a wall-clock measurement, and running it in
    // a pristine process (before the detection and FP sections churn the
    // heap with hundreds of throwaway nets) keeps the allocator state of
    // the monitored and unmonitored timings representative.
    let (overhead, overhead_pct) = overhead_section(quick, &mut ovh_json);
    let (detection, injected, undetected) = detection_section(quick, &mut det_json);
    let (fp, healthy_runs, false_positives, cutless_runs) = fp_section(quick, &mut fp_json);

    let json = BenchDoc::new(quick)
        .field("injected", injected)
        .field("undetected", undetected)
        .field("healthy_runs", healthy_runs)
        .field("false_positives", false_positives)
        .field("cutless_runs", cutless_runs)
        .field("monitor_overhead_pct", format!("{overhead_pct:.2}"))
        .rows("detection", &det_json)
        .rows("fp_sweep", &fp_json)
        .field("overhead", ovh_json.join(","))
        .finish();

    MonitorReport {
        detection,
        fp,
        overhead,
        injected,
        undetected,
        healthy_runs,
        false_positives,
        cutless_runs,
        overhead_pct,
        json,
    }
}

/// The T16 gate: every injected violation is alerted, healthy runs raise
/// no hard alert and all complete epochs, and — at full scale — the
/// sweep has ≥ 100 healthy runs and monitoring costs ≤ 5%.
pub fn gate(r: &MonitorReport, quick: bool) -> Vec<String> {
    let full = !quick;
    failing([
        (r.undetected > 0).then(|| format!("{} violations unalerted", r.undetected)),
        (r.false_positives > 0).then(|| format!("{} false alerts", r.false_positives)),
        (r.cutless_runs > 0).then(|| format!("{} runs without epochs", r.cutless_runs)),
        (full && r.healthy_runs < 100).then(|| format!("{} healthy runs < 100", r.healthy_runs)),
        (full && r.overhead_pct > 5.0).then(|| format!("overhead {:.2}% > 5%", r.overhead_pct)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_on_each_doctored_condition() {
        let table = || Table::new("t", ["x"]);
        let healthy = || MonitorReport {
            detection: table(),
            fp: table(),
            overhead: table(),
            injected: 4,
            undetected: 0,
            healthy_runs: 100,
            false_positives: 0,
            cutless_runs: 0,
            overhead_pct: 1.0,
            json: String::new(),
        };
        assert!(gate(&healthy(), false).is_empty());
        let doctored: [fn(&mut MonitorReport); 5] = [
            |r| r.undetected = 1,
            |r| r.false_positives = 1,
            |r| r.cutless_runs = 1,
            |r| r.healthy_runs = 99,
            |r| r.overhead_pct = 5.5,
        ];
        for doctor in doctored {
            let mut report = healthy();
            doctor(&mut report);
            assert_eq!(gate(&report, false).len(), 1);
        }
        // The run-count and overhead bounds bind at full scale only.
        let mut quick = healthy();
        quick.healthy_runs = 10;
        quick.overhead_pct = 50.0;
        assert!(gate(&quick, true).is_empty());
    }

    #[test]
    fn quick_sweep_detects_injections_with_no_false_positives() {
        let report = run(true);
        assert!(report.injected > 0);
        assert_eq!(
            report.undetected,
            0,
            "an injected violation went unalerted:\n{}",
            report.detection.render()
        );
        assert!(report.healthy_runs > 0, "{}", report.fp.render());
        assert_eq!(
            report.false_positives,
            0,
            "hard alert on a healthy run:\n{}",
            report.fp.render()
        );
        assert_eq!(
            report.cutless_runs,
            0,
            "a sweep run completed no epochs:\n{}",
            report.fp.render()
        );
        for (table, key) in [
            (&report.detection, "neighbors-eating"),
            (&report.detection, "slo-starvation"),
            (&report.fp, "kitchen-sink"),
            (&report.overhead, "unmonitored"),
        ] {
            assert!(table.render().contains(key), "{}", table.render());
        }
        let json = &report.json;
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"quick\": true",
            "\"undetected\": 0",
            "\"false_positives\": 0",
            "\"monitor_overhead_pct\"",
            "\"detection\":",
            "\"fp_sweep\":",
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
