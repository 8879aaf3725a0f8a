//! T13 — crash-recovery & supervision: restart storms, MTTR, and the
//! recovery chaos harness.
//!
//! Three claims are swept, each one layer deeper in the stack:
//!
//! * **Engine incidents**: for every topology × resurrection mode ×
//!   seed, a crash→restart incident reconverges to the invariant `I`
//!   (MTTR measured from the restart step) and disturbs service — meal
//!   shortfall against the fault-free twin — no further than graph
//!   distance 2 from the incident site. Restart does not enlarge the
//!   paper's failure locality.
//! * **Supervised SimNet storms**: a watchdog with capped-backoff
//!   restarts revives every crashed node over lossy links; after the
//!   settle horizon nobody is dead, nobody starves, and exclusion holds
//!   (arbitrary-state rebirths may violate it transiently *inside* the
//!   stabilization window — that is the fault model, not a bug).
//! * **Budget exhaustion**: a crash-looping node is abandoned after
//!   exactly `max_restarts` attempts with exactly one give-up, and the
//!   damage stays local — processes at distance ≥ 3 keep eating.
//!
//! The MTTR histograms (per topology × mode) are the
//! snapshot-vs-arbitrary comparison the supervisor design rests on, and
//! land in `BENCH_recovery.json` for CI to archive.

use diners_core::harness::{plan_disturbance, recovery_incident, service_shortfall};
use diners_core::MaliciousCrashDiners;
use diners_mp::{RestartPolicy, SimNet};
use diners_sim::fault::{FaultPlan, Resurrection};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::json::BenchDoc;
use diners_sim::table::{fmt_f64, fmt_opt, Table};
use diners_sim::telemetry::Histogram;

use crate::common::{failing, Scale};

/// Everything T13 produces: human tables plus the JSON blob for CI
/// (`BENCH_recovery.json`).
pub struct RecoveryReport {
    /// Engine-level incident sweep: MTTR and disturbance radius per
    /// topology × resurrection mode.
    pub incidents: Table,
    /// Supervised SimNet restart storms.
    pub supervised: Table,
    /// Restart-budget exhaustion containment.
    pub budget: Table,
    /// Largest disturbance radius over every incident (claim: ≤ 2).
    pub max_radius: u32,
    /// Incidents that failed to reconverge inside the horizon.
    pub unrecovered: u64,
    /// Supervised runs with a post-settle exclusion violation or a
    /// starved process.
    pub storm_failures: u64,
    /// Give-ups observed outside the budget-exhaustion scenario.
    pub unexpected_giveups: u64,
    /// Machine-readable mirror of the tables.
    pub json: String,
}

/// The T13 topology set (≥ 3 families; sizes keep exhaustive
/// site-rotation affordable).
fn recovery_topologies(quick: bool) -> Vec<Topology> {
    if quick {
        vec![Topology::line(6), Topology::ring(6), Topology::star(4)]
    } else {
        vec![
            Topology::line(8),
            Topology::ring(8),
            Topology::star(6),
            Topology::grid(3, 3),
        ]
    }
}

/// The three resurrection modes under test; the arbitrary seed is
/// re-mixed per run so every incident resurrects with different garbage.
fn modes(seed: u64) -> [(&'static str, Resurrection); 3] {
    [
        ("fresh", Resurrection::Fresh),
        ("snapshot", Resurrection::Snapshot { age: 500 }),
        (
            "arbitrary",
            Resurrection::Arbitrary {
                seed: 0xA11C_E000 + seed,
            },
        ),
    ]
}

fn incident_section(scale: &Scale, quick: bool, json: &mut Vec<String>) -> (Table, u32, u64) {
    let seeds = if quick { 2 } else { scale.seeds.max(8) };
    let (crash_step, restart_step) = (1_000u64, 3_000u64);
    let dist_steps: u64 = if quick { 2_500 } else { 5_000 };
    let slack = dist_steps / 256;
    let mut table = Table::new(
        format!(
            "T13: crash->restart incidents ({seeds} seeds; crash @{crash_step}, \
             restart @{restart_step}; shortfall > {slack} over {dist_steps} steps)"
        ),
        [
            "topology",
            "mode",
            "recovered",
            "mttr min",
            "mttr mean",
            "mttr p90",
            "mttr max",
            "radius",
        ],
    );
    let mut max_radius = 0u32;
    let mut unrecovered = 0u64;
    for topo in recovery_topologies(quick) {
        for mode_idx in 0..3 {
            let mut hist = Histogram::pow2();
            let mut recovered = 0u64;
            let mut mode_radius = 0u32;
            let mut mode_name = "";
            for seed in 0..seeds {
                let (name, state) = modes(seed)[mode_idx];
                mode_name = name;
                // Rotate the incident site with the seed so the sweep
                // covers leaves, hubs and interior processes.
                let site = ProcessId((seed as usize * 3 + 1) % topo.len());
                let inc = recovery_incident(
                    MaliciousCrashDiners::corrected(),
                    topo.clone(),
                    site,
                    crash_step,
                    restart_step,
                    state,
                    scale.horizon,
                    seed,
                );
                match inc.mttr {
                    Some(mttr) => {
                        recovered += 1;
                        hist.record(mttr);
                    }
                    None => unrecovered += 1,
                }
                let plan = FaultPlan::new()
                    .crash(300, site)
                    .restart(1_200, site, state);
                let report = plan_disturbance(
                    MaliciousCrashDiners::corrected(),
                    &topo,
                    site,
                    plan,
                    dist_steps,
                    &service_shortfall(slack),
                    seed,
                );
                mode_radius = mode_radius.max(report.radius);
            }
            max_radius = max_radius.max(mode_radius);
            table.row([
                topo.name().to_string(),
                mode_name.to_string(),
                format!("{recovered}/{seeds}"),
                fmt_opt(hist.min()),
                fmt_f64(hist.mean(), 0),
                fmt_opt(hist.quantile(0.9)),
                fmt_opt(hist.max()),
                mode_radius.to_string(),
            ]);
            json.push(format!(
                concat!(
                    "{{\"topology\":\"{}\",\"mode\":\"{}\",\"seeds\":{},\"recovered\":{},",
                    "\"mttr_min\":{},\"mttr_mean\":{:.1},\"mttr_p90\":{},\"mttr_max\":{},",
                    "\"max_radius\":{}}}"
                ),
                topo.name(),
                mode_name,
                seeds,
                recovered,
                hist.min().unwrap_or(0),
                hist.mean(),
                hist.quantile(0.9).unwrap_or(0),
                hist.max().unwrap_or(0),
                mode_radius,
            ));
        }
    }
    (table, max_radius, unrecovered)
}

/// The watchdog policy used by the storm and budget sections. Timings
/// are in SimNet steps (the supervisor is ticked once per step).
fn storm_policy(resurrection: Resurrection, max_restarts: u32) -> RestartPolicy {
    RestartPolicy {
        probe_timeout: 48,
        base_backoff: 8,
        max_backoff: 256,
        jitter: 7,
        max_restarts,
        snapshot_every: 512,
        resurrection,
    }
}

fn storm_section(scale: &Scale, quick: bool, json: &mut Vec<String>) -> (Table, u64, u64) {
    let seeds = if quick { 2 } else { scale.seeds.max(8) };
    let settle = scale.settle.max(8_000);
    let window = scale.window;
    let mut table = Table::new(
        format!("T13: supervised restart storms ({seeds} seeds, 3 crashes/run, SimNet)"),
        [
            "topology",
            "mode",
            "runs",
            "restarts",
            "giveups",
            "post-settle violations",
            "starved",
        ],
    );
    let mut failures = 0u64;
    let mut giveups_total = 0u64;
    for topo in recovery_topologies(quick) {
        let n = topo.len();
        for mode_idx in 0..3 {
            let mut restarts = 0u64;
            let mut giveups = 0u64;
            let mut late_violations = 0u64;
            let mut starved = 0u64;
            let mut mode_name = "";
            for seed in 0..seeds {
                let (name, state) = modes(seed)[mode_idx];
                mode_name = name;
                let plan = FaultPlan::new()
                    .crash(settle / 4, 0)
                    .crash(settle / 2, n / 2)
                    .crash(3 * settle / 4, n - 1);
                let mut net = SimNet::new(topo.clone(), plan, seed);
                net.supervise(storm_policy(state, 8));
                net.run(settle);
                let settled = net.step_count();
                net.run(window);
                let sup = net.supervisor().expect("supervised net");
                restarts += sup.total_restarts();
                giveups += sup.total_giveups();
                let late = net.last_violation().map_or(0, |v| u64::from(v >= settled));
                late_violations += late;
                let hungry: Vec<ProcessId> = net
                    .topology()
                    .processes()
                    .filter(|&p| net.meals_in_window(p, settled, net.step_count()) == 0)
                    .collect();
                starved += hungry.len() as u64;
                if late > 0
                    || !hungry.is_empty()
                    || net.topology().processes().any(|p| net.is_dead(p))
                {
                    failures += 1;
                }
            }
            giveups_total += giveups;
            table.row([
                topo.name().to_string(),
                mode_name.to_string(),
                seeds.to_string(),
                restarts.to_string(),
                giveups.to_string(),
                late_violations.to_string(),
                starved.to_string(),
            ]);
            json.push(format!(
                concat!(
                    "{{\"topology\":\"{}\",\"mode\":\"{}\",\"runs\":{},\"restarts\":{},",
                    "\"giveups\":{},\"post_settle_violations\":{},\"starved\":{}}}"
                ),
                topo.name(),
                mode_name,
                seeds,
                restarts,
                giveups,
                late_violations,
                starved,
            ));
        }
    }
    (table, failures, giveups_total)
}

fn budget_section(quick: bool, json: &mut Vec<String>) -> (Table, u64) {
    let crashes = if quick { 12 } else { 40 };
    let period = 1_500u64;
    let max_restarts = 3u32;
    let topo = Topology::line(6);
    let mut table = Table::new(
        format!(
            "T13: budget exhaustion (line(6), p0 crash-loops x{crashes}, budget {max_restarts})"
        ),
        ["seed", "restarts", "giveups", "abandoned", "distant eaters"],
    );
    let mut failures = 0u64;
    for seed in 0..2u64 {
        let mut plan = FaultPlan::new();
        for k in 0..crashes {
            plan = plan.crash(1_000 + k * period, 0);
        }
        let mut net = SimNet::new(topo.clone(), plan, seed);
        net.supervise(storm_policy(
            Resurrection::Snapshot { age: 0 },
            max_restarts,
        ));
        net.run(1_000 + crashes * period);
        let settled = net.step_count();
        net.run(20_000);
        let sup = net.supervisor().expect("supervised net");
        let restarts = sup.restarts_of(ProcessId(0));
        let giveups = sup.total_giveups();
        let abandoned = sup.abandoned(ProcessId(0));
        // Failure locality: the abandoned node's far side keeps eating.
        let distant: Vec<ProcessId> = [3, 4, 5]
            .into_iter()
            .map(ProcessId)
            .filter(|&p| net.meals_in_window(p, settled, net.step_count()) > 0)
            .collect();
        let ok = restarts == max_restarts && giveups == 1 && abandoned && distant.len() == 3;
        if !ok {
            failures += 1;
        }
        table.row([
            seed.to_string(),
            restarts.to_string(),
            giveups.to_string(),
            abandoned.to_string(),
            format!("{}/3", distant.len()),
        ]);
        json.push(format!(
            concat!(
                "{{\"seed\":{},\"restarts\":{},\"giveups\":{},\"abandoned\":{},",
                "\"distant_eaters\":{}}}"
            ),
            seed,
            restarts,
            giveups,
            abandoned,
            distant.len(),
        ));
    }
    (table, failures)
}

/// Run the T13 sweep. `quick` shrinks seeds and horizons so the sweep
/// fits in integration tests and CI smoke runs.
pub fn run_report(scale: &Scale, quick: bool) -> RecoveryReport {
    let mut inc_json = Vec::new();
    let mut storm_json = Vec::new();
    let mut budget_json = Vec::new();

    let (incidents, max_radius, unrecovered) = incident_section(scale, quick, &mut inc_json);
    let (supervised, storm_failures, storm_giveups) = storm_section(scale, quick, &mut storm_json);
    let (budget, budget_failures) = budget_section(quick, &mut budget_json);

    let json = BenchDoc::new(quick)
        .field("max_incident_radius", max_radius)
        .field("unrecovered_incidents", unrecovered)
        .field("storm_failures", storm_failures + budget_failures)
        .rows("incidents", &inc_json)
        .rows("supervised", &storm_json)
        .rows("budget_exhaustion", &budget_json)
        .finish();

    RecoveryReport {
        incidents,
        supervised,
        budget,
        max_radius,
        unrecovered,
        storm_failures: storm_failures + budget_failures,
        // The storm scenarios never exhaust their budget of 8; every
        // give-up there is a watchdog bug.
        unexpected_giveups: storm_giveups,
        json,
    }
}

/// The T13 gate: every incident reconverges within distance 2, every
/// supervised run and budget scenario behaves, and no storm gives up.
pub fn gate(r: &RecoveryReport, _quick: bool) -> Vec<String> {
    failing([
        (r.max_radius > 2).then(|| format!("incident radius {} > 2", r.max_radius)),
        (r.unrecovered > 0).then(|| format!("{} unrecovered incidents", r.unrecovered)),
        (r.storm_failures > 0).then(|| format!("{} storm failures", r.storm_failures)),
        (r.unexpected_giveups > 0).then(|| format!("{} give-ups", r.unexpected_giveups)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_on_each_doctored_condition() {
        let table = || Table::new("t", ["x"]);
        let healthy = || RecoveryReport {
            incidents: table(),
            supervised: table(),
            budget: table(),
            max_radius: 2,
            unrecovered: 0,
            storm_failures: 0,
            unexpected_giveups: 0,
            json: String::new(),
        };
        assert!(gate(&healthy(), false).is_empty());
        let doctored: [fn(&mut RecoveryReport); 4] = [
            |r| r.max_radius = 3,
            |r| r.unrecovered = 1,
            |r| r.storm_failures = 1,
            |r| r.unexpected_giveups = 1,
        ];
        for doctor in doctored {
            let mut report = healthy();
            doctor(&mut report);
            assert_eq!(gate(&report, false).len(), 1);
        }
    }

    #[test]
    fn quick_sweep_recovers_everywhere_and_emits_well_formed_json() {
        let report = run_report(&Scale::quick(), true);
        assert!(
            gate(&report, true).is_empty(),
            "recovery sweep failed: radius {}, unrecovered {}, storm failures {}, \
             unexpected giveups {}\n{}\n{}\n{}",
            report.max_radius,
            report.unrecovered,
            report.storm_failures,
            report.unexpected_giveups,
            report.incidents.render(),
            report.supervised.render(),
            report.budget.render(),
        );
        for (table, key) in [
            (&report.incidents, "arbitrary"),
            (&report.supervised, "snapshot"),
            (&report.budget, "0"),
        ] {
            assert!(table.render().contains(key), "{}", table.render());
        }
        let json = &report.json;
        for key in [
            "\"quick\": true",
            "\"max_incident_radius\"",
            "\"unrecovered_incidents\": 0",
            "\"incidents\":",
            "\"supervised\":",
            "\"budget_exhaustion\":",
            "\"mttr_mean\"",
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
