//! T11 — observability: convergence telemetry, empirical disturbance
//! radius, network counters, explorer statistics, and the telemetry
//! overhead guarantee.
//!
//! Like T10 this measures the reproduction infrastructure as much as the
//! paper: the telemetry layer must *observe* the paper's claims (here,
//! failure locality ≤ 2 as a meal-shortfall radius) without perturbing
//! the runs it observes. The overhead section quantifies the cost of the
//! enabled path; the disabled path is a single branch on a `None`
//! option, and the machine-normalized guard in `exp perf --check`
//! watches for regressions of the bare engine across commits.

use std::time::Duration;

use diners_core::harness::{crash_disturbance, service_shortfall, stabilization_with_telemetry};
use diners_core::MaliciousCrashDiners;
use diners_mp::{AdversaryPlan, SimNet};
use diners_sim::algorithm::SystemState;
use diners_sim::engine::{Engine, EnumerationMode};
use diners_sim::explore::{explore, ExplorationReport, Limits};
use diners_sim::fault::{FaultKind, FaultPlan, Health};
use diners_sim::graph::Topology;
use diners_sim::json::BenchDoc;
use diners_sim::scheduler::RandomScheduler;
use diners_sim::table::{fmt_f64, fmt_opt, Table};
use diners_sim::telemetry::{Histogram, RingSink, Telemetry};
use diners_sim::toy::ToyDiners;
use diners_sim::workload::AlwaysHungry;

use crate::common::failing;
use crate::experiments::perf::steps_per_sec;

/// Everything T11 produces: human tables plus the JSON blob for CI
/// (`BENCH_telemetry.json`).
pub struct TelemetryReport {
    /// Convergence-time telemetry per topology.
    pub convergence: Table,
    /// Disturbance radius per topology × crash kind.
    pub disturbance: Table,
    /// Network counters under benign and adversarial links.
    pub network: Table,
    /// Explorer layer statistics.
    pub explorer: Table,
    /// Telemetry overhead on the hot engine loop.
    pub overhead: Table,
    /// Largest disturbance radius observed across every single-crash
    /// scenario (the paper predicts ≤ 2).
    pub max_radius: u32,
    /// Relative slowdown (%) of the engine with telemetry *enabled*
    /// (registry, no sink) vs none attached — an upper bound on the
    /// disabled-path cost.
    pub overhead_pct: f64,
    /// Machine-readable mirror of the tables.
    pub json: String,
}

/// The T11 topology set: small instances of each family, sized so every
/// crash site can be swept exhaustively.
fn disturbance_topologies(quick: bool) -> Vec<Topology> {
    if quick {
        vec![Topology::line(4), Topology::ring(6), Topology::star(4)]
    } else {
        vec![
            Topology::line(6),
            Topology::ring(8),
            Topology::star(6),
            Topology::grid(3, 3),
        ]
    }
}

fn convergence_section(quick: bool, json: &mut Vec<String>) -> Table {
    let (seeds, horizon) = if quick { (2u64, 60_000) } else { (5, 150_000) };
    let sizes: &[usize] = if quick { &[8] } else { &[8, 16] };
    let mut table = Table::new(
        format!("T11: convergence telemetry, corrected variant ({seeds} seeds)"),
        ["topology", "conv", "min", "mean", "p90", "max", "enters"],
    );
    for &n in sizes {
        for topo in [Topology::ring(n), Topology::line(n)] {
            let mut hist = Histogram::pow2();
            let mut converged = 0u64;
            let mut enters = 0u64;
            for seed in 0..seeds {
                let (at, tele) = stabilization_with_telemetry(
                    MaliciousCrashDiners::corrected(),
                    topo.clone(),
                    seed,
                    horizon,
                );
                if let Some(at) = at {
                    converged += 1;
                    hist.record(at);
                }
                enters += tele
                    .registry()
                    .counter_value("engine.action.enter")
                    .unwrap_or(0);
            }
            table.row([
                topo.name().to_string(),
                format!("{converged}/{seeds}"),
                fmt_opt(hist.min()),
                fmt_f64(hist.mean(), 0),
                fmt_opt(hist.quantile(0.9)),
                fmt_opt(hist.max()),
                enters.to_string(),
            ]);
            json.push(format!(
                concat!(
                    "{{\"topology\":\"{}\",\"seeds\":{},\"converged\":{},",
                    "\"min_steps\":{},\"mean_steps\":{:.1},\"max_steps\":{},\"enters\":{}}}"
                ),
                topo.name(),
                seeds,
                converged,
                hist.min().unwrap_or(0),
                hist.mean(),
                hist.max().unwrap_or(0),
                enters,
            ));
        }
    }
    table
}

fn disturbance_section(quick: bool, json: &mut Vec<String>) -> (Table, u32) {
    let steps: u64 = if quick { 2_500 } else { 6_000 };
    let crash_step = 400;
    let slack = steps / 256;
    let mut table = Table::new(
        format!(
            "T11: disturbance radius (meal shortfall > {slack} over {steps} steps), all crash sites"
        ),
        ["topology", "fault", "sites", "max radius", "disturbed"],
    );
    let mut max_radius = 0u32;
    for topo in disturbance_topologies(quick) {
        for kind in [FaultKind::Crash, FaultKind::MaliciousCrash { steps: 6 }] {
            let mut topo_radius = 0u32;
            let mut disturbed = 0usize;
            for site in topo.processes() {
                let report = crash_disturbance(
                    MaliciousCrashDiners::corrected(),
                    &topo,
                    site,
                    kind,
                    crash_step,
                    steps,
                    &service_shortfall(slack),
                    7,
                );
                topo_radius = topo_radius.max(report.radius);
                disturbed += report.deviating.len();
            }
            max_radius = max_radius.max(topo_radius);
            table.row([
                topo.name().to_string(),
                kind.to_string(),
                topo.len().to_string(),
                topo_radius.to_string(),
                disturbed.to_string(),
            ]);
            json.push(format!(
                concat!(
                    "{{\"topology\":\"{}\",\"fault\":\"{}\",\"sites\":{},",
                    "\"max_radius\":{},\"disturbed\":{}}}"
                ),
                topo.name(),
                kind,
                topo.len(),
                topo_radius,
                disturbed,
            ));
        }
    }
    (table, max_radius)
}

fn network_section(quick: bool, json: &mut Vec<String>) -> Table {
    let steps: u64 = if quick { 4_000 } else { 12_000 };
    let topo = Topology::ring(8);
    let mut table = Table::new(
        format!("T11: network counters over {steps} steps, ring(8)"),
        [
            "scenario", "sent", "drop", "dup", "delay", "corrupt", "retx", "resync",
        ],
    );
    let scenarios: [(&str, AdversaryPlan); 2] = [
        ("benign", AdversaryPlan::none()),
        (
            "lossy",
            AdversaryPlan::new()
                .loss(150)
                .duplication(100)
                .delay(100, 3),
        ),
    ];
    for (name, plan) in scenarios {
        let mut net = SimNet::with_adversary(topo.clone(), FaultPlan::none(), plan, 11);
        net.run(steps);
        let s = net.net_stats();
        table.row([
            name.to_string(),
            s.sent.to_string(),
            s.dropped.to_string(),
            s.duplicated.to_string(),
            s.delayed.to_string(),
            s.corrupted.to_string(),
            net.retransmits().to_string(),
            net.resyncs().to_string(),
        ]);
        json.push(format!(
            concat!(
                "{{\"scenario\":\"{}\",\"sent\":{},\"dropped\":{},\"duplicated\":{},",
                "\"delayed\":{},\"corrupted\":{},\"retransmits\":{},\"resyncs\":{},",
                "\"violation_steps\":{}}}"
            ),
            name,
            s.sent,
            s.dropped,
            s.duplicated,
            s.delayed,
            s.corrupted,
            net.retransmits(),
            net.resyncs(),
            net.violation_steps(),
        ));
    }
    table
}

fn explorer_section(quick: bool, json: &mut Vec<String>) -> Table {
    let topo = if quick {
        Topology::ring(7)
    } else {
        Topology::ring(10)
    };
    let initial = SystemState::initial(&ToyDiners, &topo);
    let health = vec![Health::Live; topo.len()];
    let needs = vec![true; topo.len()];
    let report: ExplorationReport = explore(
        &ToyDiners,
        &topo,
        initial,
        &health,
        &needs,
        |_| true,
        Limits::default(),
    );
    let mut table = Table::new(
        "T11: explorer layer statistics (toy diners, full state space)",
        ["case", "states", "layers", "peak frontier", "dedup rate"],
    );
    table.row([
        format!("toy-{}", topo.name()),
        report.states.to_string(),
        report.layers.to_string(),
        report.peak_frontier.to_string(),
        fmt_f64(report.dedup_rate(), 3),
    ]);
    json.push(format!(
        concat!(
            "{{\"case\":\"toy-{}\",\"states\":{},\"transitions\":{},\"layers\":{},",
            "\"peak_frontier\":{},\"dedup_hits\":{},\"dedup_rate\":{:.4}}}"
        ),
        topo.name(),
        report.states,
        report.transitions,
        report.layers,
        report.peak_frontier,
        report.dedup_hits,
        report.dedup_rate(),
    ));
    table
}

fn overhead_engine(topo: &Topology, tele: Option<Telemetry>) -> Engine<MaliciousCrashDiners> {
    let mut b = Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
        .workload(AlwaysHungry)
        .scheduler(RandomScheduler::new(7))
        .seed(7)
        .enumeration(EnumerationMode::Incremental);
    if let Some(t) = tele {
        b = b.telemetry(t);
    }
    b.build()
}

fn overhead_section(quick: bool, json: &mut Vec<String>) -> (Table, f64) {
    let budget = if quick {
        Duration::from_millis(120)
    } else {
        Duration::from_millis(500)
    };
    let topo = if quick {
        Topology::ring(64)
    } else {
        Topology::ring(256)
    };
    let (bare, _) = steps_per_sec(&mut overhead_engine(&topo, None), budget);
    let (registry, _) = steps_per_sec(&mut overhead_engine(&topo, Some(Telemetry::new())), budget);
    let (sink, _) = steps_per_sec(
        &mut overhead_engine(&topo, Some(Telemetry::with_sink(RingSink::new(4096)))),
        budget,
    );
    let pct = |with: f64| (bare - with) / bare * 100.0;
    let mut table = Table::new(
        format!(
            "T11: telemetry overhead, {} incremental (budget {budget:?}/cell)",
            topo.name()
        ),
        ["config", "steps/sec", "overhead %"],
    );
    table.row(["none attached".to_string(), fmt_f64(bare, 0), "-".into()]);
    table.row([
        "registry only".to_string(),
        fmt_f64(registry, 0),
        fmt_f64(pct(registry), 1),
    ]);
    table.row([
        "registry + ring sink".to_string(),
        fmt_f64(sink, 0),
        fmt_f64(pct(sink), 1),
    ]);
    json.push(format!(
        concat!(
            "{{\"topology\":\"{}\",\"bare_steps_per_sec\":{:.1},",
            "\"registry_steps_per_sec\":{:.1},\"sink_steps_per_sec\":{:.1},",
            "\"registry_overhead_pct\":{:.2},\"sink_overhead_pct\":{:.2}}}"
        ),
        topo.name(),
        bare,
        registry,
        sink,
        pct(registry),
        pct(sink),
    ));
    (table, pct(registry))
}

/// Run the T11 sweep. `quick` shrinks topologies, seeds and budgets so
/// the sweep fits in integration tests and CI smoke runs.
pub fn run(quick: bool) -> TelemetryReport {
    let mut conv_json = Vec::new();
    let mut dist_json = Vec::new();
    let mut net_json = Vec::new();
    let mut exp_json = Vec::new();
    let mut ovh_json = Vec::new();

    let convergence = convergence_section(quick, &mut conv_json);
    let (disturbance, max_radius) = disturbance_section(quick, &mut dist_json);
    let network = network_section(quick, &mut net_json);
    let explorer = explorer_section(quick, &mut exp_json);
    let (overhead, overhead_pct) = overhead_section(quick, &mut ovh_json);

    let json = BenchDoc::new(quick)
        .field("max_single_crash_radius", max_radius)
        .rows("convergence", &conv_json)
        .rows("disturbance", &dist_json)
        .rows("network", &net_json)
        .rows("explore", &exp_json)
        .field("overhead", ovh_json.join(","))
        .finish();

    TelemetryReport {
        convergence,
        disturbance,
        network,
        explorer,
        overhead,
        max_radius,
        overhead_pct,
        json,
    }
}

/// The T11 gate: no single crash disturbs service beyond the paper's
/// failure-locality bound of 2.
pub fn gate(r: &TelemetryReport, _quick: bool) -> Vec<String> {
    failing([(r.max_radius > 2).then(|| format!("disturbance radius {} > 2", r.max_radius))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_on_a_radius_beyond_two() {
        let table = || Table::new("t", ["x"]);
        let mut report = TelemetryReport {
            convergence: table(),
            disturbance: table(),
            network: table(),
            explorer: table(),
            overhead: table(),
            max_radius: 2,
            overhead_pct: 0.0,
            json: String::new(),
        };
        assert!(gate(&report, true).is_empty());
        report.max_radius = 3;
        assert_eq!(gate(&report, true).len(), 1);
    }

    #[test]
    fn quick_sweep_observes_locality_and_well_formed_json() {
        let report = run(true);
        // The paper's failure-locality theorem, measured: no single
        // crash disturbs service beyond distance 2.
        assert!(
            report.max_radius <= 2,
            "disturbance radius {} > 2:\n{}",
            report.max_radius,
            report.disturbance.render()
        );
        for (table, key) in [
            (&report.convergence, "ring"),
            (&report.disturbance, "crash"),
            (&report.network, "lossy"),
            (&report.explorer, "toy-ring"),
            (&report.overhead, "registry"),
        ] {
            assert!(table.render().contains(key), "{}", table.render());
        }
        let json = &report.json;
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"quick\": true",
            "\"max_single_crash_radius\"",
            "\"convergence\":",
            "\"disturbance\":",
            "\"network\":",
            "\"explore\":",
            "\"overhead\":",
            "\"registry_overhead_pct\"",
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
