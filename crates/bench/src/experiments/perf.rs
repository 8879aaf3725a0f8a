//! T10 — substrate performance: engine step throughput (naive vs
//! incremental enumeration, and the incremental engine's scaling with n
//! on rings) and explorer state throughput (sequential vs parallel
//! frontier expansion).
//!
//! Unlike T1–T9 this measures the *reproduction infrastructure*, not the
//! paper's claims: the incremental engine and the parallel explorer are
//! proven bit-identical to their naive counterparts by the differential
//! suite (`crates/sim/tests/incremental_equiv.rs`), so the only question
//! left is how much faster they are. Results are also emitted as
//! machine-readable JSON (`BENCH_engine.json`) so CI can archive them.
//!
//! Measurement is adaptive: each configuration runs in fixed-size step
//! chunks until a minimum wall-clock budget is spent, then reports the
//! observed rate — robust to machines of very different speeds without
//! hardcoded iteration counts.

use std::time::{Duration, Instant};

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{DinerAlgorithm, SystemState};
use diners_sim::engine::{Engine, EnumerationMode};
use diners_sim::explore::{explore, explore_parallel, ExplorationReport, Limits};
use diners_sim::fault::Health;
use diners_sim::graph::Topology;
use diners_sim::json::{self, BenchDoc};
use diners_sim::scheduler::RandomScheduler;
use diners_sim::table::{fmt_f64, Table};
use diners_sim::toy::ToyDiners;
use diners_sim::workload::AlwaysHungry;

use crate::common::families;

/// Everything T10 produces: human tables plus the JSON blob for CI.
pub struct PerfReport {
    /// Engine steps/sec per family × size × enumeration mode.
    pub engine: Table,
    /// Incremental-engine steps/sec on rings of growing size.
    pub scaling: Table,
    /// Explorer states/sec, sequential vs parallel.
    pub explore: Table,
    /// The same numbers as machine-readable JSON (`BENCH_engine.json`).
    pub json: String,
}

/// Topology family label: the `name()` prefix before the parameters,
/// e.g. `"ring(16)"` → `"ring"`.
fn family_of(topo: &Topology) -> &str {
    topo.name().split('(').next().unwrap_or("?")
}

/// Steps/sec of `engine`, measured adaptively: chunks of `CHUNK` steps
/// until at least `budget` wall-clock has elapsed (always ≥ 1 chunk).
pub(crate) fn steps_per_sec<A: DinerAlgorithm>(
    engine: &mut Engine<A>,
    budget: Duration,
) -> (f64, u64) {
    const CHUNK: u64 = 1_000;
    engine.run(CHUNK); // warmup: populate caches, fault state, branch predictors
    let start = Instant::now();
    let mut steps = 0u64;
    loop {
        engine.run(CHUNK);
        steps += CHUNK;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return (steps as f64 / elapsed.as_secs_f64(), steps);
        }
    }
}

fn engine_for(topo: &Topology, mode: EnumerationMode) -> Engine<MaliciousCrashDiners> {
    Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
        .workload(AlwaysHungry)
        .scheduler(RandomScheduler::new(7))
        .seed(7)
        .enumeration(mode)
        .build()
}

/// Ring sizes of the scaling sweep.
const SCALING_SIZES: [usize; 5] = [16, 64, 256, 1024, 4096];

/// Incremental-engine steps/sec of `engine_for` on `ring(n)` for each
/// size: the table and its JSON rows. Not gated — the rows show how the
/// per-step cost grows with n.
fn ring_scaling(sizes: &[usize], budget: Duration) -> (Table, Vec<String>) {
    let mut table = Table::new(
        format!("T10: incremental engine on rings, random daemon (budget {budget:?}/cell)"),
        ["n", "steps/s", "ns/step"],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let topo = Topology::ring(n);
        let (rate, steps) =
            steps_per_sec(&mut engine_for(&topo, EnumerationMode::Incremental), budget);
        table.row([n.to_string(), fmt_f64(rate, 0), fmt_f64(1e9 / rate, 0)]);
        rows.push(format!(
            "{{\"family\":\"ring\",\"n\":{n},\"incremental_steps_per_sec\":{rate:.1},\"incremental_steps\":{steps}}}"
        ));
    }
    (table, rows)
}

fn explore_toy(topo: &Topology, threads: Option<usize>) -> ExplorationReport {
    let n = topo.len();
    let initial = SystemState::initial(&ToyDiners, topo);
    let health = vec![Health::Live; n];
    let needs = vec![true; n];
    let safety = |_: &diners_sim::predicate::Snapshot<'_, ToyDiners>| true;
    match threads {
        None => explore(
            &ToyDiners,
            topo,
            initial,
            &health,
            &needs,
            safety,
            Limits::default(),
        ),
        Some(t) => explore_parallel(
            &ToyDiners,
            topo,
            initial,
            &health,
            &needs,
            safety,
            Limits::default(),
            t,
        ),
    }
}

fn explore_mca(topo: &Topology, threads: Option<usize>) -> ExplorationReport {
    let n = topo.len();
    let alg = MaliciousCrashDiners::paper();
    let initial = SystemState::initial(&alg, topo);
    let health = vec![Health::Live; n];
    let needs = vec![true; n];
    let safety = |_: &diners_sim::predicate::Snapshot<'_, MaliciousCrashDiners>| true;
    match threads {
        None => explore(
            &alg,
            topo,
            initial,
            &health,
            &needs,
            safety,
            Limits::default(),
        ),
        Some(t) => explore_parallel(
            &alg,
            topo,
            initial,
            &health,
            &needs,
            safety,
            Limits::default(),
            t,
        ),
    }
}

/// Run the T10 sweep. `quick` shrinks sizes and time budgets so the
/// sweep fits in integration tests and CI smoke runs.
pub fn run(quick: bool) -> PerfReport {
    let budget = if quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(500)
    };
    let sizes: &[usize] = if quick { &[16, 64] } else { &[16, 64, 256] };
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);

    let mut engine_table = Table::new(
        format!("T10: engine steps/sec, naive vs incremental (budget {budget:?}/cell)"),
        ["family", "n", "naive st/s", "incr st/s", "speedup"],
    );
    let mut json_engine = Vec::new();

    for &n in sizes {
        for topo in families(n, 42) {
            let (naive_rate, naive_steps) =
                steps_per_sec(&mut engine_for(&topo, EnumerationMode::Naive), budget);
            let (incr_rate, incr_steps) =
                steps_per_sec(&mut engine_for(&topo, EnumerationMode::Incremental), budget);
            engine_table.row([
                family_of(&topo).to_string(),
                topo.len().to_string(),
                fmt_f64(naive_rate, 0),
                fmt_f64(incr_rate, 0),
                fmt_f64(incr_rate / naive_rate, 2),
            ]);
            json_engine.push(format!(
                concat!(
                    "{{\"family\":\"{}\",\"n\":{},",
                    "\"naive_steps_per_sec\":{:.1},\"naive_steps\":{},",
                    "\"incremental_steps_per_sec\":{:.1},\"incremental_steps\":{},",
                    "\"speedup\":{:.3}}}"
                ),
                family_of(&topo),
                topo.len(),
                naive_rate,
                naive_steps,
                incr_rate,
                incr_steps,
                incr_rate / naive_rate,
            ));
        }
    }

    let scaling_sizes = if quick {
        &SCALING_SIZES[..3]
    } else {
        &SCALING_SIZES[..]
    };
    let (scaling, json_scaling) = ring_scaling(scaling_sizes, budget);

    let mut explore_table = Table::new(
        format!("T10: explorer states/sec, sequential vs {threads}-thread parallel"),
        ["case", "states", "seq st/s", "par st/s", "speedup"],
    );
    let mut json_explore = Vec::new();

    // The explorer cases use the same sizes in quick and full mode: the
    // baseline check matches entries by case name, so CI's --quick run
    // must produce the same cases as the committed full baseline for the
    // explorer speedup guard to bite (the searches are subsecond anyway;
    // "quick" shrinks the engine time budgets, which dominate).
    let toy_topo = Topology::ring(12);
    let mca_topo = Topology::line(4);
    // On a single-core host `explore_parallel` clamps to the sequential
    // path, so a second measurement would only record noise (the committed
    // baseline once showed a fictitious 0.86x "slowdown" this way): reuse
    // the sequential report and report the honest 1.0 speedup.
    let par_run = |seq: &ExplorationReport, run: &dyn Fn(usize) -> ExplorationReport| {
        if threads <= 1 {
            seq.clone()
        } else {
            run(threads)
        }
    };
    let toy_seq = explore_toy(&toy_topo, None);
    let toy_par = par_run(&toy_seq, &|t| explore_toy(&toy_topo, Some(t)));
    let mca_seq = explore_mca(&mca_topo, None);
    let mca_par = par_run(&mca_seq, &|t| explore_mca(&mca_topo, Some(t)));
    let cases: [(String, ExplorationReport, ExplorationReport); 2] = [
        (format!("toy-{}", toy_topo.name()), toy_seq, toy_par),
        (format!("mca-{}", mca_topo.name()), mca_seq, mca_par),
    ];
    for (case, seq, par) in cases {
        assert_eq!(seq.states, par.states, "{case}: searches must agree");
        let speedup = if seq.states_per_sec() > 0.0 {
            par.states_per_sec() / seq.states_per_sec()
        } else {
            1.0
        };
        explore_table.row([
            case.clone(),
            seq.states.to_string(),
            fmt_f64(seq.states_per_sec(), 0),
            fmt_f64(par.states_per_sec(), 0),
            fmt_f64(speedup, 2),
        ]);
        json_explore.push(format!(
            concat!(
                "{{\"case\":\"{}\",\"states\":{},",
                "\"seq_states_per_sec\":{:.1},\"seq_elapsed_ms\":{:.2},",
                "\"par_states_per_sec\":{:.1},\"par_elapsed_ms\":{:.2},",
                "\"par_threads\":{},\"speedup\":{:.3}}}"
            ),
            case,
            seq.states,
            seq.states_per_sec(),
            seq.elapsed.as_secs_f64() * 1e3,
            par.states_per_sec(),
            par.elapsed.as_secs_f64() * 1e3,
            par.threads,
            speedup,
        ));
    }

    let json = BenchDoc::new(quick)
        .field("available_parallelism", threads)
        .rows("engine", &json_engine)
        .rows("scaling", &json_scaling)
        .rows("explore", &json_explore)
        .finish();

    PerfReport {
        engine: engine_table,
        scaling,
        explore: explore_table,
        json,
    }
}

// ---------------------------------------------------------------------------
// Baseline regression guard
// ---------------------------------------------------------------------------

/// Outcome of comparing a fresh perf run against a committed baseline.
pub struct BaselineCheck {
    /// Per-configuration comparison rows.
    pub table: Table,
    /// Human-readable description of each regression (empty = pass).
    pub regressions: Vec<String>,
}

/// The speedup rows of a `BENCH_engine.json` blob as `(label, size,
/// speedup)`: engine rows by family and n, explorer rows by case name
/// with size `-`.
fn speedups(json: &str) -> Vec<(String, String, f64)> {
    let rows = |key: &str| json::array_field(json, key).map_or(Vec::new(), json::split_elements);
    let row = |r: &str, label: &str, size: &str| {
        let speedup = json::field(r, "speedup")?.parse().ok()?;
        Some((
            json::field(r, label)?.to_string(),
            size.to_string(),
            speedup,
        ))
    };
    let engine = rows("engine").into_iter();
    let engine = engine.filter_map(|r| row(r, "family", json::field(r, "n")?));
    let explore = rows("explore")
        .into_iter()
        .filter_map(|r| row(r, "case", "-"));
    engine.chain(explore).collect()
}

/// Compare a fresh T10 run against a committed baseline and flag
/// configurations where the incremental engine's advantage regressed.
///
/// Raw steps/sec is machine-dependent (the committed baseline may come
/// from different hardware), so the guard compares the *speedup ratio*
/// incremental/naive per `(family, n)` — both modes run on the same
/// machine in the same process, so the ratio normalizes machine speed
/// away while still catching anything that slows the incremental hot
/// path (e.g. accidental work on the telemetry-disabled branch). A
/// configuration regresses when its current speedup falls below
/// `1 - tolerance` of the baseline's.
///
/// Explorer throughput is guarded the same way: the `explore` section's
/// parallel/sequential speedup per case is a machine-independent ratio,
/// and a regression there (e.g. a parallel merge pessimization sneaking
/// back in) fails the check just as an engine regression does.
///
/// Only configurations present in both blobs are compared (a `--quick`
/// run checks against a full baseline's intersection); it is an error
/// for the intersection to be empty.
pub fn check_against_baseline(
    current: &str,
    baseline: &str,
    tolerance: f64,
) -> Result<BaselineCheck, String> {
    let (cur, base) = (speedups(current), speedups(baseline));
    if base.iter().all(|(_, size, _)| size == "-") {
        return Err("baseline JSON has no engine entries".to_string());
    }
    let mut table = Table::new(
        format!(
            "T10 regression check: incremental/naive speedup vs baseline (tolerance {:.0}%)",
            tolerance * 100.0
        ),
        ["family", "n", "base", "current", "ratio", "verdict"],
    );
    let mut regressions = Vec::new();
    // Explorer cases ride in the same table: "case" in the family column,
    // "-" for the size (cases are matched by name alone).
    for (label, size, b) in &base {
        let Some((_, _, c)) = cur.iter().find(|(l, s, _)| l == label && s == size) else {
            continue;
        };
        let ratio = c / b;
        let ok = ratio >= 1.0 - tolerance;
        if !ok {
            let name = match size.as_str() {
                "-" => format!("{label} explorer"),
                n => format!("{label}(n={n})"),
            };
            let pct = ratio * 100.0;
            regressions.push(format!(
                "{name}: speedup {c:.2} is {pct:.0}% of baseline {b:.2}"
            ));
        }
        let verdict = if ok { "ok" } else { "REGRESSED" };
        let cells = [
            fmt_f64(*b, 2),
            fmt_f64(*c, 2),
            fmt_f64(ratio, 2),
            verdict.into(),
        ];
        table.row([label.clone(), size.clone()].into_iter().chain(cells));
    }
    if table.is_empty() {
        return Err("no overlapping (family, n) configurations between run and baseline".into());
    }
    Ok(BaselineCheck { table, regressions })
}

/// The T10 gate, applied when a baseline is given: every configuration
/// whose speedup regressed beyond the tolerance, or the reason the
/// comparison could not be made.
pub fn gate(check: &Result<BaselineCheck, String>) -> Vec<String> {
    match check {
        Ok(check) => check.regressions.clone(),
        Err(e) => vec![format!("baseline check: {e}")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_on_a_regression_or_an_unusable_baseline() {
        let baseline = format!("{{\"engine\":[{}]}}", entry("ring", 64, 10.0));
        let same = check_against_baseline(&baseline, &baseline, 0.25);
        assert!(gate(&same).is_empty());
        let slow = format!("{{\"engine\":[{}]}}", entry("ring", 64, 5.0));
        assert_eq!(
            gate(&check_against_baseline(&slow, &baseline, 0.25)).len(),
            1
        );
        assert_eq!(gate(&check_against_baseline(&slow, "{}", 0.25)).len(), 1);
    }

    fn entry(family: &str, n: usize, speedup: f64) -> String {
        format!("{{\"family\":\"{family}\",\"n\":{n},\"speedup\":{speedup:.3}}}")
    }

    #[test]
    fn baseline_check_flags_only_real_regressions() {
        let baseline = format!(
            "{{\"engine\":[{},{}]}}",
            entry("ring", 64, 10.0),
            entry("line", 64, 8.0)
        );
        // Within tolerance: a bit slower, plus an extra config the
        // baseline lacks (ignored).
        let ok = format!(
            "{{\"engine\":[{},{},{}]}}",
            entry("ring", 64, 8.0),
            entry("line", 64, 8.5),
            entry("grid", 64, 3.0)
        );
        let check = check_against_baseline(&ok, &baseline, 0.25).unwrap();
        assert!(check.regressions.is_empty(), "{:?}", check.regressions);
        assert_eq!(check.table.len(), 2);

        // ring collapses below 75% of baseline.
        let bad = format!(
            "{{\"engine\":[{},{}]}}",
            entry("ring", 64, 7.0),
            entry("line", 64, 8.0)
        );
        let check = check_against_baseline(&bad, &baseline, 0.25).unwrap();
        assert_eq!(check.regressions.len(), 1);
        assert!(check.regressions[0].contains("ring(n=64)"));
        assert!(check.table.render().contains("REGRESSED"));

        // Disjoint configurations are an error, not a silent pass.
        let disjoint = format!("{{\"engine\":[{}]}}", entry("star", 8, 2.0));
        assert!(check_against_baseline(&disjoint, &baseline, 0.25).is_err());
        assert!(check_against_baseline("{}", &baseline, 0.25).is_err());
        assert!(check_against_baseline(&ok, "{}", 0.25).is_err());
    }

    #[test]
    fn baseline_check_guards_explorer_speedups_too() {
        let baseline = format!(
            "{{\"engine\":[{}],\"explore\":[{{\"case\":\"toy-ring(n=12)\",\"speedup\":2.000}}]}}",
            entry("ring", 64, 10.0)
        );
        let ok = format!(
            "{{\"engine\":[{}],\"explore\":[{{\"case\":\"toy-ring(n=12)\",\"speedup\":1.800}}]}}",
            entry("ring", 64, 10.0)
        );
        let check = check_against_baseline(&ok, &baseline, 0.25).unwrap();
        assert!(check.regressions.is_empty(), "{:?}", check.regressions);
        assert_eq!(check.table.len(), 2, "engine row + explore row");

        let bad = format!(
            "{{\"engine\":[{}],\"explore\":[{{\"case\":\"toy-ring(n=12)\",\"speedup\":1.000}}]}}",
            entry("ring", 64, 10.0)
        );
        let check = check_against_baseline(&bad, &baseline, 0.25).unwrap();
        assert_eq!(check.regressions.len(), 1);
        assert!(
            check.regressions[0].contains("toy-ring"),
            "{:?}",
            check.regressions
        );
    }

    #[test]
    fn single_core_reports_unity_explorer_speedup() {
        // On a 1-core host the parallel column must be the sequential
        // report itself (speedup exactly 1.0), not a second noisy run.
        if std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            > 1
        {
            return; // only meaningfully testable on a single-core host
        }
        let report = run(true);
        for (case, _, speedup) in speedups(&report.json).into_iter().filter(|r| r.1 == "-") {
            assert_eq!(speedup, 1.0, "{case}: {speedup}");
        }
    }

    #[test]
    fn speedups_parse_the_committed_shape() {
        let json = concat!(
            "{\n  \"engine\": [\n    ",
            "{\"family\":\"ring\",\"n\":16,\"naive_steps_per_sec\":374474.3,",
            "\"naive_steps\":188000,\"incremental_steps_per_sec\":1598861.8,",
            "\"incremental_steps\":800000,\"speedup\":4.270}\n  ],\n",
            "  \"explore\": [\n    ",
            "{\"case\":\"toy-ring(n=12)\",\"states\":172928,\"speedup\":0.860}\n  ]\n}\n"
        );
        let entries = speedups(json);
        assert_eq!(entries.len(), 2);
        assert_eq!(
            (entries[0].0.as_str(), entries[0].1.as_str()),
            ("ring", "16")
        );
        assert!((entries[0].2 - 4.270).abs() < 1e-9);
        assert_eq!(
            (entries[1].0.as_str(), entries[1].1.as_str()),
            ("toy-ring(n=12)", "-")
        );
    }

    #[test]
    fn quick_sweep_produces_tables_and_well_formed_json() {
        let report = run(true);
        let engine = report.engine.render();
        assert!(engine.contains("ring"), "{engine}");
        let explore = report.explore.render();
        assert!(explore.contains("toy-ring"), "{explore}");
        // Hand-rolled JSON: check the shape without a parser dependency.
        let json = &report.json;
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"quick\": true",
            "\"engine\":",
            "\"explore\":",
            "\"naive_steps_per_sec\"",
            "\"incremental_steps_per_sec\"",
            "\"seq_states_per_sec\"",
            "\"par_states_per_sec\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
    }

    #[test]
    fn ring_scaling_reports_one_row_per_size() {
        let (table, rows) = ring_scaling(&[16, 64], Duration::from_millis(10));
        assert_eq!(table.len(), 2);
        assert_eq!(rows.len(), 2);
        for (row, n) in rows.iter().zip([16, 64]) {
            assert_eq!(json::field(row, "n"), Some(n.to_string().as_str()));
            let rate: f64 = json::field(row, "incremental_steps_per_sec")
                .and_then(|v| v.parse().ok())
                .expect("rate");
            assert!(rate > 0.0, "{row}");
        }
        // Scaling rows carry no speedup, so the baseline guard skips them.
        let doc = format!("{{\"engine\":[],\"scaling\":[{}]}}", rows.join(","));
        assert!(speedups(&doc).is_empty());
    }

    #[test]
    fn incremental_engine_beats_naive_at_scale() {
        // The headline claim, at a size small enough for tests: the
        // incremental engine must be strictly faster than the naive one
        // on a ring under full contention.
        let budget = Duration::from_millis(80);
        let topo = Topology::ring(64);
        let (naive, _) = steps_per_sec(&mut engine_for(&topo, EnumerationMode::Naive), budget);
        let (incr, _) = steps_per_sec(&mut engine_for(&topo, EnumerationMode::Incremental), budget);
        assert!(
            incr > naive,
            "incremental ({incr:.0} st/s) not faster than naive ({naive:.0} st/s)"
        );
    }
}
