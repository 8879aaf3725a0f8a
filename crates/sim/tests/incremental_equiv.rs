//! Differential tests for the performance-critical dual
//! implementations:
//!
//! * **engine** — the incremental (dirty-set + age-table) enumeration
//!   must reproduce the naive from-scratch enumeration *bit for bit*:
//!   same `StepOutcome` every step, same final state, health, metrics,
//!   and eating-pair counters, across topology families, seeds,
//!   schedulers, workloads, and the full fault taxonomy;
//! * **indexed pick** — a scheduler that picks by count alone
//!   (`Scheduler::pick_by_count`, resolved through the engine's count
//!   index) must fire the same moves as the same scheduler handed the
//!   age-annotated list, with identical telemetry counters;
//! * **explorer** — the parallel frontier-sharded search must produce
//!   the same report as the sequential search, including violation
//!   traces and truncation points.
//!
//! These run on the paper's actual algorithm (`MaliciousCrashDiners`),
//! not just the toy one, so malicious pseudo-moves, per-neighbor action
//! slots, and priority edge variables are all exercised.

use diners_core::predicates::{e_holds, nc_holds};
use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{DinerAlgorithm, Phase, SystemState};
use diners_sim::engine::{Engine, EnumerationMode};
use diners_sim::explore::{explore, explore_parallel, ExplorationReport, Limits};
use diners_sim::fault::{FaultPlan, Health};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::scheduler::{
    EnabledMove, LeastRecentScheduler, RandomScheduler, RoundRobinScheduler, Scheduler,
};
use diners_sim::telemetry::Telemetry;
use diners_sim::toy::ToyDiners;
use diners_sim::workload::{AlwaysHungry, BernoulliWorkload, QuotaWorkload};

/// Run the same configuration under both enumeration modes and demand
/// bit-identical behavior, step for step.
fn assert_modes_agree<A>(make: impl Fn(EnumerationMode) -> Engine<A>, steps: u64, label: &str)
where
    A: DinerAlgorithm,
    A::Local: std::fmt::Debug + PartialEq,
    A::Edge: std::fmt::Debug + PartialEq,
{
    let mut naive = make(EnumerationMode::Naive);
    let mut inc = make(EnumerationMode::Incremental);
    for s in 0..steps {
        let a = naive.step();
        let b = inc.step();
        assert_eq!(a, b, "{label}: outcome diverged at step {s}");
        assert_eq!(
            inc.eating_pairs(),
            naive.eating_pairs_scan(),
            "{label}: eating-pair counters diverged at step {s}"
        );
    }
    assert_eq!(naive.step_count(), inc.step_count(), "{label}: step count");
    assert_eq!(
        naive.state().locals(),
        inc.state().locals(),
        "{label}: final locals"
    );
    assert_eq!(
        naive.state().edges(),
        inc.state().edges(),
        "{label}: final edges"
    );
    assert_eq!(naive.health(), inc.health(), "{label}: final health");
    assert_eq!(naive.metrics(), inc.metrics(), "{label}: metrics");
}

/// Fault plans covering the paper's whole taxonomy, scaled to `n`
/// processes.
fn fault_plans(n: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::new().crash(40, 1 % n)),
        ("malicious", FaultPlan::new().malicious_crash(30, 2 % n, 5)),
        (
            "transient",
            FaultPlan::new().transient_local(25, 0).transient_global(60),
        ),
        ("arbitrary-start", FaultPlan::new().from_arbitrary_state()),
        (
            "dead+crash",
            FaultPlan::new().initially_dead(0).crash(50, n - 1),
        ),
        // Crashes of every kind, each followed by a restart of every
        // kind, so processes leave and rejoin the enabled set with
        // neighbor-visible new states.
        (
            "restarts",
            FaultPlan::new()
                .crash(20, 1 % n)
                .restart_fresh(45, 1 % n)
                .malicious_crash(30, 2 % n, 3)
                .restart_snapshot(70, 2 % n, 25)
                .crash(90, 0)
                .restart_arbitrary(120, 0, 5)
                .crash(140, 1 % n)
                .restart_fresh(150, 1 % n),
        ),
    ]
}

fn families() -> Vec<Topology> {
    vec![
        Topology::ring(9),
        Topology::line(8),
        Topology::grid(3, 3),
        Topology::star(8),
        Topology::random_connected(10, 0.3, 7),
    ]
}

#[test]
fn mca_modes_agree_across_topologies_seeds_schedulers_and_faults() {
    for topo in families() {
        for seed in 0..8u64 {
            for least_recent in [true, false] {
                for (fname, plan) in fault_plans(topo.len()) {
                    let label = format!(
                        "{} seed={seed} lr={least_recent} faults={fname}",
                        topo.name()
                    );
                    assert_modes_agree(
                        |mode| {
                            let b = Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
                                .workload(AlwaysHungry)
                                .faults(plan.clone())
                                .seed(seed.wrapping_mul(1000) + 17)
                                .enumeration(mode);
                            if least_recent {
                                b.scheduler(LeastRecentScheduler::new()).build()
                            } else {
                                b.scheduler(RandomScheduler::new(seed ^ 0xabc)).build()
                            }
                        },
                        200,
                        &label,
                    );
                }
            }
        }
    }
}

#[test]
fn modes_agree_with_a_step_dependent_workload() {
    // Bernoulli keeps `step_dependent() == true`, forcing the
    // incremental engine through its per-step needs rescan.
    for seed in 0..8u64 {
        assert_modes_agree(
            |mode| {
                Engine::builder(MaliciousCrashDiners::paper(), Topology::ring(7))
                    .workload(BernoulliWorkload::new(seed, 1, 3))
                    .scheduler(RandomScheduler::new(seed))
                    .faults(FaultPlan::new().malicious_crash(35, 3, 4).crash(80, 0))
                    .seed(seed)
                    .enumeration(mode)
                    .build()
            },
            300,
            &format!("bernoulli seed={seed}"),
        );
    }
}

#[test]
fn modes_agree_with_a_quota_workload_through_quiescence() {
    // Quota opts out of the per-step rescan; its `needs` flips exactly
    // at `note_eat`, and the run ends quiescent once everyone is sated —
    // covering both the meal-driven invalidation and Quiescent outcomes.
    for seed in 0..8u64 {
        assert_modes_agree(
            |mode| {
                Engine::builder(ToyDiners, Topology::ring(6))
                    .workload(QuotaWorkload::uniform(6, 3))
                    .scheduler(RandomScheduler::new(seed))
                    .seed(seed)
                    .enumeration(mode)
                    .build()
            },
            400,
            &format!("quota seed={seed}"),
        );
    }
}

/// Forwards `pick` only, so the engine takes the list path for the
/// wrapped scheduler even when it could pick by count.
struct SliceOnly<S>(S);

impl<S: Scheduler> Scheduler for SliceOnly<S> {
    fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
        self.0.pick(step, enabled)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Run the incremental engine twice, with `sched()` and with
/// `SliceOnly(sched())`, and demand the same run: moves, state, health,
/// metrics, eating-pair counters and every telemetry counter and
/// histogram. `make` receives the boxed scheduler, which the builder
/// boxes again, so the `Box<dyn Scheduler>` forwarding is on the path.
fn assert_pick_paths_agree<A, S>(
    make: impl Fn(Box<dyn Scheduler>) -> diners_sim::engine::EngineBuilder<A>,
    sched: impl Fn() -> S,
    steps: u64,
    label: &str,
) where
    A: DinerAlgorithm,
    A::Local: std::fmt::Debug + PartialEq,
    A::Edge: std::fmt::Debug + PartialEq,
    S: Scheduler + 'static,
{
    let build = |s: Box<dyn Scheduler>| make(s).telemetry(Telemetry::new()).build();
    let mut indexed = build(Box::new(sched()));
    let mut listed = build(Box::new(SliceOnly(sched())));
    for s in 0..steps {
        let a = indexed.step();
        let b = listed.step();
        assert_eq!(a, b, "{label}: outcome diverged at step {s}");
        assert_eq!(
            indexed.eating_pairs(),
            listed.eating_pairs(),
            "{label}: eating pairs at step {s}"
        );
    }
    assert_eq!(
        indexed.state().locals(),
        listed.state().locals(),
        "{label}: locals"
    );
    assert_eq!(indexed.state().edges(), listed.state().edges(), "{label}");
    assert_eq!(indexed.health(), listed.health(), "{label}: health");
    assert_eq!(indexed.metrics(), listed.metrics(), "{label}: metrics");
    let (ta, tb) = (
        indexed.telemetry().expect("attached").registry(),
        listed.telemetry().expect("attached").registry(),
    );
    assert!(ta.counters().any(|(_, v)| v > 0), "{label}: no telemetry");
    assert!(ta.counters().eq(tb.counters()), "{label}: counters");
    assert!(ta.histograms().eq(tb.histograms()), "{label}: histograms");
}

#[test]
fn indexed_pick_matches_the_list_path() {
    for topo in families() {
        let plans = fault_plans(topo.len());
        for seed in 0..8u64 {
            for (fname, plan) in &plans {
                assert_pick_paths_agree(
                    |s| {
                        Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
                            .workload(AlwaysHungry)
                            .faults(plan.clone())
                            .seed(seed.wrapping_mul(1000) + 17)
                            .scheduler(s)
                    },
                    || RandomScheduler::new(seed ^ 0xabc),
                    200,
                    &format!("{} seed={seed} faults={fname}", topo.name()),
                );
            }
        }
    }
    // A step-dependent workload (per-step needs rescan) and a quota
    // workload that runs into quiescence.
    for seed in 0..8u64 {
        assert_pick_paths_agree(
            |s| {
                Engine::builder(MaliciousCrashDiners::paper(), Topology::ring(7))
                    .workload(BernoulliWorkload::new(seed, 1, 3))
                    .faults(FaultPlan::new().malicious_crash(35, 3, 4).crash(80, 0))
                    .seed(seed)
                    .scheduler(s)
            },
            || RandomScheduler::new(seed),
            300,
            &format!("bernoulli seed={seed}"),
        );
        assert_pick_paths_agree(
            |s| {
                Engine::builder(ToyDiners, Topology::ring(6))
                    .workload(QuotaWorkload::uniform(6, 3))
                    .seed(seed)
                    .scheduler(s)
            },
            || RandomScheduler::new(seed),
            400,
            &format!("quota seed={seed}"),
        );
    }
}

#[test]
fn round_robin_modes_agree() {
    // Round-robin always takes the list path; its picks must match the
    // naive engine's across faults and restarts.
    for topo in families() {
        for (fname, plan) in fault_plans(topo.len()) {
            assert_modes_agree(
                |mode| {
                    Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
                        .faults(plan.clone())
                        .scheduler(RoundRobinScheduler::new())
                        .seed(3)
                        .enumeration(mode)
                        .build()
                },
                300,
                &format!("{} round-robin faults={fname}", topo.name()),
            );
        }
    }
}

fn assert_same_search(a: &ExplorationReport, b: &ExplorationReport, label: &str) {
    assert_eq!(a.states, b.states, "{label}: states");
    assert_eq!(a.transitions, b.transitions, "{label}: transitions");
    assert_eq!(a.deadlocks, b.deadlocks, "{label}: deadlocks");
    assert_eq!(a.violation, b.violation, "{label}: violation trace");
    assert_eq!(a.truncated, b.truncated, "{label}: truncation");
    assert_eq!(a.layers, b.layers, "{label}: layers");
    assert_eq!(a.peak_frontier, b.peak_frontier, "{label}: peak frontier");
    assert_eq!(a.dedup_hits, b.dedup_hits, "{label}: dedup hits");
}

#[test]
fn parallel_explore_matches_sequential_on_mca() {
    let alg = MaliciousCrashDiners::paper();
    for topo in [Topology::line(4), Topology::ring(4)] {
        let n = topo.len();
        let initial = SystemState::initial(&alg, &topo);
        let health = vec![Health::Live; n];
        let needs = vec![true; n];
        let seq = explore(
            &alg,
            &topo,
            initial.clone(),
            &health,
            &needs,
            |snap| e_holds(snap) && nc_holds(snap),
            Limits::default(),
        );
        assert!(seq.verified(), "{:?}", seq);
        for threads in [2, 4] {
            let par = explore_parallel(
                &alg,
                &topo,
                initial.clone(),
                &health,
                &needs,
                |snap| e_holds(snap) && nc_holds(snap),
                Limits::default(),
                threads,
            );
            assert_same_search(&seq, &par, &format!("{} t={threads}", topo.name()));
        }
    }
}

#[test]
fn parallel_explore_matches_sequential_with_a_dead_eater() {
    // The locality scenario: a corpse holding the critical section.
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::line(5);
    let mut initial = SystemState::initial(&alg, &topo);
    for p in topo.processes() {
        initial.local_mut(p).phase = Phase::Hungry;
    }
    initial.local_mut(ProcessId(0)).phase = Phase::Eating;
    let mut health = vec![Health::Live; 5];
    health[0] = Health::Dead;

    let seq = explore(
        &alg,
        &topo,
        initial.clone(),
        &health,
        &[true; 5],
        e_holds,
        Limits::default(),
    );
    let par = explore_parallel(
        &alg,
        &topo,
        initial,
        &health,
        &[true; 5],
        e_holds,
        Limits::default(),
        4,
    );
    assert!(seq.verified(), "{:?}", seq);
    assert_same_search(&seq, &par, "dead-eater line(5)");
}

#[test]
fn parallel_explore_matches_sequential_on_violations_and_truncation() {
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::line(4);
    let initial = SystemState::initial(&alg, &topo);
    let health = vec![Health::Live; 4];
    let needs = vec![true; 4];

    // A predicate the algorithm actually violates: "process 0 never
    // eats". The searches must report the identical counterexample.
    let p0_starves = |snap: &diners_sim::predicate::Snapshot<'_, MaliciousCrashDiners>| {
        snap.state.local(ProcessId(0)).phase != Phase::Eating
    };
    let seq = explore(
        &alg,
        &topo,
        initial.clone(),
        &health,
        &needs,
        p0_starves,
        Limits::default(),
    );
    assert!(seq.violation.is_some(), "p0 must eventually eat");
    let par = explore_parallel(
        &alg,
        &topo,
        initial.clone(),
        &health,
        &needs,
        p0_starves,
        Limits::default(),
        3,
    );
    assert_same_search(&seq, &par, "violation");

    // Truncation in mid-layer must stop both searches at the same state.
    let limits = Limits { max_states: 123 };
    let seq = explore(
        &alg,
        &topo,
        initial.clone(),
        &health,
        &needs,
        |_| true,
        limits,
    );
    assert!(seq.truncated);
    let par = explore_parallel(&alg, &topo, initial, &health, &needs, |_| true, limits, 4);
    assert_same_search(&seq, &par, "truncation");
}
