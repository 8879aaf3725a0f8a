//! `engine-ring`: the shared-memory engine on a large ring.
//!
//! `Engine` runs `MaliciousCrashDiners::paper()` on `Topology::ring(n)`
//! in the default incremental mode, with `RandomScheduler` and
//! `AlwaysHungry`, from an arbitrary (corrupted) state, through 8
//! malicious crashes spread over the ring and over the first quarter of
//! the run. A batch is a fixed number of steps, so its outputs are a pure
//! function of the seed.
//!
//! The batch runs in [`CHUNKS`] timed chunks. Between chunks, untimed,
//! it finds the first step at which the faults are over and the
//! invariant `I = NC ∧ ST ∧ E` holds: the run must get there by the
//! settle point, and no live neighbour pair may eat from there on.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use diners_core::predicates::Invariant;
use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{ActionId, Algorithm, SystemState, View};
use diners_sim::engine::Engine;
use diners_sim::fault::{FaultPlan, Health};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::predicate::StatePredicate;
use diners_sim::rng;
use diners_sim::scheduler::{EnabledMove, RandomScheduler, Scheduler};
use diners_sim::telemetry::Telemetry;
use diners_sim::workload::{AlwaysHungry, Workload as NeedsFn};
use rand::Rng;

use crate::{metric, nanos, rss_mb, secs, Batch, Checks, Digest, Metric, Scale, Span, Workload};

/// Malicious crashes per batch.
const CRASHES: usize = 8;

/// Timed chunks per batch; the stabilization checks run between them.
const CHUNKS: u64 = 24;

/// The seed-generated inputs of one `engine-ring` run.
pub struct EngineRing {
    n: usize,
    steps: u64,
    /// The run must be stable (faults over, `I` holding) by this step.
    settle: u64,
    seed: u64,
    /// `(step, process, malicious steps)` per crash.
    crashes: Vec<(u64, usize, u32)>,
}

impl EngineRing {
    /// Generate the inputs from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (n, steps) = match scale {
            Scale::Full => (4096, 120_000),
            Scale::Tiny => (64, 4_800),
        };
        let mut r = rng::rng(rng::subseed(seed, 0xE41C));
        // One crash per eighth of the ring, away from the segment ends,
        // so no two crash sites are within the locality radius. A
        // malicious step runs only when the scheduler picks it, about one
        // step in n, so the faults last well past the crash steps.
        let seg = n / CRASHES;
        let crashes = (0..CRASHES)
            .map(|i| {
                let pid = i * seg + r.gen_range(2..seg - 2);
                let at = r.gen_range(0..steps / 4);
                (at, pid, r.gen_range(1..=4u32))
            })
            .collect();
        EngineRing {
            n,
            steps,
            settle: steps * 3 / 4,
            seed,
            crashes,
        }
    }

    fn plan(&self) -> FaultPlan {
        self.crashes.iter().fold(
            FaultPlan::new().from_arbitrary_state(),
            |plan, &(at, pid, k)| plan.malicious_crash(at, pid, k),
        )
    }

    /// Run the batch in [`CHUNKS`] chunks, calling `after` with the
    /// chunk index after each. Returns the nanoseconds spent in
    /// `Engine::run`, the executed and quiescent step counts, and the
    /// first chunk end at which the faults were over and `I` held.
    fn drive(
        &self,
        engine: &mut Engine<MaliciousCrashDiners>,
        mut after: impl FnMut(&Engine<MaliciousCrashDiners>, u64),
    ) -> (u64, u64, u64, Option<u64>) {
        let invariant = Invariant::for_algorithm(engine.algorithm());
        let last_crash = self.crashes.iter().map(|c| c.0).max().unwrap_or(0);
        let (mut run_ns, mut executed, mut quiescent) = (0, 0, 0);
        let mut stable = None;
        for i in 0..CHUNKS {
            let t = Instant::now();
            let s = engine.run(self.steps / CHUNKS);
            run_ns += nanos(t);
            executed += s.executed;
            quiescent += s.quiescent;
            if stable.is_none()
                && engine.step_count() > last_crash
                && !engine
                    .health()
                    .iter()
                    .any(|h| matches!(h, Health::Byzantine { .. }))
                && invariant.holds(&engine.snapshot())
            {
                stable = Some(engine.step_count());
            }
            after(engine, i);
        }
        (run_ns, executed, quiescent, stable)
    }

    /// Checks and digest of a finished run that was stable from `stable`.
    fn verdict(
        &self,
        engine: &Engine<MaliciousCrashDiners>,
        stable: Option<u64>,
        checks: &mut Checks,
    ) -> Digest {
        let m = engine.metrics();
        let stable_from = stable.unwrap_or(u64::MAX);
        checks.check(stable_from <= self.settle, || {
            format!(
                "engine-ring: not stable by step {} (faults over and I holding from {stable:?})",
                self.settle
            )
        });
        checks.check(
            m.last_violation_step().is_none_or(|s| s < stable_from),
            || {
                format!(
                    "engine-ring: exclusion violated at step {:?}, after stabilizing at {stable_from}",
                    m.last_violation_step()
                )
            },
        );
        checks.check(
            Invariant::for_algorithm(engine.algorithm()).holds(&engine.snapshot()),
            || "engine-ring: I does not hold at the end of the run".into(),
        );
        checks.check(engine.write_violations() == 0, || {
            format!(
                "engine-ring: {} write violations",
                engine.write_violations()
            )
        });
        let mut d = Digest::default();
        d.extend(m.eats().iter().copied());
        d.extend([
            m.violation_step_count(),
            m.last_violation_step().unwrap_or(u64::MAX),
            stable_from,
            engine.step_count(),
            engine.write_violations(),
        ]);
        d.extend(engine.dead_processes().iter().map(|p| p.index() as u64));
        d
    }
}

impl Workload for EngineRing {
    fn batch(&self, checks: &mut Checks) -> Batch {
        let plan = self.plan();
        let t = Instant::now();
        let mut engine = Engine::builder(MaliciousCrashDiners::paper(), Topology::ring(self.n))
            .workload(AlwaysHungry)
            .scheduler(RandomScheduler::new(self.seed))
            .faults(plan)
            .seed(self.seed)
            .build();
        let setup_s = secs(t);
        let (run_ns, _, _, stable) = self.drive(&mut engine, |_, _| {});
        let batch_s = run_ns as f64 / 1e9;
        let meals = engine.metrics().total_eats() as f64;
        Batch {
            setup_s,
            batch_s,
            digest: self.verdict(&engine, stable, checks),
            details: vec![
                metric("engine_steps_per_s", self.steps as f64 / batch_s, "steps/s"),
                metric("meals_per_s", meals / batch_s, "meals/s"),
            ],
        }
    }

    fn traced(&self, checks: &mut Checks) -> (Batch, Vec<Metric>) {
        let plan = self.plan();
        let picks = Rc::new(Span::default());
        let handed = Rc::new(Cell::new(0u64));
        let needs = Rc::new(Span::default());
        let t = Instant::now();
        let rss0 = rss_mb();
        let tg = Instant::now();
        let topo = Topology::ring(self.n);
        let build_s = secs(tg);
        let graph_mb = rss_mb() - rss0;
        let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo)
            .workload(TimedNeeds {
                inner: AlwaysHungry,
                span: Rc::clone(&needs),
            })
            .scheduler(TimedScheduler {
                inner: RandomScheduler::new(self.seed),
                span: Rc::clone(&picks),
                handed: Rc::clone(&handed),
            })
            .faults(plan)
            .seed(self.seed)
            .telemetry(Telemetry::new())
            .build();
        let setup_s = secs(t);
        // Keep the state after each quarter of the run as a sample for
        // the direct guard and command calls.
        let mut samples: Vec<SystemState<MaliciousCrashDiners>> = Vec::new();
        let (run_ns, executed, quiescent, stable) = self.drive(&mut engine, |e, i| {
            if (i + 1) % (CHUNKS / 4) == 0 {
                samples.push(e.state().clone());
            }
        });
        let batch_s = run_ns as f64 / 1e9;
        let digest = self.verdict(&engine, stable, checks);
        let steps = self.steps as f64;
        let (pick_ns, needs_ns) = (picks.ns.get(), needs.ns.get());
        let tele = engine.telemetry().expect("telemetry attached").registry();
        let counter = |name: &str| tele.counter_value(name).unwrap_or(0) as f64;
        let hist = tele.histogram_value("engine.hungry_to_eat_steps");
        let quantile = |q: f64| hist.and_then(|h| h.quantile(q)).unwrap_or(0) as f64;
        let (guard_ns, exec_ns) = algorithm_costs(engine.algorithm(), engine.topology(), &samples);
        let mut layers = vec![
            metric("graph.build_s", build_s, "s"),
            metric("graph.rss_mb", graph_mb, "MB"),
            metric("engine.run_ns_per_step", run_ns as f64 / steps, "ns"),
            metric(
                "engine.self_ns_per_step",
                run_ns.saturating_sub(pick_ns + needs_ns) as f64 / steps,
                "ns",
            ),
            metric("engine.executed", executed as f64, "count"),
            metric("engine.quiescent", quiescent as f64, "count"),
            metric(
                "engine.write_violations",
                counter("engine.write_violations"),
                "count",
            ),
            metric("engine.hungry_to_eat_p50_steps", quantile(0.5), "steps"),
            metric("engine.hungry_to_eat_p99_steps", quantile(0.99), "steps"),
            metric("scheduler.pick_ns_per_step", pick_ns as f64 / steps, "ns"),
            metric(
                "scheduler.enabled_len_mean",
                handed.get() as f64 / picks.calls.get().max(1) as f64,
                "moves",
            ),
            metric(
                "workload.needs_calls_per_step",
                needs.calls.get() as f64 / steps,
                "calls/step",
            ),
            metric("workload.needs_ns_per_step", needs_ns as f64 / steps, "ns"),
            metric("algorithm.guard_ns_per_call", guard_ns, "ns"),
            metric("algorithm.execute_ns_per_call", exec_ns, "ns"),
        ];
        for kind in engine.algorithm().kinds() {
            let name = format!("engine.action.{}", kind.name);
            layers.push(metric(&name, counter(&name), "count"));
        }
        let batch = Batch {
            setup_s,
            batch_s,
            digest,
            details: Vec::new(),
        };
        (batch, layers)
    }
}

/// Times every `pick` of the wrapped scheduler and counts the moves
/// handed to it.
struct TimedScheduler<S> {
    inner: S,
    span: Rc<Span>,
    handed: Rc<Cell<u64>>,
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
        self.handed.set(self.handed.get() + enabled.len() as u64);
        let inner = &mut self.inner;
        self.span.time(|| inner.pick(step, enabled))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every `needs()` evaluation of the wrapped workload.
struct TimedNeeds<W> {
    inner: W,
    span: Rc<Span>,
}

impl<W: NeedsFn> NeedsFn for TimedNeeds<W> {
    fn needs(&self, pid: ProcessId, step: u64) -> bool {
        self.span.time(|| self.inner.needs(pid, step))
    }

    fn note_eat(&mut self, pid: ProcessId, step: u64) {
        self.inner.note_eat(pid, step);
    }

    fn step_dependent(&self) -> bool {
        self.inner.step_dependent()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Mean cost of one guard evaluation and of one command, by direct calls
/// on `samples`: every guard of every process (all hungry), then the
/// command of every enabled action.
pub(crate) fn algorithm_costs<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    samples: &[SystemState<A>],
) -> (f64, f64) {
    let mut actions: Vec<(usize, ProcessId, ActionId)> = Vec::new();
    for si in 0..samples.len() {
        for p in topo.processes() {
            for (ki, kind) in alg.kinds().iter().enumerate() {
                if kind.per_neighbor {
                    actions.extend(
                        (0..topo.degree(p)).map(|slot| (si, p, ActionId::at_slot(ki, slot))),
                    );
                } else {
                    actions.push((si, p, ActionId::global(ki)));
                }
            }
        }
    }
    let t = Instant::now();
    let enabled: Vec<bool> = actions
        .iter()
        .map(|&(si, p, a)| alg.enabled(&View::new(topo, &samples[si], p, true), a))
        .collect();
    let guard_ns = nanos(t) as f64 / actions.len().max(1) as f64;
    let fired: Vec<_> = actions
        .iter()
        .zip(&enabled)
        .filter(|(_, &on)| on)
        .map(|(a, _)| *a)
        .collect();
    let t = Instant::now();
    for &(si, p, a) in &fired {
        black_box(alg.execute(&View::new(topo, &samples[si], p, true), a));
    }
    let exec_ns = nanos(t) as f64 / fired.len().max(1) as f64;
    (guard_ns, exec_ns)
}
