//! The simulation engine: weakly fair interleaving with fault injection.
//!
//! [`Engine`] executes one [`DinerAlgorithm`] over one [`Topology`] under
//! one [`Scheduler`] and one [`FaultPlan`]. Each step it
//!
//! 1. applies the faults due at the current step,
//! 2. enumerates the enabled action instances of every live process (plus
//!    one arbitrary-step pseudo-move per maliciously crashing process),
//! 3. lets the scheduler pick one and executes its command atomically
//!    (composite atomicity, serial/central daemon — the paper's model),
//! 4. updates the service metrics and the exclusion monitor.
//!
//! Runs are fully deterministic given the seed, the scheduler and the
//! fault plan.
//!
//! # Enumeration modes
//!
//! The engine has two interchangeable hot paths selected by
//! [`EnumerationMode`]:
//!
//! * [`EnumerationMode::Naive`] re-derives everything from scratch each
//!   step — every guard of every process, the fairness-age map, the
//!   edge-scan exclusion monitor. It is the executable specification.
//! * [`EnumerationMode::Incremental`] (the default) exploits the model's
//!   locality: a step or fault at `p` can only change guard values inside
//!   `p`'s closed neighborhood (guards read a process's own local,
//!   neighbor locals and incident edge variables; `p` writes only its own
//!   local and incident edges — malicious steps included). The engine
//!   keeps a per-process cache of enabled moves and re-enumerates only
//!   the *dirty* processes, tracks fairness ages in a dense `Vec` indexed
//!   by `(pid, kind, slot)`, and maintains the eating-pairs monitor as
//!   running counters updated on phase transitions. A [`CountIndex`] over
//!   the cache lengths lets a scheduler that needs only the number of
//!   enabled moves ([`Scheduler::pick_by_count`]) pick in O(log n); every
//!   other scheduler is handed the age-annotated list as in naive mode.
//!
//! Both modes produce bit-identical runs — same `StepOutcome` sequence,
//! metrics, traces and RNG consumption — which
//! `crates/sim/tests/incremental_equiv.rs` verifies over topology ×
//! seed × scheduler × fault-plan sweeps.

use std::collections::HashMap;
use std::hash::Hash;

use rand::rngs::StdRng;

use crate::algorithm::{ActionId, DinerAlgorithm, Move, Phase, SystemState, View, Write};
use crate::count_index::CountIndex;
use crate::fault::{FaultKind, FaultPlan, Health, Resurrection};
use crate::graph::{ProcessId, Topology};
use crate::metrics::DinerMetrics;
use crate::predicate::{Snapshot, StatePredicate};
use crate::record::{self, Checkpoint, FlightRecorder, Recording, StepDecision, FORMAT_VERSION};
use crate::rng;
use crate::scheduler::{EnabledMove, LeastRecentScheduler, Scheduler};
use crate::telemetry::{CounterId, HistogramId, Telemetry, TelemetryKind};
use crate::trace::{Event, EventKind, Trace};
use crate::tracing::{CausalTracer, SpanKind};
use crate::workload::{AlwaysHungry, Workload};

/// Monomorphized [`record::state_digest`] captured as a plain function
/// pointer when the flight recorder is attached, so the `Hash` bounds
/// live only on the attach method — the engine itself stays bound-free.
type DigestFn<A> = fn(&SystemState<A>, &[Health]) -> u64;

/// Flight-recorder state boxed inside the engine (None = disabled; every
/// instrumented site is one null check, mirroring `TelemetryState`).
struct RecorderState<A: DinerAlgorithm> {
    rec: FlightRecorder,
    /// Algorithm label written to the recording header.
    label: String,
    /// Checkpoint cadence in steps.
    every: u64,
    digest: DigestFn<A>,
}

/// Telemetry plus the metric handles the engine's hot path uses, prepared
/// once at build time so instrumented sites pay an index, not a lookup.
/// Boxed inside the engine: the disabled path is a single null check.
struct TelemetryState {
    tele: Telemetry,
    /// Fire counter per action kind (indexed like `Algorithm::kinds`).
    action_fires: Vec<CounterId>,
    malicious_steps: CounterId,
    faults: CounterId,
    restarts: CounterId,
    phase_changes: CounterId,
    /// Writes rejected by the runtime contract check (non-neighbor edge
    /// or malicious write outside the capability).
    write_violations: CounterId,
    /// Steps spent hungry before each transition into `Eating`.
    hungry_to_eat: HistogramId,
}

impl TelemetryState {
    fn prepare<A: DinerAlgorithm>(mut tele: Telemetry, alg: &A) -> Box<Self> {
        let reg = tele.registry_mut();
        let action_fires = alg
            .kinds()
            .iter()
            .map(|k| reg.counter(&format!("engine.action.{}", k.name)))
            .collect();
        let malicious_steps = reg.counter("engine.malicious_steps");
        let faults = reg.counter("engine.faults");
        let restarts = reg.counter("engine.restarts");
        let phase_changes = reg.counter("engine.phase_changes");
        let write_violations = reg.counter("engine.write_violations");
        let hungry_to_eat = reg.histogram("engine.hungry_to_eat_steps");
        Box::new(TelemetryState {
            tele,
            action_fires,
            malicious_steps,
            faults,
            restarts,
            phase_changes,
            write_violations,
            hungry_to_eat,
        })
    }
}

/// What happened in one engine step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The scheduler fired this move.
    Executed(Move),
    /// No action instance was enabled (the step still advances time, so
    /// later faults and step-dependent workloads still occur).
    Quiescent,
}

/// Aggregate result of [`Engine::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Steps of simulated time that elapsed.
    pub steps: u64,
    /// Steps in which an action fired.
    pub executed: u64,
    /// Steps in which nothing was enabled.
    pub quiescent: u64,
}

/// How the engine computes the enabled-move set each step; see the
/// module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EnumerationMode {
    /// Full re-enumeration every step — the executable specification the
    /// differential tests compare against.
    Naive,
    /// Dirty-set invalidation of per-process caches (default).
    #[default]
    Incremental,
}

/// Sentinel in the dense age table: the move is not currently enabled.
const NOT_ENABLED: u64 = u64::MAX;

/// Dense "first continuously enabled at step" table, indexed by
/// `(pid, action kind, neighbor slot)` with one extra slot per process
/// for the malicious pseudo-move, so admit/evict/lookup are O(1) array
/// accesses instead of `HashMap` operations.
struct AgeTable {
    kinds: usize,
    /// Start of each process's slot block; `base[n]` is the table size.
    /// The last slot of every block is the malicious pseudo-move.
    base: Vec<usize>,
    /// Start of each `(process, kind)` run inside the process block,
    /// flattened as `kind_base[p * kinds + kind]`.
    kind_base: Vec<usize>,
    ages: Vec<u64>,
}

impl AgeTable {
    fn new(topo: &Topology, kinds: &[crate::algorithm::ActionKind]) -> Self {
        let n = topo.len();
        let k = kinds.len();
        let mut base = Vec::with_capacity(n + 1);
        let mut kind_base = Vec::with_capacity(n * k);
        let mut off = 0usize;
        for p in 0..n {
            base.push(off);
            let deg = topo.degree(ProcessId(p));
            for kind in kinds {
                kind_base.push(off);
                off += if kind.per_neighbor { deg } else { 1 };
            }
            off += 1; // malicious pseudo-move
        }
        base.push(off);
        AgeTable {
            kinds: k,
            base,
            kind_base,
            ages: vec![NOT_ENABLED; off],
        }
    }

    /// Table index of a move. Strictly increasing along each process's
    /// enumeration order, and process-major overall — reconciliation
    /// relies on this to merge old/new cache lists with two pointers.
    #[inline]
    fn index(&self, mv: Move) -> usize {
        let p = mv.pid.index();
        if mv.action.is_malicious() {
            self.base[p + 1] - 1
        } else {
            self.kind_base[p * self.kinds + mv.action.kind] + mv.action.slot.unwrap_or(0)
        }
    }

    /// The step at which `mv` became continuously enabled.
    #[inline]
    fn first_enabled(&self, mv: Move) -> u64 {
        self.ages[self.index(mv)]
    }

    /// Evict `mv` (it was just executed).
    #[inline]
    fn evict(&mut self, mv: Move) {
        let i = self.index(mv);
        self.ages[i] = NOT_ENABLED;
    }

    /// Reconcile one process's recomputed enabled list against its old
    /// cached list: moves no longer enabled are evicted, newly (or re-)
    /// enabled moves are admitted at `step`, still-enabled moves keep
    /// their age. Both slices are in enumeration order, so their table
    /// indices are strictly increasing.
    fn reconcile(&mut self, old: &[Move], new: &[Move], step: u64) {
        let mut oi = 0;
        let mut ni = 0;
        while oi < old.len() && ni < new.len() {
            let io = self.index(old[oi]);
            let in_ = self.index(new[ni]);
            match io.cmp(&in_) {
                std::cmp::Ordering::Less => {
                    self.ages[io] = NOT_ENABLED;
                    oi += 1;
                }
                std::cmp::Ordering::Greater => {
                    debug_assert_eq!(self.ages[in_], NOT_ENABLED);
                    self.ages[in_] = step;
                    ni += 1;
                }
                std::cmp::Ordering::Equal => {
                    // Still enabled; re-admit if it was executed since
                    // (the naive path's `remove` + later `or_insert`).
                    if self.ages[io] == NOT_ENABLED {
                        self.ages[io] = step;
                    }
                    oi += 1;
                    ni += 1;
                }
            }
        }
        for &mv in &old[oi..] {
            let i = self.index(mv);
            self.ages[i] = NOT_ENABLED;
        }
        for &mv in &new[ni..] {
            let i = self.index(mv);
            if self.ages[i] == NOT_ENABLED {
                self.ages[i] = step;
            }
        }
    }
}

/// Builder for [`Engine`]; see [`Engine::builder`].
pub struct EngineBuilder<A: DinerAlgorithm> {
    alg: A,
    topo: Topology,
    workload: Box<dyn Workload>,
    sched: Box<dyn Scheduler>,
    faults: FaultPlan,
    seed: u64,
    record_trace: bool,
    initial_state: Option<SystemState<A>>,
    mode: EnumerationMode,
    telemetry: Option<Telemetry>,
    recorder: Option<(String, u64, DigestFn<A>)>,
    tracing: bool,
}

impl<A: DinerAlgorithm> EngineBuilder<A> {
    /// Set the workload (default: [`AlwaysHungry`]).
    #[must_use]
    pub fn workload(mut self, w: impl Workload + 'static) -> Self {
        self.workload = Box::new(w);
        self
    }

    /// Set the scheduler (default: [`LeastRecentScheduler`]).
    #[must_use]
    pub fn scheduler(mut self, s: impl Scheduler + 'static) -> Self {
        self.sched = Box::new(s);
        self
    }

    /// Set the fault plan (default: no faults).
    #[must_use]
    pub fn faults(mut self, f: FaultPlan) -> Self {
        self.faults = f;
        self
    }

    /// Seed for every randomized engine component (state corruption,
    /// malicious steps). Default 0.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Record an event trace (default off).
    #[must_use]
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Select the enabled-move enumeration strategy (default:
    /// [`EnumerationMode::Incremental`]). Both modes produce identical
    /// runs; [`EnumerationMode::Naive`] exists as the reference.
    #[must_use]
    pub fn enumeration(mut self, mode: EnumerationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Start from an explicit state instead of the algorithm's legitimate
    /// initial state (scenario reproductions). Overridden by
    /// [`FaultPlan::from_arbitrary_state`].
    #[must_use]
    pub fn initial_state(mut self, state: SystemState<A>) -> Self {
        self.initial_state = Some(state);
        self
    }

    /// Attach an observability handle (default: none). Telemetry never
    /// touches the engine's RNG, scheduler or state, so an instrumented
    /// run is step-for-step identical to a bare one; read results back
    /// with [`Engine::telemetry`] or [`Engine::take_telemetry`].
    #[must_use]
    pub fn telemetry(mut self, tele: Telemetry) -> Self {
        self.telemetry = Some(tele);
        self
    }

    /// Attach a flight recorder (default: none), checkpointing every 256
    /// steps. `algorithm_label` names the algorithm in the recording
    /// header so replay tooling can rebuild it. Like telemetry, the
    /// recorder only observes — it never touches the RNG, scheduler or
    /// state — so a recorded run is step-identical to a bare one; read
    /// the result back with [`Engine::recording`].
    #[must_use]
    pub fn flight_recorder(self, algorithm_label: &str) -> Self
    where
        A::Local: Hash,
        A::Edge: Hash,
    {
        self.flight_recorder_every(algorithm_label, 256)
    }

    /// [`EngineBuilder::flight_recorder`] with an explicit checkpoint
    /// cadence (`every` steps between state digests; min 1).
    #[must_use]
    pub fn flight_recorder_every(mut self, algorithm_label: &str, every: u64) -> Self
    where
        A::Local: Hash,
        A::Edge: Hash,
    {
        self.recorder = Some((
            algorithm_label.to_string(),
            every.max(1),
            record::state_digest::<A>,
        ));
        self
    }

    /// Record a span-based causal trace (default off); see
    /// [`crate::tracing`]. Observer-effect-free like telemetry and the
    /// flight recorder; read back with [`Engine::tracer`] or
    /// [`Engine::take_tracer`].
    #[must_use]
    pub fn causal_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Construct the engine.
    pub fn build(self) -> Engine<A> {
        let mut rng = rng::rng(rng::subseed(self.seed, 0xE61E));
        let mut state = self
            .initial_state
            .unwrap_or_else(|| SystemState::initial(&self.alg, &self.topo));
        if self.faults.starts_arbitrary() {
            state.corrupt_all(&self.alg, &self.topo, &mut rng);
        }
        let n = self.topo.len();
        let mut health = vec![Health::Live; n];
        for &p in self.faults.initially_dead_processes() {
            health[p.index()] = Health::Dead;
        }
        let mut trace = Trace::new();
        trace.enable(self.record_trace);
        let ages = AgeTable::new(&self.topo, self.alg.kinds());
        let needs_now: Vec<bool> = (0..n)
            .map(|i| self.workload.needs(ProcessId(i), 0))
            .collect();
        let step_dependent_needs = self.workload.step_dependent();
        let telemetry = self
            .telemetry
            .map(|tele| TelemetryState::prepare(tele, &self.alg));
        let recorder = self.recorder.map(|(label, every, digest)| {
            Box::new(RecorderState {
                rec: FlightRecorder::new(),
                label,
                every,
                digest,
            })
        });
        let tracer = self
            .tracing
            .then(|| Box::new(CausalTracer::new(&self.topo)));
        // Schedule one checkpoint capture per snapshot restart, `age`
        // steps before the restart fires (clamped at the run start).
        let mut snap_schedule: Vec<(u64, usize)> = self
            .faults
            .events()
            .iter()
            .enumerate()
            .filter_map(|(i, ev)| match ev.kind {
                FaultKind::Restart {
                    state: Resurrection::Snapshot { age },
                } => Some((ev.at_step.saturating_sub(age), i)),
                _ => None,
            })
            .collect();
        snap_schedule.sort_unstable();
        let snapshots = vec![None; self.faults.events().len()];
        let mut engine = Engine {
            metrics: DinerMetrics::new(n),
            last_phase: (0..n)
                .map(|i| self.alg.phase(state.local(ProcessId(i))))
                .collect(),
            alg: self.alg,
            topo: self.topo,
            state,
            health,
            workload: self.workload,
            sched: self.sched,
            faults: self.faults,
            seed: self.seed,
            step: 0,
            executed: 0,
            quiescent: 0,
            rng,
            trace,
            first_enabled: HashMap::new(),
            mode: self.mode,
            fault_cursor: 0,
            cache: vec![Vec::new(); n],
            cache_lens: CountIndex::new(n),
            dirty_mask: vec![true; n],
            dirty: (0..n).collect(),
            ages,
            needs_now,
            step_dependent_needs,
            eat_pairs_total: 0,
            eat_pairs_live: 0,
            annotated: Vec::new(),
            scratch: Vec::new(),
            telemetry,
            recorder,
            tracer,
            snap_schedule,
            snap_cursor: 0,
            snapshots,
            write_violations: 0,
        };
        let (total, live) = engine.eating_pairs_scan();
        engine.eat_pairs_total = total;
        engine.eat_pairs_live = live;
        // Anchor the recording: a digest of the state before step 0, so
        // replay divergence in the initial state is caught immediately.
        if let Some(rs) = engine.recorder.as_deref_mut() {
            let d = (rs.digest)(&engine.state, &engine.health);
            rs.rec.push_checkpoint(0, d);
        }
        engine
    }
}

/// A deterministic single-threaded run of one algorithm over one topology.
pub struct Engine<A: DinerAlgorithm> {
    alg: A,
    topo: Topology,
    state: SystemState<A>,
    health: Vec<Health>,
    workload: Box<dyn Workload>,
    sched: Box<dyn Scheduler>,
    faults: FaultPlan,
    step: u64,
    executed: u64,
    quiescent: u64,
    rng: StdRng,
    trace: Trace,
    metrics: DinerMetrics,
    last_phase: Vec<Phase>,
    /// Naive-mode fairness ages: step at which each currently-enabled
    /// move first became (and stayed) enabled without being executed.
    first_enabled: HashMap<Move, u64>,
    mode: EnumerationMode,
    /// Cursor into `faults.events()` — everything before it has fired.
    fault_cursor: usize,
    /// Incremental mode: per-process cached enabled moves, in
    /// enumeration order.
    cache: Vec<Vec<Move>>,
    /// `cache[p].len()` per process, for picks by position.
    cache_lens: CountIndex,
    /// Which processes need re-enumeration (mask + stack, no dup pushes).
    dirty_mask: Vec<bool>,
    dirty: Vec<usize>,
    /// Incremental-mode fairness ages.
    ages: AgeTable,
    /// Last `needs()` evaluation per process (step-dependent rescan memo).
    needs_now: Vec<bool>,
    step_dependent_needs: bool,
    /// Running eating-pairs counters (all pairs / pairs with a live
    /// endpoint), maintained on phase transitions and deaths.
    eat_pairs_total: usize,
    eat_pairs_live: usize,
    /// Scratch buffers reused across steps to avoid per-step allocation.
    annotated: Vec<EnabledMove>,
    scratch: Vec<Move>,
    /// Engine seed, kept for the recording header.
    seed: u64,
    /// Observability (None = disabled; every site is one null check).
    telemetry: Option<Box<TelemetryState>>,
    /// Flight recorder (None = disabled; same pattern as telemetry).
    recorder: Option<Box<RecorderState<A>>>,
    /// Causal tracer (None = disabled; same pattern as telemetry).
    tracer: Option<Box<CausalTracer>>,
    /// Checkpoint schedule for snapshot restarts: `(capture_step, event
    /// index)` pairs sorted by step. Derived from the fault plan at build
    /// time, so each needed snapshot is captured exactly once.
    snap_schedule: Vec<(u64, usize)>,
    /// Cursor into `snap_schedule` — everything before it was captured.
    snap_cursor: usize,
    /// Captured local-state checkpoints, indexed like `faults.events()`
    /// (filled only for snapshot-restart events).
    snapshots: Vec<Option<A::Local>>,
    /// Writes rejected by the runtime write-contract check
    /// ([`crate::footprint::check_write`]): non-neighbor edge writes and
    /// malicious writes outside the capability. Such writes panic under
    /// `debug_assertions` and are dropped (and counted here) in release.
    write_violations: u64,
}

impl<A: DinerAlgorithm> Engine<A> {
    /// Start building an engine for `alg` on `topo`.
    pub fn builder(alg: A, topo: Topology) -> EngineBuilder<A> {
        EngineBuilder {
            alg,
            topo,
            workload: Box::new(AlwaysHungry),
            sched: Box::new(LeastRecentScheduler::new()),
            faults: FaultPlan::none(),
            seed: 0,
            record_trace: false,
            initial_state: None,
            mode: EnumerationMode::default(),
            telemetry: None,
            recorder: None,
            tracing: false,
        }
    }

    /// The attached telemetry, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref().map(|ts| &ts.tele)
    }

    /// Mutable access to the attached telemetry, if any.
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut().map(|ts| &mut ts.tele)
    }

    /// Detach and return the telemetry (e.g. to fold one run's metrics
    /// into a report while the engine is dropped).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take().map(|ts| ts.tele)
    }

    /// Writes rejected so far by the runtime write-contract check
    /// (non-neighbor edge writes, malicious writes outside the
    /// capability). Always 0 for a contract-certified algorithm; only
    /// release builds can observe a nonzero value, since debug builds
    /// panic on the first violation.
    pub fn write_violations(&self) -> u64 {
        self.write_violations
    }

    /// The attached causal tracer, if any.
    pub fn tracer(&self) -> Option<&CausalTracer> {
        self.tracer.as_deref()
    }

    /// Detach and return the causal tracer.
    pub fn take_tracer(&mut self) -> Option<CausalTracer> {
        self.tracer.take().map(|b| *b)
    }

    /// Snapshot the flight recorder into a serializable [`Recording`]
    /// (None if no recorder is attached). A final checkpoint digesting
    /// the current state is appended if the cadence did not land on it,
    /// so replay always verifies the end state.
    pub fn recording(&self) -> Option<Recording> {
        let rs = self.recorder.as_deref()?;
        let mut checkpoints = rs.rec.checkpoints().to_vec();
        if checkpoints.last().map(|c| c.step) != Some(self.step) {
            checkpoints.push(Checkpoint {
                step: self.step,
                digest: (rs.digest)(&self.state, &self.health),
            });
        }
        Some(Recording {
            version: FORMAT_VERSION,
            algorithm: rs.label.clone(),
            scheduler: self.sched.name().to_string(),
            workload: self.workload.name().to_string(),
            mode: self.mode,
            seed: self.seed,
            topology_name: self.topo.name().to_string(),
            n: self.topo.len(),
            edges: self
                .topo
                .edges()
                .iter()
                .map(|&(a, b)| (a.index(), b.index()))
                .collect(),
            faults: self.faults.clone(),
            steps: self.step,
            decisions: rs.rec.decisions().to_vec(),
            fault_log: rs.rec.faults().to_vec(),
            checkpoints,
        })
    }

    /// The algorithm under simulation.
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The current variable state.
    pub fn state(&self) -> &SystemState<A> {
        &self.state
    }

    /// Per-process health.
    pub fn health(&self) -> &[Health] {
        &self.health
    }

    /// The current step counter (steps of simulated time so far).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The enumeration strategy this engine runs with.
    pub fn enumeration_mode(&self) -> EnumerationMode {
        self.mode
    }

    /// Service metrics accumulated so far.
    pub fn metrics(&self) -> &DinerMetrics {
        &self.metrics
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access (to enable/clear mid-run).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The diner phase of `p` in the current state.
    pub fn phase_of(&self, p: ProcessId) -> Phase {
        self.alg.phase(self.state.local(p))
    }

    /// Whether `p` has halted.
    pub fn is_dead(&self, p: ProcessId) -> bool {
        self.health[p.index()].is_dead()
    }

    /// All halted processes.
    pub fn dead_processes(&self) -> Vec<ProcessId> {
        self.topo.processes().filter(|&p| self.is_dead(p)).collect()
    }

    /// An immutable snapshot for predicate evaluation.
    pub fn snapshot(&self) -> Snapshot<'_, A> {
        Snapshot::new(&self.topo, &self.state, &self.health)
    }

    /// Evaluate a predicate on the current state.
    pub fn check<P: StatePredicate<A>>(&self, pred: &P) -> bool {
        pred.holds(&self.snapshot())
    }

    /// Pairs of neighbors simultaneously eating right now, as
    /// `(total, with_live_endpoint)` — Theorem 3 bounds the first,
    /// the `E` predicate says the second is eventually zero.
    ///
    /// O(1): returns running counters maintained on phase transitions,
    /// deaths and transient corruption. [`Engine::eating_pairs_scan`] is
    /// the O(|E|) reference recount.
    pub fn eating_pairs(&self) -> (usize, usize) {
        (self.eat_pairs_total, self.eat_pairs_live)
    }

    /// Reference O(|E|) edge scan for [`Engine::eating_pairs`] — used to
    /// (re)initialize the counters, by the naive-mode exclusion monitor,
    /// and by the differential tests to validate the counters.
    pub fn eating_pairs_scan(&self) -> (usize, usize) {
        let mut total = 0;
        let mut live = 0;
        for &(a, b) in self.topo.edges() {
            if self.phase_of(a) == Phase::Eating && self.phase_of(b) == Phase::Eating {
                total += 1;
                if !self.is_dead(a) || !self.is_dead(b) {
                    live += 1;
                }
            }
        }
        (total, live)
    }

    /// Enumerate the enabled moves in the current state, from scratch.
    pub fn enabled_moves(&self) -> Vec<Move> {
        let mut moves = Vec::new();
        for p in self.topo.processes() {
            self.enumerate_process(p, &mut moves);
        }
        moves
    }

    /// Append the enabled moves of `p` (in enumeration order: kinds in
    /// declaration order, per-neighbor slots ascending, or the single
    /// malicious pseudo-move) to `out`.
    fn enumerate_process(&self, p: ProcessId, out: &mut Vec<Move>) {
        match self.health[p.index()] {
            Health::Dead => {}
            Health::Byzantine { .. } => out.push(Move {
                pid: p,
                action: ActionId::MALICIOUS,
            }),
            Health::Live => {
                let needs = self.workload.needs(p, self.step);
                let view = View::new(&self.topo, &self.state, p, needs);
                for (ki, kind) in self.alg.kinds().iter().enumerate() {
                    if kind.per_neighbor {
                        for slot in 0..self.topo.degree(p) {
                            let a = ActionId::at_slot(ki, slot);
                            if self.alg.enabled(&view, a) {
                                out.push(Move { pid: p, action: a });
                            }
                        }
                    } else {
                        let a = ActionId::global(ki);
                        if self.alg.enabled(&view, a) {
                            out.push(Move { pid: p, action: a });
                        }
                    }
                }
            }
        }
    }

    /// Execute one step of the computation; see the module docs.
    pub fn step(&mut self) -> StepOutcome {
        let out = match self.mode {
            EnumerationMode::Naive => self.step_naive(),
            EnumerationMode::Incremental => self.step_incremental(),
        };
        // Flight recorder: executed moves are pushed inside
        // `execute_move` (which knows the `needs` bit); quiescent steps
        // and cadenced checkpoints are recorded here, after the step
        // counter advanced.
        if let Some(rs) = self.recorder.as_deref_mut() {
            if out == StepOutcome::Quiescent {
                rs.rec.push_decision(StepDecision::Quiescent);
            }
            if self.step.is_multiple_of(rs.every) {
                let d = (rs.digest)(&self.state, &self.health);
                rs.rec.push_checkpoint(self.step, d);
            }
        }
        out
    }

    /// The reference step: full re-enumeration, `HashMap` fairness ages,
    /// edge-scan exclusion monitor.
    fn step_naive(&mut self) -> StepOutcome {
        // The shared paths below still mark dirty processes; drain them so
        // the stack cannot grow across a long naive run.
        for i in self.dirty.drain(..) {
            self.dirty_mask[i] = false;
        }
        self.apply_due_faults();
        let enabled = self.enabled_moves();

        // Refresh fairness ages: drop moves no longer enabled, admit new.
        let step = self.step;
        self.first_enabled.retain(|m, _| enabled.contains(m));
        let annotated: Vec<EnabledMove> = enabled
            .iter()
            .map(|&mv| {
                let first = *self.first_enabled.entry(mv).or_insert(step);
                EnabledMove {
                    mv,
                    age: step - first + 1,
                }
            })
            .collect();

        if annotated.is_empty() {
            self.step += 1;
            self.quiescent += 1;
            return StepOutcome::Quiescent;
        }

        let choice = self.sched.pick(step, &annotated);
        assert!(
            choice < annotated.len(),
            "scheduler {} returned out-of-range index {choice}",
            self.sched.name()
        );
        let mv = annotated[choice].mv;
        self.execute_move(mv);
        self.first_enabled.remove(&mv);

        // Exclusion monitor.
        let (_, live_pairs) = self.eating_pairs_scan();
        self.metrics.on_exclusion_check(step, live_pairs);

        self.step += 1;
        self.executed += 1;
        StepOutcome::Executed(mv)
    }

    /// The incremental step: re-enumerate only dirty processes, O(1) age
    /// bookkeeping, counter-based exclusion monitor.
    fn step_incremental(&mut self) -> StepOutcome {
        self.apply_due_faults();
        let step = self.step;

        // Step-dependent workloads can flip any `needs()` between steps;
        // a changed needs bit only feeds that process's own guards.
        if self.step_dependent_needs {
            for i in 0..self.topo.len() {
                let need = self.workload.needs(ProcessId(i), step);
                if need != self.needs_now[i] {
                    self.needs_now[i] = need;
                    if !self.dirty_mask[i] {
                        self.dirty_mask[i] = true;
                        self.dirty.push(i);
                    }
                }
            }
        }

        // Re-enumerate dirty processes and reconcile their ages.
        while let Some(i) = self.dirty.pop() {
            self.dirty_mask[i] = false;
            let mut fresh = std::mem::take(&mut self.scratch);
            fresh.clear();
            self.enumerate_process(ProcessId(i), &mut fresh);
            self.ages.reconcile(&self.cache[i], &fresh, step);
            self.cache_lens.set(i, fresh.len());
            std::mem::swap(&mut self.cache[i], &mut fresh);
            self.scratch = fresh;
        }

        let len = self.cache_lens.total();
        if len == 0 {
            self.step += 1;
            self.quiescent += 1;
            return StepOutcome::Quiescent;
        }

        // A scheduler that needs only the count names a position in the
        // process-major list, which the index resolves into the caches;
        // the others get the list itself, ages attached.
        let mv = match self.sched.pick_by_count(step, len) {
            Some(choice) => {
                assert!(
                    choice < len,
                    "scheduler {} returned out-of-range index {choice}",
                    self.sched.name()
                );
                let (p, off) = self.cache_lens.find(choice);
                self.cache[p][off]
            }
            None => self.pick_from_list(step),
        };
        self.execute_move(mv);
        self.ages.evict(mv);

        // Exclusion monitor, from the running counter.
        self.metrics.on_exclusion_check(step, self.eat_pairs_live);

        self.step += 1;
        self.executed += 1;
        StepOutcome::Executed(mv)
    }

    /// Hand the scheduler the enabled moves with their ages, in the same
    /// process-major order as the naive enumeration, and return its pick.
    /// The caches must hold at least one move.
    fn pick_from_list(&mut self, step: u64) -> Move {
        let mut annotated = std::mem::take(&mut self.annotated);
        annotated.clear();
        for list in &self.cache {
            for &mv in list {
                let first = self.ages.first_enabled(mv);
                debug_assert_ne!(first, NOT_ENABLED, "cached move {mv:?} has no age");
                annotated.push(EnabledMove {
                    mv,
                    age: step - first + 1,
                });
            }
        }
        let choice = self.sched.pick(step, &annotated);
        assert!(
            choice < annotated.len(),
            "scheduler {} returned out-of-range index {choice}",
            self.sched.name()
        );
        let mv = annotated[choice].mv;
        self.annotated = annotated;
        mv
    }

    /// Run `steps` steps of simulated time.
    pub fn run(&mut self, steps: u64) -> RunSummary {
        let start_exec = self.executed;
        let start_quiet = self.quiescent;
        for _ in 0..steps {
            self.step();
        }
        RunSummary {
            steps,
            executed: self.executed - start_exec,
            quiescent: self.quiescent - start_quiet,
        }
    }

    /// Run until `pred` holds (checked before each step), at most
    /// `max_steps` further steps. Returns the step count at which the
    /// predicate first held.
    pub fn run_until<P: StatePredicate<A>>(&mut self, pred: &P, max_steps: u64) -> Option<u64> {
        let deadline = self.step + max_steps;
        loop {
            if pred.holds(&self.snapshot()) {
                return Some(self.step);
            }
            if self.step >= deadline {
                return None;
            }
            self.step();
        }
    }

    /// Run up to `max_steps` steps and report the first step from which
    /// `pred` held *continuously* through the horizon (the empirical
    /// convergence point for closed predicates). `None` if the predicate
    /// does not hold at the end of the horizon.
    pub fn convergence_step<P: StatePredicate<A>>(
        &mut self,
        pred: &P,
        max_steps: u64,
    ) -> Option<u64> {
        let mut since: Option<u64> = if pred.holds(&self.snapshot()) {
            Some(self.step)
        } else {
            None
        };
        for _ in 0..max_steps {
            self.step();
            if pred.holds(&self.snapshot()) {
                since.get_or_insert(self.step);
            } else {
                since = None;
            }
        }
        since
    }

    /// Mark a single process for re-enumeration.
    fn mark_dirty(&mut self, p: ProcessId) {
        let i = p.index();
        if !self.dirty_mask[i] {
            self.dirty_mask[i] = true;
            self.dirty.push(i);
        }
    }

    /// Mark `p` and its neighbors — the guard footprint of a write set
    /// confined to `p`'s local and incident edges.
    fn mark_dirty_closed(&mut self, p: ProcessId) {
        let topo = &self.topo;
        for &q in topo.closed_neighborhood(p) {
            let i = q.index();
            if !self.dirty_mask[i] {
                self.dirty_mask[i] = true;
                self.dirty.push(i);
            }
        }
    }

    fn mark_all_dirty(&mut self) {
        for i in 0..self.topo.len() {
            if !self.dirty_mask[i] {
                self.dirty_mask[i] = true;
                self.dirty.push(i);
            }
        }
    }

    /// Adjust the eating-pairs counters for `p` changing phase from
    /// `before` to `after` while every *other* entry of `last_phase` is
    /// current. Must run before `last_phase[p]` is updated and after any
    /// health change at `p` took effect.
    fn update_eating_pairs(&mut self, p: ProcessId, before: Phase, after: Phase) {
        let was = before == Phase::Eating;
        let now = after == Phase::Eating;
        if was == now {
            return;
        }
        let p_dead = self.health[p.index()].is_dead();
        let topo = &self.topo;
        for &q in topo.neighbors(p) {
            if self.last_phase[q.index()] != Phase::Eating {
                continue;
            }
            let live = !p_dead || !self.health[q.index()].is_dead();
            if now {
                self.eat_pairs_total += 1;
                if live {
                    self.eat_pairs_live += 1;
                }
            } else {
                self.eat_pairs_total -= 1;
                if live {
                    self.eat_pairs_live -= 1;
                }
            }
        }
    }

    /// Counter fix-up for an active process dying: eating pairs it shared
    /// with an already-dead eating neighbor stop counting as live. Call
    /// with `self.health[p]` already `Dead` and `last_phase[p]` still
    /// reflecting `p`'s phase at the moment of death.
    fn on_process_died(&mut self, p: ProcessId) {
        if self.last_phase[p.index()] != Phase::Eating {
            return;
        }
        let topo = &self.topo;
        for &q in topo.neighbors(p) {
            if self.last_phase[q.index()] == Phase::Eating && self.health[q.index()].is_dead() {
                self.eat_pairs_live -= 1;
            }
        }
    }

    /// Counter fix-up for a dead process coming back: eating pairs it
    /// shared with a dead eating neighbor count as live again. Call with
    /// `self.health[p]` already `Live` and `last_phase[p]` still
    /// reflecting `p`'s frozen phase at death (the exact mirror of
    /// [`Engine::on_process_died`]).
    fn on_process_revived(&mut self, p: ProcessId) {
        if self.last_phase[p.index()] != Phase::Eating {
            return;
        }
        let topo = &self.topo;
        for &q in topo.neighbors(p) {
            if self.last_phase[q.index()] == Phase::Eating && self.health[q.index()].is_dead() {
                self.eat_pairs_live += 1;
            }
        }
    }

    fn apply_due_faults(&mut self) {
        let step = self.step;
        // Capture any local-state checkpoints due at (or before) this
        // step, ahead of the faults: a same-step kill must not scribble
        // on the checkpoint a later restart restores.
        while let Some(&(at, idx)) = self.snap_schedule.get(self.snap_cursor) {
            if at > step {
                break;
            }
            let target = self.faults.events()[idx].target;
            self.snapshots[idx] = Some(self.state.local(target).clone());
            self.snap_cursor += 1;
        }
        let (start, end) = self.faults.due_span(self.fault_cursor, step);
        self.fault_cursor = end;
        for i in start..end {
            let ev = self.faults.events()[i];
            let span_before = self
                .tracer
                .is_some()
                .then(|| self.alg.phase(self.state.local(ev.target)));
            match ev.kind {
                FaultKind::Crash => {
                    let was_active = self.health[ev.target.index()].is_active();
                    self.health[ev.target.index()] = Health::Dead;
                    if was_active {
                        self.on_process_died(ev.target);
                        // Health is invisible to neighbor guards
                        // (crashes are undetectable); only the target's
                        // own move set changes.
                        self.mark_dirty(ev.target);
                    }
                }
                FaultKind::MaliciousCrash { steps } => {
                    if self.health[ev.target.index()].is_active() {
                        if steps == 0 {
                            self.health[ev.target.index()] = Health::Dead;
                            self.on_process_died(ev.target);
                        } else {
                            self.health[ev.target.index()] = Health::Byzantine { remaining: steps };
                        }
                        self.mark_dirty(ev.target);
                    }
                }
                FaultKind::TransientGlobal => {
                    self.state.corrupt_all(&self.alg, &self.topo, &mut self.rng);
                    self.resync_phases();
                    self.mark_all_dirty();
                }
                FaultKind::TransientLocal => {
                    self.state
                        .corrupt_process(&self.alg, &self.topo, &mut self.rng, ev.target);
                    let before = self.last_phase[ev.target.index()];
                    let after = self.alg.phase(self.state.local(ev.target));
                    self.update_eating_pairs(ev.target, before, after);
                    self.last_phase[ev.target.index()] = after;
                    self.mark_dirty_closed(ev.target);
                }
                FaultKind::Restart { state } => {
                    if self.health[ev.target.index()].is_dead() {
                        self.health[ev.target.index()] = Health::Live;
                        self.on_process_revived(ev.target);
                        match state {
                            Resurrection::Fresh => {
                                *self.state.local_mut(ev.target) =
                                    self.alg.init_local(&self.topo, ev.target);
                            }
                            Resurrection::Snapshot { .. } => {
                                if let Some(snap) = self.snapshots[i].clone() {
                                    *self.state.local_mut(ev.target) = snap;
                                }
                            }
                            Resurrection::Arbitrary { seed } => {
                                let mut r = rng::rng(rng::subseed(seed, 0x5EED));
                                self.state
                                    .corrupt_process(&self.alg, &self.topo, &mut r, ev.target);
                            }
                        }
                        let before = self.last_phase[ev.target.index()];
                        let after = self.alg.phase(self.state.local(ev.target));
                        self.update_eating_pairs(ev.target, before, after);
                        self.last_phase[ev.target.index()] = after;
                        // The resurrected state is neighbor-visible (unlike
                        // the health flip), so the whole closed neighborhood
                        // re-enumerates.
                        self.mark_dirty_closed(ev.target);
                        if let Some(ts) = self.telemetry.as_deref_mut() {
                            let id = ts.restarts;
                            ts.tele.registry_mut().inc(id);
                        }
                    }
                }
            }
            self.trace.record(Event {
                step,
                pid: ev.target,
                kind: EventKind::Fault(ev.kind),
            });
            if let Some(ts) = self.telemetry.as_deref_mut() {
                let id = ts.faults;
                ts.tele.registry_mut().inc(id);
                ts.tele.emit(step, ev.target, TelemetryKind::Fault(ev.kind));
            }
            if let Some(rs) = self.recorder.as_deref_mut() {
                rs.rec.push_fault(step, ev.target, ev.kind);
            }
            if let Some(before) = span_before {
                let after = self.alg.phase(self.state.local(ev.target));
                if let Some(tr) = self.tracer.as_deref_mut() {
                    tr.record_fault(&self.topo, step, ev.target, ev.kind, before, after);
                }
            }
        }
    }

    /// Rebuild `last_phase` and the eating-pairs counters from the state
    /// (after bulk corruption or at engine construction).
    fn resync_phases(&mut self) {
        for p in self.topo.processes() {
            self.last_phase[p.index()] = self.alg.phase(self.state.local(p));
        }
        let (total, live) = self.eating_pairs_scan();
        self.eat_pairs_total = total;
        self.eat_pairs_live = live;
    }

    fn execute_move(&mut self, mv: Move) {
        let pid = mv.pid;
        let before = self.alg.phase(self.state.local(pid));
        let (writes, needs): (Vec<Write<A>>, bool) = if mv.action.is_malicious() {
            let view = View::new(&self.topo, &self.state, pid, false);
            let w = self.alg.malicious_writes(&view, &mut self.rng);
            let mut died = false;
            match &mut self.health[pid.index()] {
                Health::Byzantine { remaining } => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        self.health[pid.index()] = Health::Dead;
                        died = true;
                    }
                }
                other => unreachable!("malicious move for non-byzantine process: {other:?}"),
            }
            if died {
                self.on_process_died(pid);
            }
            self.trace.record(Event {
                step: self.step,
                pid,
                kind: EventKind::MaliciousStep,
            });
            if let Some(ts) = self.telemetry.as_deref_mut() {
                let id = ts.malicious_steps;
                ts.tele.registry_mut().inc(id);
                ts.tele.emit(self.step, pid, TelemetryKind::MaliciousStep);
            }
            if let Some(rs) = self.recorder.as_deref_mut() {
                rs.rec.push_decision(StepDecision::Malicious { pid });
            }
            (w, false)
        } else {
            let needs = self.workload.needs(pid, self.step);
            let view = View::new(&self.topo, &self.state, pid, needs);
            debug_assert!(
                self.alg.enabled(&view, mv.action),
                "scheduler fired a disabled move {mv:?}"
            );
            let w = self.alg.execute(&view, mv.action);
            let kind = self.alg.kinds()[mv.action.kind];
            self.trace.record(Event {
                step: self.step,
                pid,
                kind: EventKind::Action {
                    kind: mv.action.kind,
                    slot: mv.action.slot,
                    name: kind.name,
                },
            });
            if let Some(ts) = self.telemetry.as_deref_mut() {
                let id = ts.action_fires[mv.action.kind];
                ts.tele.registry_mut().inc(id);
                ts.tele.emit(
                    self.step,
                    pid,
                    TelemetryKind::Action {
                        name: kind.name,
                        slot: mv.action.slot,
                    },
                );
            }
            if let Some(rs) = self.recorder.as_deref_mut() {
                rs.rec.push_decision(StepDecision::Move {
                    pid,
                    kind: mv.action.kind,
                    slot: mv.action.slot,
                    needs,
                });
            }
            (w, needs)
        };

        // Runtime write-contract check (the dynamic counterpart of the
        // `footprint` locality certifier): adjacency for every edge
        // write, capability for malicious ones. Violations panic in
        // debug builds; release builds reject the write and count it, so
        // fuzzing surfaces contract breaches without crashing soaks.
        let malicious = mv.action.is_malicious();
        for w in writes {
            if let Some(v) =
                crate::footprint::check_write(&self.alg, &self.topo, pid, malicious, &w)
            {
                if cfg!(debug_assertions) {
                    panic!("write contract violation: {v}");
                }
                self.write_violations += 1;
                if let Some(ts) = self.telemetry.as_deref_mut() {
                    let id = ts.write_violations;
                    ts.tele.registry_mut().inc(id);
                }
                continue;
            }
            match w {
                Write::Local(l) => *self.state.local_mut(pid) = l,
                Write::Edge { neighbor, value } => {
                    let e = self
                        .topo
                        .edge_between(pid, neighbor)
                        .expect("checked adjacent above");
                    *self.state.edge_mut(e) = value;
                }
            }
        }

        let after = self.alg.phase(self.state.local(pid));
        self.update_eating_pairs(pid, before, after);
        self.last_phase[pid.index()] = after;
        if before != after {
            if let Some(ts) = self.telemetry.as_deref_mut() {
                let id = ts.phase_changes;
                ts.tele.registry_mut().inc(id);
                if after == Phase::Eating {
                    if let Some(since) = self.metrics.hungry_since(pid) {
                        let hist = ts.hungry_to_eat;
                        ts.tele
                            .registry_mut()
                            .record(hist, self.step.saturating_sub(since));
                    }
                }
                ts.tele.emit(
                    self.step,
                    pid,
                    TelemetryKind::PhaseChange {
                        from: before,
                        to: after,
                    },
                );
            }
            self.metrics.on_phase_change(pid, before, after, self.step);
            if after == Phase::Eating {
                self.workload.note_eat(pid, self.step);
            }
        }
        if self.tracer.is_some() {
            let span_kind = if mv.action.is_malicious() {
                SpanKind::Malicious
            } else {
                SpanKind::Action {
                    name: self.alg.kinds()[mv.action.kind].name,
                    slot: mv.action.slot,
                }
            };
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.record_action(&self.topo, self.step, pid, span_kind, needs, before, after);
            }
        }
        // The write set was confined to pid's local + incident edges, so
        // only the closed neighborhood's guards can have changed.
        self.mark_dirty_closed(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::fault::FaultPlan;
    use crate::predicate::FnPredicate;
    use crate::scheduler::RandomScheduler;
    use crate::toy::{ToyDiners, TOY_ENTER, TOY_EXIT, TOY_JOIN};
    use crate::workload::{NeverHungry, QuotaWorkload};

    fn toy_engine(n: usize) -> Engine<ToyDiners> {
        Engine::builder(ToyDiners, Topology::line(n))
            .scheduler(RandomScheduler::new(1))
            .seed(1)
            .build()
    }

    #[test]
    fn never_hungry_system_is_quiescent() {
        let mut e = Engine::builder(ToyDiners, Topology::ring(4))
            .workload(NeverHungry)
            .build();
        let s = e.run(10);
        assert_eq!(s.executed, 0);
        assert_eq!(s.quiescent, 10);
        assert_eq!(e.step_count(), 10);
    }

    #[test]
    fn everyone_eats_under_fair_scheduling() {
        let mut e = toy_engine(5);
        e.run(2_000);
        for p in e.topology().processes() {
            assert!(e.metrics().eats_of(p) > 0, "{p} never ate");
        }
        assert_eq!(e.metrics().violation_step_count(), 0);
    }

    #[test]
    fn quota_workload_quiesces_after_meals() {
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .workload(QuotaWorkload::uniform(3, 2))
            .build();
        e.run(500);
        for p in e.topology().processes() {
            assert_eq!(e.metrics().eats_of(p), 2, "{p} should eat exactly twice");
        }
        // After quotas are filled, nothing is enabled.
        assert!(e.enabled_moves().is_empty());
    }

    #[test]
    fn crash_fault_halts_a_process() {
        let mut e = Engine::builder(ToyDiners, Topology::line(4))
            .faults(FaultPlan::new().crash(10, 0))
            .record_trace(true)
            .build();
        e.run(100);
        assert!(e.is_dead(ProcessId(0)));
        assert_eq!(e.dead_processes(), vec![ProcessId(0)]);
        // Dead process takes no further actions.
        let actions_after: Vec<_> = e
            .trace()
            .actions_of(ProcessId(0))
            .into_iter()
            .filter(|(s, _)| *s >= 10)
            .collect();
        assert!(
            actions_after.is_empty(),
            "dead process acted: {actions_after:?}"
        );
    }

    #[test]
    fn malicious_crash_takes_exactly_k_steps_then_halts() {
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .faults(FaultPlan::new().malicious_crash(0, 1, 3))
            .record_trace(true)
            .build();
        e.run(200);
        assert!(e.is_dead(ProcessId(1)));
        let malicious = e
            .trace()
            .events()
            .iter()
            .filter(|ev| matches!(ev.kind, EventKind::MaliciousStep))
            .count();
        assert_eq!(malicious, 3);
    }

    #[test]
    fn malicious_crash_with_zero_steps_is_benign() {
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .faults(FaultPlan::new().malicious_crash(5, 2, 0))
            .build();
        e.run(50);
        assert!(e.is_dead(ProcessId(2)));
    }

    #[test]
    fn initially_dead_never_acts() {
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .faults(FaultPlan::new().initially_dead(1))
            .record_trace(true)
            .build();
        e.run(200);
        assert!(e.trace().actions_of(ProcessId(1)).is_empty());
        // Its neighbors can still eat (it died thinking).
        assert!(e.metrics().eats_of(ProcessId(0)) > 0);
    }

    #[test]
    fn arbitrary_start_is_deterministic_in_seed() {
        let build = |seed| {
            Engine::builder(ToyDiners, Topology::ring(6))
                .faults(FaultPlan::new().from_arbitrary_state())
                .seed(seed)
                .build()
        };
        assert_eq!(build(7).state(), build(7).state());
        // Over several seeds, at least one differs from the legitimate
        // initial state (all thinking).
        let legit = SystemState::initial(&ToyDiners, &Topology::ring(6));
        assert!((0..10).any(|s| build(s).state() != &legit));
    }

    #[test]
    fn transient_global_corrupts_state() {
        let mut e = Engine::builder(ToyDiners, Topology::ring(8))
            .workload(NeverHungry)
            .faults(FaultPlan::new().transient_global(5))
            .seed(3)
            .build();
        e.run(5);
        let before = e.state().clone();
        e.run(1);
        assert_ne!(&before, e.state(), "transient fault should perturb state");
    }

    #[test]
    fn run_until_and_convergence() {
        let mut e = toy_engine(4);
        let p0_ate = FnPredicate::new::<ToyDiners>("p0-eating", |s: &Snapshot<'_, ToyDiners>| {
            *s.state.local(ProcessId(0)) == Phase::Eating
        });
        let at = e.run_until(&p0_ate, 10_000);
        assert!(at.is_some(), "p0 eventually eats");

        // Toy diners converge to "no live neighbors both eating" trivially.
        let mut e2 = toy_engine(4);
        let excl = FnPredicate::new::<ToyDiners>("exclusion", |s: &Snapshot<'_, ToyDiners>| {
            s.topo.edges().iter().all(|&(a, b)| {
                !(*s.state.local(a) == Phase::Eating && *s.state.local(b) == Phase::Eating)
            })
        });
        assert!(e2.convergence_step(&excl, 500).is_some());
    }

    #[test]
    fn eating_pairs_counts() {
        let t = Topology::line(3);
        let mut st: SystemState<ToyDiners> = SystemState::initial(&ToyDiners, &t);
        *st.local_mut(ProcessId(0)) = Phase::Eating;
        *st.local_mut(ProcessId(1)) = Phase::Eating;
        let e = Engine::builder(ToyDiners, t).initial_state(st).build();
        assert_eq!(e.eating_pairs(), (1, 1));
        assert_eq!(e.eating_pairs_scan(), (1, 1));
    }

    #[test]
    fn enabled_moves_reflect_guards() {
        let e = toy_engine(3);
        let moves = e.enabled_moves();
        // Initially everyone is thinking and hungry-able: only joins.
        assert_eq!(moves.len(), 3);
        assert!(moves.iter().all(|m| m.action.kind == TOY_JOIN));
    }

    #[test]
    fn step_outcome_reports_move() {
        let mut e = toy_engine(2);
        match e.step() {
            StepOutcome::Executed(m) => assert_eq!(m.action.kind, TOY_JOIN),
            StepOutcome::Quiescent => panic!("join should be enabled"),
        }
    }

    #[test]
    fn phases_and_metrics_agree() {
        let mut e = toy_engine(2);
        e.run(100);
        let total: u64 = e
            .topology()
            .processes()
            .map(|p| e.metrics().eats_of(p))
            .sum();
        assert!(total > 0);
        // Whoever is eating now is counted in current phase queries.
        for p in e.topology().processes() {
            let _ = e.phase_of(p);
        }
        let _ = (TOY_ENTER, TOY_EXIT);
    }

    // ---- incremental-mode specifics ----

    use std::cell::RefCell;
    use std::rc::Rc;

    /// Scheduler that logs every annotated enabled set it is offered and
    /// delegates the actual choice.
    struct ProbeScheduler {
        log: Rc<RefCell<Vec<Vec<EnabledMove>>>>,
        inner: RandomScheduler,
    }

    impl Scheduler for ProbeScheduler {
        fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
            self.log.borrow_mut().push(enabled.to_vec());
            self.inner.pick(step, enabled)
        }
        fn name(&self) -> &str {
            "probe"
        }
    }

    fn probe_run(mode: EnumerationMode, steps: u64) -> Vec<Vec<EnabledMove>> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut e = Engine::builder(ToyDiners, Topology::line(4))
            .scheduler(ProbeScheduler {
                log: Rc::clone(&log),
                inner: RandomScheduler::new(9),
            })
            .enumeration(mode)
            .seed(9)
            .build();
        e.run(steps);
        drop(e);
        Rc::try_unwrap(log).unwrap().into_inner()
    }

    #[test]
    fn ages_match_naive_move_for_move() {
        // The satellite guarantee for the dense age table: both engines
        // offer the scheduler identical (move, age) lists at every step.
        let naive = probe_run(EnumerationMode::Naive, 300);
        let incremental = probe_run(EnumerationMode::Incremental, 300);
        assert_eq!(naive.len(), incremental.len());
        for (s, (a, b)) in naive.iter().zip(&incremental).enumerate() {
            assert_eq!(a, b, "annotated sets diverge at pick {s}");
        }
    }

    #[test]
    fn ages_grow_while_enabled_and_reset_on_reenable() {
        // line(4): p3's join stays enabled (and un-executed) while other
        // moves fire → its age must grow monotonically; a move that is
        // executed and later re-enabled must restart at age 1.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut e = Engine::builder(ToyDiners, Topology::line(4))
            .scheduler(ProbeScheduler {
                log: Rc::clone(&log),
                inner: RandomScheduler::new(3),
            })
            .seed(3)
            .build();
        e.run(400);
        drop(e);
        let log = Rc::try_unwrap(log).unwrap().into_inner();

        // This run is never quiescent (some join/enter/exit is always
        // enabled), so consecutive picks are consecutive steps:
        // still-enabled moves must age by exactly 1, and a move admitted
        // after an absence must restart at age 1 — even if it had aged
        // before (the stale age must not survive the disabled interval).
        let mut seen_aged: std::collections::HashSet<Move> = Default::default();
        let mut seen_reset = false;
        for w in log.windows(2) {
            for em in &w[1] {
                match w[0].iter().find(|p| p.mv == em.mv) {
                    Some(old) => {
                        assert_eq!(em.age, old.age + 1, "{:?} did not age monotonically", em.mv)
                    }
                    None => {
                        assert_eq!(em.age, 1, "{:?} kept a stale age", em.mv);
                        if seen_aged.contains(&em.mv) {
                            seen_reset = true;
                        }
                    }
                }
                if em.age > 1 {
                    seen_aged.insert(em.mv);
                }
            }
        }
        assert!(seen_reset, "expected at least one age reset over the run");
    }

    #[test]
    fn age_table_reconcile_semantics() {
        let topo = Topology::line(3);
        let kinds = ToyDiners.kinds();
        let mut t = AgeTable::new(&topo, kinds);
        let join = |p: usize| Move {
            pid: ProcessId(p),
            action: ActionId::global(TOY_JOIN),
        };
        let enter = |p: usize| Move {
            pid: ProcessId(p),
            action: ActionId::global(TOY_ENTER),
        };
        let mal = |p: usize| Move {
            pid: ProcessId(p),
            action: ActionId::MALICIOUS,
        };

        // Admit two moves at step 5.
        t.reconcile(&[], &[join(1), enter(1)], 5);
        assert_eq!(t.first_enabled(join(1)), 5);
        assert_eq!(t.first_enabled(enter(1)), 5);

        // Still enabled at step 8: ages preserved, not reset.
        t.reconcile(&[join(1), enter(1)], &[join(1), enter(1)], 8);
        assert_eq!(t.first_enabled(join(1)), 5);

        // enter drops out, join survives, malicious pseudo-move appears.
        t.reconcile(&[join(1), enter(1)], &[join(1), mal(1)], 9);
        assert_eq!(t.first_enabled(join(1)), 5);
        assert_eq!(t.first_enabled(enter(1)), NOT_ENABLED);
        assert_eq!(t.first_enabled(mal(1)), 9);

        // Executed (evicted) then still enabled → re-admitted fresh.
        t.evict(join(1));
        t.reconcile(&[join(1), mal(1)], &[join(1), mal(1)], 11);
        assert_eq!(t.first_enabled(join(1)), 11, "re-enabled move restarts");
        assert_eq!(t.first_enabled(mal(1)), 9, "untouched move keeps age");

        // Other processes' slots are independent.
        assert_eq!(t.first_enabled(join(0)), NOT_ENABLED);
        assert_eq!(t.first_enabled(join(2)), NOT_ENABLED);
    }

    #[test]
    fn eating_pair_counters_track_scan_under_faults() {
        // Stress the running counters against the reference scan across
        // malicious crashes, benign crashes and transient corruption.
        for seed in 0..4u64 {
            let mut e = Engine::builder(ToyDiners, Topology::ring(6))
                .scheduler(RandomScheduler::new(seed))
                .faults(
                    FaultPlan::new()
                        .malicious_crash(20, 1, 5)
                        .crash(60, 3)
                        .transient_local(90, 4)
                        .transient_global(120),
                )
                .seed(seed)
                .build();
            for _ in 0..300 {
                e.step();
                assert_eq!(
                    e.eating_pairs(),
                    e.eating_pairs_scan(),
                    "counter drifted from scan at step {} (seed {seed})",
                    e.step_count()
                );
            }
        }
    }

    #[test]
    fn modes_agree_on_a_faulty_run() {
        // Smoke-level differential check (the full sweep lives in
        // tests/incremental_equiv.rs): identical outcomes, state, metrics.
        let build = |mode| {
            Engine::builder(ToyDiners, Topology::ring(5))
                .scheduler(RandomScheduler::new(7))
                .faults(
                    FaultPlan::new()
                        .malicious_crash(15, 2, 4)
                        .crash(40, 0)
                        .transient_global(70),
                )
                .enumeration(mode)
                .seed(7)
                .build()
        };
        let mut a = build(EnumerationMode::Naive);
        let mut b = build(EnumerationMode::Incremental);
        for step in 0..500 {
            assert_eq!(a.step(), b.step(), "diverged at step {step}");
        }
        assert_eq!(a.state(), b.state());
        assert_eq!(a.health(), b.health());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn default_mode_is_incremental() {
        let e = toy_engine(3);
        assert_eq!(e.enumeration_mode(), EnumerationMode::Incremental);
    }

    #[test]
    fn restart_revives_a_crashed_process() {
        let mut e = Engine::builder(ToyDiners, Topology::line(4))
            .faults(FaultPlan::new().crash(10, 0).restart_fresh(100, 0))
            .record_trace(true)
            .telemetry(Telemetry::new())
            .build();
        e.run(2_000);
        assert!(!e.is_dead(ProcessId(0)), "restart did not land");
        assert!(e.dead_processes().is_empty());
        // The reborn process acts again.
        let acted_after = e
            .trace()
            .actions_of(ProcessId(0))
            .into_iter()
            .filter(|(s, _)| *s >= 100)
            .count();
        assert!(acted_after > 0, "reborn process never acted");
        assert_eq!(
            e.telemetry()
                .and_then(|t| t.registry().counter_value("engine.restarts")),
            Some(1)
        );
    }

    #[test]
    fn same_step_crash_restart_nets_to_immediate_rebirth() {
        // Restarts order after kills at the same step (fault.rs), so the
        // pair applies as crash-then-revive within one step.
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .faults(FaultPlan::new().crash(50, 1).restart_fresh(50, 1))
            .record_trace(true)
            .build();
        e.run(500);
        assert!(!e.is_dead(ProcessId(1)));
        assert!(
            e.trace()
                .actions_of(ProcessId(1))
                .into_iter()
                .any(|(s, _)| s >= 50),
            "process must keep acting after the same-step crash+restart"
        );
    }

    #[test]
    fn restart_of_a_live_process_is_a_no_op() {
        let build = |faults| {
            Engine::builder(ToyDiners, Topology::ring(5))
                .scheduler(RandomScheduler::new(3))
                .faults(faults)
                .seed(3)
                .build()
        };
        let mut a = build(FaultPlan::none());
        let mut b = build(FaultPlan::new().restart_fresh(100, 2));
        a.run(1_000);
        b.run(1_000);
        assert_eq!(a.state(), b.state(), "no-op restart perturbed the run");
        assert_eq!(a.health(), b.health());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn snapshot_restart_restores_the_checkpointed_local() {
        // Quota workload quiesces after one meal each, freezing locals.
        // The checkpoint (age 350 before the restart at 900) lands at
        // step 550 — before the transient corrupts the victim at 600 —
        // so the resurrected local must equal the step-550 value even
        // though the victim died holding corrupted state.
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .workload(QuotaWorkload::uniform(3, 1))
            .scheduler(RandomScheduler::new(1))
            .seed(9)
            .faults(
                FaultPlan::new()
                    .transient_local(600, 1)
                    .crash(700, 1)
                    .restart_snapshot(900, 1, 350),
            )
            .build();
        e.run(550);
        let checkpointed = *e.state().local(ProcessId(1));
        e.run(200); // corrupted at 600, dead at 700
        assert!(e.is_dead(ProcessId(1)));
        e.run(300); // restored at 900
        assert!(!e.is_dead(ProcessId(1)));
        assert_eq!(
            e.state().local(ProcessId(1)),
            &checkpointed,
            "snapshot resurrection must restore the checkpointed local"
        );
    }

    #[test]
    fn arbitrary_restart_is_deterministic_in_its_own_seed() {
        let build = |restart_seed| {
            Engine::builder(ToyDiners, Topology::ring(5))
                .scheduler(RandomScheduler::new(2))
                .seed(2)
                .faults(
                    FaultPlan::new()
                        .crash(100, 3)
                        .restart_arbitrary(200, 3, restart_seed),
                )
                .build()
        };
        let mut a = build(77);
        let mut b = build(77);
        a.run(201);
        b.run(201);
        assert_eq!(a.state(), b.state(), "same seed must resurrect equally");
        // The resurrection stream is its own: across seeds, at least one
        // rebirth lands in a different local state.
        let differs = (0..8u64).any(|s| {
            let mut c = build(1_000 + s);
            c.run(201);
            c.state().local(ProcessId(3)) != a.state().local(ProcessId(3))
        });
        assert!(differs, "arbitrary resurrection ignored its seed");
    }

    #[test]
    fn eating_pair_counters_survive_crash_restart_storms() {
        for seed in 0..6 {
            let mut e = Engine::builder(ToyDiners, Topology::ring(6))
                .scheduler(RandomScheduler::new(seed))
                .seed(seed)
                .faults(
                    FaultPlan::new()
                        .crash(50, 1)
                        .restart_fresh(150, 1)
                        .malicious_crash(200, 4, 5)
                        .restart_arbitrary(350, 4, seed)
                        .crash(400, 2)
                        .restart_snapshot(520, 2, 60),
                )
                .build();
            for _ in 0..700 {
                e.step();
                assert_eq!(
                    e.eating_pairs(),
                    e.eating_pairs_scan(),
                    "counter drifted from scan at step {} (seed {seed})",
                    e.step_count()
                );
            }
        }
    }

    #[test]
    fn modes_agree_on_a_restart_heavy_run() {
        let build = |mode| {
            Engine::builder(ToyDiners, Topology::ring(5))
                .scheduler(RandomScheduler::new(11))
                .faults(
                    FaultPlan::new()
                        .malicious_crash(15, 2, 4)
                        .restart_fresh(90, 2)
                        .crash(40, 0)
                        .restart_arbitrary(160, 0, 5)
                        .crash(220, 3)
                        .restart_snapshot(300, 3, 100),
                )
                .enumeration(mode)
                .seed(11)
                .build()
        };
        let mut a = build(EnumerationMode::Naive);
        let mut b = build(EnumerationMode::Incremental);
        for step in 0..600 {
            assert_eq!(a.step(), b.step(), "diverged at step {step}");
        }
        assert_eq!(a.state(), b.state());
        assert_eq!(a.health(), b.health());
        assert_eq!(a.metrics(), b.metrics());
    }

    // ---- runtime write-contract enforcement (satellite of the footprint
    // certification work; the static counterpart lives in footprint.rs) --

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "write contract violation")]
    fn engine_rejects_non_neighbor_edge_writes() {
        use crate::footprint::testbad::FarWriter;
        // far-grab writes the p0–? edge two hops out on a line; the
        // write check must refuse it rather than corrupt the far edge.
        let mut e = Engine::builder(FarWriter, Topology::line(3))
            .scheduler(RandomScheduler::new(3))
            .seed(3)
            .build();
        e.run(20);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "write contract violation")]
    fn engine_rejects_malicious_writes_outside_capability() {
        use crate::footprint::testbad::RogueMalicious;
        // rogue-malicious writes a shared edge during its byzantine
        // phase while declaring the default (empty) capability.
        let mut e = Engine::builder(RogueMalicious, Topology::line(3))
            .scheduler(RandomScheduler::new(3))
            .faults(FaultPlan::new().malicious_crash(1, 1, 2))
            .seed(3)
            .build();
        e.run(20);
    }

    #[test]
    fn well_behaved_runs_count_no_write_violations() {
        let mut e = Engine::builder(ToyDiners, Topology::ring(5))
            .scheduler(RandomScheduler::new(7))
            .faults(FaultPlan::new().malicious_crash(10, 2, 3))
            .telemetry(Telemetry::new())
            .seed(7)
            .build();
        e.run(500);
        assert_eq!(e.write_violations(), 0);
        assert_eq!(
            e.telemetry()
                .and_then(|t| t.registry().counter_value("engine.write_violations")),
            Some(0)
        );
    }
}
