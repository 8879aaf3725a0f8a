//! `check-mca`: single-threaded model checking of
//! `MaliciousCrashDiners::corrected()`, in two steps per batch.
//!
//! (a) Safety: `explore_with` on `ring(5)` under `Reduction::Symmetry`
//! with the exclusion predicate `E`, from the legitimate state with every
//! process hungry.
//!
//! (b) Liveness: `check_liveness_multi` on `ring(4)` under
//! `Reduction::Symmetry` towards `I = NC ∧ ST ∧ E`, from every state of
//! the acyclic perturbation sub-lattice with depths `0..=n+1`. The seed
//! shuffles the order the roots are handed over in; every count is the
//! same for all seeds.

use std::cell::RefCell;
use std::time::Instant;

use diners_core::predicates::{e_holds, Invariant};
use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{Phase, SystemState};
use diners_sim::codec::Codec;
use diners_sim::explore::{explore_with, ExplorationReport, ExploreConfig, Limits, Reduction};
use diners_sim::fault::Health;
use diners_sim::graph::{EdgeId, Topology};
use diners_sim::liveness::{check_liveness_multi, LivenessConfig, LivenessReport};
use diners_sim::predicate::{Snapshot, StatePredicate};
use diners_sim::rng;
use diners_sim::symmetry::{canonicalize_into, SymmetryGroup};
use rand::Rng;

use crate::engine_ring::algorithm_costs;
use crate::{
    median, metric, nanos, rss_mb, secs, Batch, Checks, Digest, Metric, Scale, Span, Workload,
};

type State = SystemState<MaliciousCrashDiners>;

/// Set-ups timed per batch; the batch reports their median.
const SETUP_REPS: usize = 201;

/// Every this many predicate calls, the traced run keeps the state as a
/// sample for the direct layer calls (at most [`MAX_SAMPLES`]).
const SAMPLE_EVERY: u64 = 16;
const MAX_SAMPLES: usize = 4_000;

/// The seed-generated inputs of one `check-mca` run.
pub struct CheckMca {
    /// Ring size of the safety search.
    safety_n: usize,
    /// Ring size of the liveness search.
    live_n: usize,
    /// Lattice indices of the acyclic liveness roots, in seed order.
    roots: Vec<u32>,
}

/// What the benchmark hands the checkers: algorithm, topologies, safety
/// root and the liveness target.
struct Setup {
    alg: MaliciousCrashDiners,
    safety_topo: Topology,
    live_topo: Topology,
    initial: State,
    invariant: Invariant,
}

impl CheckMca {
    /// Generate the inputs from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (safety_n, live_n) = match scale {
            Scale::Full => (5, 4),
            Scale::Tiny => (4, 3),
        };
        let mut r = rng::rng(rng::subseed(seed, 0xC4EC));
        let live_topo = Topology::ring(live_n);
        let depth_max = live_n as u32 + 1;
        let mut roots: Vec<u32> = (0..lattice_size(&live_topo, depth_max))
            .filter(|&i| !is_cyclic(&live_topo, &lattice_state(&live_topo, depth_max, i)))
            .collect();
        for i in (1..roots.len()).rev() {
            roots.swap(i, r.gen_range(0..=i));
        }
        CheckMca {
            safety_n,
            live_n,
            roots,
        }
    }

    fn setup(&self) -> Setup {
        let alg = MaliciousCrashDiners::corrected();
        let safety_topo = Topology::ring(self.safety_n);
        let live_topo = Topology::ring(self.live_n);
        let mut initial = SystemState::initial(&alg, &safety_topo);
        for p in safety_topo.processes() {
            initial.local_mut(p).phase = Phase::Hungry;
        }
        let invariant = Invariant::for_algorithm(&alg);
        // The checkers build their codec and symmetry group inside the
        // timed calls, where they cannot be timed apart. Building the same
        // ones here, and dropping them, makes set-up move when those
        // constructors do; their cost is therefore in `batch_s` as well.
        for topo in [&safety_topo, &live_topo] {
            let (health, needs) = context(topo);
            std::hint::black_box(Codec::new(&alg, topo));
            std::hint::black_box(SymmetryGroup::for_topology(topo).stabilizing(&needs, &health));
        }
        Setup {
            alg,
            safety_topo,
            live_topo,
            initial,
            invariant,
        }
    }

    /// Median of [`SETUP_REPS`] timed set-ups, and the last set-up.
    fn timed_setup(&self) -> (f64, Setup) {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut setup = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            setup = Some(self.setup());
            times.push(secs(t));
        }
        (
            median(times.into_iter()),
            setup.expect("at least one set-up"),
        )
    }

    fn verify(
        &self,
        s: &Setup,
        safety: impl Fn(&Snapshot<'_, MaliciousCrashDiners>) -> bool,
    ) -> ExplorationReport {
        let (health, needs) = context(&s.safety_topo);
        let config = ExploreConfig {
            limits: Limits {
                max_states: 5_000_000,
            },
            reduction: Reduction::Symmetry,
            threads: 1,
        };
        explore_with(
            &s.alg,
            &s.safety_topo,
            s.initial.clone(),
            &health,
            &needs,
            safety,
            config,
        )
    }

    fn certify(
        &self,
        s: &Setup,
        roots: impl Iterator<Item = State>,
        legit: impl Fn(&Snapshot<'_, MaliciousCrashDiners>) -> bool,
    ) -> LivenessReport {
        let (health, needs) = context(&s.live_topo);
        let config = LivenessConfig {
            limits: Limits {
                max_states: 30_000_000,
            },
            reduction: Reduction::Symmetry,
        };
        check_liveness_multi(&s.alg, &s.live_topo, roots, &health, &needs, legit, config)
    }

    fn depth_max(&self) -> u32 {
        self.live_n as u32 + 1
    }

    /// Checks and digest of both verdicts.
    fn verdict(
        &self,
        safe: &ExplorationReport,
        live: &LivenessReport,
        checks: &mut Checks,
    ) -> Digest {
        checks.check(safe.verified(), || {
            format!(
                "check-mca: safety not verified (violation {:?}, truncated {})",
                safe.violation, safe.truncated
            )
        });
        checks.check(live.certified() && live.stuck_states == 0, || {
            format!(
                "check-mca: liveness not certified (livelock {}, stuck {}, truncated {})",
                live.livelock.is_some(),
                live.stuck_states,
                live.truncated
            )
        });
        let mut d = Digest::default();
        d.extend([
            safe.states as u64,
            safe.transitions,
            safe.deadlocks as u64,
            safe.layers as u64,
            safe.peak_frontier as u64,
            safe.dedup_hits,
            u64::from(safe.verified()),
            live.states as u64,
            live.transitions,
            live.roots as u64,
            live.bad_states as u64,
            live.deadlocks as u64,
            live.stuck_states as u64,
            live.sccs as u64,
            live.fair_sccs as u64,
            u64::from(live.certified()),
        ]);
        d
    }
}

impl Workload for CheckMca {
    fn batch(&self, checks: &mut Checks) -> Batch {
        let (setup_s, s) = self.timed_setup();
        let dm = self.depth_max();
        let t = Instant::now();
        let safe = self.verify(&s, e_holds);
        let verify_s = secs(t);
        let t = Instant::now();
        let roots = self
            .roots
            .iter()
            .map(|&i| lattice_state(&s.live_topo, dm, i));
        let live = self.certify(&s, roots, |snap| s.invariant.holds(snap));
        let certify_s = secs(t);
        Batch {
            setup_s,
            batch_s: verify_s + certify_s,
            digest: self.verdict(&safe, &live, checks),
            details: vec![
                metric("verify_s", verify_s, "s"),
                metric("certify_s", certify_s, "s"),
            ],
        }
    }

    fn traced(&self, checks: &mut Checks) -> (Batch, Vec<Metric>) {
        let rss0 = rss_mb();
        let t = Instant::now();
        let topos = (Topology::ring(self.safety_n), Topology::ring(self.live_n));
        let build_s = secs(t);
        let graph_mb = rss_mb() - rss0;
        drop(topos);
        let (setup_s, s) = self.timed_setup();
        let dm = self.depth_max();

        let safety = Span::default();
        let samples = RefCell::new(Vec::new());
        let t = Instant::now();
        let safe = self.verify(&s, |snap| {
            sample(safety.calls.get(), snap.state, &samples);
            safety.time(|| e_holds(snap))
        });
        let verify_ns = nanos(t);

        let legit = Span::default();
        let feed = Span::default();
        let t = Instant::now();
        let roots = self
            .roots
            .iter()
            .map(|&i| feed.time(|| lattice_state(&s.live_topo, dm, i)));
        let live = self.certify(&s, roots, |snap| legit.time(|| s.invariant.holds(snap)));
        let certify_ns = nanos(t);

        let digest = self.verdict(&safe, &live, checks);
        let samples = samples.into_inner();
        let (encode_ns, decode_ns, canon_ns, group_order) = codec_costs(&s, &samples, checks);
        let (guard_ns, exec_ns) = algorithm_costs(&s.alg, &s.safety_topo, &samples);
        let transitions = safe.transitions.max(1) as f64;
        let live_transitions = live.transitions.max(1) as f64;
        let layers = vec![
            metric("graph.build_s", build_s, "s"),
            metric("graph.rss_mb", graph_mb, "MB"),
            metric("algorithm.guard_ns_per_call", guard_ns, "ns"),
            metric("algorithm.execute_ns_per_call", exec_ns, "ns"),
            metric("codec.encode_ns_per_state", encode_ns, "ns"),
            metric("codec.decode_ns_per_state", decode_ns, "ns"),
            metric("explore.bytes_per_state", safe.bytes_per_state(), "B"),
            metric("symmetry.canonicalize_ns_per_state", canon_ns, "ns"),
            metric("symmetry.group_order", group_order as f64, "count"),
            metric("predicate.safety_ns_per_state", safety.per_call(), "ns"),
            metric("predicate.legit_ns_per_state", legit.per_call(), "ns"),
            metric("explore.states", safe.states as f64, "count"),
            metric("explore.transitions", safe.transitions as f64, "count"),
            metric("explore.dedup_rate", safe.dedup_rate(), "ratio"),
            metric("explore.layers", safe.layers as f64, "count"),
            metric("explore.peak_frontier", safe.peak_frontier as f64, "count"),
            metric(
                "explore.self_ns_per_transition",
                verify_ns.saturating_sub(safety.ns.get()) as f64 / transitions,
                "ns",
            ),
            metric("liveness.roots", live.roots as f64, "count"),
            metric("liveness.states", live.states as f64, "count"),
            metric("liveness.transitions", live.transitions as f64, "count"),
            metric("liveness.sccs", live.sccs as f64, "count"),
            metric("liveness.fair_sccs", live.fair_sccs as f64, "count"),
            metric("liveness.bad_states", live.bad_states as f64, "count"),
            metric(
                "liveness.self_ns_per_transition",
                certify_ns.saturating_sub(legit.ns.get() + feed.ns.get()) as f64 / live_transitions,
                "ns",
            ),
        ];
        let batch = Batch {
            setup_s,
            batch_s: (verify_ns + certify_ns) as f64 / 1e9,
            digest,
            details: Vec::new(),
        };
        (batch, layers)
    }
}

/// Keep the state of every [`SAMPLE_EVERY`]-th call, up to [`MAX_SAMPLES`].
fn sample(call: u64, state: &State, samples: &RefCell<Vec<State>>) {
    let mut s = samples.borrow_mut();
    if call.is_multiple_of(SAMPLE_EVERY) && s.len() < MAX_SAMPLES {
        s.push(state.clone());
    }
}

/// Mean cost per state of encoding, decoding and canonicalizing
/// `samples` (states of the safety search) through the public codec and
/// symmetry functions, and the order of the group canonicalized under.
/// Checks that decoding gives back every sampled state.
fn codec_costs(s: &Setup, samples: &[State], checks: &mut Checks) -> (f64, f64, f64, usize) {
    let topo = &s.safety_topo;
    let codec = Codec::new(&s.alg, topo);
    let (health, needs) = context(topo);
    let group = SymmetryGroup::for_topology(topo).stabilizing(&needs, &health);
    let w = codec.words();
    let mut packed = vec![0u64; w * samples.len()];
    let per = |ns: u64| ns as f64 / samples.len().max(1) as f64;
    let t = Instant::now();
    for (state, out) in samples.iter().zip(packed.chunks_mut(w)) {
        codec.encode_into(state, out);
    }
    let encode = per(nanos(t));
    let mut decoded = SystemState::initial(&s.alg, topo);
    let mut agree = true;
    let t = Instant::now();
    for (state, words) in samples.iter().zip(packed.chunks(w)) {
        codec.decode_into(words, &mut decoded);
        agree &= decoded == *state;
    }
    let decode = per(nanos(t));
    checks.check(agree, || {
        "check-mca: codec round trip changed a sampled state".into()
    });
    let (mut canonical, mut scratch) = (vec![0u64; w], vec![0u64; w]);
    let t = Instant::now();
    for words in packed.chunks(w) {
        std::hint::black_box(canonicalize_into(
            &codec,
            &group,
            words,
            &mut canonical,
            &mut scratch,
        ));
    }
    (encode, decode, per(nanos(t)), group.order())
}

/// Every process live and hungry: the checkers' health and needs.
fn context(topo: &Topology) -> (Vec<Health>, Vec<bool>) {
    (vec![Health::Live; topo.len()], vec![true; topo.len()])
}

/// Points of the perturbation lattice: every phase × depth `0..=depth_max`
/// per process, every orientation per edge.
fn lattice_size(topo: &Topology, depth_max: u32) -> u32 {
    let per_local = 3 * (depth_max + 1);
    per_local.pow(topo.len() as u32) * 2u32.pow(topo.edge_count() as u32)
}

/// Lattice point `index`, in mixed radix: processes first, then edges.
fn lattice_state(topo: &Topology, depth_max: u32, index: u32) -> State {
    let alg = MaliciousCrashDiners::corrected();
    let mut state = SystemState::initial(&alg, topo);
    let mut rest = index;
    for p in topo.processes() {
        let v = rest % (3 * (depth_max + 1));
        rest /= 3 * (depth_max + 1);
        let local = state.local_mut(p);
        local.phase =
            [Phase::Thinking, Phase::Hungry, Phase::Eating][(v / (depth_max + 1)) as usize];
        local.depth = v % (depth_max + 1);
    }
    for e in 0..topo.edge_count() {
        let (a, b) = topo.endpoints(EdgeId(e));
        state.edge_mut(EdgeId(e)).ancestor = if rest % 2 == 1 { b } else { a };
        rest /= 2;
    }
    state
}

/// Whether the priority orientation of `state` has a directed cycle
/// (peel processes with no ancestor left until none remain).
fn is_cyclic(topo: &Topology, state: &State) -> bool {
    let n = topo.len();
    let descendant = |e: usize| {
        let (a, b) = topo.endpoints(EdgeId(e));
        if state.edge(EdgeId(e)).ancestor == a {
            b
        } else {
            a
        }
    };
    let mut ancestors = vec![0usize; n];
    for e in 0..topo.edge_count() {
        ancestors[descendant(e).index()] += 1;
    }
    let mut removed = vec![false; n];
    while let Some(v) = (0..n).find(|&v| !removed[v] && ancestors[v] == 0) {
        removed[v] = true;
        for e in 0..topo.edge_count() {
            if state.edge(EdgeId(e)).ancestor.index() == v {
                ancestors[descendant(e).index()] -= 1;
            }
        }
    }
    removed.contains(&false)
}
