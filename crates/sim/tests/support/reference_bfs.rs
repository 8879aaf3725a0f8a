//! Reference breadth-first search: the differential oracle for the
//! packed explorer.
//!
//! A plain FIFO BFS over cloned [`SystemState`]s, deduplicated by a
//! `HashSet` of full states. It is written only against the
//! public [`Algorithm`] API (`kinds`, `enabled`, `execute`, [`View`]) and
//! shares no code with `diners_sim::explore`, so an agreement between the
//! two is evidence about both.
//!
//! Successors are enumerated in the documented move order: processes in
//! id order (dead ones skipped), then action kinds in declaration order,
//! then neighbor slots. Under that order a FIFO BFS discovers states,
//! counts transitions and deadlocks, and stops at a violation or at the
//! state cap exactly where the explorer's layered BFS does, so every
//! search-shaped report field must match.
//!
//! Used directly by `symmetry_equiv` and through `#[path]` by the
//! baselines' `codec_equiv`.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

use diners_sim::algorithm::{ActionId, Algorithm, Move, SystemState, View, Write};
use diners_sim::explore::{ExplorationReport, Limits};
use diners_sim::fault::Health;
use diners_sim::graph::Topology;
use diners_sim::predicate::Snapshot;

/// What the reference search found, field for field comparable with an
/// [`ExplorationReport`].
#[derive(Debug)]
pub struct ReferenceReport {
    pub states: usize,
    pub transitions: u64,
    pub deadlocks: usize,
    pub violation: Option<Vec<Move>>,
    pub truncated: bool,
    pub layers: usize,
    pub peak_frontier: usize,
    pub dedup_hits: u64,
    /// Heap bytes one cloned state occupies: the struct plus its two
    /// vectors' payloads (allocator slack not counted).
    pub cloned_bytes_per_state: usize,
}

impl ReferenceReport {
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }

    /// Bytes a visited set of cloned states would hold at termination.
    pub fn cloned_bytes(&self) -> usize {
        self.states * self.cloned_bytes_per_state
    }

    /// Assert that the explorer's `report` agrees on every search-shaped
    /// field: states, transitions, deadlocks, violation trace, truncation
    /// point, layers, peak frontier and dedup hits.
    pub fn assert_matches(&self, report: &ExplorationReport, ctx: &str) {
        assert_eq!(self.states, report.states, "{ctx}: states");
        assert_eq!(self.transitions, report.transitions, "{ctx}: transitions");
        assert_eq!(self.deadlocks, report.deadlocks, "{ctx}: deadlocks");
        assert_eq!(self.violation, report.violation, "{ctx}: violation");
        assert_eq!(self.truncated, report.truncated, "{ctx}: truncated");
        assert_eq!(self.layers, report.layers, "{ctx}: layers");
        assert_eq!(
            self.peak_frontier, report.peak_frontier,
            "{ctx}: peak_frontier"
        );
        assert_eq!(self.dedup_hits, report.dedup_hits, "{ctx}: dedup_hits");
    }
}

/// Search every state reachable from `initial`, checking `safety` in each
/// new state and stopping at the first violation or after
/// `limits.max_states` distinct states.
pub fn reference_bfs<A, F>(
    alg: &A,
    topo: &Topology,
    initial: SystemState<A>,
    health: &[Health],
    needs: &[bool],
    safety: F,
    limits: Limits,
) -> ReferenceReport
where
    A: Algorithm,
    A::Local: Hash + Eq,
    A::Edge: Hash + Eq,
    F: Fn(&Snapshot<'_, A>) -> bool,
{
    let mut report = ReferenceReport {
        states: 1,
        transitions: 0,
        deadlocks: 0,
        violation: None,
        truncated: false,
        layers: 0,
        peak_frontier: 0,
        dedup_hits: 0,
        cloned_bytes_per_state: std::mem::size_of::<SystemState<A>>()
            + topo.len() * std::mem::size_of::<A::Local>()
            + topo.edge_count() * std::mem::size_of::<A::Edge>(),
    };
    if !safety(&Snapshot::new(topo, &initial, health)) {
        report.violation = Some(Vec::new());
        return report;
    }

    let key = |s: &SystemState<A>| (s.locals().to_vec(), s.edges().to_vec());
    let mut seen = HashSet::from([key(&initial)]);
    // Per state: (parent, move from parent). Queue entries carry
    // (state index, BFS depth, state).
    let mut parents: Vec<Option<(usize, Move)>> = vec![None];
    let mut queue = VecDeque::from([(0usize, 0usize, initial)]);
    let mut layer = None;

    'bfs: while let Some((idx, depth, state)) = queue.pop_front() {
        if layer != Some(depth) {
            // First state of a new depth: every state of that depth, and
            // no deeper one, is queued now.
            layer = Some(depth);
            report.layers += 1;
            report.peak_frontier = report.peak_frontier.max(queue.len() + 1);
        }
        let moves = enabled_moves(alg, topo, &state, health, needs);
        if moves.is_empty() {
            report.deadlocks += 1;
            continue;
        }
        for mv in moves {
            report.transitions += 1;
            let next = apply(alg, topo, &state, mv, needs);
            if !seen.insert(key(&next)) {
                report.dedup_hits += 1;
                continue;
            }
            let next_idx = parents.len();
            parents.push(Some((idx, mv)));
            if !safety(&Snapshot::new(topo, &next, health)) {
                report.violation = Some(trace_to(&parents, next_idx));
                break 'bfs;
            }
            if parents.len() >= limits.max_states {
                report.truncated = true;
                break 'bfs;
            }
            queue.push_back((next_idx, depth + 1, next));
        }
    }
    report.states = parents.len();
    report
}

/// The moves every live process has enabled in `state`, in the documented
/// order.
fn enabled_moves<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    state: &SystemState<A>,
    health: &[Health],
    needs: &[bool],
) -> Vec<Move> {
    let mut moves = Vec::new();
    for pid in topo.processes().filter(|p| health[p.index()].is_live()) {
        let view = View::new(topo, state, pid, needs[pid.index()]);
        for (kind, spec) in alg.kinds().iter().enumerate() {
            let actions: Vec<ActionId> = if spec.per_neighbor {
                (0..topo.degree(pid))
                    .map(|slot| ActionId::at_slot(kind, slot))
                    .collect()
            } else {
                vec![ActionId::global(kind)]
            };
            moves.extend(
                actions
                    .into_iter()
                    .filter(|&action| alg.enabled(&view, action))
                    .map(|action| Move { pid, action }),
            );
        }
    }
    moves
}

/// `state` after `mv` fires.
fn apply<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    state: &SystemState<A>,
    mv: Move,
    needs: &[bool],
) -> SystemState<A> {
    let view = View::new(topo, state, mv.pid, needs[mv.pid.index()]);
    let mut next = state.clone();
    for write in alg.execute(&view, mv.action) {
        match write {
            Write::Local(local) => *next.local_mut(mv.pid) = local,
            Write::Edge { neighbor, value } => {
                let e = topo
                    .edge_between(mv.pid, neighbor)
                    .expect("edge write to a neighbor");
                *next.edge_mut(e) = value;
            }
        }
    }
    next
}

/// The move sequence from the root to state `idx`.
fn trace_to(parents: &[Option<(usize, Move)>], mut idx: usize) -> Vec<Move> {
    let mut trace = Vec::new();
    while let Some((parent, mv)) = parents[idx] {
        trace.push(mv);
        idx = parent;
    }
    trace.reverse();
    trace
}
