//! Online predicate detection over assembled global cuts.
//!
//! The runtimes' snapshot plane ([`crate::snapshot`]) produces one
//! [`LocalSnapshot`] per live node per completed epoch; the [`Monitor`]
//! assembles them into a [`GlobalCut`], validates the cut against the
//! vector clocks, and evaluates the paper's guarantees *while the
//! system runs*:
//!
//! * **Safety** — no two live neighbors eating in any consistent cut
//!   ([`AlertKind::NeighborsEating`]).
//! * **Liveness SLO** — continuous hunger beyond a threshold raises
//!   [`AlertKind::SloBreach`]; every observed hungry→eat transition
//!   feeds a per-node latency histogram (exposed with `node` labels,
//!   aggregatable into a cluster view via `Histogram::merge`).
//! * **Failure locality** — an SLO breach at distance > 2 from every
//!   dead node contradicts the paper's containment theorem and raises
//!   [`AlertKind::LocalityBreach`].
//! * **Self-check** — a cut failing vector-clock consistency means the
//!   snapshot protocol itself broke ([`AlertKind::InconsistentCut`]).
//!
//! Alerts are emitted as structured events on the `sim::telemetry` bus
//! (retained in a ring sink) and mirrored into the metrics registry, so
//! `exp monitor --watch` can both print them and serve them over
//! `/metrics`.

use diners_sim::graph::{ProcessId, Topology};
use diners_sim::telemetry::{CounterId, GaugeId, Histogram, HistogramId, RingSink};
use diners_sim::{AlertKind, Phase, Telemetry, TelemetryKind};

use crate::snapshot::LocalSnapshot;

/// A completed snapshot epoch: one local snapshot per live node, plus
/// the membership the observer saw when it assembled the cut.
#[derive(Clone, Debug)]
pub struct GlobalCut {
    /// The epoch number.
    pub epoch: u64,
    /// Net step (or wall tick) at which the cut completed.
    pub step: u64,
    /// Live nodes' snapshots, sorted by pid.
    pub snaps: Vec<LocalSnapshot>,
    /// Nodes that were dead (or byzantine) for the whole round.
    pub dead: Vec<ProcessId>,
}

impl GlobalCut {
    /// Pid-aware vector-clock consistency: no participant saw more of
    /// process `i`'s history than `i` itself recorded. This is
    /// [`crate::VectorClock::cut_consistent`] generalized to cuts that
    /// exclude dead pids.
    pub fn consistent(&self) -> bool {
        // One pass builds every participant's own-recording ceiling
        // (non-participants get no constraint); a second streams each
        // clock against it. Runs on every completed epoch, so it must
        // stay a tight n² slice walk rather than nested indexed gets.
        let n = self.snaps.first().map_or(0, |s| s.clock.len());
        let mut ceiling = vec![u64::MAX; n];
        for s in &self.snaps {
            ceiling[s.pid.index()] = s.clock.get(s.pid);
        }
        self.snaps
            .iter()
            .all(|s| s.clock.entries().iter().zip(&ceiling).all(|(c, l)| c <= l))
    }

    /// Total captured in-flight messages across all channels.
    pub fn in_flight(&self) -> u64 {
        self.snaps
            .iter()
            .flat_map(|s| s.channels.iter())
            .map(|(_, msgs)| msgs.len() as u64)
            .sum()
    }

    /// The snapshot of `p`, if `p` participated.
    pub fn snap_of(&self, p: ProcessId) -> Option<&LocalSnapshot> {
        self.snaps.iter().find(|s| s.pid == p)
    }
}

/// One raised alert, with full provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Alert {
    /// Step at which the offending cut completed.
    pub step: u64,
    /// Epoch of the offending cut.
    pub epoch: u64,
    /// The process the alert is about.
    pub pid: ProcessId,
    /// What went wrong.
    pub kind: AlertKind,
}

/// Monitor thresholds.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Continuous hunger (in net steps) beyond which an SLO breach is
    /// raised. Set generously above the topology's expected worst-case
    /// response so healthy runs stay quiet.
    pub slo_wait: u64,
    /// The paper's failure-locality radius: SLO breaches farther than
    /// this from every dead node are locality breaches.
    pub locality_radius: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            slo_wait: 20_000,
            locality_radius: 2,
        }
    }
}

/// The observer: assembles per-epoch cuts into verdicts, metrics and
/// structured alert events.
pub struct Monitor {
    topo: Topology,
    cfg: MonitorConfig,
    tele: Telemetry,
    hungry_since: Vec<Option<u64>>,
    slo_open: Vec<bool>,
    meals_seen: Vec<u64>,
    alerts: Vec<Alert>,
    cuts: u64,
    aborts: u64,
    m_cuts: CounterId,
    m_aborts: CounterId,
    m_alerts: CounterId,
    g_epoch: GaugeId,
    h_inflight: HistogramId,
    wait_ids: Vec<HistogramId>,
}

fn wait_metric_name(i: usize) -> String {
    format!("mp.wait_steps{{node=\"{i}\"}}")
}

impl Monitor {
    /// A monitor for `topo` with the given thresholds. Alert events are
    /// retained in a 512-entry ring sink reachable via
    /// [`Monitor::telemetry`].
    pub fn new(topo: Topology, cfg: MonitorConfig) -> Self {
        let n = topo.len();
        let mut tele = Telemetry::with_sink(RingSink::new(512));
        let reg = tele.registry_mut();
        let m_cuts = reg.counter("monitor.cuts");
        let m_aborts = reg.counter("monitor.aborts");
        let m_alerts = reg.counter("monitor.alerts");
        let g_epoch = reg.gauge("monitor.epoch");
        let h_inflight = reg.histogram("monitor.in_flight");
        let wait_ids = (0..n)
            .map(|i| reg.histogram(&wait_metric_name(i)))
            .collect();
        Monitor {
            topo,
            cfg,
            tele,
            hungry_since: vec![None; n],
            slo_open: vec![false; n],
            meals_seen: vec![0; n],
            alerts: Vec::new(),
            cuts: 0,
            aborts: 0,
            m_cuts,
            m_aborts,
            m_alerts,
            g_epoch,
            h_inflight,
            wait_ids,
        }
    }

    /// Evaluate one completed cut: consistency self-check, safety,
    /// liveness SLO and failure locality, in that order.
    pub fn observe_cut(&mut self, cut: &GlobalCut) {
        self.cuts += 1;
        let (m_cuts, g_epoch, h_inflight) = (self.m_cuts, self.g_epoch, self.h_inflight);
        let reg = self.tele.registry_mut();
        reg.inc(m_cuts);
        reg.set(g_epoch, cut.epoch as f64);
        reg.record(h_inflight, cut.in_flight());

        if !cut.consistent() {
            // Blame the observer that saw too much: the first pid whose
            // clock overtakes someone's own recording.
            let culprit = cut
                .snaps
                .iter()
                .find(|sj| {
                    cut.snaps
                        .iter()
                        .any(|si| sj.clock.get(si.pid) > si.clock.get(si.pid))
                })
                .map_or(ProcessId(0), |s| s.pid);
            self.raise(cut, culprit, AlertKind::InconsistentCut);
        }

        let mut phases: Vec<Option<Phase>> = vec![None; self.topo.len()];
        for s in &cut.snaps {
            phases[s.pid.index()] = Some(s.phase);
        }
        let eating_pairs: Vec<(ProcessId, ProcessId)> = self
            .topo
            .edges()
            .iter()
            .copied()
            .filter(|&(a, b)| {
                phases[a.index()] == Some(Phase::Eating) && phases[b.index()] == Some(Phase::Eating)
            })
            .collect();
        for (a, b) in eating_pairs {
            self.raise(cut, a, AlertKind::NeighborsEating { a, b });
        }

        for s in &cut.snaps {
            let i = s.pid.index();
            if s.meals > self.meals_seen[i] {
                if let Some(since) = self.hungry_since[i].take() {
                    let wait = cut.step.saturating_sub(since);
                    let id = self.wait_ids[i];
                    self.tele.registry_mut().record(id, wait);
                }
                self.meals_seen[i] = s.meals;
                self.slo_open[i] = false;
            }
            if s.phase == Phase::Hungry {
                let since = *self.hungry_since[i].get_or_insert(cut.step);
                let waited = cut.step.saturating_sub(since);
                if waited > self.cfg.slo_wait && !self.slo_open[i] {
                    self.slo_open[i] = true;
                    self.raise(cut, s.pid, AlertKind::SloBreach { waited });
                    let nearest_dead = cut.dead.iter().map(|&q| self.topo.distance(s.pid, q)).min();
                    if let Some(d) = nearest_dead {
                        if d > self.cfg.locality_radius {
                            self.raise(cut, s.pid, AlertKind::LocalityBreach { distance: d });
                        }
                    }
                }
            } else {
                self.hungry_since[i] = None;
                self.slo_open[i] = false;
            }
        }
    }

    /// Record an aborted epoch (crash or rebirth mid-round).
    pub fn on_abort(&mut self, _step: u64) {
        self.aborts += 1;
        let id = self.m_aborts;
        self.tele.registry_mut().inc(id);
    }

    fn raise(&mut self, cut: &GlobalCut, pid: ProcessId, kind: AlertKind) {
        self.tele.emit(cut.step, pid, TelemetryKind::Alert(kind));
        let id = self.m_alerts;
        self.tele.registry_mut().inc(id);
        self.alerts.push(Alert {
            step: cut.step,
            epoch: cut.epoch,
            pid,
            kind,
        });
    }

    /// Every alert raised so far, in order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts that indicate a broken guarantee (safety violation,
    /// inconsistent cut, locality breach) — as opposed to SLO breaches,
    /// which a sufficiently hostile adversary can cause legitimately.
    pub fn hard_alerts(&self) -> u64 {
        self.alerts
            .iter()
            .filter(|a| !matches!(a.kind, AlertKind::SloBreach { .. }))
            .count() as u64
    }

    /// Completed cuts observed.
    pub fn cuts(&self) -> u64 {
        self.cuts
    }

    /// Aborted epochs observed.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// The telemetry handle (alert ring sink + metrics registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// The metrics registry (for exposition).
    pub fn registry(&self) -> &diners_sim::MetricsRegistry {
        self.tele.registry()
    }

    /// Per-node hunger→eat latency histogram observed through cuts.
    pub fn wait_histogram(&self, p: ProcessId) -> Option<&Histogram> {
        self.tele
            .registry()
            .histogram_value(&wait_metric_name(p.index()))
    }

    /// Cluster-wide hunger→eat latency: every per-node shard merged.
    pub fn cluster_waits(&self) -> Histogram {
        let mut all = Histogram::pow2();
        for i in 0..self.topo.len() {
            if let Some(h) = self.tele.registry().histogram_value(&wait_metric_name(i)) {
                all.merge(h);
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vclock::VectorClock;

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    fn snap(
        n: usize,
        i: usize,
        epoch: u64,
        phase: Phase,
        meals: u64,
        ticks: &[u64],
    ) -> LocalSnapshot {
        let mut clock = VectorClock::new(n);
        for (j, &t) in ticks.iter().enumerate() {
            for _ in 0..t {
                clock.tick(p(j));
            }
        }
        LocalSnapshot {
            pid: p(i),
            epoch,
            phase,
            depth: 0,
            meals,
            state: Vec::new(),
            clock,
            channels: Vec::new(),
            late_whites: 0,
        }
    }

    fn cut(epoch: u64, step: u64, snaps: Vec<LocalSnapshot>, dead: Vec<ProcessId>) -> GlobalCut {
        GlobalCut {
            epoch,
            step,
            snaps,
            dead,
        }
    }

    #[test]
    fn healthy_cut_raises_nothing_and_tracks_waits() {
        let mut m = Monitor::new(Topology::ring(4), MonitorConfig::default());
        // Cut 1: node 2 goes hungry.
        m.observe_cut(&cut(
            1,
            100,
            (0..4)
                .map(|i| {
                    let ph = if i == 2 {
                        Phase::Hungry
                    } else {
                        Phase::Thinking
                    };
                    snap(4, i, 1, ph, 0, &[])
                })
                .collect(),
            vec![],
        ));
        // Cut 2: node 2 ate (meals bumped).
        m.observe_cut(&cut(
            2,
            350,
            (0..4)
                .map(|i| snap(4, i, 2, Phase::Thinking, u64::from(i == 2), &[]))
                .collect(),
            vec![],
        ));
        assert!(m.alerts().is_empty());
        assert_eq!(m.cuts(), 2);
        let h = m.wait_histogram(p(2)).unwrap();
        assert_eq!((h.count(), h.max()), (1, Some(250)));
        assert_eq!(m.cluster_waits().count(), 1);
        assert_eq!(m.registry().counter_value("monitor.cuts"), Some(2));
    }

    #[test]
    fn neighboring_eaters_raise_safety_alert() {
        let mut m = Monitor::new(Topology::ring(4), MonitorConfig::default());
        let snaps = vec![
            snap(4, 0, 1, Phase::Eating, 0, &[]),
            snap(4, 1, 1, Phase::Eating, 0, &[]),
            snap(4, 2, 1, Phase::Eating, 0, &[]), // 1–2 also violates
            snap(4, 3, 1, Phase::Thinking, 0, &[]),
        ];
        m.observe_cut(&cut(1, 10, snaps, vec![]));
        let kinds: Vec<AlertKind> = m.alerts().iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AlertKind::NeighborsEating { a: p(0), b: p(1) },
                AlertKind::NeighborsEating { a: p(1), b: p(2) },
            ]
        );
        assert_eq!(m.hard_alerts(), 2);
        assert_eq!(m.registry().counter_value("monitor.alerts"), Some(2));
        // Non-neighbors eating (0 and 2 on a 4-ring with 1 thinking)
        // would be fine: eating-pair detection is edge-based.
    }

    #[test]
    fn inconsistent_cut_is_self_detected() {
        let mut m = Monitor::new(Topology::line(2), MonitorConfig::default());
        // Node 1 saw two of node 0's events; node 0 recorded none.
        let snaps = vec![
            snap(2, 0, 1, Phase::Thinking, 0, &[0, 0]),
            snap(2, 1, 1, Phase::Thinking, 0, &[2, 1]),
        ];
        m.observe_cut(&cut(1, 10, snaps, vec![]));
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].kind, AlertKind::InconsistentCut);
        assert_eq!(m.alerts()[0].pid, p(1), "blames the over-informed node");
    }

    #[test]
    fn slo_breach_throttles_per_episode_and_checks_locality() {
        let cfg = MonitorConfig {
            slo_wait: 100,
            locality_radius: 2,
        };
        let mut m = Monitor::new(Topology::line(6), cfg);
        let hungry_cut = |epoch, step| {
            cut(
                epoch,
                step,
                (0..5)
                    .map(|i| {
                        let ph = if i == 5 {
                            Phase::Thinking
                        } else {
                            Phase::Hungry
                        };
                        snap(6, i, epoch, ph, 0, &[])
                    })
                    .collect(),
                vec![p(5)],
            )
        };
        m.observe_cut(&hungry_cut(1, 0)); // arms hungry_since
        m.observe_cut(&hungry_cut(2, 200)); // waited 200 > 100: breaches
        m.observe_cut(&hungry_cut(3, 300)); // same episode: throttled
        let slo: Vec<&Alert> = m
            .alerts()
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::SloBreach { .. }))
            .collect();
        // One breach per node 0..=4, raised once despite two breaching cuts.
        assert_eq!(slo.len(), 5);
        // Dead node is 5; nodes 0,1,2 sit at distance 5,4,3 > 2: those
        // three SLO breaches are also locality breaches.
        let loc: Vec<&Alert> = m
            .alerts()
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::LocalityBreach { .. }))
            .collect();
        assert_eq!(loc.len(), 3);
        assert!(loc.iter().all(|a| a.pid.index() <= 2));
        assert_eq!(
            loc[0].kind,
            AlertKind::LocalityBreach { distance: 5 },
            "distance to the dead node is reported"
        );
        assert_eq!(m.hard_alerts(), 3, "SLO breaches are soft");
    }

    #[test]
    fn cut_helpers_report_membership_and_in_flight() {
        let mut s0 = snap(2, 0, 1, Phase::Thinking, 0, &[]);
        s0.channels = vec![(p(1), vec![crate::LinkMsg::probe(p(1))])];
        let c = cut(1, 5, vec![s0, snap(2, 1, 1, Phase::Hungry, 0, &[])], vec![]);
        assert!(c.consistent());
        assert_eq!(c.in_flight(), 1);
        assert_eq!(c.snap_of(p(1)).unwrap().phase, Phase::Hungry);
        assert!(c.snap_of(p(9)).is_none());
    }
}
