//! `simnet-grid`: the message-passing port under a noisy network.
//!
//! `SimNet::with_adversary` runs on `Topology::grid(32, 32)` with loss
//! 50‰, duplication 20‰, delay 100‰ of up to 8 steps and reorder 50‰,
//! one malicious crash, and the snapshot monitor at its operating cadence
//! (one epoch per 20·n events). A batch is a fixed number of events.
//!
//! The exclusion check is the paper's: from the settle point on, no two
//! correct neighbours eat at once. A pair with the crashed process in it
//! is outside that promise, because the other endpoint is within the
//! locality radius. It does happen on this port: forged fork transfers
//! the crashed process sent before it halted are delivered afterwards,
//! and with the fork's master dead nothing reconciles the two claims.
//! Such events are counted and reported, not failed.

use std::time::Instant;

use diners_mp::{AdversaryPlan, MonitorSetup, SimNet};
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::rng;
use diners_sim::Phase;
use rand::Rng;

use crate::{metric, nanos, rss_mb, secs, Batch, Checks, Digest, Metric, Scale, Workload};

/// Exclusion from the settle point on, seen event by event.
#[derive(Default)]
struct Exclusion {
    /// The last event at which two correct neighbours ate together.
    correct_pair: Option<u64>,
    /// Events at which only pairs with the crashed process in them ate.
    crashed_pair_events: u64,
}

/// The seed-generated inputs of one `simnet-grid` run.
pub struct SimnetGrid {
    side: usize,
    events: u64,
    /// No two correct neighbours may eat together from this event on.
    settle: u64,
    seed: u64,
    /// `(event, process, malicious steps)` of the crash.
    crash: (u64, usize, u32),
}

impl SimnetGrid {
    /// Generate the inputs from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (side, events) = match scale {
            Scale::Full => (32, 80_000),
            Scale::Tiny => (6, 6_000),
        };
        let mut r = rng::rng(rng::subseed(seed, 0x5137));
        let crash = (
            r.gen_range(0..events / 4),
            r.gen_range(0..side * side),
            r.gen_range(1..=16u32),
        );
        SimnetGrid {
            side,
            events,
            settle: events / 2,
            seed,
            crash,
        }
    }

    fn plan() -> AdversaryPlan {
        AdversaryPlan::new()
            .loss(50)
            .duplication(20)
            .delay(100, 8)
            .reorder(50)
    }

    fn net(&self, topo: Topology, monitored: bool) -> SimNet {
        let n = topo.len() as u64;
        let (at, pid, k) = self.crash;
        let faults = FaultPlan::new().malicious_crash(at, pid, k);
        let mut net = SimNet::with_adversary(topo, faults, Self::plan(), self.seed);
        if monitored {
            // A healthy node waits up to two epochs between the meals the
            // cuts show, and a batch spans about four epochs, so no hunger
            // SLO can tell slow service from starvation within one batch:
            // the SLO is the batch length, and the hard alerts that can
            // fire are neighbours eating and inconsistent cuts.
            net.enable_monitor(MonitorSetup {
                epoch_every: 20 * n,
                slo_wait: self.events,
                ..MonitorSetup::default()
            });
        }
        net
    }

    /// Run the batch in `spans` timed spans; returns the nanoseconds
    /// spent in them.
    fn drive(&self, net: &mut SimNet, spans: u64) -> u64 {
        let mut run_ns = 0;
        for i in 0..spans {
            let last = if i == spans - 1 {
                self.events % spans
            } else {
                0
            };
            let t = Instant::now();
            net.run(self.events / spans + last);
            run_ns += nanos(t);
        }
        run_ns
    }

    /// Exclusion from the settle point on. `SimNet` counts an event as a
    /// violation when neighbours eat together and one of them is not
    /// dead, so it cannot tell the two kinds apart. When it reports one
    /// from the settle point on, replay the run untimed, event by event,
    /// and look at the pairs after each reported event. The replay runs
    /// without the monitor, which leaves the simulation unchanged (the
    /// traced run checks that) and keeps the replay small.
    fn exclusion(&self, net: &SimNet, checks: &mut Checks) -> Exclusion {
        let mut ex = Exclusion::default();
        if net.last_violation().is_none_or(|s| s < self.settle) {
            return ex;
        }
        let crashed = ProcessId(self.crash.1);
        let mut replay = self.net(net.topology().clone(), false);
        for at in 0..self.events {
            replay.step();
            if at >= self.settle && replay.last_violation() == Some(at) {
                let eating = |p| replay.phase_of(p) == Phase::Eating;
                let correct_pair = replay
                    .topology()
                    .edges()
                    .iter()
                    .any(|&(a, b)| a != crashed && b != crashed && eating(a) && eating(b));
                if correct_pair {
                    ex.correct_pair = Some(at);
                } else {
                    ex.crashed_pair_events += 1;
                }
            }
        }
        checks.check(
            (replay.violation_steps(), replay.last_violation())
                == (net.violation_steps(), net.last_violation()),
            || "simnet-grid: the untimed replay diverged from the batch".into(),
        );
        ex
    }

    /// Checks and digest of a finished run. The digest leaves out the
    /// monitor, so a monitored run and its unmonitored twin must match.
    fn verdict(&self, net: &SimNet, checks: &mut Checks) -> (Digest, Exclusion) {
        let ex = self.exclusion(net, checks);
        checks.check(ex.correct_pair.is_none(), || {
            format!(
                "simnet-grid: two correct neighbours ate together at event {:?} (settled from {})",
                ex.correct_pair, self.settle
            )
        });
        if let Some(m) = net.monitor() {
            checks.check(m.hard_alerts() == 0, || {
                format!("simnet-grid: {} hard monitor alerts", m.hard_alerts())
            });
        }
        let s = net.net_stats();
        let mut d = Digest::default();
        d.extend(net.topology().processes().map(|p| net.meals_of(p)));
        d.extend([
            net.violation_steps(),
            net.last_violation().unwrap_or(u64::MAX),
            ex.crashed_pair_events,
            s.sent,
            s.dropped,
            s.duplicated,
            s.delayed,
            s.reordered,
            s.corrupted,
            net.shed(),
            net.retransmits(),
            net.resyncs(),
        ]);
        d.extend(net.dead_processes().iter().map(|p| p.index() as u64));
        (d, ex)
    }

    fn meals(net: &SimNet) -> u64 {
        net.topology().processes().map(|p| net.meals_of(p)).sum()
    }
}

impl Workload for SimnetGrid {
    fn batch(&self, checks: &mut Checks) -> Batch {
        let t = Instant::now();
        let mut net = self.net(Topology::grid(self.side, self.side), true);
        let setup_s = secs(t);
        let batch_s = self.drive(&mut net, 1) as f64 / 1e9;
        let meals = Self::meals(&net) as f64;
        let (digest, ex) = self.verdict(&net, checks);
        Batch {
            setup_s,
            batch_s,
            digest,
            details: vec![
                metric("net_events_per_s", self.events as f64 / batch_s, "events/s"),
                metric("meals_per_s", meals / batch_s, "meals/s"),
                metric(
                    "crashed_pair_events",
                    ex.crashed_pair_events as f64,
                    "count",
                ),
            ],
        }
    }

    fn traced(&self, checks: &mut Checks) -> (Batch, Vec<Metric>) {
        let rss0 = rss_mb();
        let t = Instant::now();
        let topo = Topology::grid(self.side, self.side);
        let build_s = secs(t);
        let graph_mb = rss_mb() - rss0;
        let t = Instant::now();
        let mut net = self.net(topo.clone(), true);
        let setup_s = secs(t);
        // The monitored run, in spans of 1/10 of the batch.
        let monitored_ns = self.drive(&mut net, 10);
        let (digest, _) = self.verdict(&net, checks);

        // The unmonitored twin: same inputs, no monitoring plane.
        let mut twin = self.net(topo, false);
        let twin_ns = self.drive(&mut twin, 1);
        let (twin_digest, _) = self.verdict(&twin, checks);
        checks.check(twin_digest == digest, || {
            format!(
                "simnet-grid: unmonitored twin digest {} != monitored {}",
                twin_digest.hex(),
                digest.hex()
            )
        });

        let events = self.events as f64;
        let s = net.net_stats();
        let m = net.monitor().expect("monitor attached");
        let layers = vec![
            metric("graph.build_s", build_s, "s"),
            metric("graph.rss_mb", graph_mb, "MB"),
            metric("simnet.ns_per_event", twin_ns as f64 / events, "ns"),
            metric(
                "simnet.meals_per_kevent",
                Self::meals(&net) as f64 * 1e3 / events,
                "meals/kevent",
            ),
            metric("simnet.shed", net.shed() as f64, "count"),
            metric("adversary.sent", s.sent as f64, "count"),
            metric("adversary.dropped", s.dropped as f64, "count"),
            metric("adversary.duplicated", s.duplicated as f64, "count"),
            metric("adversary.delayed", s.delayed as f64, "count"),
            metric("adversary.reordered", s.reordered as f64, "count"),
            metric("node.retransmits", net.retransmits() as f64, "count"),
            metric("node.resyncs", net.resyncs() as f64, "count"),
            metric(
                "node.retransmit_ratio",
                net.retransmits() as f64 / s.sent.max(1) as f64,
                "ratio",
            ),
            metric("monitor.epochs", net.snapshot_epoch() as f64, "count"),
            metric("monitor.cuts", m.cuts() as f64, "count"),
            metric("monitor.hard_alerts", m.hard_alerts() as f64, "count"),
            metric(
                "monitor.overhead_ratio",
                monitored_ns as f64 / twin_ns as f64,
                "ratio",
            ),
            metric(
                "monitor.ns_per_event",
                monitored_ns.saturating_sub(twin_ns) as f64 / events,
                "ns",
            ),
        ];
        let batch = Batch {
            setup_s,
            batch_s: monitored_ns as f64 / 1e9,
            digest,
            details: Vec::new(),
        };
        (batch, layers)
    }
}
