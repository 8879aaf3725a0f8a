//! T9 — chaos soak: randomized network adversary schedules.
//!
//! Sweeps randomized [`AdversaryPlan`]s — loss, duplication, bounded
//! delay, reordering, and healing link/node outages in every mix — over
//! the topology families, asserting the two properties the message
//! passing transformation owes us:
//!
//! * **safety, always**: zero live-pair exclusion violations at any step
//!   of any run (network faults never excuse a violation; the runs start
//!   legitimate and keep every process alive);
//! * **liveness, after healing**: once the last scheduled outage is past,
//!   every (needy) process eats in the measurement window.
//!
//! The schedules are generated deterministically from the case index, so
//! any failing run is reproducible from its table row alone.

use diners_mp::{AdversaryPlan, SimNet};
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::rng;
use diners_sim::table::Table;
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{failing, families, Scale};

/// Outcome of a single chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Steps at which two live neighbors were simultaneously eating.
    pub violations: u64,
    /// Processes with zero meals in the post-heal window.
    pub starved: Vec<ProcessId>,
    /// The schedule, for reproduction.
    pub plan: String,
}

/// Aggregate over the whole sweep.
#[derive(Clone, Debug, Default)]
pub struct ChaosTotals {
    /// Total (config x seed) runs executed.
    pub runs: u64,
    /// Total violation steps across all runs.
    pub violations: u64,
    /// Total starved-after-heal processes across all runs.
    pub starved: u64,
}

impl ChaosTotals {
    /// Whether the sweep upheld both chaos properties.
    pub fn clean(&self) -> bool {
        self.violations == 0 && self.starved == 0
    }
}

/// Draw a randomized adversary schedule for `topo`. Probabilistic rates
/// stay in ranges where liveness is still owed (loss well under the
/// builder's ceiling); outages are scheduled to heal before `settle`,
/// so the measurement window is fault-free except for the probabilistic
/// noise.
pub fn sample_plan(topo: &Topology, r: &mut StdRng, settle: u64) -> AdversaryPlan {
    let mut plan = AdversaryPlan::new()
        .loss(r.gen_range(0..=250))
        .duplication(r.gen_range(0..=250))
        .reorder(r.gen_range(0..=250));
    if r.gen_bool(0.7) {
        plan = plan.delay(r.gen_range(1..=400), r.gen_range(2..=16));
    }
    for _ in 0..r.gen_range(0..=2u32) {
        let from = r.gen_range(0..settle / 2);
        let until = from + r.gen_range(settle / 16..=settle / 2);
        if r.gen_bool(0.5) {
            let edges = topo.edges();
            let (a, b) = edges[r.gen_range(0..edges.len())];
            plan = plan.cut_link(a, b, from, until.min(settle));
        } else {
            let p = ProcessId(r.gen_range(0..topo.len()));
            plan = plan.isolate(p, from, until.min(settle));
        }
    }
    plan
}

/// One chaos run: legitimate start, no process faults, `plan` on the
/// links. Safety is counted over the *entire* run; liveness over the
/// final `window` steps, which begin only after `plan.healed_by()`.
pub fn chaos_run(
    topo: Topology,
    plan: AdversaryPlan,
    seed: u64,
    steps: u64,
    window: u64,
) -> ChaosOutcome {
    let describe = plan.describe();
    let mut net = SimNet::with_adversary(topo, FaultPlan::none(), plan, seed);
    let start = steps
        .saturating_sub(window)
        .max(net.adversary_plan().healed_by());
    net.run(start);
    let since = net.step_count();
    net.run(window);
    let starved: Vec<ProcessId> = net
        .topology()
        .processes()
        .filter(|&p| net.meals_in_window(p, since, net.step_count()) == 0)
        .collect();
    ChaosOutcome {
        violations: net.violation_steps(),
        starved,
        plan: describe,
    }
}

/// The full sweep: per topology family, `plans_per_topo` randomized
/// schedules x `scale.seeds` seeds.
pub fn sweep(scale: &Scale) -> (Table, ChaosTotals) {
    let mut t = Table::new(
        "T9: chaos soak (randomized link-fault schedules, SimNet)",
        [
            "topology",
            "runs",
            "violation steps",
            "starved post-heal",
            "verdict",
        ],
    );
    // 4 families x 10 plans x `seeds` seeds: 200 runs at full scale.
    let plans_per_topo = if scale.seeds >= 5 { 10 } else { 3 };
    let n = scale.sizes[0].max(8);
    let steps = scale.settle + scale.window;
    let mut totals = ChaosTotals::default();
    for (ti, topo) in families(n, 0xC0FFEE).into_iter().enumerate() {
        let mut violations = 0;
        let mut starved = 0;
        let mut runs = 0;
        let mut worst: Option<String> = None;
        for plan_case in 0..plans_per_topo {
            let mut r = rng::rng(rng::subseed(0x9A05, (ti * 1000 + plan_case) as u64));
            let plan = sample_plan(&topo, &mut r, scale.settle);
            for seed in 0..scale.seeds {
                let out = chaos_run(topo.clone(), plan.clone(), seed, steps, scale.window);
                runs += 1;
                violations += out.violations;
                starved += out.starved.len() as u64;
                if (out.violations > 0 || !out.starved.is_empty()) && worst.is_none() {
                    worst = Some(format!("{} (seed {seed}): {:?}", out.plan, out.starved));
                }
            }
        }
        totals.runs += runs;
        totals.violations += violations;
        totals.starved += starved;
        t.row([
            topo.name().to_string(),
            runs.to_string(),
            violations.to_string(),
            starved.to_string(),
            worst.unwrap_or_else(|| "safe + live".into()),
        ]);
    }
    (t, totals)
}

/// The T9 gate: no exclusion violation at any step, and nobody starved
/// once the adversary healed.
pub fn gate(t: &ChaosTotals, _quick: bool) -> Vec<String> {
    failing([
        (t.violations > 0).then(|| format!("{} violation steps", t.violations)),
        (t.starved > 0).then(|| format!("{} starved after healing", t.starved)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_on_violations_and_starvation() {
        let mut totals = ChaosTotals {
            runs: 4,
            ..ChaosTotals::default()
        };
        assert!(gate(&totals, true).is_empty());
        totals.violations = 1;
        totals.starved = 2;
        assert_eq!(gate(&totals, true).len(), 2);
    }

    #[test]
    fn sampled_plans_are_deterministic_and_heal() {
        let topo = Topology::ring(8);
        for case in 0..20 {
            let mut a = rng::rng(rng::subseed(7, case));
            let mut b = rng::rng(rng::subseed(7, case));
            let pa = sample_plan(&topo, &mut a, 8_000);
            let pb = sample_plan(&topo, &mut b, 8_000);
            assert_eq!(pa, pb, "case {case} not deterministic");
            assert!(pa.healed_by() <= 8_000, "case {case} heals too late");
        }
    }

    #[test]
    fn single_chaos_run_is_safe_and_live() {
        let topo = Topology::ring(8);
        let plan = AdversaryPlan::new()
            .loss(150)
            .duplication(150)
            .delay(200, 8)
            .reorder(100)
            .cut_link(ProcessId(0), ProcessId(1), 0, 2_000);
        let out = chaos_run(topo, plan, 3, 40_000, 15_000);
        assert_eq!(out.violations, 0, "chaos broke exclusion ({})", out.plan);
        assert!(out.starved.is_empty(), "starved: {:?}", out.starved);
    }
}
