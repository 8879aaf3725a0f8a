//! FIG2 — exact reproduction of the paper's Figure 2 computation.

use diners_core::figures::{run_figure2, Figure2Report};
use diners_sim::table::Table;

use crate::common::failing;

/// Replay Figure 2 and tabulate each depicted property against what our
/// implementation did.
pub fn run() -> (Figure2Report, Table) {
    let report = run_figure2();
    let mut t = Table::new(
        "FIG2: dining with a malicious crash (7 processes, D = 3)",
        ["property (paper)", "reproduced"],
    );
    let yn = |b: bool| if b { "yes" } else { "NO" };
    t.row([
        "a crashed while eating; b stays blocked hungry",
        yn(report.b_still_hungry),
    ]);
    t.row(["c stays blocked thinking", yn(report.c_still_thinking)]);
    t.row([
        "d executes leave (dynamic threshold, distance 2)",
        yn(report.d_yielded),
    ]);
    t.row([
        "fixdepth pumps depth:g past D (cycle detected)",
        yn(report.g_detected_cycle),
    ]);
    t.row(["g exits, breaking the cycle; e eats", yn(report.e_eats)]);
    t.row(["red set is exactly {a,b,c,d}", yn(report.red_set_is_abcd)]);
    t.row([
        "crash effect contained within distance 2".to_string(),
        format!(
            "radius = {}",
            report
                .affected_radius
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into())
        ),
    ]);
    (report, t)
}

/// The FIG2 gate: every depicted property must be reproduced.
pub fn gate(report: &Figure2Report, _quick: bool) -> Vec<String> {
    failing([(!report.all_reproduced()).then(|| "FIG2: MISMATCH — see table above".into())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_on_an_unreproduced_property() {
        let (mut report, _) = run();
        assert!(gate(&report, false).is_empty());
        report.affected_radius = Some(3);
        assert_eq!(gate(&report, false).len(), 1);
    }
    #[test]
    fn figure_2_fully_reproduces() {
        let (report, table) = run();
        assert!(report.all_reproduced(), "{}", table.render());
        assert!(!table.render().contains("NO"));
    }
}
