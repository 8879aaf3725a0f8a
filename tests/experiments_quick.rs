//! Integration: the entire experiment suite runs end-to-end at quick
//! scale and produces well-formed tables (this is the same code path as
//! the `exp` command used to regenerate EXPERIMENTS.md).

use diners_bench::experiments;
use diners_bench::Scale;

fn tiny() -> Scale {
    Scale {
        seeds: 1,
        horizon: 60_000,
        settle: 4_000,
        window: 10_000,
        sizes: &[8],
    }
}

#[test]
fn fig2_table() {
    let (report, table) = experiments::fig2::run();
    assert!(report.all_reproduced());
    assert!(table.render().contains("radius = 2"));
}

#[test]
fn t1_stabilization_tables() {
    let t = experiments::stabilization::run(&tiny());
    assert_eq!(t.len(), 4, "four topology families at one size");
    let dense = experiments::stabilization::run_dense(&tiny());
    let csv = dense.to_csv();
    // The paper bound never stabilizes on the complete graph.
    assert!(csv.contains("complete(n=6),1,0/1"), "csv:\n{csv}");
}

#[test]
fn t2_locality_table() {
    let t = experiments::locality::run(&tiny());
    assert_eq!(t.len(), 1);
    let csv = t.to_csv();
    // First data row: n=8, paper radii <= 2, no-threshold radius ~n-1.
    let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
    let paper: u32 = row[1].parse().unwrap();
    let analytic: u32 = row[2].parse().unwrap();
    let ablation: u32 = row[3].parse().unwrap();
    assert!(paper <= 2, "paper radius {paper}");
    assert!(analytic <= 2, "analytic radius {analytic}");
    assert!(ablation >= 6, "ablation radius {ablation}");
}

#[test]
fn t3_malicious_table() {
    let t = experiments::malicious::run(&tiny());
    let csv = t.to_csv();
    for line in csv.lines().skip(1) {
        assert!(
            line.ends_with(",yes"),
            "an MCA configuration failed: {line}"
        );
    }
}

#[test]
fn t4_cycles_table() {
    let t = experiments::cycles::run(&tiny());
    let csv = t.to_csv();
    let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
    assert_ne!(row[2], "-", "cycle must be broken (median)");
    assert_eq!(row[6], "0/1", "the wave daemon must preserve the cycle");
    assert_eq!(row[7], "0", "no meals under the wave daemon");
}

#[test]
fn t5_throughput_table() {
    let t = experiments::throughput::run(&tiny());
    // 6 algorithms x 4 topologies.
    assert_eq!(t.len(), 24);
    for line in t.to_csv().lines().skip(1) {
        assert!(line.ends_with(",0"), "violations column must be 0: {line}");
    }
}

#[test]
fn t6_masking_table() {
    let t = experiments::masking::run(&tiny());
    assert!(t.len() >= 3, "at least distances 1..=3 present");
}

#[test]
fn t7_message_passing_table() {
    let t = experiments::message_passing::run(&tiny());
    let csv = t.to_csv();
    assert!(csv.contains("legitimate start"));
    assert!(csv.contains("thread runtime"));
    // Legitimate starts never violate exclusion.
    for line in csv.lines().filter(|l| l.starts_with("legitimate start")) {
        assert!(line.ends_with(",none"), "{line}");
    }
}

#[test]
fn t9_chaos_table() {
    // The dense random family needs post-outage runway and a full-length
    // measurement window under heavy noise: service still happens, just
    // stretched.
    let scale = Scale {
        settle: 10_000,
        window: 20_000,
        ..tiny()
    };
    let (t, totals) = experiments::chaos::sweep(&scale);
    assert_eq!(t.len(), 4, "four topology families");
    assert!(totals.runs >= 12, "too few chaos runs: {}", totals.runs);
    assert!(totals.clean(), "chaos sweep failed:\n{}", t.render());
}
