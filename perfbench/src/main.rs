//! Command line of the repository benchmark:
//!
//! ```text
//! perfbench --workload <engine-ring|check-mca|simnet-grid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, a detail line (digest, workload-specific
//! figures, failed checks) and, last, the result object.

use std::path::Path;
use std::process::ExitCode;

use diners_perfbench::{run, workload, Metric, Scale, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, read from `.git` beside the benchmark
/// (no `.git`, as in an exported tree, reads `unknown`).
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload, args.seed, Scale::Full) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {WORKLOADS:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\": {{\"commit\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"profile\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&commit()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let out = run(w.as_ref(), args.seconds as f64, args.trace, 3);
    for f in &out.checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if let Some(m) = out
        .metrics
        .iter()
        .chain(&out.details)
        .find(|m| !m.value.is_finite())
    {
        eprintln!("perfbench: metric {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    let failed = out.checks.failures.len() as u64;
    let attempted = out.checks.attempted;
    println!(
        "{{\"digest\": {}, \"batches\": {}, \"failed_share\": {}, \"details\": {}}}",
        json_str(&out.digest.hex()),
        out.batches,
        failed as f64 / attempted.max(1) as f64,
        json_metrics(&out.details),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&out.metrics),
    );
    ExitCode::SUCCESS
}
