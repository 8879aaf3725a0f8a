//! The `exp` command: one table of experiment suites, one argument
//! parser and one topology parser shared by every subcommand.
//!
//! `exp <suite> [--quick] [--out PATH]` runs one suite: it prints the
//! suite's tables, writes its BENCH file (if it has one) and applies its
//! gate. `exp all [--quick]` walks the same table; `exp help` lists the
//! suites and the interactive tools ([`crate::tools`]). A quick run
//! writes its BENCH file under `target/bench-quick/` unless `--out` says
//! otherwise, and never replaces a full-run baseline. Exit codes: 1 when
//! a gate fails (every failure is listed), 2 for a malformed command line
//! (the message names the bad token) or a tool error.

use std::path::{Path, PathBuf};
use std::str::FromStr;

use diners_sim::graph::Topology;
use diners_sim::json;
use diners_sim::table::Table;

use crate::experiments::{
    analyze, chaos, codec, cycles, daemons, fig2, fuzz, locality, malicious, masking,
    message_passing, monitor, perf, recovery, stabilization, telemetry, throughput, tracing,
};
use crate::{tools, Scale};

/// A command line checked against the flags its command accepts.
pub(crate) struct Args {
    usage: String,
    names: Vec<String>,
    switches: Vec<String>,
    values: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Args {
    /// Parse the arguments of command `cmd`, which accepts `switches`,
    /// flags taking a value (given as `"--flag METAVAR"`), and the named
    /// positional arguments (`[NAME]` when optional). Errors name the bad
    /// token and end in the usage line.
    pub(crate) fn parse(
        argv: &[String],
        cmd: &str,
        switches: &[&str],
        values: &[&str],
        names: &[&str],
    ) -> Result<Args, String> {
        let mut usage = cmd.to_string();
        for s in switches {
            usage += &format!(" [{s}]");
        }
        for v in values {
            usage += &format!(" [{v}]");
        }
        for n in names {
            usage += &format!(" {n}");
        }
        let mut args = Args {
            usage,
            names: names
                .iter()
                .map(|n| n.trim_matches(['[', ']']).to_string())
                .collect(),
            switches: Vec::new(),
            values: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(tok) = it.next() {
            if switches.contains(&tok.as_str()) {
                args.switches.push(tok.clone());
            } else if values.iter().any(|v| v.split(' ').next() == Some(tok)) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => args.values.push((tok.clone(), v.clone())),
                    _ => return Err(args.error(&format!("{tok} expects a value"))),
                }
            } else if tok.starts_with('-') {
                return Err(args.error(&format!("unknown flag {tok:?}")));
            } else if args.positionals.len() < names.len() {
                args.positionals.push(tok.clone());
            } else {
                return Err(args.error(&format!("unexpected argument {tok:?}")));
            }
        }
        Ok(args)
    }

    /// `msg` followed by the command's usage line.
    pub(crate) fn error(&self, msg: &str) -> String {
        format!("{msg}\nusage: exp {}", self.usage)
    }

    pub(crate) fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// The flag's value (the last one, if repeated).
    pub(crate) fn value(&self, flag: &str) -> Option<&str> {
        let last = self.values.iter().rev().find(|(f, _)| f == flag);
        last.map(|(_, v)| v.as_str())
    }

    pub(crate) fn text(&self, flag: &str, default: &str) -> String {
        self.value(flag).unwrap_or(default).to_string()
    }

    /// The flag's value parsed as a number, or `default` when absent.
    pub(crate) fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.value(flag)
            .map_or(Ok(default), |v| self.convert(flag, v))
    }

    /// The `i`-th positional argument, parsed, if given.
    pub(crate) fn positional<T: FromStr>(&self, i: usize) -> Result<Option<T>, String> {
        let arg = self.positionals.get(i);
        arg.map(|v| self.convert(&self.names[i], v)).transpose()
    }

    /// The `i`-th positional argument, parsed, which must be given.
    pub(crate) fn required<T: FromStr>(&self, i: usize) -> Result<T, String> {
        let missing = || self.error(&format!("missing {}", self.names[i]));
        self.positional(i)?.ok_or_else(missing)
    }

    fn convert<T: FromStr>(&self, what: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| self.error(&format!("{what} expects a number, got {v:?}")))
    }
}

/// Parse `ring:N`, `line:N`, `star:N`, `complete:N`, `tree:N` or
/// `grid:RxC`.
pub(crate) fn parse_topology(spec: &str) -> Result<Topology, String> {
    let bad =
        || format!("bad topology {spec:?} (expected ring|line|star|complete|tree:N or grid:RxC)");
    let (family, size) = spec.split_once(':').ok_or_else(bad)?;
    let n = |s: &str| s.parse::<usize>().map_err(|_| bad());
    Ok(match family {
        "ring" => Topology::ring(n(size)?),
        "line" => Topology::line(n(size)?),
        "star" => Topology::star(n(size)?),
        "complete" => Topology::complete(n(size)?),
        "tree" => Topology::binary_tree(n(size)?),
        "grid" => {
            let (r, c) = size.split_once('x').ok_or_else(bad)?;
            Topology::grid(n(r)?, n(c)?)
        }
        _ => return Err(bad()),
    })
}

/// What one suite run produced: blocks for stdout, in order; the BENCH
/// document, for suites that write one; the gate's failures.
#[derive(Default)]
struct Outcome {
    print: Vec<String>,
    json: Option<String>,
    failures: Vec<String>,
}

/// Result tables, a BENCH document and gate failures.
fn report(tables: &[&Table], json: String, failures: Vec<String>) -> Result<Outcome, String> {
    let print = tables.iter().map(|t| t.to_string()).collect();
    Ok(Outcome {
        print,
        json: Some(json),
        failures,
    })
}

/// What a suite's run function sees: the parsed flags, the scale, and
/// where its BENCH file goes.
struct Ctx<'a> {
    args: &'a Args,
    quick: bool,
    scale: Scale,
    out: Option<PathBuf>,
}

/// How a suite runs: a paper-claim table printed with its CSV form and
/// ungated, or a function that renders tables, a BENCH document and the
/// gate's failures.
enum Run {
    Claim(fn(&Scale) -> Table),
    Report(fn(&Ctx<'_>) -> Result<Outcome, String>),
}

/// One experiment suite: its name, the BENCH file a full run writes in
/// the working directory, value flags beyond `--out`, and how it runs.
struct Suite {
    name: &'static str,
    bench: Option<&'static str>,
    flags: &'static [&'static str],
    run: Run,
}

impl Suite {
    const fn claim(name: &'static str, run: fn(&Scale) -> Table) -> Suite {
        Suite {
            name,
            bench: None,
            flags: &[],
            run: Run::Claim(run),
        }
    }

    const fn report(
        name: &'static str,
        bench: Option<&'static str>,
        run: fn(&Ctx<'_>) -> Result<Outcome, String>,
    ) -> Suite {
        Suite {
            name,
            bench,
            flags: &[],
            run: Run::Report(run),
        }
    }

    const fn flags(self, flags: &'static [&'static str]) -> Suite {
        Suite { flags, ..self }
    }
}

/// Every suite, in the order `exp all` runs them.
const SUITES: &[Suite] = &[
    Suite::report("fig2", None, |c| {
        let (r, table) = fig2::run();
        let mut narrative = "replayed computation:".to_string();
        for line in &r.narrative {
            narrative += &format!("\n  {line}");
        }
        let mut print = vec![table.to_string(), narrative];
        if r.all_reproduced() {
            print.push("\nFIG2: all properties reproduced.".to_string());
        }
        let failures = fig2::gate(&r, c.quick);
        Ok(Outcome {
            print,
            json: None,
            failures,
        })
    }),
    Suite::report("stabilization", None, |c| {
        let (t, d) = (
            stabilization::run(&c.scale),
            stabilization::run_dense(&c.scale),
        );
        let print = vec![t.to_string(), d.to_string(), t.to_csv(), d.to_csv()];
        Ok(Outcome {
            print,
            ..Outcome::default()
        })
    }),
    Suite::claim("locality", locality::run),
    Suite::claim("malicious", malicious::run),
    Suite::claim("cycles", cycles::run),
    Suite::claim("throughput", throughput::run),
    Suite::claim("masking", masking::run),
    Suite::claim("message-passing", message_passing::run),
    Suite::claim("daemons", daemons::run),
    Suite::report("chaos", None, |c| {
        let (t, totals) = chaos::sweep(&c.scale);
        let summary = format!(
            "chaos: {} runs, {} violation steps, {} starved post-heal",
            totals.runs, totals.violations, totals.starved
        );
        let print = vec![t.to_string(), t.to_csv(), summary];
        Ok(Outcome {
            print,
            json: None,
            failures: chaos::gate(&totals, c.quick),
        })
    }),
    Suite::report("perf", Some("BENCH_engine.json"), |c| {
        // Read the baseline first: it may be the file --out replaces.
        let baseline = c
            .args
            .value("--check")
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("read baseline {p}: {e}")));
        let baseline = baseline.transpose()?;
        let r = perf::run(c.quick);
        let check = baseline.map(|b| perf::check_against_baseline(&r.json, &b, 0.25));
        let mut tables = vec![&r.engine, &r.explore];
        if let Some(Ok(check)) = &check {
            tables.push(&check.table);
        }
        report(
            &tables,
            r.json.clone(),
            check.as_ref().map_or(Vec::new(), perf::gate),
        )
    })
    .flags(&["--check PATH"]),
    Suite::report("codec", Some("BENCH_codec.json"), |c| {
        let r = codec::run(c.quick);
        report(&[&r.repr, &r.symmetry], r.json, Vec::new())
    }),
    Suite::report("telemetry", Some("BENCH_telemetry.json"), |c| {
        let r = telemetry::run(c.quick);
        let failures = telemetry::gate(&r, c.quick);
        let tables = [
            &r.convergence,
            &r.disturbance,
            &r.network,
            &r.explorer,
            &r.overhead,
        ];
        report(&tables, r.json, failures)
    }),
    Suite::report("recovery", Some("BENCH_recovery.json"), |c| {
        let r = recovery::run_report(&c.scale, c.quick);
        let failures = recovery::gate(&r, c.quick);
        report(&[&r.incidents, &r.supervised, &r.budget], r.json, failures)
    }),
    Suite::report("fuzz", Some("BENCH_liveness.json"), |c| {
        let r = fuzz::run(c.quick);
        // Shrunk recordings go next to the BENCH file unless --dump
        // names another directory.
        let dump = match c.args.value("--dump") {
            Some(dir) => PathBuf::from(dir),
            None => c
                .out
                .as_deref()
                .and_then(Path::parent)
                .unwrap_or(Path::new(""))
                .into(),
        };
        let mut out = report(&[&r.throughput, &r.campaign], r.json, Vec::new())?;
        for a in &r.artifacts {
            let path = dump.join(format!("{}.jsonl", a.label));
            json::write(&path, &a.jsonl)?;
            let (faults, moves, n) = a.size;
            out.print.push(format!(
                "wrote {} ({faults} fault events, {moves} moves, {n} processes, digest {:#x})",
                path.display(),
                a.digest
            ));
        }
        Ok(out)
    })
    .flags(&["--dump DIR"]),
    Suite::report("trace", Some("BENCH_trace.json"), |c| {
        let r = tracing::run(c.quick);
        let failures = tracing::gate(&r, c.quick);
        report(&[&r.replay, &r.blame, &r.overhead], r.json, failures)
    }),
    Suite::report("analyze", Some("BENCH_analysis.json"), |c| {
        let r = analyze::run(c.quick);
        let failures = analyze::gate(&r, c.quick);
        report(
            &[&r.contracts, &r.footprints, &r.refutations],
            r.json,
            failures,
        )
    }),
    Suite::report("monitor", Some("BENCH_monitor.json"), |c| {
        let r = monitor::run(c.quick);
        let failures = monitor::gate(&r, c.quick);
        report(&[&r.detection, &r.fp, &r.overhead], r.json, failures)
    }),
];

impl Suite {
    /// Parse the suite's flags, run it, print, write the BENCH file and
    /// return the gate failures.
    fn execute(&self, argv: &[String]) -> Result<Vec<String>, String> {
        let out_flag: &[&str] = if self.bench.is_some() {
            &["--out PATH"]
        } else {
            &[]
        };
        let values = [out_flag, self.flags].concat();
        let args = Args::parse(argv, self.name, &["--quick"], &values, &[])?;
        let quick = args.has("--quick");
        let out = self.bench.map(|file| match args.value("--out") {
            Some(path) => PathBuf::from(path),
            None if quick => Path::new("target/bench-quick").join(file),
            None => PathBuf::from(file),
        });
        let scale = if quick { Scale::quick() } else { Scale::full() };
        let ctx = Ctx {
            args: &args,
            quick,
            scale,
            out,
        };
        let mut outcome = match self.run {
            Run::Claim(run) => {
                let t = run(&ctx.scale);
                Outcome {
                    print: vec![t.to_string(), t.to_csv()],
                    ..Outcome::default()
                }
            }
            Run::Report(run) => run(&ctx)?,
        };
        for block in &outcome.print {
            println!("{block}");
        }
        if let (Some(path), Some(doc)) = (&ctx.out, &outcome.json) {
            match json::write(path, doc) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => outcome.failures.push(e),
            }
        }
        Ok(outcome.failures)
    }
}

/// The one-line usage shown when no suite or tool matches.
const USAGE: &str = "usage: exp <suite> [--quick] [--out PATH] | exp all [--quick] | exp help";

/// Run one `exp` command line (the arguments after the program name)
/// and return the process exit code.
pub fn main(argv: &[String]) -> i32 {
    match dispatch(argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("exp: {msg}");
            2
        }
    }
}

fn dispatch(argv: &[String]) -> Result<i32, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(format!("missing command\n{USAGE}"));
    };
    if let Some(outcome) = tools::run(cmd, rest) {
        return outcome;
    }
    let suite = SUITES.iter().find(|s| s.name == cmd);
    let failures = match (cmd.as_str(), suite) {
        ("help" | "--help" | "-h", _) => {
            println!("{USAGE}\n\nsuites (BENCH file of a full run):");
            for s in SUITES {
                println!("  {:<16}{}", s.name, s.bench.unwrap_or("-"));
            }
            print!("\ntools:\n{}", tools::HELP);
            return Ok(0);
        }
        ("all", _) => {
            Args::parse(rest, "all", &["--quick"], &[], &[])?;
            let mut failures = Vec::new();
            for s in SUITES {
                match s.execute(rest) {
                    Ok(f) => failures.extend(f.into_iter().map(|f| format!("{}: {f}", s.name))),
                    Err(e) => failures.push(format!("{}: {e}", s.name)),
                }
            }
            failures
        }
        // `trace bench` and `monitor bench` name the suite itself.
        ("trace" | "monitor", Some(s)) if rest.first().is_some_and(|a| a == "bench") => {
            s.execute(&rest[1..])?
        }
        (_, Some(s)) => s.execute(rest)?,
        (name, None) => return Err(format!("unknown suite or command {name:?}\n{USAGE}")),
    };
    if failures.is_empty() {
        return Ok(0);
    }
    eprintln!("exp {cmd}: {} failure(s):", failures.len());
    for f in &failures {
        eprintln!("  - {f}");
    }
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_values_and_positionals_parse() {
        let (switches, values) = (["--quick"], ["--out PATH"]);
        let args = Args::parse(
            &argv("--quick f --out x"),
            "t",
            &switches,
            &values,
            &["FILE"],
        );
        let args = args.unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.value("--out"), Some("x"));
        assert_eq!(args.required::<String>(0).unwrap(), "f");
        assert_eq!(args.usage, "t [--quick] [--out PATH] FILE");
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = dispatch(&argv("chaos --qiuck")).unwrap_err();
        assert!(err.contains("unknown flag \"--qiuck\""), "{err}");
        assert!(err.contains("usage: exp chaos [--quick]"), "{err}");
        // --out belongs to suites with a BENCH file only.
        let err = dispatch(&argv("chaos --out x.json")).unwrap_err();
        assert!(err.contains("unknown flag \"--out\""), "{err}");
        let err = dispatch(&argv("all --out x.json")).unwrap_err();
        assert!(err.contains("unknown flag \"--out\""), "{err}");
    }

    #[test]
    fn missing_values_are_rejected() {
        for line in ["codec --quick --out", "codec --out --quick", "perf --check"] {
            let err = dispatch(&argv(line)).unwrap_err();
            assert!(err.contains("expects a value"), "{line}: {err}");
        }
        let err = dispatch(&argv("trace seek run.jsonl")).unwrap_err();
        assert!(err.starts_with("missing STEP"), "{err}");
    }

    #[test]
    fn non_numeric_values_are_rejected() {
        // A span id that is not a number fails before the file is read.
        let err = dispatch(&argv("trace blame missing.jsonl x")).unwrap_err();
        assert!(err.contains("SPAN expects a number, got \"x\""), "{err}");
        let err = dispatch(&argv("run --steps lots")).unwrap_err();
        assert!(
            err.contains("--steps expects a number, got \"lots\""),
            "{err}"
        );
        let err = dispatch(&argv("monitor --watch --chunks 1e3")).unwrap_err();
        assert!(err.contains("\"1e3\""), "{err}");
    }

    #[test]
    fn unknown_suites_and_extra_arguments_are_rejected() {
        let err = dispatch(&argv("no-such-suite --quick")).unwrap_err();
        assert!(err.contains("\"no-such-suite\""), "{err}");
        assert!(dispatch(&[]).is_err());
        let err = dispatch(&argv("fig2 extra")).unwrap_err();
        assert!(err.contains("unexpected argument \"extra\""), "{err}");
    }

    #[test]
    fn topologies_parse_every_family() {
        let cases = [
            ("ring:8", 8),
            ("line:5", 5),
            ("star:6", 6),
            ("complete:4", 4),
        ];
        for (spec, n) in cases.into_iter().chain([("tree:7", 7), ("grid:3x4", 12)]) {
            assert_eq!(parse_topology(spec).unwrap().len(), n, "{spec}");
        }
        for bad in ["ring", "ring:x", "grid:3", "grid:3xy", "torus:4"] {
            assert!(parse_topology(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn suite_names_are_unique_and_clash_with_no_command() {
        for (i, s) in SUITES.iter().enumerate() {
            assert!(
                SUITES[i + 1..].iter().all(|t| t.name != s.name),
                "{}",
                s.name
            );
            assert!(!matches!(
                s.name,
                "all" | "help" | "run" | "stabilize" | "radius"
            ));
        }
    }
}
