//! The interactive `exp` tools: flight-recording and causal-trace
//! commands (`exp trace ...`), the live monitor view (`exp monitor
//! --watch`) and the single-run laboratory (`exp run`, `exp stabilize`,
//! `exp radius`). Each returns its exit code, or an error message that
//! `exp` prints before exiting 2.

use diners_core::harness::stabilization_steps;
use diners_core::locality::measure_window;
use diners_core::redgreen::Colors;
use diners_core::{MaliciousCrashDiners, Variant};
use diners_mp::{AdversaryPlan, MonitorSetup, SimNet};
use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::engine::{Engine, EnumerationMode};
use diners_sim::fault::FaultPlan;
use diners_sim::graph::Topology;
use diners_sim::record::{state_digest, Recording, Replayer};
use diners_sim::scheduler::RandomScheduler;
use diners_sim::telemetry::Telemetry;
use diners_sim::toy::ToyDiners;
use diners_sim::tracing::{CausalTracer, Span, SpanId, SpanKind};
use diners_sim::workload::AlwaysHungry;
use diners_sim::{Algorithm, MetricsServer, Phase, SystemState};

use crate::cli::{parse_topology, Args};

/// The tools section of `exp help`.
pub(crate) const HELP: &str =
    "  trace record [--algo ALGO] [--topo TOPO] [--plan PLAN] [--steps N] [--seed S] [--out PATH]
  trace verify FILE | trace seek FILE STEP | trace blame FILE [SPAN]
  trace export [--chrome PATH] [--prom PATH] FILE
  trace --verify [--out PATH]   record a fresh chaos run, re-read it and verify the replay
  monitor --watch [--quick] [--chunks N] [--serve ADDR]
  run [--corrected] [--no-threshold] [--topo TOPO] [--steps N] [--seed S] [--crash PID@STEP:K]
  stabilize [--corrected] [--no-threshold] [--topo TOPO] [--steps N] [--seed S]
  radius [--corrected] [--no-threshold] [--n N] [--steps N] [--seed S]
where ALGO is toy|mca-paper|mca-corrected, PLAN is none|crash|malicious|chaos|arbitrary,
and TOPO is ring|line|star|complete|tree:N or grid:RxC.
";

type Outcome = Result<i32, String>;

/// Run `exp <cmd> <argv>` if it names a tool; `None` leaves it to the
/// suites (`exp trace` and `exp monitor` alone run the T12 and T16
/// suites).
pub(crate) fn run(cmd: &str, argv: &[String]) -> Option<Outcome> {
    let has = |flag: &str| argv.iter().any(|a| a == flag);
    let first = argv.first().map(String::as_str).unwrap_or("");
    Some(match cmd {
        "trace" if has("--verify") => smoke(argv),
        "trace" if matches!(first, "record" | "verify" | "seek" | "blame" | "export") => {
            trace(first, &argv[1..])
        }
        "monitor" if has("--watch") || has("--serve") => watch(argv),
        "run" | "stabilize" | "radius" => lab(cmd, argv),
        _ => return None,
    })
}

/// Fault plans by name, scaled to the horizon so everything fires.
fn parse_plan(name: &str, steps: u64) -> Result<FaultPlan, String> {
    Ok(match name {
        "none" => FaultPlan::none(),
        "crash" => FaultPlan::new().crash(steps / 8, 1),
        "malicious" => FaultPlan::new().malicious_crash(steps / 10, 2, 8),
        "chaos" => FaultPlan::new()
            .initially_dead(0)
            .malicious_crash(steps / 12, 3, 4)
            .transient_local(steps / 6, 2)
            .transient_global(steps / 4)
            .crash(steps / 3, 1),
        "arbitrary" => FaultPlan::new().from_arbitrary_state(),
        other => {
            return Err(format!(
                "unknown plan {other:?} (expected none|crash|malicious|chaos|arbitrary)"
            ))
        }
    })
}

fn load(path: &str) -> Result<Recording, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rec = Recording::parse(&text).map_err(|e| format!("{path} is not a recording: {e}"))?;
    if rec.workload != "always-hungry" {
        return Err(format!(
            "recording used workload {:?}; this tool only replays always-hungry",
            rec.workload
        ));
    }
    Ok(rec)
}

/// Resolve an algorithm label (as stored in a recording header) to a
/// concrete algorithm value and run `$body` with it.
macro_rules! with_algorithm {
    ($label:expr, $alg:ident => $body:block) => {
        match $label {
            "toy" => {
                let $alg = ToyDiners;
                $body
            }
            "mca-paper" => {
                let $alg = MaliciousCrashDiners::paper();
                $body
            }
            "mca-corrected" => {
                let $alg = MaliciousCrashDiners::corrected();
                $body
            }
            other => {
                return Err(format!(
                    "unknown algorithm label {other:?} (expected toy|mca-paper|mca-corrected)"
                ))
            }
        }
    };
}

/// `exp trace --verify`: record a fresh chaos run, re-read it from disk
/// and verify its replay.
fn smoke(argv: &[String]) -> Outcome {
    let args = Args::parse(argv, "trace", &["--verify"], &["--out PATH"], &[])?;
    let out = args.text("--out", "sample_recording.jsonl");
    record(&["--plan", "chaos", "--out", &out].map(String::from))?;
    verify(&out)
}

/// `exp trace record|verify|seek|blame|export ...`.
fn trace(cmd: &str, rest: &[String]) -> Outcome {
    let name = format!("trace {cmd}");
    let parse = |values: &[&str], names: &[&str]| Args::parse(rest, &name, &[], values, names);
    match cmd {
        "record" => record(rest),
        "verify" => verify(&parse(&[], &["FILE"])?.required::<String>(0)?),
        "seek" => {
            let args = parse(&[], &["FILE", "STEP"])?;
            seek(&args.required::<String>(0)?, args.required(1)?)
        }
        "blame" => {
            let args = parse(&[], &["FILE", "[SPAN]"])?;
            blame(&args.required::<String>(0)?, args.positional(1)?)
        }
        _ => {
            let args = parse(&["--chrome PATH", "--prom PATH"], &["FILE"])?;
            let (chrome, prom) = (
                args.text("--chrome", "trace_chrome.json"),
                args.text("--prom", "metrics.prom"),
            );
            export(&args.required::<String>(0)?, &chrome, &prom)
        }
    }
}

fn record(argv: &[String]) -> Outcome {
    let values = [
        "--algo ALGO",
        "--topo TOPO",
        "--plan PLAN",
        "--steps N",
        "--seed S",
        "--out PATH",
    ];
    let args = Args::parse(argv, "trace record", &[], &values, &[])?;
    let label = args.text("--algo", "mca-corrected");
    let topo = parse_topology(&args.text("--topo", "ring:8"))?;
    let steps = args.num("--steps", 4_000u64)?;
    let seed = args.num("--seed", 42u64)?;
    let plan = parse_plan(&args.text("--plan", "chaos"), steps)?;
    let out = args.text("--out", "recording.jsonl");
    with_algorithm!(label.as_str(), alg => {
        let mut e = Engine::builder(alg, topo.clone())
            .workload(AlwaysHungry)
            .scheduler(RandomScheduler::new(seed))
            .faults(plan)
            .seed(seed)
            .enumeration(EnumerationMode::Incremental)
            .record_trace(true)
            .flight_recorder(&label)
            .build();
        e.run(steps);
        let rec = e.recording().expect("recorder attached");
        std::fs::write(&out, rec.to_jsonl()).map_err(|e| format!("write {out}: {e}"))?;
        println!(
            "recorded {} steps of {} on {} (seed {}) -> {out}",
            rec.steps, label, topo.name(), seed
        );
        println!(
            "  {} decisions, {} faults, {} checkpoints, final digest {:#018x}",
            rec.decisions.len(),
            rec.fault_log.len(),
            rec.checkpoints.len(),
            rec.checkpoints.last().map(|c| c.digest).unwrap_or(0),
        );
    });
    Ok(0)
}

fn verify(path: &str) -> Outcome {
    let rec = load(path)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if rec.to_jsonl() != text {
        return Err(format!(
            "{path}: re-serialization drifted from the bytes on disk"
        ));
    }
    with_algorithm!(rec.algorithm.as_str(), alg => {
        let (engine, verified) = Replayer::run(&rec, alg, AlwaysHungry)
            .map_err(|e| format!("{path}: replay diverged: {e}"))?;
        println!(
            "replay OK: {} steps on {}, {} checkpoints verified, final digest {:#018x}",
            engine.step_count(),
            rec.topology_name,
            verified,
            state_digest(engine.state(), engine.health()),
        );
    });
    Ok(0)
}

fn seek(path: &str, step: u64) -> Outcome {
    let rec = load(path)?;
    if step > rec.steps {
        return Err(format!(
            "recording has {} steps, cannot seek to {step}",
            rec.steps
        ));
    }
    with_algorithm!(rec.algorithm.as_str(), alg => {
        let (builder, mut replayer) = Replayer::builder(&rec, alg, AlwaysHungry);
        let mut engine = builder.build();
        replayer
            .advance(&mut engine, step)
            .map_err(|e| format!("{path}: replay diverged: {e}"))?;
        println!(
            "state at step {} of {} ({}), digest {:#018x}:",
            engine.step_count(),
            rec.steps,
            rec.topology_name,
            state_digest(engine.state(), engine.health()),
        );
        for p in engine.topology().processes() {
            println!(
                "  {p}: {:?} {:?} local={:?}",
                engine.health()[p.index()],
                alg.phase(engine.state().local(p)),
                engine.state().local(p),
            );
        }
    });
    Ok(0)
}

fn span_label(s: &Span) -> String {
    match s.kind {
        SpanKind::Action { name, slot: None } => name.to_string(),
        SpanKind::Action {
            name,
            slot: Some(q),
        } => format!("{name}[{q}]"),
        SpanKind::Malicious => "malicious-step".to_string(),
        SpanKind::Fault(k) => format!("fault:{k}"),
    }
}

/// Default blame query: the most recent span with a fault ancestor
/// within the locality budget, else the most recent span outright.
fn default_span(tracer: &CausalTracer) -> Option<SpanId> {
    tracer
        .spans()
        .iter()
        .rev()
        .find(|s| !s.kind.is_fault() && tracer.blame_within(s.id, 2).is_some())
        .map(|s| s.id)
        .or_else(|| tracer.spans().last().map(|s| s.id))
}

fn blame(path: &str, span: Option<u32>) -> Outcome {
    let rec = load(path)?;
    with_algorithm!(rec.algorithm.as_str(), alg => {
        let (builder, mut replayer) = Replayer::builder(&rec, alg, AlwaysHungry);
        let mut engine = builder.causal_tracing(true).build();
        replayer
            .advance(&mut engine, rec.steps)
            .map_err(|e| format!("{path}: replay diverged: {e}"))?;
        let tracer = engine.take_tracer().expect("tracing enabled");
        let id = match span {
            Some(raw) => {
                if raw as usize >= tracer.spans().len() {
                    return Err(format!("span {raw} out of range (trace has {} spans)", tracer.spans().len()));
                }
                SpanId(raw)
            }
            None => default_span(&tracer).ok_or("trace is empty — nothing to blame")?,
        };
        let s = tracer.span(id);
        println!("span {}: {} by {} at step {}", id.0, span_label(s), s.pid, s.step);
        match tracer.blame_within(id, 2) {
            Some(chain) => {
                let root = tracer.span(chain.root());
                println!(
                    "  caused by {} of {} at step {}, {} hop{} away",
                    span_label(root),
                    root.pid,
                    root.step,
                    chain.hops(),
                    if chain.hops() == 1 { "" } else { "s" },
                );
                for (i, &hop) in chain.path.iter().enumerate() {
                    let h = tracer.span(hop);
                    println!(
                        "  {} [{}] {} {} @ step {}",
                        if i == 0 { "chain:" } else { "    <-" },
                        hop.0,
                        span_label(h),
                        h.pid,
                        h.step,
                    );
                }
            }
            None => match tracer.blame(id) {
                Some(chain) => {
                    let root = tracer.span(chain.root());
                    println!(
                        "  no fault within the 2-hop locality budget; nearest is {} of {} at step {}, {} hops away",
                        span_label(root), root.pid, root.step, chain.hops(),
                    );
                }
                None => println!("  no fault ancestor: this span is causally independent of every fault"),
            },
        }
    });
    Ok(0)
}

fn export(path: &str, chrome: &str, prom: &str) -> Outcome {
    let rec = load(path)?;
    with_algorithm!(rec.algorithm.as_str(), alg => {
        let (builder, mut replayer) = Replayer::builder(&rec, alg, AlwaysHungry);
        let mut engine = builder
            .causal_tracing(true)
            .telemetry(Telemetry::new())
            .build();
        replayer
            .advance(&mut engine, rec.steps)
            .map_err(|e| format!("{path}: replay diverged: {e}"))?;
        let tracer = engine.take_tracer().expect("tracing enabled");
        std::fs::write(chrome, tracer.to_chrome_trace())
            .map_err(|e| format!("write {chrome}: {e}"))?;
        println!("wrote {chrome} ({} spans)", tracer.spans().len());
        let registry = engine.telemetry().expect("telemetry attached").registry();
        std::fs::write(prom, registry.to_prometheus()).map_err(|e| format!("write {prom}: {e}"))?;
        println!("wrote {prom}");
    });
    Ok(0)
}

/// A ring(16) under the kitchen-sink link adversary with a malicious
/// crash, a benign crash and a rebirth scheduled — enough going on that
/// the status table shows epochs aborting and membership changing.
fn watch_net(seed: u64) -> SimNet {
    let mut net = SimNet::with_adversary(
        Topology::ring(16),
        FaultPlan::new()
            .malicious_crash(3_000, 3, 6)
            .crash(6_000, 9)
            .restart_fresh(12_000, 9),
        AdversaryPlan::new()
            .loss(150)
            .duplication(150)
            .delay(150, 4)
            .reorder(150),
        seed,
    );
    net.enable_monitor(MonitorSetup {
        epoch_every: 200,
        slo_wait: 5_000,
        ..MonitorSetup::default()
    });
    net
}

/// `exp monitor --watch`: step a monitored ring and print a status line
/// per chunk, optionally serving the metrics as Prometheus text.
pub(crate) fn watch(argv: &[String]) -> Outcome {
    let (switches, values) = (["--watch", "--quick"], ["--chunks N", "--serve ADDR"]);
    let args = Args::parse(argv, "monitor", &switches, &values, &[])?;
    let chunks: u64 = args.num("--chunks", if args.has("--quick") { 5 } else { 20 })?;
    let chunk_steps = 500u64;
    let server = match args.value("--serve") {
        Some(addr) => {
            let s = MetricsServer::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            println!("serving metrics at http://{}/metrics", s.addr());
            Some(s)
        }
        None => None,
    };

    let mut net = watch_net(11);
    println!(
        "watching monitored ring(16) under the kitchen-sink adversary \
         ({chunks} chunks × {chunk_steps} steps)\n"
    );
    println!(
        "{:>8}  {:>6}  {:>5}  {:>6}  {:>5}  {:>5}  {:>4}  {:>8}  {:>8}",
        "step", "epoch", "cuts", "aborts", "hard", "soft", "dead", "wait p50", "wait p99"
    );
    for _ in 0..chunks {
        net.run(chunk_steps);
        let mon = net.monitor().expect("monitor attached");
        let waits = mon.cluster_waits();
        let q = |p: f64| waits.quantile(p).map_or("-".into(), |v| v.to_string());
        println!(
            "{:>8}  {:>6}  {:>5}  {:>6}  {:>5}  {:>5}  {:>4}  {:>8}  {:>8}",
            net.step_count(),
            net.snapshot_epoch(),
            mon.cuts(),
            mon.aborts(),
            mon.hard_alerts(),
            mon.alerts().len() as u64 - mon.hard_alerts(),
            net.dead_processes().len(),
            q(0.5),
            q(0.99),
        );
        if let Some(s) = &server {
            s.publish(mon.registry());
        }
    }
    let mon = net.monitor().expect("monitor attached");
    println!(
        "\nfinal: {} cuts, {} aborts, alerts:",
        mon.cuts(),
        mon.aborts()
    );
    if mon.alerts().is_empty() {
        println!("  (none)");
    }
    for a in mon.alerts() {
        println!(
            "  step {:>6} epoch {:>4} {}: {:?}",
            a.step, a.epoch, a.pid, a.kind
        );
    }
    if let Some(s) = server {
        s.shutdown();
    }
    Ok(0)
}

/// `pid@step:k`: a malicious crash of `pid` at `step` taking `k`
/// arbitrary steps.
fn parse_crash(spec: &str) -> Option<(usize, u64, u32)> {
    let (pid, rest) = spec.split_once('@')?;
    let (step, k) = rest.split_once(':')?;
    Some((pid.parse().ok()?, step.parse().ok()?, k.parse().ok()?))
}

/// `exp run`, `exp stabilize` and `exp radius`.
fn lab(cmd: &str, argv: &[String]) -> Outcome {
    let values: &[&str] = match cmd {
        "run" => &["--topo TOPO", "--steps N", "--seed S", "--crash PID@STEP:K"],
        "stabilize" => &["--topo TOPO", "--steps N", "--seed S"],
        _ => &["--n N", "--steps N", "--seed S"],
    };
    let args = Args::parse(argv, cmd, &["--corrected", "--no-threshold"], values, &[])?;
    let (steps, seed) = (args.num("--steps", 50_000u64)?, args.num("--seed", 42u64)?);
    let mut variant = if args.has("--corrected") {
        Variant::corrected()
    } else {
        Variant::paper()
    };
    variant.dynamic_threshold = !args.has("--no-threshold");
    let alg = MaliciousCrashDiners::with_variant(variant);
    if cmd == "radius" {
        return radius(alg, args.num("--n", 16usize)?, steps, seed);
    }
    let topo = parse_topology(&args.text("--topo", "ring:16"))?;
    if cmd == "stabilize" {
        return stabilize(alg, topo, steps, seed);
    }
    let mut faults = FaultPlan::none();
    if let Some(spec) = args.value("--crash") {
        let (pid, step, k) = parse_crash(spec)
            .ok_or_else(|| args.error(&format!("--crash expects PID@STEP:K, got {spec:?}")))?;
        faults = faults.malicious_crash(step, pid, k);
    }
    simulate(alg, topo, steps, seed, faults)
}

fn simulate(
    alg: MaliciousCrashDiners,
    topo: Topology,
    steps: u64,
    seed: u64,
    faults: FaultPlan,
) -> Outcome {
    let mut engine = Engine::builder(alg, topo.clone())
        .scheduler(RandomScheduler::new(seed))
        .faults(faults)
        .seed(seed)
        .build();
    engine.run(steps);
    println!(
        "{} on {} for {steps} steps (seed {seed})",
        Algorithm::name(engine.algorithm()),
        topo.name(),
    );
    let colors = Colors::compute(&engine.snapshot());
    for p in engine.topology().processes() {
        let status = if engine.is_dead(p) {
            "dead"
        } else if colors.is_red(p) {
            "red"
        } else {
            "green"
        };
        println!(
            "  {p}: {:6} meals, worst wait {:5}, {status}",
            engine.metrics().eats_of(p),
            engine.metrics().max_response(p)
        );
    }
    println!(
        "exclusion violations: {} steps (last {:?})",
        engine.metrics().violation_step_count(),
        engine.metrics().last_violation_step()
    );
    Ok(0)
}

fn stabilize(alg: MaliciousCrashDiners, topo: Topology, steps: u64, seed: u64) -> Outcome {
    match stabilization_steps(alg, topo, seed, steps) {
        Some(at) => {
            println!("stabilized to I at step {at} (held through the {steps}-step horizon)");
            Ok(0)
        }
        None => {
            println!("did NOT stabilize within {steps} steps");
            Ok(1)
        }
    }
}

fn radius(alg: MaliciousCrashDiners, n: usize, steps: u64, seed: u64) -> Outcome {
    let topo = Topology::line(n);
    let mut state = SystemState::initial(&alg, &topo);
    for p in topo.processes() {
        state.local_mut(p).phase = Phase::Hungry;
    }
    state.local_mut(0.into()).phase = Phase::Eating;
    let mut engine = Engine::builder(alg, topo)
        .initial_state(state)
        .scheduler(RandomScheduler::new(seed))
        .faults(FaultPlan::new().initially_dead(0))
        .seed(seed)
        .build();
    engine.run(steps / 2);
    let report = measure_window(&mut engine, steps / 2);
    println!(
        "line({n}) with p0 dead while eating: starved {:?}, radius {:?}",
        report.starved, report.behavioral_radius
    );
    Ok(0)
}
