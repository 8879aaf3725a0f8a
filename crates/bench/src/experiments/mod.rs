//! One module per experiment. The paper-claim suites expose
//! `run(&Scale) -> Table` (FIG2's also returns the structured report);
//! the substrate suites expose `run(quick)` returning a report with
//! tables and BENCH JSON. Every suite with a pass/fail condition has a
//! `gate(report, quick) -> Vec<String>` listing its failures. The `exp`
//! command ([`crate::cli`]) drives them all from one suite table, and
//! the integration suite re-runs the paper claims at
//! [`crate::common::Scale::quick`].

pub mod analyze;
pub mod chaos;
pub mod codec;
pub mod cycles;
pub mod daemons;
pub mod fig2;
pub mod fuzz;
pub mod locality;
pub mod malicious;
pub mod masking;
pub mod message_passing;
pub mod monitor;
pub mod perf;
pub mod recovery;
pub mod stabilization;
pub mod telemetry;
pub mod throughput;
pub mod tracing;
