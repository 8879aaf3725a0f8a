//! Experiment harness for the malicious-crash diners reproduction.
//!
//! Every figure and theorem-backed claim of the paper maps to one
//! experiment module (see `DESIGN.md` §4 for the index):
//!
//! | id   | claim                                   | module |
//! |------|-----------------------------------------|--------|
//! | FIG2 | the example computation                 | [`experiments::fig2`] |
//! | T1   | Theorem 1 — stabilization to `I`        | [`experiments::stabilization`] |
//! | T2   | Theorems 2+3 — failure locality ≤ 2     | [`experiments::locality`] |
//! | T3   | malicious crashes / MCA(m=2)            | [`experiments::malicious`] |
//! | T4   | Lemma 1 — cycle breaking                | [`experiments::cycles`] |
//! | T5   | fault-free service vs baselines         | [`experiments::throughput`] |
//! | T6   | masking outside the locality            | [`experiments::masking`] |
//! | T7   | §4 message-passing transformation       | [`experiments::message_passing`] |
//! | T8   | daemon robustness (synchronous rounds)  | [`experiments::daemons`] |
//! | T9   | chaos soak — randomized link faults     | [`experiments::chaos`] |
//! | T10  | substrate perf — engine & explorer      | [`experiments::perf`] |
//! | T11  | observability — telemetry & disturbance | [`experiments::telemetry`] |
//! | T12  | causal tracing & deterministic replay   | [`experiments::tracing`] |
//! | T13  | crash recovery & supervision            | [`experiments::recovery`] |
//! | T14  | explorer compaction (codec & symmetry)  | [`experiments::codec`] |
//! | T15  | liveness checking, shrinking, fuzz      | [`experiments::fuzz`] |
//! | T16  | online monitoring & global snapshots    | [`experiments::monitor`] |
//! | T17  | contract certification (footprints)     | [`experiments::analyze`] |
//!
//! The `exp` binary runs them: `exp <suite> [--quick]` for one suite,
//! `exp all [--quick]` for every suite, `exp help` for the list (see
//! [`cli`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod common;
pub mod experiments;
pub mod tools;

pub use common::Scale;
