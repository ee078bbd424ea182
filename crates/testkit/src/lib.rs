//! Differential correctness harness for the secure Yannakakis stack.
//!
//! Three pieces, used together by the `tests/` integration suite and
//! usable from a debugging session:
//!
//! * [`gen`] — a seeded generator of random free-connex join-aggregate
//!   instances ([`Instance::generate`]), plus a baseline-shaped chain
//!   family ([`Instance::generate_chain`]). Same seed, same instance —
//!   a failing seed in CI reproduces locally with no further state.
//! * [`diff`] — the differential runner: the naive evaluator (oracle),
//!   plaintext Yannakakis, the garbled-circuit baseline, and the full
//!   secure protocol over one instance, with agreement asserted
//!   ([`check_instance`]) and the secure transcript returned for
//!   obliviousness checks.
//! * fault harness glue — [`try_run_secure_on`] runs the secure protocol
//!   over whatever pair the caller brings (in-process or TCP, plain or
//!   under `secyan-transport`'s deterministic `faulted` plan) and returns
//!   the typed outcome.
//!
//! See DESIGN.md §10 for the fault model and the reasoning behind the
//! engine lineup.

pub mod diff;
pub mod gen;

pub use diff::{
    canonical_result, check_instance, oracle, plaintext_yannakakis, run_baseline, run_secure,
    run_secure_on, scalar_of, session_seeds, try_run_secure_on, Differential, Rows, Run, SecureRun,
};
pub use gen::{AggKind, Instance};
