//! # gcr-trace — MPI communication tracing and analysis
//!
//! The paper's light-weight tracer (§3.2/§4): capture every application
//! message ([`tracer::Tracer`]), persist traces ([`io`]), aggregate them
//! into the pair flows consumed by group formation ([`analysis`]), measure
//! checkpoint-window blocking gaps ([`gaps`], Figure 2), and draw ASCII
//! trace diagrams ([`ascii`]).

#![warn(missing_docs)]

pub mod analysis;
pub mod ascii;
pub mod gaps;
pub mod io;
pub mod record;
pub mod summary;
pub mod tracer;

pub use analysis::{pair_flows, PairFlow};
pub use gaps::{analyze, GapStats, Window};
pub use record::{Trace, TraceEvent, TraceMeta, MAX_TRACE_RANKS};
pub use summary::{summarize, TraceSummary};
pub use tracer::Tracer;
