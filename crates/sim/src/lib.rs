//! # gcr-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the `gcr` reproduction of *"Scalable Group-based
//! Checkpoint/Restart for Large-Scale Message-passing Systems"* (IPDPS 2008).
//!
//! Simulated processes are async tasks driven by a single-threaded,
//! deterministic executor ([`Sim`]) over a nanosecond virtual clock
//! ([`SimTime`]). The crate also provides the synchronization primitives
//! ([`sync`]), zero-time channels ([`channel`]), FIFO-server resources
//! ([`resource::FifoResource`]) used to model NICs/disks, and seeded random
//! substreams plus the FNV-1a fold ([`rng`]).
//!
//! ## Example
//! ```
//! use gcr_sim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let handle = sim.clone();
//! sim.spawn(async move {
//!     handle.sleep(SimDuration::from_secs(3)).await;
//!     assert_eq!(handle.now().as_secs_f64(), 3.0);
//! });
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod executor;
pub mod future;
pub mod resource;
pub mod rng;
pub mod sync;
pub mod time;

pub use executor::{Deadlock, RunOutcome, Sim, SimStats, TaskId, TaskName};
pub use rng::{fnv1a, fnv1a_words, DetRng};
pub use time::{SimDuration, SimTime};
