//! # insomnia-simcore
//!
//! Deterministic discrete-event simulation engine underpinning the
//! reproduction of *Insomnia in the Access* (Goma et al., SIGCOMM 2011).
//!
//! The crate provides five things, deliberately nothing more:
//!
//! * a millisecond-granular simulation clock ([`SimTime`], [`SimDuration`]),
//! * the event scheduler ([`Scheduler`]): pending events with stable FIFO
//!   tie-breaking, O(1) lazy cancellation and an O(1) lane for
//!   nondecreasing timers, plus the driver loop,
//! * reproducible randomness with named sub-streams ([`SimRng`]),
//! * the statistics primitives every experiment reports through
//!   ([`Welford`], [`TimeWeighted`], [`Histogram`], [`Cdf`], [`BinSeries`]),
//!   and
//! * deterministic fan-out ([`par_fold_grouped`]), which folds each group
//!   of an interleaved task pool in index order, for the layers above that
//!   run independent shards/repetitions/jobs in parallel, plus the
//!   deterministic retry wrapper ([`retry_unwind`]) crash-safe runners
//!   put around each task.
//!
//! ## Design notes
//!
//! The engine is synchronous and single-threaded: the paper's experiments
//! average 10 repetitions of a 24-hour day, and bit-for-bit reproducibility
//! of each repetition (same seed ⇒ same output) is worth far more than
//! intra-run parallelism. Parallelism lives one level up, across independent
//! repetitions.
//!
//! Applications own their world state and event enum; the [`Scheduler`]
//! owns time. Handlers get `&mut Scheduler` and `&mut World`, which keeps
//! borrow checking trivial with zero interior mutability.
//!
//! ```
//! use insomnia_simcore::{Scheduler, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { PacketArrival, IdleTimeout }
//!
//! let mut sched: Scheduler<Ev> = Scheduler::new();
//! let mut gateway_awake = true;
//! sched.schedule_at(SimTime::from_secs(5), Ev::PacketArrival);
//! sched.schedule_at(SimTime::from_secs(60), Ev::IdleTimeout);
//! sched.run_until(&mut gateway_awake, SimTime::from_hours(24), |_s, awake, _t, ev| {
//!     match ev {
//!         Ev::PacketArrival => {}
//!         Ev::IdleTimeout => *awake = false,
//!     }
//! });
//! assert!(!gateway_awake);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod par;
pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use engine::Scheduler;
pub use error::{SimError, SimResult};
pub use par::{default_threads, par_fold_grouped, retry_unwind, Retried};
pub use queue::EventToken;
pub use rng::SimRng;
pub use series::{average_runs, downsample_mean, BinSeries};
pub use stats::{Cdf, Histogram, OnlineTimeHist, QuantileSketch, TimeWeighted, Welford};
pub use time::{SimDuration, SimTime};
