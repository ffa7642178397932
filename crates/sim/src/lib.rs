//! # canary-sim
//!
//! Discrete-event simulation (DES) infrastructure for the Canary
//! reproduction: a virtual clock ([`SimTime`]/[`SimDuration`]), a
//! deterministic future-event list ([`EventQueue`], which pops by time
//! and breaks ties by push order), a splittable
//! deterministic PRNG ([`SimRng`]), open-loop arrival processes for
//! sustained-load traffic ([`ArrivalProcess`]), the statistics types
//! used to aggregate experiment results ([`Welford`], [`Percentiles`],
//! [`Histogram`], [`Series`], [`SeriesSet`]), and hash maps whose order
//! is fixed across processes ([`hash`]).
//!
//! The paper evaluates Canary on a 16-node OpenWhisk cluster with failures
//! injected by randomly killing containers; this crate provides the
//! substrate that lets the rest of the workspace replay exactly that
//! methodology in deterministic virtual time: every run is a pure function
//! of its configuration and a single `u64` seed.
//!
//! ## Example
//!
//! ```
//! use canary_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Launch, Done }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(800), Ev::Launch);
//! q.push(SimTime::ZERO + SimDuration::from_secs(5), Ev::Done);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, Ev::Launch);
//! assert_eq!(t.as_micros(), 800_000);
//! ```

pub mod arrival;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use arrival::ArrivalProcess;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use series::{Point, Series, SeriesSet};
pub use stats::{Histogram, Percentiles, Welford};
pub use time::{SimDuration, SimTime};
