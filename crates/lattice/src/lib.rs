//! Complete lattices for the flix-rs fixed-point engine.
//!
//! This crate is the lattice-theory substrate of the FLIX reproduction
//! (Madsen, Yee, Lhoták: *From Datalog to FLIX*, PLDI 2016). A FLIX program
//! associates every `lat` predicate with a complete lattice
//! `(E, ⊥, ⊤, ⊑, ⊔, ⊓)` and requires transfer functions on lattice elements
//! to be strict and monotone. This crate provides:
//!
//! * the [`Lattice`] and [`HasTop`] traits describing that 6-tuple,
//! * the standard abstract domains used throughout the paper — [`Parity`],
//!   [`Sign`], constant propagation ([`Constant`], the [`Flat`] lattice
//!   over integers), [`Interval`]s, the Strong Update lattice
//!   [`SuLattice`], the min-cost lattice [`MinCost`] for shortest paths,
//!   the IDE micro-function lattice [`Transformer`] and [`PowerSet`]s,
//! * and [`rng`], the deterministic generator behind the workspace's
//!   seeded tests and workloads.
//!
//! The "Safety" verification sketched in §7 of the paper — the
//! complete-lattice laws, and the strictness and monotonicity of transfer
//! and filter functions — is `flix_core::verify`, the one checker, which
//! runs on a lattice's engine operations. Its test module holds every
//! lattice of this crate that the engine runs to those laws; this crate's
//! own unit tests hold the typed impls to them through a few test-only
//! assertions.
//!
//! # Example
//!
//! ```
//! use flix_lattice::{Lattice, HasTop, Parity};
//!
//! let even = Parity::Even;
//! let odd = Parity::Odd;
//! assert_eq!(even.lub(&odd), Parity::Top);
//! assert_eq!(even.glb(&odd), Parity::Bot);
//! assert!(Parity::Bot.leq(&even) && even.leq(&Parity::top()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constant;
mod interval;
#[cfg(test)]
mod laws;
mod mincost;
mod parity;
mod powerset;
pub mod rng;
mod sign;
mod su;
mod traits;
mod transformer;

pub use constant::{Constant, Flat};
pub use interval::Interval;
pub use mincost::MinCost;
pub use parity::Parity;
pub use powerset::PowerSet;
pub use sign::Sign;
pub use su::SuLattice;
pub use traits::{FiniteLattice, HasTop, Lattice};
pub use transformer::Transformer;
