//! flixd — a resident fixed-point service for FLIX models.
//!
//! Solving a large program from scratch to answer one query wastes the
//! fixed point: the model is discarded the moment the process exits,
//! and the next question pays the full solve again. `flixd` keeps the
//! solved model *resident*: a daemon loads a program (plus its snapshot
//! and write-ahead log) once, solves or recovers it, and then serves
//! queries and live updates over a Unix domain socket for as long as it
//! runs.
//!
//! The concurrency contract is *snapshot isolation by epoch*:
//!
//! * every published fixed point gets a monotonically increasing epoch
//!   number, starting at 1 for the startup model;
//! * reads pin the current epoch's [`Arc<Solution>`][flix_core::Solution]
//!   for their whole lifetime and never observe a mid-update state —
//!   the reply names the epoch it was served from;
//! * updates are serialized through one writer thread that batches
//!   concurrently queued deltas, appends the combined delta to the
//!   write-ahead log *first* (log-then-apply), resumes the solver from
//!   the previous fixed point, and atomically publishes the result as
//!   the next epoch.
//!
//! The wire protocol (`flixd/1`, length-prefixed JSON frames) is
//! implemented std-only in [`proto`] and specified in DESIGN.md §17;
//! [`Client`] is the matching blocking client used by
//! `flixr --connect`. The daemon binary itself lives in `flix-lang`
//! (which owns the surface-language compiler) and injects parsing via
//! [`Hooks`] — this crate deliberately sits just above `flix-core` so
//! benchmarks and the CLI can both build on it.
//!
//! # Example
//!
//! ```
//! use flix_core::{Delta, ProgramBuilder, Value};
//! use flixd::{Client, Hooks, Reply, ReplyBody, Request, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let edge = b.relation("Edge", 2);
//! b.fact(edge, vec![1.into(), 2.into()]);
//! let program = Arc::new(b.build()?);
//!
//! let dir = std::env::temp_dir().join(format!("flixd-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let server = Server::start(
//!     Arc::clone(&program),
//!     ServerConfig::new(dir.join("doc.sock")),
//!     Hooks {
//!         parse_query: Box::new(|_| Err("no query parser in this example".into())),
//!         parse_atom: Box::new(|_| Err("no atom parser in this example".into())),
//!         compile_update: Box::new(|_| Ok(Delta::new().insert("Edge", vec![2.into(), 3.into()]))),
//!     },
//! )?;
//!
//! let mut client = Client::connect(server.socket())?;
//! assert_eq!(client.hello().epoch, 1);
//! let reply = client.request(&Request::Facts { predicate: Some("Edge".into()) })?;
//! assert_eq!(reply.body, ReplyBody::Facts(vec!["Edge(1, 2)".into()]));
//!
//! let reply = client.request(&Request::Update { text: String::new(), timeout_secs: None })?;
//! assert_eq!(reply.epoch, 2);
//!
//! client.request(&Request::Shutdown)?;
//! server.join();
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

// One call into the C allocator (`server::one_malloc_arena`) is allowed.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod events;
pub mod hooks;
pub mod proto;
pub mod server;
pub mod telemetry;

pub use client::{Client, ClientError};
pub use events::{EventLevel, EventLogConfig};
pub use flix_core::json;
pub use hooks::{GroundAtom, Hooks, QueryPattern};
pub use proto::{ErrorCode, Hello, Reply, ReplyBody, Request, Status, MAX_FRAME, PROTOCOL};
pub use server::{Server, ServerConfig, StartError};
pub use telemetry::{Telemetry, STATS_SCHEMA};
