//! Static analyses built on the FLIX engine, reproducing §2 and §4 of the
//! paper, together with the baseline implementations and workload
//! generators needed to regenerate its evaluation tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod ide;
pub mod ifds;
pub mod points_to;
pub mod shortest_paths;
pub mod strong_update;
pub mod workloads;
