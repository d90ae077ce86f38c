//! End-to-end and per-layer benchmark of the SwiShmem reproduction.
//!
//! Three workloads, each loading one part of the system (see
//! `README.md`): `sro_conntable` (SRO writes through the control plane,
//! chain replication and a controller failover), `ewo_sketch` (EWO adds
//! on every packet: mirror multicast and sync merge) and
//! `replay_leafspine` (read-only lookups on a trace replayed into a
//! leaf-spine: the per-packet substrate). The benchmark uses only the
//! program's public API and owns its NFs.

pub mod host;
pub mod nf;
pub mod report;
pub mod run;
pub mod tracer;
pub mod workloads;

pub use run::{run, Metric, Outcome, RunConfig, SimDigest, Workload, E2E};
