//! # mosaic-iosim
//!
//! A discrete-event simulator of an HPC machine's I/O path, instrumented
//! with a Darshan-like shim that emits [`mosaic_darshan::TraceLog`]s.
//!
//! The MOSAIC paper analyzes traces produced by real applications running on
//! Blue Waters (26k+ nodes, Lustre, 360 OSSs / 1440 OSTs, a metadata server
//! that saturates around a few thousand requests per second). That machine
//! is gone; this crate provides an execution-derived trace source with the
//! phenomena MOSAIC's algorithms exist to handle:
//!
//! * **rank desynchronization** — per-rank jitter slides nominally
//!   collective operations apart (what the concurrent-merge step re-fuses);
//! * **fair-share storage bandwidth** — concurrent flows split the parallel
//!   file system's aggregate bandwidth (a fluid, max–min model), so phases
//!   stretch under contention;
//! * **metadata server load** — open/seek/stat/close requests hit a
//!   capacity-limited metadata server whose response time degrades as the
//!   per-second arrival rate approaches saturation (modeled after the
//!   Mistral MDS benchmarked by Kunkel & Markomanolis, ≈3000 req/s, which
//!   the paper uses to set its thresholds);
//! * **open/close aggregation** — the instrumentation shim records only
//!   counter totals and first/last timestamps per `(rank, file)`, exactly
//!   like Darshan, including optional reduction of identical per-rank
//!   records into a shared (rank −1) record.
//!
//! ## Structure
//!
//! * [`program`] — the workload language: phases (compute, open, read,
//!   write, seek, close, barrier, repeat) composed into per-rank programs;
//! * [`pfs`] — the fluid-flow parallel-file-system bandwidth model;
//! * [`mds`] — the metadata-server latency/saturation model;
//! * [`shim`] — the Darshan-like instrumentation layer;
//! * [`sim`] — the event-driven engine tying it together;
//! * [`config`] — machine parameters (Blue Waters-flavoured defaults).
//!
//! ```
//! use mosaic_iosim::config::MachineConfig;
//! use mosaic_iosim::program::{FileSpec, Phase, Program};
//! use mosaic_iosim::sim::Simulation;
//!
//! // 8 ranks: read a shared input, then 3 checkpoint rounds.
//! let program = Program::new(vec![
//!     Phase::Open { file: FileSpec::shared("/in/mesh.dat") },
//!     Phase::Read { file: FileSpec::shared("/in/mesh.dat"), bytes: 1 << 20 },
//!     Phase::Close { file: FileSpec::shared("/in/mesh.dat") },
//!     Phase::Repeat {
//!         times: 3,
//!         body: vec![
//!             Phase::Compute { seconds: 60.0 },
//!             Phase::Open { file: FileSpec::per_rank("/ckpt/dump") },
//!             Phase::Write { file: FileSpec::per_rank("/ckpt/dump"), bytes: 4 << 20 },
//!             Phase::Close { file: FileSpec::per_rank("/ckpt/dump") },
//!             Phase::Barrier,
//!         ],
//!     },
//! ]);
//! let trace = Simulation::new(MachineConfig::default(), 8, 1)
//!     .run(&program, "/apps/sim/checkpointer");
//! assert!(trace.total_bytes_written() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod mds;
pub mod pfs;
pub mod program;
pub mod shim;
pub mod sim;

pub use config::MachineConfig;
pub use program::{FileSpec, Phase, Program};
pub use sim::Simulation;
