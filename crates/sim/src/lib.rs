//! Experiment harness for the FDIP reproduction.
//!
//! This crate turns the `fdip` simulator into the paper's evaluation:
//!
//! * [`workload`] — the client/server workload suites (synthetic traces
//!   standing in for the unavailable SPEC/IPC-1 traces);
//! * [`harness`] — the shared execution engine: a process-wide trace
//!   store, a content-keyed cell cache, and a cell-granular deterministic
//!   scheduler with panic isolation and retry (see [`fault`]);
//! * [`options`] — [`options::RunOptions`], the one value that configures
//!   a harness when [`harness::Harness::open`] builds it, and the shared
//!   `fdip exp` / `exp_all` flag parser;
//! * [`fault`] — the cell error taxonomy, retry policy, and deterministic
//!   fault injection ([`fault::FaultPlan`]);
//! * [`journal`] — the crash-tolerant, CRC-framed completed-cell journal
//!   behind `exp_all --journal` resume;
//! * [`persist`] — atomic (write-to-temp + fsync + rename) result
//!   persistence, so killed runs never leave torn files;
//! * `exec` — the one seam every cell attempt goes through: an
//!   `Executor` trait with an in-process and an out-of-process
//!   ([`pool`]) implementation, and the single place an injected fault is
//!   realised;
//! * [`pool`] — the out-of-process executor: seats holding links to
//!   worker processes, local children over pipes (`--isolate`, sized by
//!   [`supervisor`]) or worker daemons over TCP (`--fleet`), with
//!   heartbeats, hard budgets, typed crash classification, crash-loop
//!   pauses and node health;
//! * [`worker`] / [`ipc`] / `child` — the self-exec'd worker process, its
//!   wire protocol, and the spawn/reap of those processes;
//! * [`net`] / [`fleet`] — the distributed tier's edges: the one frame
//!   codec, the registration handshake, [`fleet::FleetConfig`], and the
//!   `fdip workerd` daemon loop;
//! * [`cache`] — the shared on-disk content-addressed result cache
//!   (`--cache`);
//! * [`chaos`] — the seeded chaos soak behind `fdip chaos`: rounds of
//!   real experiments against a live self-exec'd fleet under scheduled
//!   kills, restarts, network faults, and cache corruption, gated on
//!   byte-identical output and bounded re-simulation;
//! * [`runner`] — result types ([`runner::RunResult`]) and numeric
//!   helpers over harness output;
//! * [`report`] — plain-text tables, CSV emission, and ASCII series plots;
//! * [`experiments`] — one module per table/figure: the reconstructed 1999
//!   evaluation (`e01`–`e10`), the FDIP-X extension plus follow-ons
//!   (`x1`–`x8`), and design-choice ablations (`a1`–`a7`).
//!
//! Every experiment takes a [`Scale`] so the full paper-sized runs and the
//! seconds-long smoke runs used by tests share one code path.
//!
//! # Examples
//!
//! ```
//! use fdip_sim::{experiments, Scale};
//!
//! let result = experiments::x2_storage_bb::run(Scale::quick());
//! assert!(result.tables[0].to_text().contains("11.5"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod experiments;
pub mod fault;
pub mod fleet;
pub mod harness;
pub mod ipc;
pub mod journal;
pub mod net;
pub mod options;
pub mod persist;
pub mod pool;
pub mod report;
pub mod runner;
pub mod supervisor;
pub mod worker;
pub mod workload;

mod child;
mod exec;
mod scale;

pub use scale::{Scale, ScaleArgError};
