//! Memory-reference trace substrate for the Smith '85 cache workload study.
//!
//! This crate defines everything the rest of the workspace agrees on when it
//! talks about *program address traces*:
//!
//! * the reference model itself ([`MemoryAccess`], [`Addr`], [`AccessKind`]),
//! * descriptors for the machine architectures the paper draws traces from
//!   ([`MachineArch`]) and the source languages of the traced programs
//!   ([`SourceLanguage`]),
//! * in-memory traces and streaming combinators ([`Trace`], [`stream`]),
//! * on-disk formats (a Dinero-like text format and a compact binary format,
//!   see [`io`]),
//! * design-architecture emulation of the memory interface
//!   ([`interface::InterfaceAdapter`]),
//! * the trace characterizer that computes every column of the paper's
//!   Table 2 ([`stats::TraceCharacteristics`]), and
//! * the round-robin multiprogramming mixer used by the paper's Table 3 and
//!   Figures 3-10 ([`mix::RoundRobinMix`]).
//!
//! # Example
//!
//! ```
//! use smith85_trace::{Addr, AccessKind, MemoryAccess, Trace};
//!
//! let mut trace = Trace::new();
//! trace.push(MemoryAccess::ifetch(Addr::new(0x1000), 4));
//! trace.push(MemoryAccess::read(Addr::new(0x8000), 4));
//! trace.push(MemoryAccess::write(Addr::new(0x8004), 4));
//!
//! let stats = trace.characteristics();
//! assert_eq!(stats.total_refs(), 3);
//! assert_eq!(stats.ifetches(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod arch;
mod error;
mod language;
pub mod fault;
pub mod interface;
pub mod io;
pub mod mix;
pub mod stats;
pub mod stream;
mod trace_buf;

pub use access::{AccessKind, Addr, LineAddr, MemoryAccess, ADDR_BITS};
pub use arch::{InterfaceSpec, MachineArch};
pub use error::{ParseTraceError, TraceIoError};
pub use language::SourceLanguage;
pub use trace_buf::Trace;

/// The line (block) size, in bytes, used throughout the paper's primary
/// experiments (Tables 1-4, Figures 1 and 3-10).
pub const PAPER_LINE_SIZE: usize = 16;

/// The task-switch purge interval, in memory references, used by the paper
/// for its multiprogramming simulations (Table 3, Figures 3-10).
pub const PAPER_PURGE_INTERVAL: u64 = 20_000;

/// The purge interval the paper uses for the (short) M68000 traces.
pub const PAPER_PURGE_INTERVAL_M68000: u64 = 15_000;
