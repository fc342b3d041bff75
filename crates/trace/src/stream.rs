//! Streaming adapters over access iterators.
//!
//! A *trace stream* is any `Iterator<Item = MemoryAccess>`; the synthetic
//! generators in `smith85-synth` are infinite streams, file readers are
//! finite ones. This module provides the small adapter vocabulary the
//! experiment harness uses on top of the standard iterator combinators.

use crate::{MemoryAccess, Trace};

/// Extension methods for trace streams.
///
/// Implemented for every `Iterator<Item = MemoryAccess>`.
///
/// ```
/// use smith85_trace::stream::StreamExt;
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let trace = (0..4)
///     .map(|i| MemoryAccess::ifetch(Addr::new(i * 4), 4))
///     .relocated(0x1000)
///     .materialize(2);
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.as_slice()[0].addr(), Addr::new(0x1000));
/// ```
pub trait StreamExt: Iterator<Item = MemoryAccess> + Sized {
    /// Shifts every access by `offset` bytes (used to give each program of
    /// a multiprogramming mix a disjoint address-space slice).
    fn relocated(self, offset: u64) -> Relocated<Self> {
        Relocated {
            inner: self,
            offset,
        }
    }

    /// Collects the first `len` accesses into an in-memory [`Trace`],
    /// mirroring the paper's fixed-length trace prefixes.
    fn materialize(self, len: usize) -> Trace {
        self.take(len).collect()
    }

    /// Merges data reads into instruction fetches, emulating the paper's
    /// M68000 hardware monitor, which "only differentiate\[s\] between
    /// fetches (reads and ifetches) and writes" (§2).
    fn monitor_m68000(self) -> MonitorM68000<Self> {
        MonitorM68000 { inner: self }
    }
}

impl<I: Iterator<Item = MemoryAccess>> StreamExt for I {}

/// Iterator adapter returned by [`StreamExt::relocated`].
#[derive(Debug, Clone)]
pub struct Relocated<I> {
    inner: I,
    offset: u64,
}

impl<I: Iterator<Item = MemoryAccess>> Iterator for Relocated<I> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        self.inner.next().map(|a| a.relocated(self.offset))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Iterator adapter returned by [`StreamExt::monitor_m68000`].
#[derive(Debug, Clone)]
pub struct MonitorM68000<I> {
    inner: I,
}

impl<I: Iterator<Item = MemoryAccess>> Iterator for MonitorM68000<I> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        self.inner.next().map(|a| {
            if a.kind() == crate::AccessKind::Read {
                a.with_kind(crate::AccessKind::InstructionFetch)
            } else {
                a
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    #[test]
    fn relocated_preserves_kind_and_size() {
        let acc = MemoryAccess::write(Addr::new(8), 2);
        let out: Vec<_> = std::iter::once(acc).relocated(0x100).collect();
        assert_eq!(out[0].addr(), Addr::new(0x108));
        assert_eq!(out[0].size(), 2);
        assert_eq!(out[0].kind(), acc.kind());
    }

    #[test]
    fn materialize_truncates() {
        let t = (0..100u64)
            .map(|i| MemoryAccess::read(Addr::new(i), 1))
            .materialize(10);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn monitor_merges_reads_into_fetches() {
        use crate::AccessKind;
        let stream = vec![
            MemoryAccess::ifetch(Addr::new(0), 2),
            MemoryAccess::read(Addr::new(0x100), 2),
            MemoryAccess::write(Addr::new(0x200), 2),
        ];
        let out: Vec<_> = stream.into_iter().monitor_m68000().collect();
        assert_eq!(out[0].kind(), AccessKind::InstructionFetch);
        assert_eq!(out[1].kind(), AccessKind::InstructionFetch);
        assert_eq!(out[2].kind(), AccessKind::Write);
        // Addresses and sizes untouched.
        assert_eq!(out[1].addr(), Addr::new(0x100));
    }

    #[test]
    fn size_hint_passthrough() {
        let it = (0..5u64).map(|i| MemoryAccess::read(Addr::new(i), 1));
        assert_eq!(it.relocated(1).size_hint(), (5, Some(5)));
    }
}
