//! Design-architecture emulation: the memory interface (§1.1).
//!
//! A trace records *processor* references, but what reaches the cache (or
//! memory) depends on the width and "memory" of the interface: "fetching
//! two four-byte instructions requires 4, 2 or 1 memory reference,
//! depending on whether the memory interface is 2, 4 or 8 bytes wide",
//! and fewer still if the interface *remembers* the unit it already holds
//! (the VAX 11/780's instruction buffer). The paper insists a trace should
//! carry only the functional architecture and the design architecture
//! "should and usually can be emulated in the simulator" — this adapter is
//! that emulation.

use crate::arch::InterfaceSpec;
use crate::{Addr, MemoryAccess};
use std::collections::VecDeque;

/// Rewrites a processor-reference stream into the memory-reference stream
/// a given interface would produce.
///
/// Each access is split into one reference per interface-width unit it
/// covers; with a remembering interface, a sequential re-reference to the
/// unit most recently fetched on the same path (instruction or data) is
/// absorbed. Writes always reach memory.
///
/// ```
/// use smith85_trace::interface::InterfaceAdapter;
/// use smith85_trace::{Addr, InterfaceSpec, MemoryAccess};
///
/// // Two sequential 4-byte fetches through an 8-byte interface that
/// // remembers: one memory reference (the paper's §1.1 example).
/// let fetches = vec![
///     MemoryAccess::ifetch(Addr::new(0x100), 4),
///     MemoryAccess::ifetch(Addr::new(0x104), 4),
/// ];
/// let out: Vec<_> =
///     InterfaceAdapter::new(fetches.into_iter(), InterfaceSpec::new(8, true)).collect();
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct InterfaceAdapter<I> {
    inner: I,
    spec: InterfaceSpec,
    pending: VecDeque<MemoryAccess>,
    last_instr_unit: Option<u64>,
    last_data_unit: Option<u64>,
}

impl<I: Iterator<Item = MemoryAccess>> InterfaceAdapter<I> {
    /// Wraps `inner` with the given interface.
    ///
    /// # Panics
    ///
    /// Panics if the interface width is not a positive power of two.
    pub fn new(inner: I, spec: InterfaceSpec) -> Self {
        assert!(
            spec.width_bytes > 0 && spec.width_bytes.is_power_of_two(),
            "interface width must be a positive power of two, got {}",
            spec.width_bytes
        );
        InterfaceAdapter {
            inner,
            spec,
            pending: VecDeque::new(),
            last_instr_unit: None,
            last_data_unit: None,
        }
    }

    /// The interface being emulated.
    pub fn spec(&self) -> InterfaceSpec {
        self.spec
    }

    fn expand(&mut self, access: MemoryAccess) {
        let width = self.spec.width_bytes as u64;
        let first = access.addr().get() / width;
        let last = (access.addr().get() + access.size().max(1) as u64 - 1) / width;
        let remembered = if access.kind().is_ifetch() {
            &mut self.last_instr_unit
        } else {
            &mut self.last_data_unit
        };
        for unit in first..=last {
            // Writes always reach memory; reads/fetches can be absorbed by
            // a remembering interface.
            if !access.kind().is_write() && self.spec.remembers && *remembered == Some(unit) {
                continue;
            }
            if !access.kind().is_write() {
                *remembered = Some(unit);
            }
            self.pending.push_back(MemoryAccess::new(
                access.kind(),
                Addr::new(unit * width),
                self.spec.width_bytes,
            ));
        }
    }
}

impl<I: Iterator<Item = MemoryAccess>> Iterator for InterfaceAdapter<I> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        loop {
            if let Some(out) = self.pending.pop_front() {
                return Some(out);
            }
            let access = self.inner.next()?;
            self.expand(access);
        }
    }
}

/// Counts how many memory references the interface produces for a
/// reference stream — §1.1's "fetches per instruction" arithmetic.
pub fn memory_references<I>(stream: I, spec: InterfaceSpec) -> u64
where
    I: Iterator<Item = MemoryAccess>,
{
    InterfaceAdapter::new(stream, spec).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;

    fn ifetch(addr: u64, size: u8) -> MemoryAccess {
        MemoryAccess::ifetch(Addr::new(addr), size)
    }

    /// The paper's worked example: two 4-byte instructions through 2-, 4-
    /// and 8-byte interfaces (no memory) take 4, 2 and 1 references... the
    /// 8-byte case needs memory to merge; without it each fetch re-reads.
    #[test]
    fn paper_width_arithmetic() {
        let two_fetches = || vec![ifetch(0x100, 4), ifetch(0x104, 4)].into_iter();
        assert_eq!(memory_references(two_fetches(), InterfaceSpec::new(2, false)), 4);
        assert_eq!(memory_references(two_fetches(), InterfaceSpec::new(4, false)), 2);
        assert_eq!(memory_references(two_fetches(), InterfaceSpec::new(8, false)), 2);
        assert_eq!(memory_references(two_fetches(), InterfaceSpec::new(8, true)), 1);
    }

    #[test]
    fn straddling_access_is_split() {
        let one = std::iter::once(ifetch(0x106, 4)); // crosses an 8-byte boundary
        let out: Vec<_> = InterfaceAdapter::new(one, InterfaceSpec::new(8, false)).collect();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].addr(), Addr::new(0x100));
        assert_eq!(out[1].addr(), Addr::new(0x108));
        assert!(out.iter().all(|a| a.size() == 8));
    }

    #[test]
    fn memoryless_interface_refetches() {
        // Same byte twice through a remembering vs forgetting interface.
        let twice = || vec![ifetch(0x10, 2), ifetch(0x12, 2)].into_iter();
        assert_eq!(memory_references(twice(), InterfaceSpec::new(4, false)), 2);
        assert_eq!(memory_references(twice(), InterfaceSpec::new(4, true)), 1);
    }

    #[test]
    fn instruction_and_data_paths_remember_independently() {
        let stream = vec![
            ifetch(0x100, 4),
            MemoryAccess::read(Addr::new(0x100), 4), // same unit, data path
            ifetch(0x100, 4),                        // instruction path still warm
        ]
        .into_iter();
        let out: Vec<_> = InterfaceAdapter::new(stream, InterfaceSpec::new(8, true)).collect();
        // ifetch fetches, read fetches (its own path), second ifetch absorbed.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].kind(), AccessKind::InstructionFetch);
        assert_eq!(out[1].kind(), AccessKind::Read);
    }

    #[test]
    fn writes_always_reach_memory() {
        let stream = vec![
            MemoryAccess::write(Addr::new(0x20), 4),
            MemoryAccess::write(Addr::new(0x20), 4),
        ]
        .into_iter();
        assert_eq!(memory_references(stream, InterfaceSpec::new(8, true)), 2);
    }

    #[test]
    fn non_sequential_fetch_breaks_memory() {
        let stream = vec![ifetch(0x00, 4), ifetch(0x100, 4), ifetch(0x04, 4)].into_iter();
        // 0x00 fetch, 0x100 fetch, then 0x04: unit 0 is no longer
        // remembered (0x100's unit replaced it).
        assert_eq!(memory_references(stream, InterfaceSpec::new(8, true)), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_width_rejected() {
        let _ = InterfaceAdapter::new(std::iter::empty(), InterfaceSpec::new(3, false));
    }
}
