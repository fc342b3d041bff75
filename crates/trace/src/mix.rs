//! The round-robin multiprogramming mixer.
//!
//! For Table 3 and Figures 3-10 the paper runs several traces "through the
//! simulator in a round robin manner, switching and purging every 20,000
//! memory references". [`RoundRobinMix`] reproduces the switching half of
//! that: it interleaves member streams in fixed quanta, placing each member
//! in a disjoint address-space slice so distinct programs never falsely
//! share cache lines. The *purging* half is a cache-simulator concern (the
//! simulator purges on its own reference counter), so the two effects can
//! also be studied independently.

use crate::{MemoryAccess, PAPER_PURGE_INTERVAL};

/// Default address-space slice granted to each member of a mix (1 TiB,
/// vastly larger than any traced program's footprint).
pub const DEFAULT_ADDRESS_STRIDE: u64 = 1 << 40;

/// Interleaves several trace streams round-robin with a fixed quantum.
///
/// Exhausted members drop out of the rotation; the mix ends when every
/// member is exhausted. Infinite members (synthetic generators) simply
/// rotate forever.
///
/// ```
/// use smith85_trace::mix::RoundRobinMix;
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let a: Vec<_> = (0..4u64).map(|i| MemoryAccess::ifetch(Addr::new(i * 4), 4)).collect();
/// let b: Vec<_> = (0..4u64).map(|i| MemoryAccess::read(Addr::new(i * 8), 4)).collect();
/// let mix = RoundRobinMix::new(vec![a.into_iter(), b.into_iter()], 2);
/// let kinds: Vec<_> = mix.map(|acc| acc.kind().mnemonic()).collect();
/// assert_eq!(kinds, vec!['I', 'I', 'R', 'R', 'I', 'I', 'R', 'R']);
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobinMix<I> {
    members: Vec<Member<I>>,
    quantum: u64,
    current: usize,
    used_in_quantum: u64,
    switches: u64,
}

#[derive(Debug, Clone)]
struct Member<I> {
    stream: I,
    offset: u64,
    done: bool,
}

impl<I: Iterator<Item = MemoryAccess>> RoundRobinMix<I> {
    /// Creates a mix with the paper's default address-space striding.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero or `streams` is empty.
    pub fn new(streams: Vec<I>, quantum: u64) -> Self {
        Self::with_address_stride(streams, quantum, DEFAULT_ADDRESS_STRIDE)
    }

    /// Creates a mix using the paper's 20,000-reference quantum.
    pub fn paper(streams: Vec<I>) -> Self {
        Self::new(streams, PAPER_PURGE_INTERVAL)
    }

    /// Creates a mix granting each member an address slice of
    /// `address_stride` bytes (member `k` is relocated by `k * stride`).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero or `streams` is empty.
    pub fn with_address_stride(streams: Vec<I>, quantum: u64, address_stride: u64) -> Self {
        assert!(quantum > 0, "mix quantum must be positive");
        assert!(!streams.is_empty(), "a mix needs at least one stream");
        let members = streams
            .into_iter()
            .enumerate()
            .map(|(k, stream)| Member {
                stream,
                offset: k as u64 * address_stride,
                done: false,
            })
            .collect();
        RoundRobinMix {
            members,
            quantum,
            current: 0,
            used_in_quantum: 0,
            switches: 0,
        }
    }

    /// Number of task switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of member streams still live.
    pub fn live_members(&self) -> usize {
        self.members.iter().filter(|m| !m.done).count()
    }

    /// Rotates `current` to the next live member, if any. Returns `false`
    /// when every member is exhausted.
    fn rotate(&mut self) -> bool {
        if self.live_members() == 0 {
            return false;
        }
        loop {
            self.current = (self.current + 1) % self.members.len();
            if !self.members[self.current].done {
                self.used_in_quantum = 0;
                self.switches += 1;
                return true;
            }
        }
    }
}

impl<I: Iterator<Item = MemoryAccess>> Iterator for RoundRobinMix<I> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        loop {
            if self.members.iter().all(|m| m.done) {
                return None;
            }
            if self.members[self.current].done || self.used_in_quantum >= self.quantum {
                if !self.rotate() {
                    return None;
                }
                continue;
            }
            let member = &mut self.members[self.current];
            match member.stream.next() {
                Some(acc) => {
                    self.used_in_quantum += 1;
                    return Some(acc.relocated(member.offset));
                }
                None => {
                    member.done = true;
                    // Loop around to rotate to the next live member.
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    fn reads(n: u64, base: u64) -> impl Iterator<Item = MemoryAccess> {
        (0..n).map(move |i| MemoryAccess::read(Addr::new(base + i), 1))
    }

    #[test]
    fn members_get_disjoint_address_slices() {
        let mix = RoundRobinMix::new(vec![reads(3, 0), reads(3, 0)], 1);
        let addrs: Vec<u64> = mix.map(|a| a.addr().get()).collect();
        // Alternating quanta of 1 ref: slices 0 and 1<<40.
        assert_eq!(
            addrs,
            vec![
                0,
                DEFAULT_ADDRESS_STRIDE,
                1,
                DEFAULT_ADDRESS_STRIDE + 1,
                2,
                DEFAULT_ADDRESS_STRIDE + 2
            ]
        );
    }

    #[test]
    fn exhausted_members_drop_out() {
        let mix = RoundRobinMix::new(vec![reads(1, 0), reads(5, 100)], 2);
        let n = mix.count();
        assert_eq!(n, 6);
    }

    #[test]
    fn total_refs_preserved() {
        let mix = RoundRobinMix::new(vec![reads(7, 0), reads(11, 0), reads(13, 0)], 4);
        assert_eq!(mix.count(), 31);
    }

    #[test]
    fn switch_counter_counts_rotations() {
        let mut mix = RoundRobinMix::new(vec![reads(4, 0), reads(4, 0)], 2);
        assert_eq!(mix.switches(), 0);
        let _ = mix.by_ref().take(5).count(); // quanta: A2, B2, then A again
        assert!(mix.switches() >= 2);
    }

    #[test]
    fn single_member_mix_is_identity_modulo_offset() {
        let mix = RoundRobinMix::new(vec![reads(5, 10)], 2);
        let addrs: Vec<u64> = mix.map(|a| a.addr().get()).collect();
        assert_eq!(addrs, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_rejected() {
        let _ = RoundRobinMix::new(vec![reads(1, 0)], 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_mix_rejected() {
        let streams: Vec<std::vec::IntoIter<MemoryAccess>> = vec![];
        let _ = RoundRobinMix::new(streams, 1);
    }
}
