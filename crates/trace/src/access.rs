//! The memory-reference model: addresses, line addresses, and accesses.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A virtual byte address, as recorded in a program address trace.
///
/// `Addr` is a transparent newtype over `u64`; it exists so that byte
/// addresses and [line addresses](LineAddr) cannot be confused.
///
/// ```
/// use smith85_trace::Addr;
///
/// let a = Addr::new(0x1234);
/// assert_eq!(a.get(), 0x1234);
/// assert_eq!(a.line(16).get(), 0x123);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the address of the cache line containing this byte, for the
    /// given line size.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `line_size` is not a power of two.
    pub fn line(self, line_size: usize) -> LineAddr {
        debug_assert!(
            line_size.is_power_of_two(),
            "line size {line_size} is not a power of two"
        );
        LineAddr(self.0 >> line_size.trailing_zeros())
    }

    /// Returns the byte offset of this address within its line.
    pub fn offset(self, line_size: usize) -> u64 {
        debug_assert!(line_size.is_power_of_two());
        self.0 & (line_size as u64 - 1)
    }

    /// Returns the address advanced by `bytes`.
    #[must_use]
    pub const fn wrapping_add(self, bytes: u64) -> Self {
        Addr(self.0.wrapping_add(bytes))
    }

    /// Signed distance in bytes from `other` to `self`.
    pub const fn distance_from(self, other: Addr) -> i64 {
        self.0.wrapping_sub(other.0) as i64
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(addr: Addr) -> Self {
        addr.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// The address of a cache line: a byte address divided by the line size.
///
/// A `LineAddr` is only meaningful relative to the line size it was produced
/// with; the cache simulator guarantees it never mixes line addresses from
/// different line sizes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the line address that follows this one (line `i + 1`, the
    /// line the paper's "prefetch always" policy looks ahead to).
    #[must_use]
    pub const fn next(self) -> Self {
        LineAddr(self.0.wrapping_add(1))
    }

    /// Returns the first byte address of this line for the given line size.
    pub fn to_addr(self, line_size: usize) -> Addr {
        debug_assert!(line_size.is_power_of_two());
        Addr(self.0 << line_size.trailing_zeros())
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// The kind of a memory reference.
///
/// The paper distinguishes instruction fetches, data reads and data writes
/// (its M68000 traces only distinguish fetches from writes; see
/// [`MachineArch::M68000`](crate::MachineArch::M68000)).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum AccessKind {
    /// An instruction fetch.
    InstructionFetch,
    /// A data read (load).
    Read,
    /// A data write (store).
    Write,
}

impl AccessKind {
    /// All access kinds, in a fixed order convenient for indexing statistics.
    pub const ALL: [AccessKind; 3] = [
        AccessKind::InstructionFetch,
        AccessKind::Read,
        AccessKind::Write,
    ];

    /// Returns `true` for [`AccessKind::InstructionFetch`].
    pub const fn is_ifetch(self) -> bool {
        matches!(self, AccessKind::InstructionFetch)
    }

    /// Returns `true` for data reads and writes.
    pub const fn is_data(self) -> bool {
        !self.is_ifetch()
    }

    /// Returns `true` for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// A stable small index (0, 1, 2), used by statistics arrays.
    pub const fn index(self) -> usize {
        match self {
            AccessKind::InstructionFetch => 0,
            AccessKind::Read => 1,
            AccessKind::Write => 2,
        }
    }

    /// The single-character mnemonic used by the text trace format.
    pub const fn mnemonic(self) -> char {
        match self {
            AccessKind::InstructionFetch => 'I',
            AccessKind::Read => 'R',
            AccessKind::Write => 'W',
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AccessKind::InstructionFetch => "ifetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        f.write_str(name)
    }
}

/// Number of address bits a [`MemoryAccess`] can hold: byte addresses
/// must be below `2^ADDR_BITS`.
///
/// The widest address the workspace generates is under `2^47` (the network
/// family's base is `2^46`, and the multiprogramming mixer strides members
/// by `2^40`), so 54 bits leave room while the packed word keeps a full
/// 8-bit size.
pub const ADDR_BITS: u32 = 54;

const KIND_BITS: u32 = 2;
const SIZE_SHIFT: u32 = KIND_BITS;
const ADDR_SHIFT: u32 = SIZE_SHIFT + u8::BITS;
const KIND_MASK: u64 = (1 << KIND_BITS) - 1;
/// Decodes the kind bits. A table load, not a `match`, so the compiler
/// keeps one value it can test for writes, instead of splitting the
/// simulators' read path into a poorly predicted fetch-or-read branch.
/// Bit pattern 3 is never written.
const KIND_BY_BITS: [AccessKind; 4] = [
    AccessKind::InstructionFetch,
    AccessKind::Read,
    AccessKind::Write,
    AccessKind::Write,
];
const ADDR_LIMIT: u64 = 1 << ADDR_BITS;

/// One memory reference of a program address trace.
///
/// A reference is a byte [address](Addr), a size in bytes (the width of the
/// access as seen on the memory interface), and a [kind](AccessKind).
///
/// # Layout
///
/// An access is one `u64`, `[addr: 54 bits][size: 8 bits][kind: 2 bits]`
/// from the most significant bit down, so a resident trace costs 8 bytes
/// per reference and every simulator kernel streams 8 bytes per reference.
/// The address must be below `2^`[`ADDR_BITS`]: [`MemoryAccess::new`]
/// panics on a wider one and [`MemoryAccess::try_new`] returns `None`; an
/// address is never silently truncated. The size keeps all 8 bits so every
/// size the text and binary trace formats can carry round-trips.
///
/// ```
/// use smith85_trace::{AccessKind, Addr, MemoryAccess};
///
/// let acc = MemoryAccess::read(Addr::new(0x100), 8);
/// assert_eq!(acc.kind(), AccessKind::Read);
/// assert_eq!(acc.size(), 8);
/// assert_eq!(std::mem::size_of::<MemoryAccess>(), 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryAccess(u64);

const _: () = assert!(std::mem::size_of::<MemoryAccess>() == 8);

impl MemoryAccess {
    /// Creates an access of the given kind.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if `addr` is not below `2^`[`ADDR_BITS`].
    pub const fn new(kind: AccessKind, addr: Addr, size: u8) -> Self {
        match Self::try_new(kind, addr, size) {
            Some(access) => access,
            None => panic!("address is not below 2^ADDR_BITS, the widest a MemoryAccess holds"),
        }
    }

    /// Creates an access of the given kind, or `None` if `addr` is not
    /// below `2^`[`ADDR_BITS`].
    pub const fn try_new(kind: AccessKind, addr: Addr, size: u8) -> Option<Self> {
        if addr.get() >= ADDR_LIMIT {
            return None;
        }
        Some(MemoryAccess(
            addr.get() << ADDR_SHIFT | (size as u64) << SIZE_SHIFT | kind.index() as u64,
        ))
    }

    /// Creates an instruction fetch.
    ///
    /// # Panics
    ///
    /// As [`MemoryAccess::new`].
    pub const fn ifetch(addr: Addr, size: u8) -> Self {
        Self::new(AccessKind::InstructionFetch, addr, size)
    }

    /// Creates a data read.
    ///
    /// # Panics
    ///
    /// As [`MemoryAccess::new`].
    pub const fn read(addr: Addr, size: u8) -> Self {
        Self::new(AccessKind::Read, addr, size)
    }

    /// Creates a data write.
    ///
    /// # Panics
    ///
    /// As [`MemoryAccess::new`].
    pub const fn write(addr: Addr, size: u8) -> Self {
        Self::new(AccessKind::Write, addr, size)
    }

    /// The virtual byte address referenced.
    #[inline]
    pub const fn addr(self) -> Addr {
        Addr::new(self.0 >> ADDR_SHIFT)
    }

    /// The number of bytes transferred by this reference (1-16 in practice).
    #[inline]
    pub const fn size(self) -> u8 {
        (self.0 >> SIZE_SHIFT) as u8
    }

    /// Whether this is an instruction fetch, a read or a write.
    #[inline]
    pub const fn kind(self) -> AccessKind {
        KIND_BY_BITS[(self.0 & KIND_MASK) as usize]
    }

    /// Returns a copy of this access with its address replaced.
    ///
    /// # Panics
    ///
    /// As [`MemoryAccess::new`].
    #[must_use]
    pub const fn with_addr(self, addr: Addr) -> Self {
        Self::new(self.kind(), addr, self.size())
    }

    /// Returns a copy of this access with its kind replaced.
    #[must_use]
    pub const fn with_kind(self, kind: AccessKind) -> Self {
        MemoryAccess(self.0 & !KIND_MASK | kind.index() as u64)
    }

    /// The line this access falls in, for the given line size.
    ///
    /// Accesses are assumed not to straddle line boundaries; the synthetic
    /// generators align references so this holds, matching the behaviour of
    /// the paper's trace mechanisms which record one address per reference.
    #[inline]
    pub fn line(&self, line_size: usize) -> LineAddr {
        self.addr().line(line_size)
    }

    /// Returns a copy of this access relocated by `offset` bytes.
    ///
    /// Used by the multiprogramming mixer to place each program of a mix in
    /// a disjoint address-space slice.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the relocated address is not below
    /// `2^`[`ADDR_BITS`].
    #[must_use]
    pub fn relocated(self, offset: u64) -> Self {
        self.with_addr(self.addr().wrapping_add(offset))
    }
}

impl fmt::Debug for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryAccess")
            .field("addr", &self.addr())
            .field("size", &self.size())
            .field("kind", &self.kind())
            .finish()
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:#x} {}",
            self.kind().mnemonic(),
            self.addr(),
            self.size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_and_offset() {
        let a = Addr::new(0x1234);
        assert_eq!(a.line(16), LineAddr::new(0x123));
        assert_eq!(a.offset(16), 4);
        assert_eq!(a.line(64), LineAddr::new(0x48));
        assert_eq!(a.offset(64), 0x34);
    }

    #[test]
    fn line_addr_roundtrip() {
        let l = Addr::new(0xabcd).line(32);
        assert_eq!(l.to_addr(32).line(32), l);
        assert_eq!(l.to_addr(32).offset(32), 0);
    }

    #[test]
    fn line_next_is_sequential() {
        let l = Addr::new(0x100).line(16);
        assert_eq!(l.next(), Addr::new(0x110).line(16));
    }

    #[test]
    fn distance_is_signed() {
        assert_eq!(Addr::new(0x10).distance_from(Addr::new(0x20)), -0x10);
        assert_eq!(Addr::new(0x20).distance_from(Addr::new(0x10)), 0x10);
    }

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::InstructionFetch.is_ifetch());
        assert!(!AccessKind::InstructionFetch.is_data());
        assert!(AccessKind::Read.is_data());
        assert!(AccessKind::Write.is_data());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn kind_indices_are_distinct() {
        let idx: Vec<usize> = AccessKind::ALL.iter().map(|k| k.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn relocation_moves_address() {
        let acc = MemoryAccess::write(Addr::new(0x100), 4).relocated(0x1000);
        assert_eq!(acc.addr(), Addr::new(0x1100));
        assert_eq!(acc.kind(), AccessKind::Write);
    }

    /// Addresses the layout must hold exactly: the edges, the top of the
    /// workspace's generated range, and seeded random values below the limit.
    fn layout_addresses() -> Vec<u64> {
        let mut addrs = vec![0, 1, 1 << 47, (1 << ADDR_BITS) - 1];
        let mut state = 85u64;
        for _ in 0..64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            addrs.push(state >> (u64::BITS - ADDR_BITS));
        }
        addrs
    }

    #[test]
    fn packed_fields_read_back_exactly() {
        for kind in AccessKind::ALL {
            for size in 0..=u8::MAX {
                for &raw in &layout_addresses() {
                    let acc = MemoryAccess::new(kind, Addr::new(raw), size);
                    assert_eq!(
                        (acc.kind(), acc.addr(), acc.size()),
                        (kind, Addr::new(raw), size)
                    );
                    assert_eq!(MemoryAccess::try_new(kind, Addr::new(raw), size), Some(acc));
                }
            }
        }
    }

    #[test]
    fn setters_replace_one_field() {
        let acc = MemoryAccess::read(Addr::new(0x1234), 255);
        let moved = acc.with_addr(Addr::new((1 << ADDR_BITS) - 1));
        assert_eq!(
            moved,
            MemoryAccess::read(Addr::new((1 << ADDR_BITS) - 1), 255)
        );
        for kind in AccessKind::ALL {
            assert_eq!(
                acc.with_kind(kind),
                MemoryAccess::new(kind, Addr::new(0x1234), 255)
            );
        }
    }

    #[test]
    fn addresses_beyond_addr_bits_are_refused() {
        for raw in [1 << ADDR_BITS, u64::MAX] {
            assert_eq!(
                MemoryAccess::try_new(AccessKind::Read, Addr::new(raw), 4),
                None
            );
        }
    }

    #[test]
    #[should_panic(expected = "not below 2^ADDR_BITS")]
    fn new_panics_beyond_addr_bits() {
        let _ = MemoryAccess::ifetch(Addr::new(1 << ADDR_BITS), 4);
    }

    #[test]
    #[should_panic(expected = "not below 2^ADDR_BITS")]
    fn relocation_past_addr_bits_panics() {
        let _ = MemoryAccess::read(Addr::new((1 << ADDR_BITS) - 4), 4).relocated(4);
    }

    #[test]
    fn debug_form_names_the_fields() {
        let acc = MemoryAccess::ifetch(Addr::new(0x40), 4);
        assert_eq!(
            format!("{acc:?}"),
            "MemoryAccess { addr: Addr(64), size: 4, kind: InstructionFetch }"
        );
    }

    #[test]
    fn display_formats() {
        let acc = MemoryAccess::ifetch(Addr::new(0x40), 4);
        assert_eq!(acc.to_string(), "I 0x40 4");
        assert_eq!(Addr::new(0xff).to_string(), "0xff");
        assert_eq!(LineAddr::new(0xff).to_string(), "L0xff");
    }
}
