//! The storage-I/O workload family: block-address streams.
//!
//! Models the knobs 2DIO (arXiv 2603.19971) shows are sufficient for
//! cache-accurate storage traces: a fixed **footprint** of equal-sized
//! blocks, **Zipf-like popularity skew** over those blocks, geometric
//! **sequential runs**, and a **read/write mix**. Each emitted access
//! touches the first line of one block, so a byte-addressed cache with
//! 16-byte lines behaves exactly like a block cache with one entry per
//! block — the existing simulators need no changes.
//!
//! Popularity ranks are scrambled over the footprint by a fixed odd
//! multiplier so the hot set is scattered (skew and sequentiality stay
//! independent knobs); sequential runs walk *physical* block order, as
//! a scan does.

use crate::rng::FamilyRng;
use smith85_trace::{AccessKind, Addr, MemoryAccess};

/// Base byte address of the block space; far above the CPU catalog's
/// code/data segments so mixed traces cannot alias.
pub const STORAGE_BASE: u64 = 0x2000_0000_0000;

/// Byte distance between consecutive blocks. Only the first 16 bytes of
/// a block are ever referenced, so any line size up to this spacing maps
/// each block to its own line.
pub const BLOCK_SPACING: u64 = 4_096;

/// Fixed odd multiplier scattering popularity ranks over the footprint.
const RANK_SCRAMBLE: u64 = 2_654_435_761;

/// A storage-I/O stream description. All knobs are public; validation
/// happens in [`StorageProfile::try_generator`].
#[derive(Debug, Clone, PartialEq)]
pub struct StorageProfile {
    /// Catalog name, e.g. `"S-KVSTORE"`.
    pub name: String,
    /// One-line description for catalog listings.
    pub description: String,
    /// Distinct blocks in the working footprint.
    pub footprint_blocks: u64,
    /// Zipf exponent of block popularity (0 = uniform).
    pub zipf_alpha: f64,
    /// Probability each access extends the current sequential run, so
    /// runs are geometric with mean `1 / (1 - seq_prob)` blocks.
    pub seq_prob: f64,
    /// Fraction of accesses that are reads (the rest write).
    pub read_fraction: f64,
    /// Generator seed; the stream is a pure function of the profile.
    pub seed: u64,
}

impl StorageProfile {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if self.footprint_blocks == 0 {
            return Err(format!("storage profile {}: footprint must be > 0", self.name));
        }
        if !(0.0..=8.0).contains(&self.zipf_alpha) {
            return Err(format!("storage profile {}: zipf_alpha must lie in [0, 8]", self.name));
        }
        if !(0.0..1.0).contains(&self.seq_prob) {
            return Err(format!("storage profile {}: seq_prob must lie in [0, 1)", self.name));
        }
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return Err(format!(
                "storage profile {}: read_fraction must lie in [0, 1]",
                self.name
            ));
        }
        Ok(())
    }

    /// An infinite, deterministic access stream.
    ///
    /// # Errors
    ///
    /// Returns [`validate`](Self::validate)'s message for bad knobs.
    pub fn try_generator(&self) -> Result<StorageGenerator, String> {
        self.validate()?;
        Ok(StorageGenerator {
            rng: FamilyRng::new(self.seed),
            footprint: self.footprint_blocks,
            zipf_alpha: self.zipf_alpha,
            seq_prob: self.seq_prob,
            read_fraction: self.read_fraction,
            block: 0,
        })
    }

    /// Panicking form of [`try_generator`](Self::try_generator); the
    /// catalog's profiles are valid by construction.
    ///
    /// # Panics
    ///
    /// Panics on an invalid profile.
    pub fn generator(&self) -> StorageGenerator {
        self.try_generator().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The pool/store identity string: every field the stream depends
    /// on, floats as bit patterns so distinct dials never alias.
    pub fn identity_key(&self) -> String {
        format!(
            "storage/{}/{:x}/{:x}:{:x}:{:x}/{:x}",
            self.name,
            self.footprint_blocks,
            self.zipf_alpha.to_bits(),
            self.seq_prob.to_bits(),
            self.read_fraction.to_bits(),
            self.seed,
        )
    }
}

/// The iterator behind [`StorageProfile::generator`].
#[derive(Debug, Clone)]
pub struct StorageGenerator {
    rng: FamilyRng,
    footprint: u64,
    zipf_alpha: f64,
    seq_prob: f64,
    read_fraction: f64,
    block: u64,
}

impl Iterator for StorageGenerator {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        if self.rng.next_f64() < self.seq_prob {
            // Continue the scan: next physical block, wrapping.
            self.block = (self.block + 1) % self.footprint;
        } else {
            // New run: a Zipf-ranked block, scattered over the footprint.
            let rank = self.rng.next_zipf(self.footprint, self.zipf_alpha);
            self.block = rank.wrapping_mul(RANK_SCRAMBLE) % self.footprint;
        }
        let kind = if self.rng.next_f64() < self.read_fraction {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let addr = Addr::new(STORAGE_BASE + self.block * BLOCK_SPACING);
        Some(MemoryAccess::new(kind, addr, 16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> StorageProfile {
        StorageProfile {
            name: "test-store".to_string(),
            description: String::new(),
            footprint_blocks: 1_000,
            zipf_alpha: 1.0,
            seq_prob: 0.3,
            read_fraction: 0.7,
            seed: 85,
        }
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a: Vec<_> = profile().generator().take(2_000).collect();
        let b: Vec<_> = profile().generator().take(2_000).collect();
        assert_eq!(a, b);
        let mut reseeded = profile();
        reseeded.seed = 86;
        let c: Vec<_> = reseeded.generator().take(2_000).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_in_the_footprint() {
        for access in profile().generator().take(5_000) {
            let raw = access.addr().get();
            assert!(raw >= STORAGE_BASE);
            assert_eq!((raw - STORAGE_BASE) % BLOCK_SPACING, 0, "{raw:#x}");
            assert!((raw - STORAGE_BASE) / BLOCK_SPACING < 1_000);
            assert_ne!(access.kind(), AccessKind::InstructionFetch);
        }
    }

    #[test]
    fn read_fraction_is_respected() {
        let reads = profile()
            .generator()
            .take(20_000)
            .filter(|a| a.kind() == AccessKind::Read)
            .count();
        let fraction = reads as f64 / 20_000.0;
        assert!((fraction - 0.7).abs() < 0.02, "read fraction {fraction}");
    }

    #[test]
    fn seq_prob_produces_sequential_neighbours() {
        let mut p = profile();
        p.seq_prob = 0.8;
        let trace: Vec<_> = p.generator().take(20_000).collect();
        let sequential = trace
            .windows(2)
            .filter(|w| w[1].addr().get() == w[0].addr().get() + BLOCK_SPACING)
            .count();
        let fraction = sequential as f64 / (trace.len() - 1) as f64;
        assert!((fraction - 0.8).abs() < 0.05, "sequential fraction {fraction}");
    }

    #[test]
    fn zipf_alpha_concentrates_the_hot_set() {
        let distinct = |alpha: f64| {
            let mut p = profile();
            p.zipf_alpha = alpha;
            p.seq_prob = 0.0;
            let mut set = std::collections::HashSet::new();
            for a in p.generator().take(10_000) {
                set.insert(a.addr().get());
            }
            set.len()
        };
        assert!(
            distinct(1.8) < distinct(0.0) / 2,
            "skewed stream must touch far fewer blocks"
        );
    }

    #[test]
    fn bad_knobs_are_rejected() {
        let mut p = profile();
        p.footprint_blocks = 0;
        assert!(p.try_generator().is_err());
        let mut p = profile();
        p.seq_prob = 1.0;
        assert!(p.try_generator().is_err());
        let mut p = profile();
        p.read_fraction = 1.5;
        assert!(p.try_generator().unwrap_err().contains("read_fraction"));
    }
}
