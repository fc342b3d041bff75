//! Program profiles: the calibrated description of one synthetic workload.
//!
//! A [`ProgramProfile`] captures exactly the characteristics the paper's
//! Table 2 publishes for each of its 49 traces — reference-type mix, branch
//! frequency, instruction and data footprints — plus the locality knobs the
//! table only shows indirectly (through the miss-ratio curves). The profile
//! compiles down to the [`InstrModel`] and
//! [`DataModel`] parameters and yields an infinite,
//! deterministic access stream.

use crate::data::{DataModel, DataParams};
use crate::dist::derive_seed;
use crate::instr::{InstrModel, InstrParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use smith85_trace::{Addr, MachineArch, MemoryAccess, SourceLanguage, Trace};

/// Base address of the synthetic code region.
pub const CODE_BASE: u64 = 0x0010_0000;
/// Base address of the synthetic data region.
pub const DATA_BASE: u64 = 0x0800_0000;

/// Locality knobs of a profile (the dials Table 2 cannot show directly).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Locality {
    /// Zipf skew over procedures (instruction locality).
    pub instr_alpha: f64,
    /// Zipf skew over static data lines (data locality).
    pub data_alpha: f64,
    /// Fraction of data references that are sequential array walks.
    pub seq_fraction: f64,
    /// Fraction of data references that hit the stack segment.
    pub stack_fraction: f64,
    /// Probability that a branch is a backward loop jump.
    pub loop_prob: f64,
    /// Data references between phase drifts (0 = no drift).
    pub phase_interval: u64,
    /// Fraction of static data ranks that writes draw from (Table 3's
    /// dirty-push calibration knob; see
    /// [`DataParams::write_concentration`]).
    pub write_concentration: f64,
}

impl Default for Locality {
    fn default() -> Self {
        Locality {
            instr_alpha: 0.9,
            data_alpha: 0.9,
            seq_fraction: 0.25,
            stack_fraction: 0.25,
            loop_prob: 0.35,
            phase_interval: 25_000,
            write_concentration: 0.4,
        }
    }
}

/// A complete synthetic workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramProfile {
    /// Trace name (matches the paper's, e.g. `"VSPICE"`).
    pub name: String,
    /// Machine architecture the original trace came from.
    pub arch: MachineArch,
    /// Source language of the traced program.
    pub language: SourceLanguage,
    /// One-line description (mirrors §2 of the paper).
    pub description: String,
    /// Target fraction of references that are instruction fetches.
    pub ifetch_fraction: f64,
    /// Target fraction of references that are data reads.
    pub read_fraction: f64,
    /// Target fraction of instruction fetches that are successful branches.
    pub branch_fraction: f64,
    /// Instruction footprint target in bytes.
    pub code_bytes: u64,
    /// Data footprint target in bytes.
    pub data_bytes: u64,
    /// Locality dials.
    pub locality: Locality,
    /// Base RNG seed (each model component derives its own stream).
    pub seed: u64,
    /// Trace length the paper simulated for this workload.
    pub paper_length: u64,
}

impl ProgramProfile {
    /// Target fraction of references that are data writes.
    pub fn write_fraction(&self) -> f64 {
        (1.0 - self.ifetch_fraction - self.read_fraction).max(0.0)
    }

    /// The instruction-model parameters this profile compiles to.
    pub fn instr_params(&self) -> InstrParams {
        // The branch heuristic sees the procedure-wrap jumps the model adds
        // on top of explicit branches, so aim slightly sparser.
        let mean_run = (1.0 / self.branch_fraction.clamp(0.02, 0.8)) * 1.15;
        let proc_bytes = (self.code_bytes / 24).clamp(128, 4096);
        InstrParams {
            code_base: CODE_BASE,
            code_bytes: self.code_bytes,
            instr_bytes: self.arch.typical_instr_bytes() as u64,
            mean_run: mean_run.max(1.0),
            proc_alpha: self.locality.instr_alpha,
            proc_bytes,
            call_prob: 0.12,
            return_prob: 0.10,
            loop_prob: self.locality.loop_prob,
        }
    }

    /// The data-model parameters this profile compiles to.
    pub fn data_params(&self) -> DataParams {
        // Line-aligned so the static and sequential segments start on a
        // line boundary (references must not straddle lines).
        let stack_bytes = (self.data_bytes / 24).clamp(128, 2048) & !15;
        DataParams {
            data_base: DATA_BASE,
            data_bytes: self.data_bytes,
            word_bytes: self.arch.word_bytes() as u64,
            stack_fraction: self.locality.stack_fraction,
            seq_fraction: self.locality.seq_fraction,
            static_alpha: self.locality.data_alpha,
            stack_bytes,
            seq_streams: 3,
            phase_interval: self.locality.phase_interval,
            write_concentration: self.locality.write_concentration,
        }
    }

    /// Checks the profile can actually generate: fractions consistent,
    /// footprints large enough, locality dials in range (the same
    /// conditions [`crate::ProfileBuilder::build`] enforces).
    ///
    /// # Errors
    ///
    /// Returns a [`crate::ProfileError`] naming the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), crate::ProfileError> {
        crate::builder::validate_profile(self)
    }

    /// An infinite, deterministic access stream for this profile, or a
    /// typed error if the profile is inconsistent. This is the
    /// non-panicking form of [`generator`](Self::generator) for
    /// user-supplied profiles.
    ///
    /// # Errors
    ///
    /// Returns the first [`validate`](Self::validate) failure.
    pub fn try_generator(&self) -> Result<ProgramGenerator, crate::ProfileError> {
        self.validate()?;
        Ok(ProgramGenerator {
            instr: InstrModel::new(self.instr_params(), derive_seed(self.seed, 1)),
            data: DataModel::new(self.data_params(), derive_seed(self.seed, 2)),
            rng: SmallRng::seed_from_u64(derive_seed(self.seed, 3)),
            ifetch_fraction: self.ifetch_fraction,
            write_given_data: if self.ifetch_fraction < 1.0 {
                self.write_fraction() / (1.0 - self.ifetch_fraction)
            } else {
                0.0
            },
        })
    }

    /// An infinite, deterministic access stream for this profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile is inconsistent (see
    /// [`validate`](Self::validate)); use
    /// [`try_generator`](Self::try_generator) for user-supplied profiles.
    pub fn generator(&self) -> ProgramGenerator {
        self.try_generator()
            .unwrap_or_else(|e| panic!("profile {}: inconsistent: {e}", self.name))
    }

    /// Materializes the first `len` references.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`generator`](Self::generator).
    pub fn generate(&self, len: usize) -> Trace {
        let mut trace = Trace::with_capacity(len);
        trace.extend(self.generator().take(len));
        trace
    }

    /// Materializes the trace at the length the paper used.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`generator`](Self::generator).
    pub fn generate_paper_length(&self) -> Trace {
        self.generate(self.paper_length as usize)
    }
}

/// Infinite access stream compiled from a [`ProgramProfile`].
#[derive(Debug, Clone)]
pub struct ProgramGenerator {
    instr: InstrModel,
    data: DataModel,
    rng: SmallRng,
    ifetch_fraction: f64,
    write_given_data: f64,
}

impl Iterator for ProgramGenerator {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let access = if u < self.ifetch_fraction {
            MemoryAccess::ifetch(Addr::new(self.instr.next_fetch()), self.instr.fetch_bytes())
        } else {
            let w: f64 = self.rng.gen_range(0.0..1.0);
            let is_write = w < self.write_given_data;
            let addr = Addr::new(self.data.next_ref(is_write));
            let size = self.data.word_bytes();
            if is_write {
                MemoryAccess::write(addr, size)
            } else {
                MemoryAccess::read(addr, size)
            }
        };
        Some(access)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// Returns a small general-purpose example profile (a VAX-like C program),
/// handy for documentation and tests.
pub fn example_profile() -> ProgramProfile {
    ProgramProfile {
        name: "EXAMPLE".to_string(),
        arch: MachineArch::Vax,
        language: SourceLanguage::C,
        description: "example VAX C workload".to_string(),
        ifetch_fraction: 0.50,
        read_fraction: 0.33,
        branch_fraction: 0.17,
        code_bytes: 12 * 1024,
        data_bytes: 12 * 1024,
        locality: Locality::default(),
        seed: 0x5eed,
        paper_length: 250_000,
    }
}

/// Helper: kind of a generated access stream's elements ordered as the
/// characterizer expects (used in tests).
#[doc(hidden)]
pub fn kind_counts(trace: &Trace) -> [u64; 3] {
    let mut counts = [0u64; 3];
    for a in trace {
        counts[a.kind().index()] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_hit_targets() {
        let p = example_profile();
        let t = p.generate(60_000);
        let s = t.characteristics();
        assert!((s.ifetch_fraction() - 0.50).abs() < 0.02, "{}", s.ifetch_fraction());
        assert!((s.read_fraction() - 0.33).abs() < 0.02, "{}", s.read_fraction());
        assert!((s.write_fraction() - 0.17).abs() < 0.02, "{}", s.write_fraction());
    }

    #[test]
    fn branch_fraction_near_target() {
        let p = example_profile();
        let s = p.generate(60_000).characteristics();
        let b = s.branch_fraction();
        assert!((0.10..=0.26).contains(&b), "branch fraction {b}");
    }

    #[test]
    fn footprints_bounded_by_targets() {
        let p = example_profile();
        let s = p.generate(150_000).characteristics();
        assert!(s.instruction_lines() * 16 <= p.code_bytes);
        assert!(s.data_lines() * 16 <= p.data_bytes + 16);
        // And a decent share is actually touched.
        assert!(s.address_space_bytes() * 3 > (p.code_bytes + p.data_bytes));
    }

    #[test]
    fn generator_is_deterministic() {
        let p = example_profile();
        assert_eq!(p.generate(5_000), p.generate(5_000));
        let mut q = p.clone();
        q.seed += 1;
        assert_ne!(p.generate(5_000), q.generate(5_000));
    }

    #[test]
    fn code_and_data_regions_disjoint() {
        let p = example_profile();
        for a in &p.generate(20_000) {
            if a.kind().is_ifetch() {
                assert!(a.addr().get() < DATA_BASE);
            } else {
                assert!(a.addr().get() >= DATA_BASE);
            }
        }
    }

    #[test]
    fn write_fraction_never_negative() {
        let mut p = example_profile();
        p.ifetch_fraction = 0.7;
        p.read_fraction = 0.35;
        assert_eq!(p.write_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn generator_rejects_bad_fractions() {
        let mut p = example_profile();
        p.ifetch_fraction = 0.9;
        p.read_fraction = 0.5;
        let _ = p.generator();
    }
}
