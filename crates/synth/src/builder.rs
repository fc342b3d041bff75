//! Builder for custom [`ProgramProfile`]s.
//!
//! The catalog covers the paper's 49 traces; downstream users modelling
//! their *own* workload start here. The builder takes the same knobs the
//! paper's Table 2 publishes per trace, validates them as a set, and
//! fills everything else with calibrated defaults.
//!
//! ```
//! use smith85_synth::ProfileBuilder;
//! use smith85_trace::MachineArch;
//!
//! let profile = ProfileBuilder::new("MYAPP")
//!     .arch(MachineArch::Vax)
//!     .ifetch_fraction(0.55)
//!     .read_fraction(0.30)
//!     .branch_fraction(0.15)
//!     .code_kb(24.0)
//!     .data_kb(32.0)
//!     .build()
//!     .expect("consistent profile");
//! let trace = profile.generate(10_000);
//! assert_eq!(trace.len(), 10_000);
//! ```

use crate::profile::{Locality, ProgramProfile};
use smith85_trace::{MachineArch, SourceLanguage};
use std::error::Error;
use std::fmt;

/// A profile description that cannot be realized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileError {
    message: String,
}

impl ProfileError {
    fn new(message: impl Into<String>) -> Self {
        ProfileError {
            message: message.into(),
        }
    }

    /// Wraps a validation message from outside the CPU-profile builder
    /// (the non-CPU families validate with their own knobs but surface
    /// through the same workload error type).
    pub fn custom(message: impl Into<String>) -> Self {
        Self::new(message)
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for ProfileError {}

/// Non-consuming builder for [`ProgramProfile`].
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    profile: ProgramProfile,
}

impl ProfileBuilder {
    /// Starts a builder with VAX-like defaults and the given name.
    pub fn new(name: &str) -> Self {
        ProfileBuilder {
            profile: ProgramProfile {
                name: name.to_string(),
                arch: MachineArch::Vax,
                language: SourceLanguage::C,
                description: "custom workload".to_string(),
                ifetch_fraction: 0.50,
                read_fraction: 0.33,
                branch_fraction: 0.17,
                code_bytes: 12 * 1024,
                data_bytes: 12 * 1024,
                locality: Locality::default(),
                seed: 0x5_8a17,
                paper_length: 250_000,
            },
        }
    }

    /// Sets the machine architecture (drives word and instruction sizes).
    pub fn arch(&mut self, arch: MachineArch) -> &mut Self {
        self.profile.arch = arch;
        self
    }

    /// Sets the source language (descriptive metadata).
    pub fn language(&mut self, language: SourceLanguage) -> &mut Self {
        self.profile.language = language;
        self
    }

    /// Sets the one-line description.
    pub fn description(&mut self, description: &str) -> &mut Self {
        self.profile.description = description.to_string();
        self
    }

    /// Sets the instruction-fetch fraction of all references.
    pub fn ifetch_fraction(&mut self, f: f64) -> &mut Self {
        self.profile.ifetch_fraction = f;
        self
    }

    /// Sets the data-read fraction of all references.
    pub fn read_fraction(&mut self, f: f64) -> &mut Self {
        self.profile.read_fraction = f;
        self
    }

    /// Sets the fraction of instruction fetches that branch.
    pub fn branch_fraction(&mut self, f: f64) -> &mut Self {
        self.profile.branch_fraction = f;
        self
    }

    /// Sets the instruction footprint in KiB.
    pub fn code_kb(&mut self, kb: f64) -> &mut Self {
        self.profile.code_bytes = (kb * 1024.0) as u64;
        self
    }

    /// Sets the data footprint in KiB.
    pub fn data_kb(&mut self, kb: f64) -> &mut Self {
        self.profile.data_bytes = (kb * 1024.0) as u64;
        self
    }

    /// Sets the locality dials wholesale.
    pub fn locality(&mut self, locality: Locality) -> &mut Self {
        self.profile.locality = locality;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.profile.seed = seed;
        self
    }

    /// Validates and returns the profile.
    ///
    /// # Errors
    ///
    /// Returns an error if the fractions are inconsistent, the footprints
    /// are too small for the models, or a locality dial is out of range.
    pub fn build(&self) -> Result<ProgramProfile, ProfileError> {
        validate_profile(&self.profile)?;
        Ok(self.profile.clone())
    }
}

/// The checks behind both [`ProfileBuilder::build`] and
/// [`ProgramProfile::validate`].
pub(crate) fn validate_profile(p: &ProgramProfile) -> Result<(), ProfileError> {
    if !(0.0..=1.0).contains(&p.ifetch_fraction)
        || !(0.0..=1.0).contains(&p.read_fraction)
        || p.ifetch_fraction + p.read_fraction > 1.0
    {
        return Err(ProfileError::new(
            "ifetch and read fractions must be nonnegative and sum to at most 1",
        ));
    }
    if !(0.0..1.0).contains(&p.branch_fraction) {
        return Err(ProfileError::new("branch fraction must lie in [0, 1)"));
    }
    if p.code_bytes < 512 {
        return Err(ProfileError::new("code footprint must be at least 512 bytes"));
    }
    if p.data_bytes < 512 {
        return Err(ProfileError::new("data footprint must be at least 512 bytes"));
    }
    let l = &p.locality;
    if l.seq_fraction < 0.0
        || l.stack_fraction < 0.0
        || l.seq_fraction + l.stack_fraction > 1.0
    {
        return Err(ProfileError::new(
            "seq and stack fractions must be nonnegative and sum to at most 1",
        ));
    }
    if !(0.0..=1.0).contains(&l.write_concentration) {
        return Err(ProfileError::new("write concentration must lie in [0, 1]"));
    }
    if !(0.0..=4.0).contains(&l.instr_alpha) || !(0.0..=4.0).contains(&l.data_alpha) {
        return Err(ProfileError::new("Zipf alphas must lie in [0, 4]"));
    }
    // Exercise the model constructors so any residual inconsistency
    // surfaces here rather than on first use.
    let _ = p.instr_params();
    let _ = p.data_params();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_and_generate() {
        let p = ProfileBuilder::new("T").build().unwrap();
        assert_eq!(p.name, "T");
        assert_eq!(p.generate(1_000).len(), 1_000);
    }

    #[test]
    fn chained_configuration() {
        let mut b = ProfileBuilder::new("CHAIN");
        let p = b
            .arch(MachineArch::Cdc6400)
            .language(SourceLanguage::Fortran)
            .ifetch_fraction(0.77)
            .read_fraction(0.15)
            .branch_fraction(0.04)
            .code_kb(10.0)
            .data_kb(14.0)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(p.arch, MachineArch::Cdc6400);
        assert!((p.write_fraction() - 0.08).abs() < 1e-12);
        // Architecture drives the data word size.
        let t = p.generate(500);
        assert!(t
            .iter()
            .filter(|a| !a.kind().is_ifetch())
            .all(|a| a.size() == 8));
    }

    #[test]
    fn rejects_inconsistent_fractions() {
        assert!(ProfileBuilder::new("X").ifetch_fraction(0.9).read_fraction(0.5).build().is_err());
        assert!(ProfileBuilder::new("X").branch_fraction(1.0).build().is_err());
    }

    #[test]
    fn rejects_tiny_footprints() {
        assert!(ProfileBuilder::new("X").code_kb(0.1).build().is_err());
        assert!(ProfileBuilder::new("X").data_kb(0.1).build().is_err());
    }

    #[test]
    fn rejects_bad_locality() {
        let loc = Locality {
            seq_fraction: 0.8,
            stack_fraction: 0.5,
            ..Default::default()
        };
        assert!(ProfileBuilder::new("X").locality(loc).build().is_err());
        let loc = Locality {
            instr_alpha: 9.0,
            ..Default::default()
        };
        assert!(ProfileBuilder::new("X").locality(loc).build().is_err());
    }

    #[test]
    fn builder_is_reusable() {
        let mut b = ProfileBuilder::new("RE");
        let a = b.seed(1).build().unwrap();
        let c = b.seed(2).build().unwrap();
        assert_ne!(a.seed, c.seed);
        assert_eq!(a.name, c.name);
    }
}
