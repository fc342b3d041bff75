//! Workload perturbations the paper says trace-driven studies usually
//! omit (§1.1): operating-system interrupts ("most real machines task
//! switch every few thousand instructions and are constantly taking
//! interrupts") and input/output activity ("a certain (usually small)
//! fraction of the cache activity is due to input/output").
//!
//! Both are stream adapters: wrap any access stream and the perturbation
//! is injected deterministically. The `perturbations` experiment in
//! `smith85-core` quantifies how much each one inflates the miss ratios a
//! pure trace would predict.

use crate::dist::{derive_seed, Geometric};
use crate::profile::{Locality, ProgramGenerator, ProgramProfile};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smith85_trace::{Addr, MachineArch, MemoryAccess, SourceLanguage};

/// Address region where the interrupt handler's code and data live — far
/// from any synthetic program.
pub const OS_REGION_BASE: u64 = 0x4000_0000;

/// Address region DMA traffic lands in.
pub const DMA_REGION_BASE: u64 = 0x6000_0000;

/// A small OS-like profile used as the interrupt handler: modest footprint
/// but flat locality and a high write share, like a slice of MVS.
pub fn interrupt_handler_profile(seed: u64) -> ProgramProfile {
    ProgramProfile {
        name: "OS-INTERRUPT".to_string(),
        arch: MachineArch::Ibm370,
        language: SourceLanguage::Assembler,
        description: "interrupt/dispatcher burst (OS slice)".to_string(),
        ifetch_fraction: 0.55,
        read_fraction: 0.27,
        branch_fraction: 0.16,
        code_bytes: 12 * 1024,
        data_bytes: 8 * 1024,
        locality: Locality {
            instr_alpha: 0.9,
            data_alpha: 0.9,
            seq_fraction: 0.10,
            stack_fraction: 0.15,
            loop_prob: 0.25,
            phase_interval: 0,
            write_concentration: 0.6,
        },
        seed,
        paper_length: 0,
    }
}

/// Interleaves interrupt-handler bursts into a user reference stream.
///
/// Burst spacing and length are geometrically distributed; handler
/// references live in their own address region ([`OS_REGION_BASE`]), so
/// they pollute the cache exactly the way a real interrupt does.
///
/// ```
/// use smith85_synth::catalog;
/// use smith85_synth::perturb::WithInterrupts;
///
/// let user = catalog::by_name("VCCOM").unwrap().stream();
/// let perturbed = WithInterrupts::new(user, 2_000.0, 150.0, 7);
/// assert_eq!(perturbed.take(10_000).count(), 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct WithInterrupts<I> {
    user: I,
    handler: ProgramGenerator,
    spacing: Geometric,
    burst_len: Geometric,
    rng: SmallRng,
    until_interrupt: u64,
    in_burst: u64,
    interrupts: u64,
}

impl<I: Iterator<Item = MemoryAccess>> WithInterrupts<I> {
    /// Wraps `user`, taking an interrupt every `mean_spacing` references
    /// on average, each executing `mean_burst` handler references.
    ///
    /// # Panics
    ///
    /// Panics if either mean is below 1.
    pub fn new(user: I, mean_spacing: f64, mean_burst: f64, seed: u64) -> Self {
        let spacing = Geometric::with_mean(mean_spacing);
        let burst_len = Geometric::with_mean(mean_burst);
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0x1237));
        let until_interrupt = spacing.sample(&mut rng);
        WithInterrupts {
            user,
            handler: interrupt_handler_profile(derive_seed(seed, 0x05)).generator(),
            spacing,
            burst_len,
            rng,
            until_interrupt,
            in_burst: 0,
            interrupts: 0,
        }
    }

    /// Number of interrupts taken so far.
    pub fn interrupts(&self) -> u64 {
        self.interrupts
    }
}

impl<I: Iterator<Item = MemoryAccess>> Iterator for WithInterrupts<I> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        if self.in_burst > 0 {
            self.in_burst -= 1;
            let access = self.handler.next().expect("handler stream is infinite");
            return Some(access.relocated(OS_REGION_BASE));
        }
        if self.until_interrupt == 0 {
            self.interrupts += 1;
            self.in_burst = self.burst_len.sample(&mut self.rng);
            self.until_interrupt = self.spacing.sample(&mut self.rng);
            return self.next();
        }
        self.until_interrupt -= 1;
        self.user.next()
    }
}

/// Injects DMA (input/output) references into a stream: periodic bursts of
/// sequential writes sweeping an I/O buffer region, the way a device
/// controller fills buffers behind the processor's back.
#[derive(Debug, Clone)]
pub struct WithDma<I> {
    inner: I,
    spacing: Geometric,
    burst_len: Geometric,
    rng: SmallRng,
    until_burst: u64,
    in_burst: u64,
    cursor: u64,
    buffer_bytes: u64,
    transfer_bytes: u8,
}

impl<I: Iterator<Item = MemoryAccess>> WithDma<I> {
    /// Wraps `inner`; every `mean_spacing` references a DMA burst of
    /// `mean_burst` transfers (of `transfer_bytes` each) sweeps through a
    /// circular buffer of `buffer_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if a mean is below 1, or `transfer_bytes`/`buffer_bytes`
    /// is zero.
    pub fn new(
        inner: I,
        mean_spacing: f64,
        mean_burst: f64,
        buffer_bytes: u64,
        transfer_bytes: u8,
        seed: u64,
    ) -> Self {
        assert!(transfer_bytes > 0, "DMA transfer size must be nonzero");
        assert!(buffer_bytes >= transfer_bytes as u64, "DMA buffer too small");
        let spacing = Geometric::with_mean(mean_spacing);
        let burst_len = Geometric::with_mean(mean_burst);
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0xd0a));
        let until_burst = spacing.sample(&mut rng);
        WithDma {
            inner,
            spacing,
            burst_len,
            rng,
            until_burst,
            in_burst: 0,
            cursor: 0,
            buffer_bytes,
            transfer_bytes,
        }
    }
}

impl<I: Iterator<Item = MemoryAccess>> Iterator for WithDma<I> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        if self.in_burst > 0 {
            self.in_burst -= 1;
            let addr = DMA_REGION_BASE + self.cursor;
            self.cursor = (self.cursor + self.transfer_bytes as u64) % self.buffer_bytes;
            return Some(MemoryAccess::write(Addr::new(addr), self.transfer_bytes));
        }
        if self.until_burst == 0 {
            self.in_burst = self.burst_len.sample(&mut self.rng);
            self.until_burst = self.spacing.sample(&mut self.rng);
            return self.next();
        }
        self.until_burst -= 1;
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn interrupt_share_tracks_parameters() {
        let user = catalog::by_name("VCCOM").unwrap().stream();
        let stream = WithInterrupts::new(user, 1_000.0, 100.0, 3);
        let os_refs = stream
            .take(60_000)
            .filter(|a| a.addr().get() >= OS_REGION_BASE)
            .count();
        // Expected share: 100 / 1100 ≈ 9%.
        let share = os_refs as f64 / 60_000.0;
        assert!((0.05..0.14).contains(&share), "OS share {share}");
    }

    #[test]
    fn interrupts_count_and_are_deterministic() {
        let run = || {
            let user = catalog::by_name("ZGREP").unwrap().stream();
            let mut s = WithInterrupts::new(user, 500.0, 50.0, 9);
            let v: Vec<u64> = s.by_ref().take(5_000).map(|a| a.addr().get()).collect();
            (v, s.interrupts())
        };
        let (a, ia) = run();
        let (b, ib) = run();
        assert_eq!(a, b);
        assert_eq!(ia, ib);
        assert!(ia > 3, "{ia} interrupts");
    }

    #[test]
    fn dma_writes_sweep_buffer_region() {
        let user = catalog::by_name("TWOD").unwrap().stream();
        let stream = WithDma::new(user, 2_000.0, 64.0, 4096, 8, 1);
        let dma: Vec<MemoryAccess> = stream
            .take(50_000)
            .filter(|a| a.addr().get() >= DMA_REGION_BASE)
            .collect();
        assert!(!dma.is_empty());
        assert!(dma.iter().all(|a| a.kind().is_write()));
        assert!(dma.iter().all(|a| a.addr().get() < DMA_REGION_BASE + 4096));
    }

    #[test]
    fn user_references_pass_through_unchanged() {
        let user: Vec<MemoryAccess> = catalog::by_name("PL0")
            .unwrap()
            .generate(2_000)
            .into_inner();
        let out: Vec<MemoryAccess> =
            WithInterrupts::new(user.clone().into_iter(), 10_000.0, 10.0, 2)
                .take(2_000)
                .filter(|a| a.addr().get() < OS_REGION_BASE)
                .collect();
        // The user refs that did come through are a prefix of the original.
        assert_eq!(&user[..out.len()], &out[..]);
    }

    #[test]
    fn handler_profile_is_valid() {
        let p = interrupt_handler_profile(1);
        let t = p.generate(5_000);
        assert_eq!(t.len(), 5_000);
    }
}
