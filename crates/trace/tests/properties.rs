//! Property tests of the trace substrate: formats, the characterizer, the
//! mixer and the interface adapter.

use proptest::prelude::*;
use smith85_trace::interface::InterfaceAdapter;
use smith85_trace::mix::RoundRobinMix;
use smith85_trace::stats::TraceCharacterizer;
use smith85_trace::{AccessKind, Addr, InterfaceSpec, MemoryAccess, Trace};

fn arb_access() -> impl Strategy<Value = MemoryAccess> {
    (
        0u64..0x1_0000,
        prop_oneof![
            Just(AccessKind::InstructionFetch),
            Just(AccessKind::Read),
            Just(AccessKind::Write),
        ],
        1u8..=8,
    )
        .prop_map(|(addr, kind, size)| MemoryAccess::new(kind, Addr::new(addr), size))
}

fn arb_trace(max: usize) -> impl Strategy<Value = Vec<MemoryAccess>> {
    prop::collection::vec(arb_access(), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Characterizer totals always reconcile.
    #[test]
    fn characterizer_totals_reconcile(accs in arb_trace(300)) {
        let mut c = TraceCharacterizer::new();
        c.extend(accs.iter().copied());
        let s = c.finish();
        prop_assert_eq!(s.total_refs(), accs.len() as u64);
        prop_assert_eq!(
            s.ifetches(),
            accs.iter().filter(|a| a.kind().is_ifetch()).count() as u64
        );
        prop_assert!(s.instruction_lines() <= s.ifetches());
        prop_assert!(s.data_lines() <= s.reads() + s.writes());
    }

    /// The mixer emits exactly the union of its members' references, each
    /// relocated into its own slice.
    #[test]
    fn mixer_conserves_and_separates(
        a in arb_trace(200),
        b in arb_trace(200),
        quantum in 1u64..50,
    ) {
        let mix = RoundRobinMix::new(
            vec![a.clone().into_iter(), b.clone().into_iter()],
            quantum,
        );
        let out: Vec<MemoryAccess> = mix.collect();
        prop_assert_eq!(out.len(), a.len() + b.len());
        const STRIDE: u64 = 1 << 40;
        let from_a: Vec<MemoryAccess> = out
            .iter()
            .filter(|x| x.addr().get() < STRIDE)
            .copied()
            .collect();
        let from_b: Vec<MemoryAccess> = out
            .iter()
            .filter(|x| x.addr().get() >= STRIDE)
            .map(|x| x.relocated(0u64.wrapping_sub(STRIDE)))
            .collect();
        // Order within each member is preserved.
        prop_assert_eq!(from_a, a);
        prop_assert_eq!(from_b, b);
    }

    /// The interface adapter conserves coverage: every byte of every
    /// processor reference is covered by some emitted memory reference,
    /// and emitted references are interface-aligned.
    #[test]
    fn interface_adapter_covers_all_bytes(
        accs in arb_trace(200),
        width_pow in 1u32..4,
        remembers in any::<bool>(),
    ) {
        let width = 1u8 << width_pow; // 2, 4, 8
        let spec = InterfaceSpec::new(width, remembers);
        let out: Vec<MemoryAccess> =
            InterfaceAdapter::new(accs.iter().copied(), spec).collect();
        for m in &out {
            prop_assert_eq!(m.addr().get() % width as u64, 0);
            prop_assert_eq!(m.size(), width);
        }
        // Without memory, the unit count is exact per access.
        if !remembers {
            let expected: usize = accs
                .iter()
                .map(|a| {
                    let w = width as u64;
                    let first = a.addr().get() / w;
                    let last = (a.addr().get() + a.size().max(1) as u64 - 1) / w;
                    (last - first + 1) as usize
                })
                .sum();
            prop_assert_eq!(out.len(), expected);
        } else {
            prop_assert!(out.len() <= accs.iter().map(|a| a.size() as usize).sum::<usize>());
        }
        // Writes are never absorbed.
        let writes_in: usize = accs.iter().filter(|a| a.kind().is_write()).count();
        let writes_out = out.iter().filter(|a| a.kind().is_write()).count();
        prop_assert!(writes_out >= writes_in);
    }

    /// Text and binary formats agree with each other on every trace.
    #[test]
    fn formats_agree(accs in arb_trace(200)) {
        let trace: Trace = accs.into();
        let mut text = Vec::new();
        smith85_trace::io::write_text(&mut text, &trace).unwrap();
        let mut bin = Vec::new();
        smith85_trace::io::write_binary(&mut bin, &trace).unwrap();
        let t = smith85_trace::io::read_text(text.as_slice()).unwrap();
        let b = smith85_trace::io::read_binary(bin.as_slice()).unwrap();
        prop_assert_eq!(t, b);
    }

    /// Branch counting is shift-invariant: relocating a whole trace does
    /// not change any characterizer statistic except the line identities.
    #[test]
    fn characterizer_shift_invariant(accs in arb_trace(300), shift_lines in 0u64..1000) {
        let shift = shift_lines * 16;
        let stat = |xs: &[MemoryAccess]| {
            let mut c = TraceCharacterizer::new();
            c.extend(xs.iter().copied());
            c.finish()
        };
        let base = stat(&accs);
        let moved: Vec<MemoryAccess> =
            accs.iter().map(|a| a.relocated(shift)).collect();
        let shifted = stat(&moved);
        prop_assert_eq!(base.branches(), shifted.branches());
        prop_assert_eq!(base.instruction_lines(), shifted.instruction_lines());
        prop_assert_eq!(base.data_lines(), shifted.data_lines());
    }
}
