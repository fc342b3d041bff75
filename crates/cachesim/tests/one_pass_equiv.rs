//! The one-pass multi-configuration engine must be **bit-identical** to
//! the per-configuration simulators it replaces: every `CacheStats`
//! field of every grid cell equals a fresh [`Cache`] run of that one
//! configuration — or, for the split organisation, a fresh
//! [`SplitCache`] run — across mappings (direct / set-associative /
//! fully-associative), write policies and task-switch purge intervals,
//! and the miss counts also agree with the [`StackAnalyzer`] /
//! [`AssocAnalyzer`] stack algorithms on their shared design points.

use proptest::prelude::*;
use smith85_cachesim::{
    one_pass_grid, one_pass_split_grid, AssocAnalyzer, Cache, CacheConfig, CacheStats, ConfigError,
    GridCell, GridSpec, Mapping, OnePassEngine, Simulator, SplitCache, SplitOnePassEngine,
    StackAnalyzer, WritePolicy,
};
use smith85_synth::catalog;
use smith85_trace::{AccessKind, Addr, MemoryAccess};

/// The per-configuration equivalent of one grid cell, unpurged.
fn cell_config(spec: &GridSpec, cell: &GridCell) -> CacheConfig {
    let lines = cell.size_bytes / spec.line_size;
    let mapping = if cell.ways == lines {
        Mapping::FullyAssociative
    } else if cell.ways == 1 {
        Mapping::Direct
    } else {
        Mapping::SetAssociative(cell.ways)
    };
    CacheConfig::builder(cell.size_bytes)
        .line_size(spec.line_size)
        .mapping(mapping)
        .write_policy(spec.write_policy)
        .build()
        .expect("valid cell config")
}

fn grid_cells(spec: &GridSpec) -> Vec<GridCell> {
    OnePassEngine::new(spec)
        .expect("valid spec")
        .cells()
        .to_vec()
}

/// Runs one plain `Cache` per grid cell — the N-traversal reference.
fn per_config_reference(trace: &[MemoryAccess], spec: &GridSpec) -> Vec<CacheStats> {
    grid_cells(spec)
        .iter()
        .map(|cell| {
            let config = CacheConfig::builder(cell.size_bytes)
                .line_size(spec.line_size)
                .mapping(cell_config(spec, cell).mapping())
                .write_policy(spec.write_policy)
                .purge_interval(spec.purge_interval)
                .build()
                .expect("valid cell config");
            let mut cache = Cache::new(config).expect("valid cache");
            cache.run(trace);
            *cache.stats()
        })
        .collect()
}

/// Runs one `SplitCache` per grid cell (both halves that cell's
/// configuration, purged together on the spec's interval):
/// `(instruction, data)` statistics per cell.
fn per_config_split_reference(
    trace: &[MemoryAccess],
    spec: &GridSpec,
) -> Vec<(CacheStats, CacheStats)> {
    grid_cells(spec)
        .iter()
        .map(|cell| {
            let config = cell_config(spec, cell);
            let mut split =
                SplitCache::new(config, config, spec.purge_interval).expect("valid split");
            split.run_slice(trace);
            (*split.instruction_stats(), *split.data_stats())
        })
        .collect()
}

/// Checks the unified grid and both halves of the split grid, every
/// `CacheStats` field of every cell, against per-config simulation.
fn assert_grid_identical(trace: &[MemoryAccess], spec: &GridSpec) {
    let grid = one_pass_grid(trace, spec).expect("valid spec");
    let reference = per_config_reference(trace, spec);
    for ((cell, got), want) in grid.iter().zip(&reference) {
        assert_eq!(
            got, want,
            "unified cell {}B x {}-way diverges under {:?}, purge {:?}",
            cell.size_bytes, cell.ways, spec.write_policy, spec.purge_interval
        );
    }
    let (icache, dcache) = one_pass_split_grid(trace, spec).expect("valid spec");
    let reference = per_config_split_reference(trace, spec);
    for (((cell, got_i), got_d), (want_i, want_d)) in
        icache.iter().zip(dcache.stats()).zip(&reference)
    {
        assert_eq!(
            (got_i, got_d),
            (want_i, want_d),
            "split cell {}B x {}-way diverges under {:?}, purge {:?}",
            cell.size_bytes,
            cell.ways,
            spec.write_policy,
            spec.purge_interval
        );
    }
}

fn seeded_stream(seed: u64, len: usize) -> Vec<MemoryAccess> {
    // Splitmix64-driven mixture of sequential ifetches, looping reads
    // and clustered writes: enough locality to exercise hits at every
    // grid level, enough churn to force evictions.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut pc = 0x1000u64;
    (0..len)
        .map(|_| {
            let r = next();
            match r % 10 {
                0..=4 => {
                    pc = if r % 64 == 0 { (next() % 0x4000) & !3 } else { pc + 4 };
                    MemoryAccess::ifetch(Addr::new(pc), 4)
                }
                5..=7 => MemoryAccess::read(Addr::new((next() % 0x2000) & !3, ), 4),
                _ => MemoryAccess::write(Addr::new((0x8000 + next() % 0x800) & !1), 2),
            }
        })
        .collect()
}

#[test]
fn paper_grid_matches_per_config_caches_on_catalog_trace() {
    let trace = catalog::by_name("VCCOM").expect("catalog").generate(20_000);
    let mut spec = GridSpec::paper_grid();
    // Trim the largest sizes to keep the 54-cell reference sweep quick;
    // the full grid is exercised by the bench and the session layer.
    spec.sizes.truncate(9);
    assert_grid_identical(trace.as_slice(), &spec);
}

#[test]
fn every_write_policy_matches_on_seeded_streams() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let trace = seeded_stream(0x5eed + i as u64, 8_000);
        let mut spec = GridSpec::new(vec![32, 64, 256, 1024, 4096], vec![1, 2, 4, 8]);
        spec.write_policy = policy;
        spec.include_fully_associative = true;
        assert_grid_identical(&trace, &spec);
    }
}

const POLICIES: [WritePolicy; 3] = [
    WritePolicy::CopyBack {
        fetch_on_write: true,
    },
    WritePolicy::CopyBack {
        fetch_on_write: false,
    },
    WritePolicy::WriteThrough { allocate: true },
];

#[test]
fn purged_grids_match_per_config_caches_for_every_policy_and_interval() {
    // Interval 1 purges before every reference; 777 does not divide the
    // trace length, so the last epoch is partial; 10_000 is longer than
    // the trace, so no purge ever fires.
    let trace = seeded_stream(0xfeed, 6_000);
    for policy in POLICIES {
        for interval in [1, 777, 10_000] {
            let mut spec = GridSpec::new(vec![32, 64, 256, 1024], vec![1, 2, 4]);
            spec.write_policy = policy;
            spec.include_fully_associative = true;
            spec.purge_interval = Some(interval);
            assert_grid_identical(&trace, &spec);
        }
    }
}

#[test]
fn purged_paper_table3_shape_matches_on_a_catalog_mix() {
    // The suite's purged sweeps: fully-associative cells only, the
    // paper's 20,000-reference task switch, a trace of several epochs.
    let trace = catalog::by_name("ZGREP").expect("catalog").generate(45_000);
    let mut spec = GridSpec::new(vec![64, 512, 4096, 16384], vec![]);
    spec.include_fully_associative = true;
    spec.purge_interval = Some(20_000);
    assert_grid_identical(trace.as_slice(), &spec);
}

#[test]
fn purges_count_like_the_per_config_caches() {
    let trace = seeded_stream(3, 100);
    let mut spec = GridSpec::new(vec![256], vec![2]);
    for (interval, purges) in [(1, 99), (10, 9), (33, 3), (100, 0), (1_000, 0)] {
        spec.purge_interval = Some(interval);
        let grid = one_pass_grid(&trace, &spec).expect("valid spec");
        assert_eq!(grid.stats()[0].purges, purges, "interval {interval}");
        let (icache, dcache) = one_pass_split_grid(&trace, &spec).expect("valid spec");
        assert_eq!(icache.stats()[0].purges, purges, "interval {interval}");
        assert_eq!(dcache.stats()[0].purges, purges, "interval {interval}");
    }
}

#[test]
fn piecewise_feeding_purges_on_the_global_count() {
    // Slices that straddle purge boundaries, and single references,
    // must land on the same epochs as one whole-trace pass.
    let trace = seeded_stream(11, 3_000);
    let mut spec = GridSpec::new(vec![64, 256], vec![1, 2]);
    spec.include_fully_associative = true;
    spec.purge_interval = Some(250);
    let whole = one_pass_grid(&trace, &spec).expect("valid spec");
    let mut engine = OnePassEngine::new(&spec).expect("valid spec");
    let mut split = SplitOnePassEngine::new(&spec).expect("valid spec");
    let (head, tail) = trace.split_at(1_111);
    engine.observe_slice(&head[..600]);
    for &access in &head[600..] {
        engine.observe(access);
    }
    engine.observe_slice(tail);
    for piece in trace.chunks(97) {
        split.observe_slice(piece);
    }
    assert_eq!(engine.finish().stats(), whole.stats());
    let (icache, dcache) = split.finish();
    let (whole_i, whole_d) = one_pass_split_grid(&trace, &spec).expect("valid spec");
    assert_eq!(icache.stats(), whole_i.stats());
    assert_eq!(dcache.stats(), whole_d.stats());
}

#[test]
fn zero_purge_interval_is_rejected() {
    let mut spec = GridSpec::new(vec![256], vec![1]);
    spec.purge_interval = Some(0);
    assert!(matches!(
        one_pass_grid(&[], &spec),
        Err(ConfigError::ZeroPurgeInterval)
    ));
    assert!(matches!(
        one_pass_split_grid(&[], &spec),
        Err(ConfigError::ZeroPurgeInterval)
    ));
}

#[test]
fn full_assoc_cells_match_the_stack_analyzer() {
    let trace = seeded_stream(42, 10_000);
    let mut spec = GridSpec::new(vec![64, 256, 1024, 4096], vec![]);
    spec.include_fully_associative = true;
    let grid = one_pass_grid(&trace, &spec).expect("valid spec");

    let mut stack = StackAnalyzer::with_line_size(16);
    stack.observe_slice(&trace);
    let profile = stack.finish();

    for (cell, stats) in grid.iter() {
        assert_eq!(stats.total_misses(), profile.misses(cell.size_bytes));
        for kind in AccessKind::ALL {
            assert_eq!(stats.misses(kind), profile.misses_of(cell.size_bytes, kind));
        }
    }
}

#[test]
fn fixed_set_column_matches_the_assoc_analyzer() {
    let trace = seeded_stream(7, 10_000);
    // AssocAnalyzer fixes the set count and sweeps ways; the equivalent
    // grid column holds sets = 16 fixed: (size, ways) = (256·w, w).
    let sets = 16;
    let spec = GridSpec {
        sizes: vec![256, 512, 1024, 2048],
        ways: vec![1, 2, 4, 8],
        line_size: 16,
        write_policy: WritePolicy::PAPER,
        replacement: smith85_cachesim::Replacement::Lru,
        include_fully_associative: false,
        purge_interval: None,
    };
    let grid = one_pass_grid(&trace, &spec).expect("valid spec");

    let mut assoc = AssocAnalyzer::with_line_size(sets, 16);
    assoc.observe_slice(&trace);
    let profile = assoc.finish();

    for ways in [1usize, 2, 4, 8] {
        let size = sets * ways * 16;
        let stats = grid.cell_stats(size, ways).expect("cell in grid");
        assert_eq!(
            stats.total_misses(),
            profile.misses(ways),
            "sets=16 ways={ways}"
        );
    }
}

#[test]
fn write_through_without_allocate_is_rejected() {
    let mut spec = GridSpec::new(vec![256], vec![2]);
    spec.write_policy = WritePolicy::WriteThrough { allocate: false };
    assert!(matches!(
        one_pass_grid(&[], &spec),
        Err(ConfigError::OnePassUnsupported { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random streams over a small address space (dense conflicts) keep
    /// the whole grid — unified and split, purged or not — bit-identical
    /// to per-config simulation for every supported write policy.
    #[test]
    fn random_streams_stay_bit_identical(
        seed in 0u64..1_000_000,
        policy_pick in 0usize..3,
        len in 200usize..2_000,
        purge_pick in 0usize..4,
        interval in 2u64..3_000,
    ) {
        let policy = POLICIES[policy_pick];
        let purge_interval = [None, Some(1), Some(interval), Some(len as u64 + 1)][purge_pick];
        let trace = seeded_stream(seed, len);
        let mut spec = GridSpec::new(vec![32, 64, 128, 512], vec![1, 2, 4]);
        spec.write_policy = policy;
        spec.include_fully_associative = true;
        spec.purge_interval = purge_interval;
        let grid = one_pass_grid(&trace, &spec).expect("valid spec");
        let reference = per_config_reference(&trace, &spec);
        for ((cell, got), want) in grid.iter().zip(&reference) {
            prop_assert_eq!(
                got, want,
                "cell {}B x {}-way under {:?}, purge {:?}",
                cell.size_bytes, cell.ways, policy, purge_interval
            );
        }
        let (icache, dcache) = one_pass_split_grid(&trace, &spec).expect("valid spec");
        let reference = per_config_split_reference(&trace, &spec);
        for (((cell, got_i), got_d), (want_i, want_d)) in
            icache.iter().zip(dcache.stats()).zip(&reference)
        {
            prop_assert_eq!(
                (got_i, got_d), (want_i, want_d),
                "split cell {}B x {}-way under {:?}, purge {:?}",
                cell.size_bytes, cell.ways, policy, purge_interval
            );
        }
    }
}
