//! Per-layer kernel timings through the layers' public functions, on
//! traces the workload itself uses: the cache simulators of `cachesim`,
//! trace generation in `synth`, and materialization in `core.trace_pool`.

use crate::spans::Recorder;
use crate::stats::Summary;
use crate::Metrics;
use smith85_cachesim::{
    AssocAnalyzer, Cache, CacheConfig, FetchPolicy, GridSpec, Mapping, OnePassEngine, Replacement,
    Simulator, StackAnalyzer, UnifiedCache,
};
use smith85_core::TracePool;
use smith85_synth::ProgramProfile;
use smith85_trace::{MemoryAccess, Trace, PAPER_LINE_SIZE, PAPER_PURGE_INTERVAL};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Minimum time spent per kernel, so short traces still give a stable rate.
const MIN_KERNEL_SECS: f64 = 0.15;

/// Times `run` over every trace, repeating the round until
/// [`MIN_KERNEL_SECS`] have passed, and returns references per second
/// (`refs_per_trace_ref` scales the count for multi-pass kernels).
fn rate(
    rec: &mut Recorder,
    span: &'static str,
    traces: &[&[MemoryAccess]],
    refs_per_trace_ref: u64,
    mut run: impl FnMut(&[MemoryAccess]),
) -> f64 {
    let (mut refs, mut secs) = (0u64, 0.0);
    while secs < MIN_KERNEL_SECS {
        for (i, trace) in traces.iter().enumerate() {
            let start = Instant::now();
            rec.time(span, i as u64, || run(black_box(trace)));
            secs += start.elapsed().as_secs_f64();
            refs += trace.len() as u64 * refs_per_trace_ref;
        }
    }
    refs as f64 / secs
}

fn config(size: usize) -> smith85_cachesim::CacheConfigBuilder {
    CacheConfig::builder(size)
}

/// Times the seven `cachesim` kernels on `traces` and adds
/// `cachesim.<kernel>.refs_per_s` (and the one-pass trace rate) to `out`.
pub fn cachesim(rec: &mut Recorder, traces: &[Arc<Trace>], out: &mut Metrics) {
    let slices: Vec<&[MemoryAccess]> = traces.iter().map(|t| t.as_slice()).collect();
    let set_assoc = config(16 * 1024)
        .mapping(Mapping::SetAssociative(8))
        .build()
        .expect("valid set-associative config");
    let r = rate(rec, "cachesim.set_assoc", &slices, 1, |t| {
        let mut c = Cache::new(set_assoc).expect("valid config");
        c.run(t);
        black_box(c.stats().total_misses());
    });
    out.add("cachesim.set_assoc.refs_per_s", r, "refs/s");

    let purge = config(16 * 1024)
        .purge_interval(Some(PAPER_PURGE_INTERVAL))
        .build()
        .expect("valid purge config");
    let r = rate(rec, "cachesim.unified_purge", &slices, 1, |t| {
        let mut c = UnifiedCache::new(purge).expect("valid config");
        c.run_slice(t);
        black_box(c.stats().total_misses());
    });
    out.add("cachesim.unified_purge.refs_per_s", r, "refs/s");

    let prefetch = config(16 * 1024)
        .fetch_policy(FetchPolicy::PrefetchAlways)
        .build()
        .expect("valid prefetch config");
    let r = rate(rec, "cachesim.prefetch", &slices, 1, |t| {
        let mut c = UnifiedCache::new(prefetch).expect("valid config");
        c.run_slice(t);
        black_box(c.stats().total_misses());
    });
    out.add("cachesim.prefetch.refs_per_s", r, "refs/s");

    let policies: Vec<CacheConfig> = [Replacement::Fifo, Replacement::Random { seed: 85 }]
        .into_iter()
        .map(|p| {
            config(16 * 1024)
                .mapping(Mapping::SetAssociative(8))
                .replacement(p)
                .build()
                .expect("valid policy config")
        })
        .collect();
    let r = rate(rec, "cachesim.fifo_random", &slices, 2, |t| {
        for cfg in &policies {
            let mut c = Cache::new(*cfg).expect("valid config");
            c.run(t);
            black_box(c.stats().total_misses());
        }
    });
    out.add("cachesim.fifo_random.refs_per_s", r, "refs/s");

    let r = rate(rec, "cachesim.stack", &slices, 1, |t| {
        let mut a = StackAnalyzer::with_line_size_and_capacity(PAPER_LINE_SIZE, t.len());
        a.observe_slice(t);
        black_box(a.finish().miss_ratio(1024));
    });
    out.add("cachesim.stack.refs_per_s", r, "refs/s");

    let r = rate(rec, "cachesim.assoc_stack", &slices, 1, |t| {
        let mut a = AssocAnalyzer::with_line_size_and_capacity(64, PAPER_LINE_SIZE, t.len());
        a.observe_slice(t);
        black_box(a.finish().cache_bytes(1));
    });
    out.add("cachesim.assoc_stack.refs_per_s", r, "refs/s");

    let grid = GridSpec::paper_grid();
    let r = rate(rec, "cachesim.one_pass", &slices, 1, |t| {
        let mut e = OnePassEngine::new(&grid).expect("paper grid is in the one-pass envelope");
        e.observe_slice(t);
        black_box(e.finish());
    });
    out.add("cachesim.one_pass.trace_refs_per_s", r, "refs/s");
}

/// Times `ProgramProfile::generate` over `profiles` and adds
/// `synth.refs_per_s`.
pub fn synth(rec: &mut Recorder, profiles: &[ProgramProfile], len: usize, out: &mut Metrics) {
    let (mut refs, mut secs) = (0u64, 0.0);
    while secs < MIN_KERNEL_SECS {
        for (i, p) in profiles.iter().enumerate() {
            let start = Instant::now();
            let trace = rec.time("synth.generate", i as u64, || p.generate(len));
            secs += start.elapsed().as_secs_f64();
            refs += black_box(trace).len() as u64;
        }
    }
    out.add("synth.refs_per_s", refs as f64 / secs, "refs/s");
}

/// Materializes `profiles` into a fresh pool, timing each miss, and
/// returns the pooled traces plus the per-miss milliseconds.
pub fn materialize(
    rec: &mut Recorder,
    profiles: &[ProgramProfile],
    len: usize,
) -> (Vec<Arc<Trace>>, Summary) {
    let pool = TracePool::new();
    let mut ms = Vec::new();
    let traces = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let start = Instant::now();
            let t = rec.time("trace_pool.materialize", i as u64, || pool.profile(p, len));
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            t
        })
        .collect();
    (traces, Summary::of(&ms))
}
