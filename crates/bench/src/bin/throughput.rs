//! Refs/sec throughput baseline for the simulation engine's hot paths.
//!
//! Times each kernel over the same VCCOM trace and reports the best of
//! several repeats, so the numbers are comparable across commits:
//!
//! * `generation` — synthesizing the trace itself;
//! * `stack_analysis` — one-pass LRU stack distances ([`StackAnalyzer`]);
//! * `assoc_analysis` — one-pass per-set stack distances ([`AssocAnalyzer`]);
//! * `set_assoc_sim` — an 8-way 16 KiB cache driven by the slice path;
//! * `unified_sim` — the fully associative paper cache, purges on;
//! * `session_unified` — the same cache through the instrumented
//!   [`SimSession`] entry point (metrics and, with `--journal`, tracing);
//! * `one_pass_sweep` — the one-pass multi-configuration engine over the
//!   paper's full size × associativity grid. Its `refs` are *effective*
//!   references (trace length × grid cells: one traversal replaces that
//!   many per-config simulation steps); the honest per-pass numbers ride
//!   along as `trace_refs` / `trace_refs_per_sec`;
//! * `fifo_random_policy` — the replacement-policy matrix's non-LRU hot
//!   path: the same 8-way cache under FIFO and then seeded-random
//!   replacement (`refs` counts both passes).
//!
//! ```text
//! cargo run --release -p smith85-bench --bin throughput -- [quick|paper] [OUT.json]
//!     [--journal PATH]
//! ```
//!
//! `--journal PATH` attaches an NDJSON trace journal to the session
//! kernel, so comparing `session_unified` with and without the flag
//! bounds the journaling overhead. The non-session kernels never touch
//! the tracing layer, so for them the cost is zero by construction.
//!
//! Results land in `OUT.json` (default `BENCH_sim.json`), documented in
//! `EXPERIMENTS.md`.

use smith85_cachesim::{
    AssocAnalyzer, CacheConfig, Simulator, StackAnalyzer, UnifiedCache,
};
use smith85_synth::catalog;
use smith85_trace::MemoryAccess;
use smith85_tracelog::json::{self, Json};
use std::time::Instant;

/// The workload every kernel is timed on.
const TRACE: &str = "VCCOM";
/// Timed repeats per kernel; the best (least interfered-with) one counts.
const REPEATS: usize = 3;

struct KernelResult {
    name: &'static str,
    refs: usize,
    best_secs: f64,
    refs_per_sec: f64,
    grid: Option<GridInfo>,
}

/// Grid dimensions for the `one_pass_sweep` kernel, plus the raw
/// single-traversal numbers behind its effective-refs figure.
struct GridInfo {
    sizes: usize,
    ways: usize,
    cells: usize,
    trace_refs: usize,
}

fn time_best<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn kernel(name: &'static str, refs: usize, f: impl FnMut()) -> KernelResult {
    let best_secs = time_best(f);
    KernelResult {
        name,
        refs,
        best_secs,
        refs_per_sec: refs as f64 / best_secs.max(1e-12),
        grid: None,
    }
}

fn run_kernels(len: usize, journal: Option<&str>) -> Vec<KernelResult> {
    let spec = catalog::by_name(TRACE).expect("VCCOM is in the catalog");
    let profile = spec.profile().clone();
    let trace = profile.generate(len);
    let replay: &[MemoryAccess] = &trace.as_slice()[..len];

    let mut results = Vec::new();
    results.push(kernel("generation", len, || {
        let t = profile.generate(len);
        assert_eq!(t.len(), len);
    }));
    results.push(kernel("stack_analysis", len, || {
        let mut a = StackAnalyzer::with_line_size_and_capacity(
            smith85_trace::PAPER_LINE_SIZE,
            len,
        );
        a.observe_slice(replay);
        let p = a.finish();
        assert!(p.miss_ratio(1024) > 0.0);
    }));
    results.push(kernel("assoc_analysis", len, || {
        let mut a =
            AssocAnalyzer::with_line_size_and_capacity(64, smith85_trace::PAPER_LINE_SIZE, len);
        a.observe_slice(replay);
        let p = a.finish();
        assert!(p.cache_bytes(1) > 0);
    }));
    results.push(kernel("set_assoc_sim", len, || {
        let cfg = CacheConfig::builder(16 * 1024)
            .mapping(smith85_cachesim::Mapping::SetAssociative(8))
            .build()
            .expect("valid configuration");
        let mut c = smith85_cachesim::Cache::new(cfg).expect("valid config");
        c.run(replay);
        assert_eq!(c.stats().total_refs(), len as u64);
    }));
    results.push(kernel("fifo_random_policy", 2 * len, || {
        for policy in [
            smith85_cachesim::Replacement::Fifo,
            smith85_cachesim::Replacement::Random { seed: 85 },
        ] {
            let cfg = CacheConfig::builder(16 * 1024)
                .mapping(smith85_cachesim::Mapping::SetAssociative(8))
                .replacement(policy)
                .build()
                .expect("valid configuration");
            let mut c = smith85_cachesim::Cache::new(cfg).expect("valid config");
            c.run(replay);
            assert_eq!(c.stats().total_refs(), len as u64);
        }
    }));
    results.push(kernel("unified_sim", len, || {
        let cfg = CacheConfig::builder(16 * 1024)
            .purge_interval(Some(smith85_trace::PAPER_PURGE_INTERVAL))
            .build()
            .expect("valid configuration");
        let mut c = UnifiedCache::new(cfg).expect("valid config");
        c.run_slice(replay);
        assert_eq!(c.stats().total_refs(), len as u64);
    }));

    let grid_spec = smith85_cachesim::GridSpec::paper_grid();
    let grid_cells = smith85_cachesim::OnePassEngine::new(&grid_spec)
        .expect("paper grid is inside the one-pass envelope")
        .cells()
        .len();
    // One traversal produces every cell, so the comparable refs/sec
    // figure is trace length x cells — what the per-config path would
    // have to touch for the same answer.
    let mut one_pass = kernel("one_pass_sweep", len * grid_cells, || {
        let mut e = smith85_cachesim::OnePassEngine::new(&grid_spec).expect("valid grid");
        e.observe_slice(replay);
        let grid = e.finish();
        assert!(grid.miss_ratio(1024, 1).expect("cell in the grid") > 0.0);
    });
    one_pass.grid = Some(GridInfo {
        sizes: grid_spec.sizes.len(),
        ways: grid_spec.ways.len(),
        cells: grid_cells,
        trace_refs: len,
    });
    results.push(one_pass);

    let mut builder = smith85_core::session::SimSession::builder();
    if let Some(path) = journal {
        let writer = smith85_tracelog::NdjsonWriter::create(path).expect("create journal file");
        builder = builder.journal(smith85_tracelog::SinkHandle::new(std::sync::Arc::new(writer)));
    }
    let session = builder.build().expect("default session configuration");
    results.push(kernel("session_unified", len, || {
        let cfg = CacheConfig::builder(16 * 1024)
            .purge_interval(Some(smith85_trace::PAPER_PURGE_INTERVAL))
            .build()
            .expect("valid configuration");
        let stats = session.simulate_unified(replay, cfg).expect("valid config");
        assert_eq!(stats.total_refs(), len as u64);
    }));
    results
}

fn render_json(mode: &str, len: usize, journaled: bool, results: &[KernelResult]) -> String {
    let kernels = results
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("name", json::s(r.name)),
                ("refs", Json::Uint(r.refs as u64)),
                // Microsecond resolution and whole refs/sec are all the
                // precision the timings carry.
                ("best_secs", Json::Num((r.best_secs * 1e6).round() / 1e6)),
                ("refs_per_sec", Json::Uint(r.refs_per_sec.round() as u64)),
            ];
            if let Some(g) = &r.grid {
                let trace_refs_per_sec = g.trace_refs as f64 / r.best_secs.max(1e-12);
                fields.extend([
                    ("grid_sizes", Json::Uint(g.sizes as u64)),
                    ("grid_ways", Json::Uint(g.ways as u64)),
                    ("grid_cells", Json::Uint(g.cells as u64)),
                    ("trace_refs", Json::Uint(g.trace_refs as u64)),
                    (
                        "trace_refs_per_sec",
                        Json::Uint(trace_refs_per_sec.round() as u64),
                    ),
                ]);
            }
            json::obj(fields)
        })
        .collect();
    let bench = json::obj(vec![
        // v3 adds the fifo_random_policy kernel; every v2 field is kept.
        ("schema", json::s("smith85-throughput-v3")),
        ("mode", json::s(mode)),
        ("journaled", Json::Bool(journaled)),
        ("trace", json::s(TRACE)),
        ("trace_len", Json::Uint(len as u64)),
        ("repeats", Json::Uint(REPEATS as u64)),
        ("kernels", Json::Arr(kernels)),
    ]);
    format!("{bench}\n")
}

fn main() {
    let mut mode = "paper".to_string();
    let mut out_path = "BENCH_sim.json".to_string();
    let mut journal = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "quick" | "paper" => mode = arg,
            "--journal" => {
                journal = Some(args.next().expect("--journal needs a file path"));
            }
            other => out_path = other.to_string(),
        }
    }
    let len = if mode == "quick" { 50_000 } else { 250_000 };
    let results = run_kernels(len, journal.as_deref());
    for r in &results {
        println!(
            "{:<16} {:>9} refs  {:>9.1} ms  {:>12.0} refs/sec",
            r.name,
            r.refs,
            r.best_secs * 1e3,
            r.refs_per_sec
        );
    }
    let json = render_json(&mode, len, journal.is_some(), &results);
    std::fs::write(&out_path, &json).expect("write benchmark result file");
    println!("wrote {out_path}");
}
