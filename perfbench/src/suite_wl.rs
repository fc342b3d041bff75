//! `suite_paper`: the paper-mode suite in-process through
//! `smith85_core::runner` — all registry experiments at 250k references,
//! a fresh `TracePool` and a fresh output directory per suite.
//!
//! The suite's inputs are the paper's fixed catalog, so its answers
//! never depend on the seed: each experiment's rendered output must match
//! the digest in `reference/suite_paper.digests`. The seed only picks
//! which pooled traces the traced run times the kernels on.
//!
//! End-to-end metrics for this workload treat the suite as a batch of
//! experiment jobs: `suite_s`/`suite_cpu_s` are its wall and CPU time,
//! `p50_ms`/`p99_ms` summarise the per-experiment times under the
//! sample-count rule, `max_rps` is experiments finished per second, and
//! `setup_s` is preparing a run (fresh output directory, validated
//! paper config, and a quick-mode smoke suite through the same runner).

use crate::digest;
use crate::gen;
use crate::kernels;
use crate::spans::{self, Recorder};
use crate::stats::{median, Summary};
use crate::sys;
use crate::{Ctx, Metrics, Outcome};
use smith85_core::experiments::ExperimentConfig;
use smith85_core::runner::{self, ExperimentStatus, RunnerOptions, SuiteReport};
use smith85_core::TracePool;
use smith85_serve::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Reference digests of every experiment's rendered paper-mode output.
const REFERENCE: &str = include_str!("../reference/suite_paper.digests");

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// References per trace in the set-up smoke suite.
const SMOKE_LEN: usize = 8000;
/// Undisturbed suites per untraced run, at least; more run while
/// `--seconds` lasts, up to `MAX_SUITES`.
const MIN_SUITES: usize = 2;
/// Most suites one untraced run measures.
const MAX_SUITES: usize = 4;

/// Catalog profiles the traced run times the kernels on.
const KERNEL_PROFILES: usize = 4;
/// Layers whose self time the traced run reports.
const SELF_TIME_LAYERS: [&str; 4] = ["runner", "trace_pool", "synth", "cachesim"];
/// Per-layer metrics of the layers the suite never touches: it runs
/// in-process, with no server, wire protocol, store, router, journal or
/// load generator.
const BYPASSED: &[&str] = &[
    "serve.",
    "protocol.",
    "exec.",
    "store.",
    "router.",
    "tracelog.",
    "loadgen.",
    "self.protocol_ms",
    "self.exec_ms",
    "self.store_ms",
    "self.router_ms",
    "self.serve_ms",
];

/// One suite run's timings and check results.
struct SuiteRun {
    wall_s: f64,
    cpu_s: f64,
    /// `(experiment, seconds)` in registry order.
    experiments: Vec<(&'static str, f64)>,
    checked: u64,
    failed: u64,
    pool: smith85_core::PoolStats,
}

fn paper_config() -> Result<ExperimentConfig, String> {
    ExperimentConfig::builder()
        .pool(TracePool::new())
        .build()
        .map_err(|e| format!("paper config: {e}"))
}

/// Runs the suite once into a fresh `out` directory and checks every
/// rendered result against `reference` (recording them instead when
/// `record` is set).
fn run_suite(
    out: &Path,
    reference: &BTreeMap<String, String>,
    record: Option<&mut Vec<(String, String)>>,
    rec: &mut Recorder,
) -> Result<SuiteRun, String> {
    let _ = std::fs::remove_dir_all(out);
    let config = paper_config()?;
    let opts = RunnerOptions {
        out_dir: out.to_path_buf(),
        resume: false,
    };
    let cpu0 = sys::self_cpu_seconds();
    let start = Instant::now();
    let mut last = start;
    let mut experiments = Vec::new();
    rec.open("runner.suite", 0);
    let report: SuiteReport = runner::run_suite_with(&config, &opts, &runner::registry(), |o| {
        let now = Instant::now();
        experiments.push((o.name, (now - last).as_secs_f64()));
        last = now;
    })
    .map_err(|e| format!("suite I/O: {e}"))?;
    rec.close();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::self_cpu_seconds() - cpu0;
    // A span per experiment, back to back under the suite span, from the
    // runner's completion callbacks (a disabled recorder holds no spans).
    if let Some(root) = rec.spans().len().checked_sub(1) {
        let origin = rec.spans()[root].start;
        let mut at = origin;
        for &(name, secs) in &experiments {
            let end = at + (secs * 1e9) as u64;
            rec.record(crate::spans::Span {
                name: leak_runner_name(name),
                request: 0,
                parent: Some(root),
                start: at,
                end,
            });
            at = end;
        }
    }
    let mut failed = 0;
    let mut recorded = Vec::new();
    for o in &report.outcomes {
        let rendered = std::fs::read_to_string(out.join(format!("{}.json", o.name)))
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|j| j.get("rendered").and_then(Json::as_str).map(str::to_string));
        let ok = o.status == ExperimentStatus::Pass
            && rendered
                .as_deref()
                .is_some_and(|r| record.is_some() || digest::matches(reference, o.name, r));
        if let Some(r) = rendered {
            recorded.push((o.name.to_string(), digest::digest(r.as_bytes())));
        }
        if !ok {
            eprintln!(
                "perfbench: suite_paper: experiment {} failed its check",
                o.name
            );
            failed += 1;
        }
    }
    let expected = runner::registry().len();
    if report.outcomes.len() != expected {
        failed += 1;
    }
    if let Some(record) = record {
        *record = recorded;
    }
    Ok(SuiteRun {
        wall_s,
        cpu_s,
        experiments,
        checked: expected as u64,
        failed,
        pool: config.pool.stats(),
    })
}

/// Span names must be `'static`; the registry is fixed, so each name is
/// leaked at most once per process.
fn leak_runner_name(name: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static NAMES: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(Default::default)
        .lock()
        .expect("name table lock is never poisoned: no code panics while holding it");
    names
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(format!("runner.{name}").into_boxed_str()))
}

/// Prepares a run: fresh output directory, validated paper config, and
/// a quick smoke suite through the same runner.
fn setup(ctx: &Ctx) -> Result<f64, String> {
    let start = Instant::now();
    let smoke = ctx.work.join("smoke");
    let _ = std::fs::remove_dir_all(&smoke);
    std::fs::create_dir_all(&smoke).map_err(|e| format!("smoke dir: {e}"))?;
    paper_config()?;
    let quick = ExperimentConfig::builder()
        .quick()
        .trace_len(SMOKE_LEN)
        .pool(TracePool::new())
        .build()
        .map_err(|e| format!("quick config: {e}"))?;
    let report = runner::run_suite(
        &quick,
        &RunnerOptions {
            out_dir: smoke,
            resume: false,
        },
    )
    .map_err(|e| format!("smoke suite I/O: {e}"))?;
    if !report.is_success() {
        return Err(format!("smoke suite failed:\n{report}"));
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Runs `suite_paper`; with `record`, writes the reference digests of
/// this run's outputs there instead of checking them.
pub fn run(ctx: &Ctx, record: Option<&Path>) -> Result<Outcome, String> {
    let reference = digest::parse_reference(REFERENCE);
    let mut m = Metrics::default();
    let out = ctx.work.join("suite");
    if ctx.traced {
        return traced(ctx, &reference, m);
    }
    let mut quiet = sys::QuietWait::new();
    let waited = quiet.wait();
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup(ctx)).collect::<Result<_, _>>()?;
    m.add("setup_s", median(&setups), "s");
    m.notes
        .push(format!("setup_s: median of {SETUPS} set-ups {setups:?}"));

    // Suites run until `--seconds` have passed with at least
    // `MIN_SUITES` undisturbed by host steal, or `MAX_SUITES` ran; the
    // medians use the undisturbed ones.
    let mut recorded = Vec::new();
    let mut runs = Vec::new();
    let mut steals = Vec::new();
    let start = Instant::now();
    let mut off = Recorder::new(false);
    let mut waits = vec![waited];
    let mut peak_rss = 0.0;
    loop {
        if !runs.is_empty() {
            waits.push(quiet.wait());
        }
        let want_record = record.is_some() && runs.is_empty();
        let meter = sys::StealMeter::start();
        runs.push(run_suite(
            &out,
            &reference,
            want_record.then_some(&mut recorded),
            &mut off,
        )?);
        steals.push(meter.pct());
        if runs.len() == 1 {
            // Peak memory of one suite: later suites reuse what the
            // allocator kept, so the high-water mark would drift with
            // how many ran.
            peak_rss = sys::peak_rss_mib("self").map_err(|e| e.to_string())?;
        }
        let undisturbed = steals
            .iter()
            .filter(|&&st| st <= sys::STEAL_LIMIT_PCT)
            .count();
        let done = start.elapsed().as_secs_f64() >= ctx.seconds && undisturbed >= MIN_SUITES;
        if done || runs.len() >= MAX_SUITES {
            break;
        }
    }
    let keep = sys::quiet_indices(&steals, MIN_SUITES);
    m.notes.push(format!(
        "host steal per suite {steals:?} %; medians use suites {keep:?}; waited {waits:?} s for a quiet host"
    ));
    let kept: Vec<&SuiteRun> = keep.iter().map(|&i| &runs[i]).collect();
    if let Some(path) = record {
        let text: String = recorded
            .iter()
            .map(|(name, d)| format!("{name} {d}\n"))
            .collect();
        std::fs::write(
            path,
            format!("# experiment digest (paper mode, 250k refs)\n{text}"),
        )
        .map_err(|e| format!("write reference: {e}"))?;
    }
    let walls: Vec<f64> = kept.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = kept.iter().map(|r| r.cpu_s).collect();
    let per_exp: Vec<f64> = kept
        .iter()
        .flat_map(|r| r.experiments.iter().map(|&(_, s)| s * 1e3))
        .collect();
    let suite_s = median(&walls);
    m.add("suite_s", suite_s, "s");
    m.add("suite_cpu_s", median(&cpus), "s");
    m.notes.push(format!(
        "suite_s: median of {} suites {walls:?}, cpu {cpus:?}",
        kept.len()
    ));
    let per = Summary::of(&per_exp);
    m.add("p50_ms", per.p50, "ms");
    m.add("p99_ms", per.tail, "ms");
    m.note_summary("per-experiment time (p50_ms, p99_ms)", &per, "ms");
    // The contract asks every workload for every end-to-end metric; a
    // batch job has no request rate, so this is the suite's experiment
    // count over `suite_s` and tells nothing `suite_s` does not.
    m.add("max_rps", runner::registry().len() as f64 / suite_s, "1/s");
    m.notes.push(
        "max_rps: experiments finished per second of suite wall clock (registry size / suite_s)"
            .into(),
    );
    m.add("peak_rss_mib", peak_rss, "MiB");
    let pool = runs[0].pool;
    m.notes.push(format!(
        "trace pool per suite: {} entries, {:.1} MiB resident, {} hits / {} misses",
        pool.entries,
        pool.memory_bytes as f64 / (1 << 20) as f64,
        pool.hits,
        pool.misses
    ));
    Ok(Outcome {
        attempted: runs.iter().map(|r| r.checked).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics: m,
        detail: vec![("suites", Json::Uint(runs.len() as u64))],
        bypassed: &[],
    })
}

/// The traced run: an untraced, a traced and another untraced suite
/// (the difference is the tracing overhead), per-experiment spans from
/// the traced one, then the kernels on pooled paper-length traces.
fn traced(
    ctx: &Ctx,
    reference: &BTreeMap<String, String>,
    mut m: Metrics,
) -> Result<Outcome, String> {
    let out = ctx.work.join("suite");
    // Untraced, traced, untraced: the traced suite is compared with the
    // mean of the two around it, so warming up does not read as overhead.
    let before = run_suite(&out, reference, None, &mut Recorder::new(false))?;
    let mut rec = Recorder::new(true);
    let traced = run_suite(&out, reference, None, &mut rec)?;
    let after = run_suite(&out, reference, None, &mut Recorder::new(false))?;
    for &(name, secs) in &traced.experiments {
        m.add(&format!("runner.{name}_s"), secs, "s");
    }
    let untraced_s = (before.wall_s + after.wall_s) / 2.0;
    m.add("bench.untraced_s", untraced_s, "s");
    m.add("bench.traced_s", traced.wall_s, "s");
    m.add(
        "bench.trace_overhead_pct",
        100.0 * (traced.wall_s - untraced_s) / untraced_s,
        "%",
    );
    let pool = traced.pool;
    m.add("trace_pool.hits", pool.hits as f64, "count");
    m.add("trace_pool.misses", pool.misses as f64, "count");
    m.add("trace_pool.hit_ratio", pool.hit_ratio(), "ratio");
    m.add(
        "trace_pool.resident_mib",
        pool.memory_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );

    let mut all: Vec<_> = smith85_synth::catalog::all()
        .into_iter()
        .map(|s| s.profile().clone())
        .collect();
    let mut rng = gen::rng(ctx.seed, 3);
    let catalog: Vec<_> = (0..KERNEL_PROFILES)
        .map(|_| all.swap_remove(rng.next_below(all.len() as u64) as usize))
        .collect();
    m.notes.push(format!(
        "kernel traces: {:?} at {} refs",
        catalog.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
        traced_len()
    ));
    let (traces, materialize) = kernels::materialize(&mut rec, &catalog, traced_len());
    m.add_p50("trace_pool.materialize_ms.p50", &materialize, "ms");
    m.note_summary("trace_pool.materialize_ms", &materialize, "ms");
    kernels::cachesim(&mut rec, &traces, &mut m);
    kernels::synth(&mut rec, &catalog, traced_len(), &mut m);
    spans::self_time_metrics(&rec, &SELF_TIME_LAYERS, &mut m);
    m.add("bench.spans", rec.spans().len() as f64, "count");
    spans::write(ctx, "suite_paper", &rec, &mut m)?;
    Ok(Outcome {
        attempted: before.checked + traced.checked + after.checked,
        failed: before.failed + traced.failed + after.failed,
        metrics: m,
        detail: Vec::new(),
        bypassed: BYPASSED,
    })
}

/// Paper trace length.
fn traced_len() -> usize {
    ExperimentConfig::paper().trace_len
}
