//! The repository benchmark: one command per workload, every metric by
//! name with its unit, and a nonzero exit on any wrong answer.
//!
//! ```text
//! perfbench --workload <suite_paper|serve_hot> --seed N \
//!           --seconds S --trace <0|1> --smith85 PATH [--work DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` is the separate traced run that reports per-layer
//! metrics. Human-readable lines (the machine fingerprint, sample counts
//! behind every percentile, the rate ladder) go to stdout first; the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A fuller JSON result and the span file go to
//! `<work>/results/`. See `perfbench/README.md` for the metric
//! definitions and the layer-to-end-to-end map.

mod digest;
mod fingerprint;
mod fleet;
mod gen;
mod kernels;
mod loadgen;
mod probe;
mod serve_wl;
mod spans;
mod stats;
mod suite_wl;
mod sys;

use smith85_serve::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics every workload reports with `--trace 0`. The
/// workloads also measure `p99_ms`; it is printed with the others but is
/// not a benchmark metric, because host steal on a shared machine moves
/// it far more from run to run than any bound allows (see the README).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("suite_cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("p50_ms", "ms"),
    ("max_rps", "1/s"),
];

/// Layers whose self time the traced run reports as `self.<layer>_ms`.
pub const SELF_TIME_LAYERS: [&str; 9] = [
    "runner",
    "trace_pool",
    "synth",
    "cachesim",
    "protocol",
    "exec",
    "store",
    "router",
    "serve",
];

/// Per-layer metrics every workload reports with `--trace 1`.
/// `runner.<experiment>_s` entries, one per registry experiment, come
/// first (see [`per_layer`]). A metric of a layer the workload bypasses
/// reads 0, but only when the workload names it in
/// [`Outcome::bypassed`]; any other metric a run did not produce fails
/// the run.
const PER_LAYER_FIXED: [(&str, &str); 46] = [
    ("cachesim.set_assoc.refs_per_s", "refs/s"),
    ("cachesim.unified_purge.refs_per_s", "refs/s"),
    ("cachesim.prefetch.refs_per_s", "refs/s"),
    ("cachesim.fifo_random.refs_per_s", "refs/s"),
    ("cachesim.stack.refs_per_s", "refs/s"),
    ("cachesim.assoc_stack.refs_per_s", "refs/s"),
    ("cachesim.one_pass.trace_refs_per_s", "refs/s"),
    ("trace_pool.hits", "count"),
    ("trace_pool.misses", "count"),
    ("trace_pool.hit_ratio", "ratio"),
    ("trace_pool.resident_mib", "MiB"),
    ("trace_pool.materialize_ms.p50", "ms"),
    ("synth.refs_per_s", "refs/s"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.exec_ms.p50", "ms"),
    ("serve.exec_ms.p99", "ms"),
    ("serve.outside_ms.p50", "ms"),
    ("serve.outside_ms.p99", "ms"),
    ("serve.queue_high_water", "count"),
    ("serve.rejected", "count"),
    ("protocol.decode_us.p50", "us"),
    ("protocol.encode_us.p50", "us"),
    ("protocol.response_bytes", "bytes"),
    ("exec.simulate_us.p50", "us"),
    ("exec.simulate_us.p99", "us"),
    ("exec.sweep_us.p50", "us"),
    ("exec.sweep_us.p99", "us"),
    ("exec.store_hit_us.p50", "us"),
    ("exec.cold_us.p50", "us"),
    ("store.get_ms.p50", "ms"),
    ("store.put_ms.p50", "ms"),
    ("store.put_ms.p99", "ms"),
    ("store.result_hit_ratio", "ratio"),
    ("store.written_mib", "MiB"),
    ("router.hop_ms.p50", "ms"),
    ("router.hop_ms.p99", "ms"),
    ("router.forwarded", "count"),
    ("router.hedged", "count"),
    ("router.shard_overloads", "count"),
    ("tracelog.bytes_per_request", "bytes"),
    ("loadgen.late_ms.p99", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans", "count"),
    ("bench.traced_s", "s"),
    ("bench.untraced_s", "s"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    smith85_core::runner::registry()
        .iter()
        .map(|e| (format!("runner.{}_s", e.name), "s"))
        .chain(PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)))
        .chain(
            SELF_TIME_LAYERS
                .iter()
                .map(|l| (format!("self.{l}_ms"), "ms")),
        )
        .collect()
}

/// Metric values collected by a run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable detail lines (sample counts, percentile labels).
    pub notes: Vec<String>,
}

impl Metrics {
    /// Sets metric `name`.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Adds `<prefix>.p50` and `<prefix>.p99` (the tail under the
    /// sample-count rule) and a note with the count and the percentile
    /// actually reported. Adds nothing but the note when there are no
    /// samples, so the metrics read as missing rather than 0.
    pub fn add_summary(&mut self, prefix: &str, s: &stats::Summary, unit: &'static str) {
        if s.n > 0 {
            self.add(&format!("{prefix}.p50"), s.p50, unit);
            self.add(&format!("{prefix}.p99"), s.tail, unit);
        }
        self.note_summary(prefix, s, unit);
    }

    /// Adds `name` as the median of `s`, unless `s` has no samples.
    pub fn add_p50(&mut self, name: &str, s: &stats::Summary, unit: &'static str) {
        if s.n > 0 {
            self.add(name, s.p50, unit);
        }
    }

    /// A note recording the sample count behind a summary.
    pub fn note_summary(&mut self, prefix: &str, s: &stats::Summary, unit: &str) {
        self.notes.push(format!(
            "{prefix}: n={} p50={:.4} {unit}, tail {}={:.4} {unit}",
            s.n,
            s.p50,
            s.tail_label(),
            s.tail
        ));
    }

    /// Moves the metrics and notes of `other` into `self`, the notes
    /// under `label`.
    pub fn absorb(&mut self, other: Metrics, label: &str) {
        self.values.extend(other.values);
        self.notes
            .extend(other.notes.into_iter().map(|n| format!("{label}: {n}")));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }
}

/// What a workload run hands back.
pub struct Outcome {
    /// Metric values.
    pub metrics: Metrics,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong answer.
    pub failed: u64,
    /// Extra fields for the result file (seed-derived inputs, ladder).
    pub detail: Vec<(&'static str, Json)>,
    /// Prefixes of the per-layer metrics this workload's traced run does
    /// not measure because the workload bypasses their layer; they read
    /// 0. Every other listed metric must have been measured.
    pub bypassed: &'static [&'static str],
}

/// How a listed metric reads in a run's result.
#[derive(Debug, PartialEq)]
enum Reading {
    /// Measured, with this finite value.
    Measured(f64),
    /// Not measured, because the workload bypasses its layer: reads 0.
    Bypassed,
    /// Not measured although it should have been: fails the run.
    Missing,
}

impl Outcome {
    fn reading(&self, name: &str) -> Reading {
        match self.metrics.get(name).filter(|v| v.is_finite()) {
            Some(v) => Reading::Measured(v),
            None if self.bypassed.iter().any(|b| name.starts_with(b)) => Reading::Bypassed,
            None => Reading::Missing,
        }
    }
}

/// Command-line settings shared by the workloads.
#[derive(Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// The `smith85` binary `serve_hot` spawns.
    pub smith85: PathBuf,
    /// Scratch directory for this run (stores, journals, suite output).
    pub work: PathBuf,
    /// Directory for result and span files.
    pub results: PathBuf,
    /// Cores available; the generator uses at most this many connections.
    pub nproc: usize,
}

fn parse_args() -> Result<(String, Ctx, Option<PathBuf>), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let take = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = take("workload")?;
    let num = |k: &str| -> Result<f64, String> {
        take(k)?
            .parse::<f64>()
            .map_err(|_| format!("--{k} must be a number"))
    };
    let seconds = num("seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let ctx = Ctx {
        seed: take("seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number")?,
        seconds,
        traced: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        smith85: PathBuf::from(take("smith85")?),
        work: PathBuf::from(map.get("work").map_or(".perfbench", String::as_str)),
        results: PathBuf::new(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    for k in map.keys() {
        if ![
            "workload",
            "seed",
            "seconds",
            "trace",
            "smith85",
            "work",
            "record-reference",
        ]
        .contains(&k.as_str())
        {
            return Err(format!("unknown flag --{k}"));
        }
    }
    Ok((
        workload,
        ctx,
        map.get("record-reference").map(PathBuf::from),
    ))
}

fn main() -> ExitCode {
    let (workload, ctx, record) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = ctx.work.join("run");
    let results_dir = ctx.work.join("results");
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = std::fs::create_dir_all(&run_dir).and(std::fs::create_dir_all(&results_dir)) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        work: run_dir.clone(),
        results: results_dir.clone(),
        ..ctx
    };
    let fp = fingerprint::collect(&ctx.work);
    let ticks0 = sys::machine_ticks().unwrap_or((0, 0));
    let result = match workload.as_str() {
        "suite_paper" => suite_wl::run(&ctx, record.as_deref()),
        "serve_hot" => serve_wl::run(&ctx),
        other => Err(format!(
            "unknown workload {other:?} (suite_paper, serve_hot)"
        )),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            let _ = std::fs::remove_dir_all(&run_dir);
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let ticks1 = sys::machine_ticks().unwrap_or((0, 0));
    let steal_pct = 100.0 * ticks1.1.saturating_sub(ticks0.1) as f64
        / ticks1.0.saturating_sub(ticks0.0).max(1) as f64;
    let mut outcome = outcome;
    outcome.metrics.notes.push(format!(
        "host steal: {steal_pct:.2}% of this machine's CPU time during the run (interference from outside it)"
    ));

    let names: Vec<(String, &str)> = if ctx.traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    for (k, v) in &fp {
        println!("fingerprint {k}: {v}");
    }
    for note in &outcome.metrics.notes {
        println!("note {note}");
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{:<40} {fail_ratio:>16.6} ratio", "fail_ratio");
    let mut reported = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in &names {
        let value = match outcome.reading(name) {
            Reading::Measured(v) => {
                println!("{name:<40} {v:>16.6} {unit}");
                v
            }
            Reading::Bypassed => {
                println!(
                    "{name:<40} {:>16.6} {unit} (layer bypassed by this workload)",
                    0.0
                );
                0.0
            }
            Reading::Missing => {
                // JSON has no NaN; the 0 stands in, and the run fails.
                println!("{name:<40} {:>16} {unit} (NOT MEASURED)", "-");
                missing.push(name.as_str());
                0.0
            }
        };
        reported.push((
            name.clone(),
            json::obj(vec![("value", Json::Num(value)), ("unit", json::s(*unit))]),
        ));
    }
    for (name, &(value, unit)) in &outcome.metrics.values {
        if !names.iter().any(|(n, _)| n == name) {
            println!("{name:<40} {value:>16.6} {unit} (also measured, not a benchmark metric)");
        }
    }
    let metrics = Json::Obj(reported);
    if !missing.is_empty() {
        eprintln!(
            "perfbench: {workload}: metrics not measured: {}",
            missing.join(", ")
        );
    }
    let correct = outcome.failed == 0 && missing.is_empty();
    let full = json::obj(
        [
            ("workload", json::s(workload.as_str())),
            ("seed", Json::Uint(ctx.seed)),
            ("seconds", Json::Num(ctx.seconds)),
            ("trace", Json::Bool(ctx.traced)),
            (
                "fingerprint",
                Json::Obj(
                    fp.iter()
                        .map(|(k, v)| (k.to_string(), json::s(v.as_str())))
                        .collect(),
                ),
            ),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Uint(outcome.attempted)),
            ("failed", Json::Uint(outcome.failed)),
            ("fail_ratio", Json::Num(fail_ratio)),
            ("metrics", metrics.clone()),
            (
                "notes",
                Json::Arr(
                    outcome
                        .metrics
                        .notes
                        .iter()
                        .map(|n| json::s(n.as_str()))
                        .collect(),
                ),
            ),
        ]
        .into_iter()
        .chain(outcome.detail)
        .collect(),
    );
    let file = results_dir.join(format!(
        "{workload}-seed{}-trace{}.json",
        ctx.seed,
        u8::from(ctx.traced)
    ));
    if let Err(e) = std::fs::write(&file, format!("{full}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!(
        "{}",
        json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Uint(outcome.attempted)),
            ("failed", Json::Uint(outcome.failed)),
            ("metrics", metrics),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        if outcome.failed > 0 {
            eprintln!(
                "perfbench: {workload}: {} of {} checks failed",
                outcome.failed, outcome.attempted
            );
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric reads 0 only when its layer is declared bypassed; one that
    /// a run should have produced but did not, or produced as NaN, fails.
    #[test]
    fn an_unmeasured_metric_fails_unless_its_layer_is_bypassed() {
        let mut metrics = Metrics::default();
        metrics.add("store.written_mib", 3.5, "MiB");
        metrics.add("trace_pool.hit_ratio", f64::NAN, "ratio");
        metrics.add_summary("router.hop_ms", &stats::Summary::of(&[]), "ms");
        let outcome = Outcome {
            metrics,
            attempted: 1,
            failed: 0,
            detail: Vec::new(),
            bypassed: &["runner.", "self.runner_ms"],
        };
        assert_eq!(outcome.reading("store.written_mib"), Reading::Measured(3.5));
        assert_eq!(outcome.reading("runner.table1_s"), Reading::Bypassed);
        assert_eq!(outcome.reading("self.runner_ms"), Reading::Bypassed);
        assert_eq!(outcome.reading("trace_pool.hit_ratio"), Reading::Missing);
        assert_eq!(outcome.reading("router.hop_ms.p50"), Reading::Missing);
        assert_eq!(outcome.reading("store.get_ms.p50"), Reading::Missing);
    }

    /// The metric lists in `BENCHMARK.json` and in this program agree.
    #[test]
    fn benchmark_json_lists_the_metrics_this_program_reports() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
