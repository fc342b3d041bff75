//! Checkpointed suite runner: every experiment, run to completion, with
//! resume.
//!
//! The full reproduction is a multi-minute (at paper scale, multi-hour)
//! batch job, and batch jobs die: a panicking experiment, a killed shell,
//! a full disk. This module makes the suite restartable. Each experiment
//! from [`registry`] runs inside [`std::panic::catch_unwind`]; its
//! rendered output is written **atomically** (tmp file, then rename) to
//! `<out>/<name>.json`, and a `manifest.json` summarising every
//! experiment's status, duration and error text is rewritten after each
//! one. A rerun with `resume = true` skips every experiment whose result
//! file already records a successful run under the *same configuration*
//! (hash of trace length and size sweep), so only failed or never-run
//! experiments execute again.
//!
//! Results and the manifest are compact JSON written and read with the
//! workspace codec (`smith85_tracelog::json`); the format is documented
//! in `EXPERIMENTS.md`.

use crate::experiments::{self, ExperimentConfig};
use smith85_tracelog::json::{self, Json};
use std::fmt;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One runnable experiment: a stable name and a render-to-text closure.
pub struct ExperimentEntry {
    /// Stable name, used for the result file and on `--resume`.
    pub name: &'static str,
    /// Runs the experiment and renders its paper-style output.
    pub run: fn(&ExperimentConfig) -> String,
}

/// Every experiment of the reproduction, in the paper's presentation
/// order (same order as `smith85-bench`'s `all_experiments`).
pub fn registry() -> Vec<ExperimentEntry> {
    macro_rules! entry {
        ($name:literal, $module:ident) => {
            ExperimentEntry {
                name: $name,
                run: |c| experiments::$module::run(c).render(),
            }
        };
    }
    vec![
        entry!("table2", table2),
        entry!("table1", table1),
        entry!("fig2", fig2),
        entry!("table3", table3),
        entry!("fig3_4", fig3_fig4),
        entry!("prefetch", prefetch),
        entry!("table5", table5),
        entry!("clark", clark_validation),
        entry!("z80000", z80000),
        entry!("m68020", m68020),
        entry!("traffic_ratio", traffic_ratio),
        entry!("design_grid", design_grid),
        entry!("trace_length", trace_length),
        entry!("multiprocessor", multiprocessor),
        entry!("calibration", calibration_report),
        entry!("multiprogramming", multiprogramming),
        entry!("line_size", line_size),
        entry!("fudge", fudge_validation),
        entry!("perturbations", perturbations),
        entry!("interface", interface_effects),
        entry!("ablations", ablations),
        entry!("family_conclusions", family_conclusions),
        entry!("conclusions", conclusions),
    ]
}

/// How a suite run treats its output directory.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Directory for per-experiment results and `manifest.json`.
    pub out_dir: PathBuf,
    /// Skip experiments whose result file already records a successful
    /// run under the same configuration.
    pub resume: bool,
}

/// Final state of one experiment in a suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentStatus {
    /// Ran and completed.
    Pass,
    /// Panicked; the manifest carries the message.
    Fail,
    /// Skipped on resume: a previous successful result was found.
    Skip,
}

impl ExperimentStatus {
    fn as_str(self) -> &'static str {
        match self {
            ExperimentStatus::Pass => "pass",
            ExperimentStatus::Fail => "fail",
            ExperimentStatus::Skip => "skip",
        }
    }
}

/// One experiment's outcome within a suite run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The experiment's registry name.
    pub name: &'static str,
    /// Pass, fail or skip.
    pub status: ExperimentStatus,
    /// Wall-clock milliseconds spent running (0 for skips).
    pub duration_ms: u64,
    /// The panic message, for failures.
    pub error: Option<String>,
}

/// The aggregate result of a suite run.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Per-experiment outcomes, in registry order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// The configuration hash stamped on every result file.
    pub config_hash: String,
}

impl SuiteReport {
    /// Number of experiments with the given status.
    pub fn count(&self, status: ExperimentStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// True when nothing failed.
    pub fn is_success(&self) -> bool {
        self.count(ExperimentStatus::Fail) == 0
    }
}

impl fmt::Display for SuiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "suite report (config {})", self.config_hash)?;
        for o in &self.outcomes {
            write!(f, "  {:<18} {:<5}", o.name, o.status.as_str())?;
            match (&o.error, o.status) {
                (Some(e), _) => writeln!(f, " {e}")?,
                (None, ExperimentStatus::Skip) => writeln!(f, " (cached)")?,
                (None, _) => writeln!(f, " {} ms", o.duration_ms)?,
            }
        }
        write!(
            f,
            "{} passed, {} failed, {} skipped",
            self.count(ExperimentStatus::Pass),
            self.count(ExperimentStatus::Fail),
            self.count(ExperimentStatus::Skip),
        )
    }
}

/// Runs the full [`registry`] with checkpointing; see the module docs.
///
/// # Errors
///
/// Returns an I/O error only for output-directory failures (creating it,
/// writing result files). Experiment panics are *not* errors: they are
/// recorded as [`ExperimentStatus::Fail`] outcomes.
pub fn run_suite(config: &ExperimentConfig, opts: &RunnerOptions) -> io::Result<SuiteReport> {
    run_suite_with(config, opts, &registry(), |_| {})
}

/// [`run_suite`] over a caller-supplied registry, reporting each outcome
/// to `progress` as it lands. Exposed so tests (and the CLI's fault
/// hooks) can inject deliberately failing experiments.
///
/// # Errors
///
/// See [`run_suite`].
pub fn run_suite_with(
    config: &ExperimentConfig,
    opts: &RunnerOptions,
    entries: &[ExperimentEntry],
    mut progress: impl FnMut(&ExperimentOutcome),
) -> io::Result<SuiteReport> {
    fs::create_dir_all(&opts.out_dir)?;
    let hash = config_hash(config);
    let suite_start = Instant::now();
    let mut outcomes: Vec<ExperimentOutcome> = Vec::with_capacity(entries.len());
    for entry in entries {
        let result_path = opts.out_dir.join(format!("{}.json", entry.name));
        let outcome = if opts.resume && has_fresh_result(&result_path, &hash) {
            ExperimentOutcome {
                name: entry.name,
                status: ExperimentStatus::Skip,
                duration_ms: 0,
                error: None,
            }
        } else {
            let start = Instant::now();
            let run = entry.run;
            let trace_ctx = smith85_tracelog::current();
            let span = trace_ctx.enabled().then(|| {
                trace_ctx.child(
                    "experiment",
                    vec![("name".to_string(), entry.name.into())],
                )
            });
            let _enter = span
                .as_ref()
                .map(|s| smith85_tracelog::enter(s.ctx().clone()));
            let caught = catch_unwind(AssertUnwindSafe(|| run(config)));
            if let (Some(span), Err(payload)) = (&span, &caught) {
                span.ctx().event(
                    smith85_tracelog::Severity::Error,
                    "experiment_panic",
                    vec![
                        ("name".to_string(), entry.name.into()),
                        (
                            "message".to_string(),
                            crate::sweep::panic_message(payload.as_ref()).into(),
                        ),
                    ],
                );
            }
            drop(_enter);
            drop(span);
            let duration_ms = start.elapsed().as_millis() as u64;
            match caught {
                Ok(rendered) => {
                    write_atomic(
                        &result_path,
                        &result_json(entry.name, &hash, duration_ms, &rendered),
                    )?;
                    ExperimentOutcome {
                        name: entry.name,
                        status: ExperimentStatus::Pass,
                        duration_ms,
                        error: None,
                    }
                }
                Err(payload) => {
                    // A stale success from an earlier configuration must
                    // not mask this failure on the next resume.
                    match fs::remove_file(&result_path) {
                        Ok(()) => {}
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                        Err(e) => return Err(e),
                    }
                    ExperimentOutcome {
                        name: entry.name,
                        status: ExperimentStatus::Fail,
                        duration_ms,
                        error: Some(crate::sweep::panic_message(payload.as_ref())),
                    }
                }
            }
        };
        if outcome.status != ExperimentStatus::Skip {
            config.probe().count("suite_experiments_total", 1);
            config
                .probe()
                .observe("suite_experiment_ms", outcome.duration_ms as f64);
        }
        progress(&outcome);
        outcomes.push(outcome);
        // Rewriting the manifest after every experiment keeps it honest
        // even if the process dies mid-suite.
        write_atomic(
            &opts.out_dir.join("manifest.json"),
            &manifest_json(
                &hash,
                config.threads,
                &outcomes,
                suite_start.elapsed().as_millis() as u64,
            ),
        )?;
    }
    Ok(SuiteReport {
        outcomes,
        config_hash: hash,
    })
}

/// FNV-1a hash of the result-determining configuration fields. Thread
/// count is deliberately excluded: it changes speed, not results, so a
/// resume may continue under a different `--threads`.
pub fn config_hash(config: &ExperimentConfig) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(config.trace_len as u64).to_le_bytes());
    for &size in &config.sizes {
        eat(&(size as u64).to_le_bytes());
    }
    format!("{h:016x}")
}

/// True if `path` holds a successful result stamped with `hash`: the
/// file must parse as JSON, say `"status": "ok"` and carry this
/// `config_hash`. Anything unreadable or unrecognized is treated as "no
/// result, run it again".
///
/// A checkpoint file can be corrupt — truncated by a crash mid-`fs::write`
/// on an older version, bit-rotted, or hand-edited. A resume must treat
/// such a file as "not done" and re-run the experiment rather than abort
/// the suite (or worse, trust the fragment); the damage is reported as a
/// `result_corrupt` warn event when a journal is attached.
fn has_fresh_result(path: &Path, hash: &str) -> bool {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => return false,
    };
    let parsed = match Json::parse(&text) {
        Ok(parsed) => parsed,
        Err(err) => {
            let ctx = smith85_tracelog::current();
            if ctx.enabled() {
                ctx.event(
                    smith85_tracelog::Severity::Warn,
                    "result_corrupt",
                    vec![
                        ("path".to_string(), path.display().to_string().into()),
                        ("error".to_string(), err.to_string().into()),
                    ],
                );
            }
            return false;
        }
    };
    parsed.get("status").and_then(|v| v.as_str()) == Some("ok")
        && parsed.get("config_hash").and_then(|v| v.as_str()) == Some(hash)
}

/// Writes via a sibling `.tmp` file and an atomic rename, so readers (and
/// resumed runs) never observe a half-written result.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

fn result_json(name: &str, hash: &str, duration_ms: u64, rendered: &str) -> String {
    let result = json::obj(vec![
        ("name", json::s(name)),
        ("status", json::s("ok")),
        ("config_hash", json::s(hash)),
        ("duration_ms", Json::Uint(duration_ms)),
        ("rendered", json::s(rendered)),
    ]);
    format!("{result}\n")
}

fn manifest_json(
    hash: &str,
    threads: usize,
    outcomes: &[ExperimentOutcome],
    total_wall_ms: u64,
) -> String {
    let phases = outcomes
        .iter()
        .map(|o| {
            json::obj(vec![
                ("name", json::s(o.name)),
                ("wall_ms", Json::Uint(o.duration_ms)),
            ])
        })
        .collect();
    let experiments = outcomes
        .iter()
        .map(|o| {
            json::obj(vec![
                ("name", json::s(o.name)),
                ("status", json::s(o.status.as_str())),
                ("duration_ms", Json::Uint(o.duration_ms)),
                ("error", o.error.as_deref().map_or(Json::Null, json::s)),
            ])
        })
        .collect();
    let manifest = json::obj(vec![
        ("config_hash", json::s(hash)),
        ("threads", Json::Uint(threads as u64)),
        (
            "timing",
            json::obj(vec![
                ("total_wall_ms", Json::Uint(total_wall_ms)),
                ("phases", Json::Arr(phases)),
            ]),
        ),
        ("experiments", Json::Arr(experiments)),
    ]);
    format!("{manifest}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(500)
            .sizes(vec![256, 1024])
            .threads(1)
            .build()
            .unwrap()
    }

    fn temp_out(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smith85-runner-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fake_entries() -> Vec<ExperimentEntry> {
        vec![
            ExperimentEntry {
                name: "ok_a",
                run: |c| format!("a at {}", c.trace_len),
            },
            ExperimentEntry {
                name: "boom",
                run: |_| panic!("deliberate failure"),
            },
            ExperimentEntry {
                name: "ok_b",
                run: |_| "b".to_string(),
            },
        ]
    }

    #[test]
    fn registry_covers_every_experiment() {
        let names: Vec<_> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 23);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate registry names");
        for required in [
            "table1",
            "table2",
            "table3",
            "table5",
            "conclusions",
            "family_conclusions",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn panicking_experiment_does_not_abort_the_suite() {
        let out = temp_out("panic");
        let opts = RunnerOptions {
            out_dir: out.clone(),
            resume: false,
        };
        let report =
            run_suite_with(&tiny_config(), &opts, &fake_entries(), |_| {}).unwrap();
        assert!(!report.is_success());
        assert_eq!(report.count(ExperimentStatus::Pass), 2);
        assert_eq!(report.count(ExperimentStatus::Fail), 1);
        let failed = &report.outcomes[1];
        assert_eq!(failed.name, "boom");
        assert!(failed.error.as_deref().unwrap().contains("deliberate failure"));
        let text = fs::read_to_string(out.join("manifest.json")).unwrap();
        let manifest = Json::parse(&text).unwrap();
        fn by_name<'a>(list: Option<&'a Json>, name: &str) -> Option<&'a Json> {
            list.and_then(Json::as_arr)?
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
        }
        let boom = by_name(manifest.get("experiments"), "boom").expect("boom entry");
        assert_eq!(
            boom.get("status").and_then(Json::as_str),
            Some("fail"),
            "{text}"
        );
        let error = boom.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.contains("deliberate failure"), "{text}");
        assert_eq!(manifest.get("threads"), Some(&Json::Uint(1)), "{text}");
        let timing = manifest.get("timing").expect("timing block");
        assert!(
            timing.get("total_wall_ms").and_then(Json::as_u64).is_some(),
            "{text}"
        );
        let phase = by_name(timing.get("phases"), "ok_a");
        assert!(
            phase
                .and_then(|p| p.get("wall_ms"))
                .and_then(Json::as_u64)
                .is_some(),
            "per-phase timing missing: {text}"
        );
        assert!(out.join("ok_a.json").exists());
        assert!(!out.join("boom.json").exists());
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn resume_reruns_only_the_failed_entry() {
        let out = temp_out("resume");
        let opts = RunnerOptions {
            out_dir: out.clone(),
            resume: false,
        };
        let config = tiny_config();
        run_suite_with(&config, &opts, &fake_entries(), |_| {}).unwrap();

        // Second run, resuming, with the failure repaired.
        let mut repaired = fake_entries();
        repaired[1].run = |_| "fixed".to_string();
        let opts = RunnerOptions {
            out_dir: out.clone(),
            resume: true,
        };
        let mut ran: Vec<&str> = Vec::new();
        let report = run_suite_with(&config, &opts, &repaired, |o| {
            if o.status != ExperimentStatus::Skip {
                ran.push(o.name);
            }
        })
        .unwrap();
        assert_eq!(ran, vec!["boom"], "only the failed entry re-runs");
        assert!(report.is_success());
        assert_eq!(report.count(ExperimentStatus::Skip), 2);
        assert!(out.join("boom.json").exists());
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn resume_reruns_a_corrupt_checkpoint_instead_of_trusting_it() {
        let out = temp_out("corrupt");
        let config = tiny_config();
        let opts = RunnerOptions {
            out_dir: out.clone(),
            resume: false,
        };
        let entries = vec![
            ExperimentEntry {
                name: "ok_a",
                run: |_| "a".to_string(),
            },
            ExperimentEntry {
                name: "ok_b",
                run: |_| "b".to_string(),
            },
        ];
        run_suite_with(&config, &opts, &entries, |_| {}).unwrap();

        // Crash damage: truncate one checkpoint mid-token (unparseable)
        // — the substring check alone would still have rejected an empty
        // file, but a truncation can keep both matching substrings, so
        // the resume gate must actually parse.
        let full = fs::read_to_string(out.join("ok_a.json")).unwrap();
        let parsed = Json::parse(&full).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        let cut = (full.find("\"rendered\"").unwrap() + 20).min(full.len() - 3);
        fs::write(out.join("ok_a.json"), &full[..cut]).unwrap();

        let opts = RunnerOptions {
            out_dir: out.clone(),
            resume: true,
        };
        let mut ran: Vec<&str> = Vec::new();
        let report = run_suite_with(&config, &opts, &entries, |o| {
            if o.status != ExperimentStatus::Skip {
                ran.push(o.name);
            }
        })
        .unwrap();
        assert_eq!(ran, vec!["ok_a"], "corrupt checkpoint must re-run");
        assert!(report.is_success());
        assert_eq!(report.count(ExperimentStatus::Skip), 1);
        // The re-run rewrote a parseable checkpoint.
        let repaired = fs::read_to_string(out.join("ok_a.json")).unwrap();
        assert!(Json::parse(&repaired).is_ok());
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_warns_via_tracelog() {
        use smith85_tracelog::{RingJournal, SinkHandle};
        let out = temp_out("corruptwarn");
        fs::create_dir_all(&out).unwrap();
        fs::write(out.join("bad.json"), "{\"status\": \"ok\", \"config_hash\": \"x").unwrap();

        let journal = std::sync::Arc::new(RingJournal::new(1, 64));
        let sink = SinkHandle::new(journal.clone());
        let root = smith85_tracelog::TraceContext::root(sink, "test", Vec::new());
        {
            let _guard = smith85_tracelog::enter(root.ctx().clone());
            assert!(!has_fresh_result(&out.join("bad.json"), "x"));
        }
        drop(root);

        let events = journal.snapshot();
        assert!(
            events.iter().any(|e| e.name == "result_corrupt"),
            "expected a result_corrupt warn event, got {:?}",
            events.iter().map(|e| e.name.clone()).collect::<Vec<_>>()
        );
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn config_change_invalidates_cached_results() {
        let out = temp_out("confighash");
        let config = tiny_config();
        let opts = RunnerOptions {
            out_dir: out.clone(),
            resume: true,
        };
        let entries = vec![ExperimentEntry {
            name: "ok_a",
            run: |c| format!("len {}", c.trace_len),
        }];
        run_suite_with(&config, &opts, &entries, |_| {}).unwrap();
        let mut bigger = config.clone();
        bigger.trace_len *= 2;
        let mut ran = 0;
        run_suite_with(&bigger, &opts, &entries, |o| {
            if o.status == ExperimentStatus::Pass {
                ran += 1;
            }
        })
        .unwrap();
        assert_eq!(ran, 1, "changed config must re-run");
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn thread_count_does_not_change_the_hash() {
        let a = tiny_config();
        let mut b = tiny_config();
        b.threads = 97;
        assert_eq!(config_hash(&a), config_hash(&b));
        let mut c = tiny_config();
        c.sizes.push(4096);
        assert_ne!(config_hash(&a), config_hash(&c));
    }

    #[test]
    fn report_display_summarises() {
        let report = SuiteReport {
            outcomes: vec![
                ExperimentOutcome {
                    name: "x",
                    status: ExperimentStatus::Pass,
                    duration_ms: 5,
                    error: None,
                },
                ExperimentOutcome {
                    name: "y",
                    status: ExperimentStatus::Fail,
                    duration_ms: 1,
                    error: Some("boom".into()),
                },
            ],
            config_hash: "deadbeef".into(),
        };
        let text = report.to_string();
        assert!(text.contains("1 passed, 1 failed, 0 skipped"), "{text}");
        assert!(text.contains("boom"), "{text}");
    }
}
