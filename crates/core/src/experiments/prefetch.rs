//! **Figures 5-10 and Table 4** — the prefetching study.
//!
//! For every workload and cache size, four configurations run: unified
//! and split organisations, each with demand fetch and with "prefetch
//! always" (§3.5). Demand fetch is a stack algorithm, so its two columns
//! come from one purged one-pass grid per workload and organisation (the
//! grids `traffic_ratio` and `fig3_4` share); prefetch-always runs one
//! per-configuration simulation per cell. From them:
//!
//! * Figures 5/6/7 — the ratio of the prefetch miss ratio to the demand
//!   miss ratio (unified / instruction / data);
//! * Figures 8/9/10 — the factor by which memory traffic grows with
//!   prefetch (unified / instruction / data);
//! * Table 4 — workload-aggregate traffic factors (sum of prefetch
//!   traffic over sum of demand traffic, the paper's averaging rule).

use crate::experiments::{full_assoc, table3_workloads, ExperimentConfig, Workload};
use crate::report::{fmt_factor, render_series, TextTable};
use crate::targets::{self, CacheKind};
use crate::sweep::parallel_map;
use serde::{Deserialize, Serialize};
use smith85_cachesim::{
    CacheConfig, CacheStats, FetchPolicy, Simulator, SplitCache, UnifiedCache, WritePolicy,
};
use smith85_trace::MemoryAccess;

/// Miss and traffic numbers for one (workload, size, organisation) cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyPair {
    /// Miss ratio under demand fetch.
    pub demand_miss: f64,
    /// Miss ratio under prefetch-always.
    pub prefetch_miss: f64,
    /// Memory traffic (bytes) under demand fetch.
    pub demand_traffic: u64,
    /// Memory traffic (bytes) under prefetch-always.
    pub prefetch_traffic: u64,
}

impl PolicyPair {
    /// Prefetch-to-demand miss-ratio factor (1.0 when the demand run had
    /// no misses).
    pub fn miss_factor(&self) -> f64 {
        if self.demand_miss == 0.0 {
            1.0
        } else {
            self.prefetch_miss / self.demand_miss
        }
    }

    /// Prefetch-to-demand traffic factor (1.0 when the demand run moved no
    /// bytes).
    pub fn traffic_factor(&self) -> f64 {
        if self.demand_traffic == 0 {
            1.0
        } else {
            self.prefetch_traffic as f64 / self.demand_traffic as f64
        }
    }
}

/// One workload's cells across the size sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefetchRow {
    /// Workload name.
    pub name: String,
    /// Unified-cache cells per size.
    pub unified: Vec<PolicyPair>,
    /// Instruction-cache cells per size (split organisation).
    pub instruction: Vec<PolicyPair>,
    /// Data-cache cells per size (split organisation).
    pub data: Vec<PolicyPair>,
}

/// The full prefetch-study result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefetchStudy {
    /// Cache sizes swept (bytes).
    pub sizes: Vec<usize>,
    /// Per-workload rows.
    pub rows: Vec<PrefetchRow>,
    /// Table 4: per size, aggregate (unified, instruction, data) traffic
    /// factors.
    pub table4: Vec<(usize, f64, f64, f64)>,
}

fn miss_of(stats: &CacheStats, kind: CacheKind) -> f64 {
    match kind {
        CacheKind::Unified => stats.miss_ratio(),
        CacheKind::Instruction => stats.instruction_miss_ratio(),
        CacheKind::Data => stats.data_miss_ratio(),
    }
}

/// One (workload, size) cell's statistics: the unified cache, then the
/// split organisation's instruction and data halves.
type OrgStats = [CacheStats; 3];

/// Per-configuration simulation of one (workload, size) cell under
/// `fetch`. Prefetch-always is not a stack algorithm (a prefetch inserts
/// a line no reference asked for, differently at every size), so it has
/// no one-pass form.
fn simulate_per_config(
    w: &Workload,
    size: usize,
    trace: &[MemoryAccess],
    fetch: FetchPolicy,
) -> OrgStats {
    let purge = w.purge_interval();
    let config_for = |purged: bool| {
        CacheConfig::builder(size)
            .fetch_policy(fetch)
            .purge_interval(purged.then_some(purge))
            .build()
            .expect("valid sweep configuration")
    };
    let mut unified = UnifiedCache::new(config_for(true)).expect("valid config");
    unified.run_slice(trace);
    let cfg = config_for(false);
    let mut split = SplitCache::new(cfg, cfg, Some(purge)).expect("valid config");
    split.run_slice(trace);
    [
        *unified.stats(),
        *split.instruction_stats(),
        *split.data_stats(),
    ]
}

/// One workload's row from its per-size (demand, prefetch) statistics.
fn prefetch_row(name: &str, cells: impl Iterator<Item = (OrgStats, OrgStats)>) -> PrefetchRow {
    let mut row = PrefetchRow {
        name: name.to_string(),
        unified: Vec::new(),
        instruction: Vec::new(),
        data: Vec::new(),
    };
    for (demand, prefetch) in cells {
        let pair = |i: usize, kind: CacheKind| PolicyPair {
            demand_miss: miss_of(&demand[i], kind),
            prefetch_miss: miss_of(&prefetch[i], kind),
            demand_traffic: demand[i].traffic_bytes(),
            prefetch_traffic: prefetch[i].traffic_bytes(),
        };
        row.unified.push(pair(0, CacheKind::Unified));
        row.instruction.push(pair(1, CacheKind::Instruction));
        row.data.push(pair(2, CacheKind::Data));
    }
    row
}

/// Runs the study. Memoized in the config's shared pool — the heaviest
/// simulation grid in the suite, and `conclusions` re-derives it.
pub fn run(config: &ExperimentConfig) -> PrefetchStudy {
    let key = format!("prefetch/{}/{:?}", config.trace_len, config.sizes);
    (*config.pool.result(&key, || compute(config))).clone()
}

fn compute(config: &ExperimentConfig) -> PrefetchStudy {
    let sizes = &config.sizes;
    let len = config.trace_len;
    let workloads = table3_workloads();
    // Demand fetch comes from the memoized one-pass grids (the same
    // grids `traffic_ratio` and `fig3_4` read). Each is computed in this
    // pass, once, before any size job could race to compute it too.
    let demand = parallel_map(config.threads, workloads.iter().collect(), |w| {
        (
            config.purged_unified_grid(w, WritePolicy::PAPER),
            config.purged_split_grid(w, WritePolicy::PAPER),
        )
    });
    let jobs: Vec<_> = workloads
        .iter()
        .flat_map(|w| sizes.iter().map(move |&s| (w, s)))
        .collect();
    let prefetch = parallel_map(config.threads, jobs, |(w, size)| {
        let trace = config.workload_trace(w);
        simulate_per_config(
            w,
            size,
            &trace.as_slice()[..len],
            FetchPolicy::PrefetchAlways,
        )
    });
    let rows = workloads
        .iter()
        .zip(&demand)
        .zip(prefetch.chunks_exact(sizes.len()))
        .map(|((w, (unified, split)), prefetch)| {
            let (icache, dcache) = &**split;
            let demand = sizes.iter().map(|&s| {
                [
                    *full_assoc(unified, s),
                    *full_assoc(icache, s),
                    *full_assoc(dcache, s),
                ]
            });
            prefetch_row(w.name(), demand.zip(prefetch.iter().copied()))
        })
        .collect();
    study(sizes.clone(), rows)
}

/// Assembles the study, deriving Table 4 from the rows.
fn study(sizes: Vec<usize>, rows: Vec<PrefetchRow>) -> PrefetchStudy {
    // Table 4: the paper's averaging rule — sum prefetch traffic over sum
    // demand traffic, per organisation and size.
    let table4 = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let agg = |get: &dyn Fn(&PrefetchRow) -> &Vec<PolicyPair>| {
                let (p, d) = rows.iter().fold((0u64, 0u64), |(p, d), r| {
                    let cell = &get(r)[i];
                    (p + cell.prefetch_traffic, d + cell.demand_traffic)
                });
                if d == 0 {
                    1.0
                } else {
                    p as f64 / d as f64
                }
            };
            (
                s,
                agg(&|r: &PrefetchRow| &r.unified),
                agg(&|r: &PrefetchRow| &r.instruction),
                agg(&|r: &PrefetchRow| &r.data),
            )
        })
        .collect();

    PrefetchStudy {
        sizes,
        rows,
        table4,
    }
}

impl PrefetchStudy {
    /// Figure 5/6/7 series: per-workload miss-ratio factors.
    pub fn miss_factor_series(&self, kind: CacheKind) -> Vec<(String, Vec<f64>)> {
        self.rows
            .iter()
            .map(|r| {
                let cells = match kind {
                    CacheKind::Unified => &r.unified,
                    CacheKind::Instruction => &r.instruction,
                    CacheKind::Data => &r.data,
                };
                (r.name.clone(), cells.iter().map(PolicyPair::miss_factor).collect())
            })
            .collect()
    }

    /// Figure 8/9/10 series: per-workload traffic factors.
    pub fn traffic_factor_series(&self, kind: CacheKind) -> Vec<(String, Vec<f64>)> {
        self.rows
            .iter()
            .map(|r| {
                let cells = match kind {
                    CacheKind::Unified => &r.unified,
                    CacheKind::Instruction => &r.instruction,
                    CacheKind::Data => &r.data,
                };
                (
                    r.name.clone(),
                    cells.iter().map(PolicyPair::traffic_factor).collect(),
                )
            })
            .collect()
    }

    /// Renders Figures 5/6/7 (miss-ratio factors).
    pub fn render_miss_factors(&self) -> String {
        let mut out = String::new();
        for (fig, kind) in [
            ("Figure 5: unified", CacheKind::Unified),
            ("Figure 6: instruction", CacheKind::Instruction),
            ("Figure 7: data", CacheKind::Data),
        ] {
            let series = self.miss_factor_series(kind);
            out.push_str(&render_series(
                &format!("{fig} miss-ratio factor, prefetch / demand"),
                &self.sizes,
                &series,
            ));
            out.push('\n');
            out.push_str(&crate::report::ascii_plot(
                &format!("{fig} (log y)"),
                &self.sizes,
                &series,
            ));
            out.push('\n');
        }
        out
    }

    /// Renders Figures 8/9/10 and Table 4 (traffic factors).
    pub fn render_traffic_factors(&self) -> String {
        let mut out = String::new();
        for (fig, kind) in [
            ("Figure 8: unified", CacheKind::Unified),
            ("Figure 9: instruction", CacheKind::Instruction),
            ("Figure 10: data", CacheKind::Data),
        ] {
            out.push_str(&render_series(
                &format!("{fig} traffic factor, prefetch / demand"),
                &self.sizes,
                &self.traffic_factor_series(kind),
            ));
            out.push('\n');
        }
        let mut t = TextTable::new(vec![
            "size", "unified", "instr", "data", "paper-unified", "paper-instr", "paper-data",
        ]);
        for &(s, u, i, d) in &self.table4 {
            t.row(vec![
                s.to_string(),
                fmt_factor(u),
                fmt_factor(i),
                fmt_factor(d),
                fmt_factor(targets::traffic_factor(s, CacheKind::Unified)),
                fmt_factor(targets::traffic_factor(s, CacheKind::Instruction)),
                fmt_factor(targets::traffic_factor(s, CacheKind::Data)),
            ]);
        }
        out.push_str(&format!(
            "Table 4: aggregate traffic factor, prefetch / demand\n{}",
            t.render()
        ));
        out
    }

    /// Renders Figures 5-10 and Table 4.
    pub fn render(&self) -> String {
        format!("{}{}", self.render_miss_factors(), self.render_traffic_factors())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-configuration computation the one-pass demand grids
    /// replace: all four simulations per (workload, size).
    fn per_config(config: &ExperimentConfig) -> PrefetchStudy {
        let rows = table3_workloads()
            .iter()
            .map(|w| {
                let trace = config.workload_trace(w);
                let replay = &trace.as_slice()[..config.trace_len];
                let cells = config.sizes.iter().map(|&size| {
                    (
                        simulate_per_config(w, size, replay, FetchPolicy::Demand),
                        simulate_per_config(w, size, replay, FetchPolicy::PrefetchAlways),
                    )
                });
                prefetch_row(w.name(), cells)
            })
            .collect();
        study(config.sizes.clone(), rows)
    }

    #[test]
    fn one_pass_demand_columns_equal_the_per_config_computation() {
        let config = ExperimentConfig::builder().quick().build().unwrap();
        assert_eq!(run(&config), per_config(&config));
    }

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(25_000)
            .sizes(vec![512, 8192])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn study_covers_grid() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), 16);
        assert_eq!(s.table4.len(), 2);
        for r in &s.rows {
            assert_eq!(r.unified.len(), 2);
        }
    }

    #[test]
    fn prefetch_never_cuts_traffic() {
        let s = run(&tiny());
        for &(size, u, i, d) in &s.table4 {
            assert!(u >= 1.0 - 1e-9, "unified factor {u} at {size}");
            assert!(i >= 1.0 - 1e-9, "instruction factor {i} at {size}");
            assert!(d >= 1.0 - 1e-9, "data factor {d} at {size}");
        }
    }

    #[test]
    fn instruction_prefetch_helps_at_large_sizes() {
        let s = run(&tiny());
        // §3.5.1: at >2K, instruction prefetching always cuts the miss
        // ratio, usually by more than half. Check the workload mean at 8K.
        let factors: Vec<f64> = s
            .miss_factor_series(CacheKind::Instruction)
            .iter()
            .map(|(_, f)| f[1])
            .collect();
        let mean = crate::stat_util::mean(&factors);
        assert!(mean < 0.75, "mean instruction prefetch factor {mean}");
    }

    #[test]
    fn render_mentions_every_figure_and_table() {
        let s = run(&tiny()).render();
        for needle in ["Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10", "Table 4"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }
}
