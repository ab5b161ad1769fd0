//! Fig. 8: Xapian + Moses + Img-dnn collocated with Fluidanimate.
//!
//! Xapian's load sweeps 10–90 % while Moses and Img-dnn sit at 20 % (left
//! column of the figure) or 40 % (right column); all five strategies are
//! compared on `E_LC` / `E_BE` / `E_S`, and the 40 % setting additionally
//! reports the per-strategy mean tail latency and BE IPC.

use ahq_sched::RunResult;
use ahq_sim::MachineConfig;
use ahq_workloads::mixes::Mix;

use crate::exec::{ExpContext, RunSpec};
use crate::report::{f2, f3, ExperimentReport, TextTable};
use crate::runs::ExpConfig;
use crate::strategy::StrategyKind;

/// One cell of a load-sweep result.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Strategy that produced the cell.
    pub strategy: StrategyKind,
    /// The swept application's load.
    pub primary_load: f64,
    /// The background LC applications' load.
    pub background_load: f64,
    /// Steady-state entropies and yield.
    pub e_lc: f64,
    /// BE entropy.
    pub e_be: f64,
    /// System entropy.
    pub e_s: f64,
    /// Steady-state yield.
    pub yield_fraction: f64,
    /// Steady-state p95 of the swept application (ms).
    pub primary_p95: f64,
    /// Steady-state IPC of the first BE application.
    pub be_ipc: f64,
}

/// Runs the standard Fig. 8/9/11-style sweep at each of `backgrounds`:
/// `primary` swept over `loads`, the other LC apps pinned at the
/// background load, all five strategies. Every background's cells go to
/// the engine as one batch, so each (background, load) cell's strategies
/// share one request stream and the whole figure fills the worker pool.
/// Returns one sweep per background, in order.
pub fn sweeps(
    cfg: &ExpContext,
    mix: &Mix,
    primary: &str,
    backgrounds: &[f64],
    loads: &[f64],
) -> Vec<Vec<SweepCell>> {
    let be_name = mix.be_names()[0].to_owned();
    let background_apps: Vec<&str> = mix
        .lc_names()
        .into_iter()
        .filter(|n| *n != primary)
        .collect();
    // One job per (background, load, strategy) cell, fanned out through
    // the engine.
    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for (b, &background) in backgrounds.iter().enumerate() {
        for &load in loads {
            let mut load_spec: Vec<(&str, f64)> = vec![(primary, load)];
            for app in &background_apps {
                load_spec.push((app, background));
            }
            for strategy in StrategyKind::all() {
                specs.push(RunSpec::strategy(
                    cfg,
                    MachineConfig::paper_xeon(),
                    mix,
                    &load_spec,
                    strategy,
                ));
                labels.push((b, load, strategy));
            }
        }
    }
    let results = cfg.engine().run_all(&specs);
    let mut grids: Vec<Vec<SweepCell>> = backgrounds.iter().map(|_| Vec::new()).collect();
    for ((b, load, strategy), result) in labels.into_iter().zip(results.iter()) {
        let cell = cell_from(
            cfg,
            result,
            strategy,
            primary,
            &be_name,
            load,
            backgrounds[b],
        );
        grids[b].push(cell);
    }
    grids
}

fn cell_from(
    cfg: &ExpConfig,
    result: &RunResult,
    strategy: StrategyKind,
    primary: &str,
    be_name: &str,
    load: f64,
    background: f64,
) -> SweepCell {
    let steady = cfg.steady();
    SweepCell {
        strategy,
        primary_load: load,
        background_load: background,
        e_lc: result.steady_lc_entropy(steady),
        e_be: result.steady_be_entropy(steady),
        e_s: result.steady_entropy(steady),
        yield_fraction: result.steady_yield(steady),
        primary_p95: result.steady_p95(primary, steady).unwrap_or(f64::NAN),
        be_ipc: result.steady_ipc(be_name, steady).unwrap_or(f64::NAN),
    }
}

/// Renders one background-load setting's sweep as entropy tables.
pub fn entropy_tables(cells: &[SweepCell], primary: &str, background: f64) -> Vec<TextTable> {
    let loads: Vec<f64> = {
        let mut ls: Vec<f64> = cells.iter().map(|c| c.primary_load).collect();
        ls.dedup();
        ls
    };
    let mut tables = Vec::new();
    for (metric, pick) in [("E_LC", 0usize), ("E_BE", 1), ("E_S", 2)] {
        let mut t = TextTable::new(
            format!(
                "{metric} vs {primary} load (others at {:.0} %)",
                background * 100.0
            ),
            &["load", "unmanaged", "lc-first", "parties", "clite", "arq"],
        );
        for &load in &loads {
            let mut row = vec![f2(load)];
            for strategy in StrategyKind::all() {
                let c = cells
                    .iter()
                    .find(|c| c.primary_load == load && c.strategy == strategy)
                    .expect("cell exists");
                row.push(f3(match pick {
                    0 => c.e_lc,
                    1 => c.e_be,
                    _ => c.e_s,
                }));
            }
            t.push_row(row);
        }
        tables.push(t);
    }
    tables
}

/// Renders the tail-latency / IPC detail table (Fig. 8(b) style).
pub fn detail_table(cells: &[SweepCell], primary: &str) -> TextTable {
    let mut t = TextTable::new(
        format!("{primary} p95 (ms) and BE IPC per strategy"),
        &["load", "strategy", "p95 (ms)", "BE IPC", "yield"],
    );
    for c in cells {
        t.push_row(vec![
            f2(c.primary_load),
            c.strategy.name().into(),
            f2(c.primary_p95),
            f2(c.be_ipc),
            f2(c.yield_fraction),
        ]);
    }
    t
}

/// The sweep loads used by Figs. 8, 9 and 11.
pub fn sweep_loads(cfg: &ExpConfig) -> Vec<f64> {
    if cfg.quick {
        vec![0.1, 0.5, 0.9]
    } else {
        vec![0.1, 0.3, 0.5, 0.7, 0.9]
    }
}

/// Regenerates Fig. 8.
pub fn run(cfg: &ExpContext) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig8", "Fig 8: collocation with Fluidanimate");
    let mix = ahq_workloads::mixes::fluidanimate_mix();
    let loads = sweep_loads(cfg);

    let backgrounds = [0.2, 0.4];
    let grids = sweeps(cfg, &mix, "xapian", &backgrounds, &loads);
    for (background, cells) in backgrounds.into_iter().zip(grids) {
        report
            .tables
            .extend(entropy_tables(&cells, "xapian", background));
        if background == 0.4 {
            report.tables.push(detail_table(&cells, "xapian"));
            summarize_claims(&mut report, &cells);
        }
    }
    report.note(
        "Paper shape: Unmanaged wins at the lowest loads (sharing maximises utilization); as \
         load grows its E_LC explodes; PARTIES/CLITE protect QoS but depress the BE \
         application; ARQ tracks the best of both and has the lowest E_S overall."
            .to_string(),
    );
    report
}

/// Quantifies the paper's §VI-A claims on the 40 % setting.
fn summarize_claims(report: &mut ExperimentReport, cells: &[SweepCell]) {
    let mean = |strategy: StrategyKind, f: &dyn Fn(&SweepCell) -> f64, lo: f64, hi: f64| -> f64 {
        let vals: Vec<f64> = cells
            .iter()
            .filter(|c| c.strategy == strategy && c.primary_load >= lo && c.primary_load <= hi)
            .map(f)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let p95 = |s| mean(s, &|c: &SweepCell| c.primary_p95, 0.0, 1.0);
    let tail_red = |s| (1.0 - p95(s) / p95(StrategyKind::Unmanaged)) * 100.0;
    report.note(format!(
        "Mean Xapian p95 reduction vs Unmanaged: ARQ {:.1} %, CLITE {:.1} %, PARTIES {:.1} % \
         (paper: 66.5 / 43.6 / 37.2 %)",
        tail_red(StrategyKind::Arq),
        tail_red(StrategyKind::Clite),
        tail_red(StrategyKind::Parties),
    ));
    let low_ipc = |s| mean(s, &|c: &SweepCell| c.be_ipc, 0.0, 0.5);
    report.note(format!(
        "Low-load (<= 50 %) BE IPC: ARQ {:.2} vs PARTIES {:.2} (+{:.1} %) and CLITE {:.2} \
         (+{:.1} %) (paper: +63.8 % and +37.1 %)",
        low_ipc(StrategyKind::Arq),
        low_ipc(StrategyKind::Parties),
        (low_ipc(StrategyKind::Arq) / low_ipc(StrategyKind::Parties) - 1.0) * 100.0,
        low_ipc(StrategyKind::Clite),
        (low_ipc(StrategyKind::Arq) / low_ipc(StrategyKind::Clite) - 1.0) * 100.0,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arq_has_lowest_mean_entropy_and_unmanaged_wins_low_load() {
        let cfg = ExpContext::new(ExpConfig {
            quick: true,
            seed: 23,
        });
        let mix = ahq_workloads::mixes::fluidanimate_mix();
        let cells = sweeps(&cfg, &mix, "xapian", &[0.2], &[0.1, 0.9]).remove(0);
        let mean_es = |strategy: StrategyKind| -> f64 {
            let vs: Vec<f64> = cells
                .iter()
                .filter(|c| c.strategy == strategy)
                .map(|c| c.e_s)
                .collect();
            vs.iter().sum::<f64>() / vs.len() as f64
        };
        let arq = mean_es(StrategyKind::Arq);
        for other in [StrategyKind::Parties, StrategyKind::Clite] {
            assert!(
                arq < mean_es(other),
                "ARQ mean E_S {arq:.3} must beat {} ({:.3})",
                other.name(),
                mean_es(other)
            );
        }
        // Unmanaged is competitive at the lowest load (sharing wins).
        let low_unmanaged = cells
            .iter()
            .find(|c| c.strategy == StrategyKind::Unmanaged && c.primary_load == 0.1)
            .unwrap();
        assert!(low_unmanaged.e_s < 0.1);
    }
}
