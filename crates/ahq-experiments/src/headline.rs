//! The abstract's headline numbers, aggregated over the Fig. 8 + Fig. 9
//! constant-load grids:
//!
//! * yield improvement of ARQ over PARTIES (+25 %) and CLITE (+20 %),
//! * `E_S` reduction of 36.4 % and 33.3 % respectively,
//! * low-load BE IPC gains of +63.8 % and +37.1 %.

use crate::exec::ExpContext;
use crate::fig8::{sweep_loads, sweeps, SweepCell};
use crate::report::{f2, f3, ExperimentReport, TextTable};
use crate::strategy::StrategyKind;

/// Aggregates over both mixes and both background settings.
pub fn collect_cells(cfg: &ExpContext) -> Vec<SweepCell> {
    let loads = sweep_loads(cfg);
    let mut cells = Vec::new();
    for mix in [
        ahq_workloads::mixes::fluidanimate_mix(),
        ahq_workloads::mixes::stream_mix(),
    ] {
        cells.extend(sweeps(cfg, &mix, "xapian", &[0.2, 0.4], &loads).concat());
    }
    cells
}

/// Regenerates the headline table.
pub fn run(cfg: &ExpContext) -> ExperimentReport {
    let mut report = ExperimentReport::new("headline", "Headline numbers (abstract / §VI)");
    let cells = collect_cells(cfg);

    let agg = |strategy: StrategyKind, f: &dyn Fn(&SweepCell) -> f64| -> f64 {
        let vs: Vec<f64> = cells
            .iter()
            .filter(|c| c.strategy == strategy)
            .map(f)
            .collect();
        vs.iter().sum::<f64>() / vs.len().max(1) as f64
    };
    let low_agg = |strategy: StrategyKind, f: &dyn Fn(&SweepCell) -> f64| -> f64 {
        let vs: Vec<f64> = cells
            .iter()
            .filter(|c| c.strategy == strategy && c.primary_load <= 0.5)
            .map(f)
            .collect();
        vs.iter().sum::<f64>() / vs.len().max(1) as f64
    };

    let mut table = TextTable::new(
        "Aggregates over the Fig 8 + Fig 9 grids",
        &["strategy", "mean yield", "mean E_S", "low-load BE IPC"],
    );
    for strategy in StrategyKind::all() {
        table.push_row(vec![
            strategy.name().into(),
            f2(agg(strategy, &|c| c.yield_fraction)),
            f3(agg(strategy, &|c| c.e_s)),
            f2(low_agg(strategy, &|c| c.be_ipc)),
        ]);
    }
    report.tables.push(table);

    let y = |s| agg(s, &|c: &SweepCell| c.yield_fraction);
    let es = |s| agg(s, &|c: &SweepCell| c.e_s);
    let ipc = |s| low_agg(s, &|c: &SweepCell| c.be_ipc);
    report.note(format!(
        "Yield: ARQ {:.2} vs PARTIES {:.2} (+{:.0} pp; paper +25 pp) and CLITE {:.2} \
         (+{:.0} pp; paper +20 pp)",
        y(StrategyKind::Arq),
        y(StrategyKind::Parties),
        (y(StrategyKind::Arq) - y(StrategyKind::Parties)) * 100.0,
        y(StrategyKind::Clite),
        (y(StrategyKind::Arq) - y(StrategyKind::Clite)) * 100.0,
    ));
    report.note(format!(
        "E_S: ARQ {:.3} vs PARTIES {:.3} (-{:.1} %; paper -36.4 %) and CLITE {:.3} \
         (-{:.1} %; paper -33.3 %)",
        es(StrategyKind::Arq),
        es(StrategyKind::Parties),
        (1.0 - es(StrategyKind::Arq) / es(StrategyKind::Parties)) * 100.0,
        es(StrategyKind::Clite),
        (1.0 - es(StrategyKind::Arq) / es(StrategyKind::Clite)) * 100.0,
    ));
    report.note(format!(
        "Low-load BE IPC: ARQ {:.2} vs PARTIES {:.2} (+{:.1} %; paper +63.8 %) and CLITE \
         {:.2} (+{:.1} %; paper +37.1 %)",
        ipc(StrategyKind::Arq),
        ipc(StrategyKind::Parties),
        (ipc(StrategyKind::Arq) / ipc(StrategyKind::Parties) - 1.0) * 100.0,
        ipc(StrategyKind::Clite),
        (ipc(StrategyKind::Arq) / ipc(StrategyKind::Clite) - 1.0) * 100.0,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_directions_hold() {
        let cfg = ExpContext::new(crate::runs::ExpConfig {
            quick: true,
            seed: 47,
        });
        let cells = collect_cells(&cfg);
        let mean = |strategy: StrategyKind, f: &dyn Fn(&SweepCell) -> f64| -> f64 {
            let vs: Vec<f64> = cells
                .iter()
                .filter(|c| c.strategy == strategy)
                .map(f)
                .collect();
            vs.iter().sum::<f64>() / vs.len() as f64
        };
        // ARQ must beat PARTIES and CLITE on mean E_S and mean yield.
        let es_arq = mean(StrategyKind::Arq, &|c| c.e_s);
        let y_arq = mean(StrategyKind::Arq, &|c| c.yield_fraction);
        for other in [StrategyKind::Parties, StrategyKind::Clite] {
            assert!(es_arq < mean(other, &|c| c.e_s), "E_S vs {}", other.name());
            assert!(
                y_arq >= mean(other, &|c| c.yield_fraction) - 0.02,
                "yield vs {}",
                other.name()
            );
        }
    }
}
