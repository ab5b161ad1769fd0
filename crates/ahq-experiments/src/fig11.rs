//! Fig. 11: another collocation — Img-dnn (swept) + Moses + Sphinx with
//! STREAM.

use crate::exec::ExpContext;
use crate::fig8::{entropy_tables, sweep_loads, sweeps};
use crate::report::ExperimentReport;
use crate::strategy::StrategyKind;

/// Regenerates Fig. 11.
pub fn run(cfg: &ExpContext) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig11", "Fig 11: Img-dnn + Moses + Sphinx with STREAM");
    let mix = ahq_workloads::mixes::sphinx_mix();
    let loads = sweep_loads(cfg);

    let backgrounds = [0.2, 0.4];
    let grids = sweeps(cfg, &mix, "img-dnn", &backgrounds, &loads);
    for (background, cells) in backgrounds.into_iter().zip(grids) {
        report
            .tables
            .extend(entropy_tables(&cells, "img-dnn", background));

        // The paper's claim: at high load ARQ cuts E_S vs PARTIES by
        // ~40.9 % on average.
        let high: Vec<f64> = loads.iter().copied().filter(|&l| l >= 0.7).collect();
        let mean_es = |strategy: StrategyKind| -> f64 {
            let vs: Vec<f64> = cells
                .iter()
                .filter(|c| c.strategy == strategy && high.contains(&c.primary_load))
                .map(|c| c.e_s)
                .collect();
            vs.iter().sum::<f64>() / vs.len().max(1) as f64
        };
        let pa = mean_es(StrategyKind::Parties);
        let arq = mean_es(StrategyKind::Arq);
        report.note(format!(
            "background {:.0} %: high-load mean E_S — PARTIES {:.3}, ARQ {:.3} \
             ({:.1} % reduction; paper reports 40.9 % on this mix)",
            background * 100.0,
            pa,
            arq,
            (1.0 - arq / pa) * 100.0
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arq_beats_parties_at_high_imgdnn_load() {
        let cfg = ExpContext::new(crate::runs::ExpConfig {
            quick: true,
            seed: 37,
        });
        let mix = ahq_workloads::mixes::sphinx_mix();
        let cells = sweeps(&cfg, &mix, "img-dnn", &[0.2], &[0.9]).remove(0);
        let get = |s: StrategyKind| cells.iter().find(|c| c.strategy == s).unwrap();
        assert!(
            get(StrategyKind::Arq).e_s < get(StrategyKind::Parties).e_s + 1e-9,
            "ARQ {:.3} vs PARTIES {:.3}",
            get(StrategyKind::Arq).e_s,
            get(StrategyKind::Parties).e_s
        );
    }
}
