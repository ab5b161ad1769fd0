//! Fig. 9: Xapian + Moses + Img-dnn collocated with the 10-thread STREAM
//! hog — severe interference on cores, LLC *and* memory bandwidth.

use crate::exec::ExpContext;
use crate::fig8::{detail_table, entropy_tables, sweep_loads, sweeps};
use crate::report::ExperimentReport;
use crate::strategy::StrategyKind;

/// Regenerates Fig. 9.
pub fn run(cfg: &ExpContext) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig9", "Fig 9: collocation with STREAM");
    let mix = ahq_workloads::mixes::stream_mix();
    let loads = sweep_loads(cfg);

    let backgrounds = [0.2, 0.4];
    let grids = sweeps(cfg, &mix, "xapian", &backgrounds, &loads);
    for (background, cells) in backgrounds.into_iter().zip(grids) {
        report
            .tables
            .extend(entropy_tables(&cells, "xapian", background));
        if background == 0.4 {
            report.tables.push(detail_table(&cells, "xapian"));
            // The paper's extreme-case claim: Xapian 90 %, others 40 %.
            let at = |strategy: StrategyKind| {
                cells
                    .iter()
                    .find(|c| c.strategy == strategy && (c.primary_load - 0.9).abs() < 1e-9)
            };
            if let (Some(un), Some(pa), Some(cl), Some(arq)) = (
                at(StrategyKind::Unmanaged),
                at(StrategyKind::Parties),
                at(StrategyKind::Clite),
                at(StrategyKind::Arq),
            ) {
                let red = |x: f64| (1.0 - x / un.e_s) * 100.0;
                report.note(format!(
                    "Extreme case (Xapian 90 %, others 40 %): E_S reduction vs Unmanaged — \
                     ARQ {:.1} %, CLITE {:.1} %, PARTIES {:.1} % (paper: 73.4 / 53.2 / 22.3 %); \
                     ARQ E_LC {:.3} (paper ~0.06)",
                    red(arq.e_s),
                    red(cl.e_s),
                    red(pa.e_s),
                    arq.e_lc,
                ));
            }
        }
    }
    report.note(
        "Paper shape: with STREAM even low LC load cannot be satisfied by Unmanaged (the hog \
         saturates cache and bandwidth); isolation-capable strategies hold E_LC down, and \
         ARQ achieves the lowest E_S."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmanaged_cannot_protect_lc_from_the_hog() {
        let cfg = ExpContext::new(crate::runs::ExpConfig {
            quick: true,
            seed: 29,
        });
        let mix = ahq_workloads::mixes::stream_mix();
        let cells = sweeps(&cfg, &mix, "xapian", &[0.2], &[0.5]).remove(0);
        let get = |s: StrategyKind| cells.iter().find(|c| c.strategy == s).unwrap();
        let unmanaged = get(StrategyKind::Unmanaged);
        let arq = get(StrategyKind::Arq);
        assert!(
            unmanaged.e_lc > 0.1,
            "the STREAM hog must hurt unmanaged LC latency, E_LC {:.3}",
            unmanaged.e_lc
        );
        assert!(
            arq.e_lc < 0.05,
            "ARQ must protect the LC applications, E_LC {:.3}",
            arq.e_lc
        );
        assert!(arq.e_s < unmanaged.e_s);
    }
}
