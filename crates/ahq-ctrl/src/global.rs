//! The global ARQ controller: nodes as regions, rounds as the clock.

use ahq_bayesopt::{OnlineTuner, WeightAxis, WeightGrid};
use ahq_cluster::{
    AppMove, ControlVerdict, Controller, NodeView, PlacementWeights, RoundObservation,
};
use ahq_sched::Blacklist;
use ahq_sim::AppKind;

/// Rounds of cluster history required before the controller may plan its
/// first move — it needs a pre-move baseline to judge against.
const MIN_HISTORY_ROUNDS: usize = 2;

/// Minimum donor-minus-recipient gap in recent mean `E_S` for a move to be
/// worth proposing. Below this the fleet is considered balanced and the
/// controller stays idle.
const HOT_MARGIN: f64 = 0.05;

/// A committed move is rolled back when the round's cluster-mean `E_S`
/// exceeds the pre-move baseline by more than this epsilon.
const REGRESS_EPSILON: f64 = 0.01;

/// Rounds a donor node stays blacklisted after one of its moves is rolled
/// back — the cluster analogue of node-level ARQ's 60 s region blacklist.
const COOLDOWN_ROUNDS: f64 = 8.0;

/// Rounds per tuning epoch: the tuner observes the mean cluster `E_S` over
/// this many rounds as one (noisy) objective sample for the weight vector
/// in force.
const EPOCH_ROUNDS: usize = 2;

/// Seed for the tuner's expected-improvement tie-breaking.
const TUNE_SEED: u64 = 0xC11E;

/// After this many completed epochs the tuner freezes: it pins the
/// incumbent (best mean objective) and stops exploring. An online
/// controller pays live entropy for every exploratory epoch, so the search
/// gets a budget and the steady state runs the winner.
const FREEZE_AFTER_EPOCHS: usize = 5;

/// The controller's one switch. Its thresholds are the module constants
/// above: the node-level ARQ constants translated to cluster time, where
/// one round is the controller's clock tick the way one steady window is
/// the node scheduler's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CtrlConfig {
    /// Online weight learning for the cluster's tunable placer; `false`
    /// runs the pure ARQ migration loop with static weights.
    pub tune: bool,
}

/// The discrete weight space the tuner searches. Each axis brackets the
/// hand-tuned default of the corresponding [`PlacementWeights`] field, so
/// the GP can both confirm the default and move away from it.
pub fn default_weight_grid() -> WeightGrid {
    WeightGrid::new(vec![
        WeightAxis::new("es", vec![0.5, 1.0, 1.5]),
        WeightAxis::new("fragility", vec![0.0, 0.25, 0.5]),
        WeightAxis::new("occupancy", vec![0.5, 1.0, 1.5]),
        WeightAxis::new("overflow", vec![1.0, 2.0, 4.0]),
    ])
}

/// A speculative move awaiting its entropy verdict: the donor node it
/// came from and the pre-move baseline (previous round's cluster-mean
/// `E_S`) it must not regress past.
#[derive(Debug, Clone, Copy)]
struct Pending {
    donor: usize,
    baseline: f64,
}

/// Cluster-level ARQ: one speculative migration per round, entropy
/// feedback, rollback with donor blacklist on regression, and optional
/// epoch-level GP weight learning. See the crate docs for the loop.
#[derive(Debug)]
pub struct GlobalArq {
    blacklist: Blacklist<usize>,
    pending: Option<Pending>,
    prev_mean: Option<f64>,
    tuner: Option<OnlineTuner>,
    epoch_means: Vec<f64>,
}

impl GlobalArq {
    /// Builds a controller; when `config.tune` is set, an [`OnlineTuner`]
    /// over [`default_weight_grid`] starts from the default placement
    /// weights so the first epoch measures the untuned baseline.
    pub fn new(config: CtrlConfig) -> Self {
        let tuner = config.tune.then(|| {
            OnlineTuner::new(
                &default_weight_grid(),
                PlacementWeights::default().to_vec(),
                TUNE_SEED,
            )
        });
        GlobalArq {
            blacklist: Blacklist::new(),
            pending: None,
            prev_mean: None,
            tuner,
            epoch_means: Vec::new(),
        }
    }

    /// Donor urgency: observed interference plus LC fragility, the same
    /// signals the entropy-aware placer scores, minus the occupancy terms
    /// — a hot donor is hot regardless of how full it is.
    fn donor_score(view: &NodeView) -> f64 {
        let observed = view.recent_es.unwrap_or(0.0);
        let fragility = view.recent_ret.map_or(0.0, |ret| (1.0 - ret).max(0.0));
        observed + fragility
    }

    /// Recipient cost: observed interference plus occupancy, so the move
    /// lands on a node that is both quiet and empty.
    fn recipient_score(view: &NodeView) -> f64 {
        view.recent_es.unwrap_or(0.0) + view.occupancy_with(0)
    }
}

impl Controller for GlobalArq {
    fn name(&self) -> &'static str {
        if self.tuner.is_some() {
            "global-arq+learned"
        } else {
            "global-arq"
        }
    }

    fn plan(&mut self, round: usize, views: &[NodeView]) -> Option<AppMove> {
        // No baseline yet — planning before history exists would leave
        // the rollback check with nothing to compare against.
        let baseline = self.prev_mean?;
        if round < MIN_HISTORY_ROUNDS {
            return None;
        }
        let now = round as f64;

        // Donor: the hottest non-blacklisted node with something to give.
        // Strict comparisons keep the lowest index on ties, matching the
        // placer layer's determinism rule.
        let mut donor: Option<&NodeView> = None;
        for v in views {
            if v.recent_es.is_none() || self.blacklist.active(&v.index, now) {
                continue;
            }
            if v.apps == 0 {
                continue; // nothing to give
            }
            if donor.is_none_or(|d| Self::donor_score(v) > Self::donor_score(d)) {
                donor = Some(v);
            }
        }
        let donor = donor?;

        // Recipient: the coolest other node. Blacklisted nodes are
        // excluded as recipients too — a node whose last adjustment blew
        // up should cool down entirely, as in node-level ARQ.
        let mut recipient: Option<&NodeView> = None;
        for v in views {
            if v.index == donor.index || self.blacklist.active(&v.index, now) {
                continue;
            }
            if recipient.is_none_or(|r| Self::recipient_score(v) < Self::recipient_score(r)) {
                recipient = Some(v);
            }
        }
        let recipient = recipient?;

        let gap = donor.recent_es.unwrap_or(0.0) - recipient.recent_es.unwrap_or(0.0);
        if gap <= HOT_MARGIN {
            return None;
        }

        // BE moves are free, so prefer them; fall back to an LC move only
        // when the donor's pressure is all latency-critical.
        let kind = if donor.be_apps > 0 {
            AppKind::Be
        } else {
            AppKind::Lc
        };
        self.pending = Some(Pending {
            donor: donor.index,
            baseline,
        });
        Some(AppMove {
            from: donor.index,
            to: recipient.index,
            kind,
        })
    }

    fn observe(&mut self, obs: &RoundObservation<'_>) -> ControlVerdict {
        let mean = obs.mean_entropy();
        let mut verdict = ControlVerdict::default();

        if let Some(pending) = self.pending.take() {
            if obs.applied.is_some() && mean > pending.baseline + REGRESS_EPSILON {
                // The speculative move made the cluster worse: restore the
                // pre-move placement and put the donor on cooldown so the
                // controller does not immediately re-propose the same bad
                // move.
                verdict.rollback = true;
                self.blacklist
                    .protect(pending.donor, obs.round as f64 + COOLDOWN_ROUNDS);
            }
        }
        self.prev_mean = Some(mean);

        if let Some(tuner) = self.tuner.as_mut() {
            self.epoch_means.push(mean);
            if self.epoch_means.len() >= EPOCH_ROUNDS {
                // The GP maximizes, the cluster minimizes entropy.
                let avg: f64 = self.epoch_means.iter().sum::<f64>() / self.epoch_means.len() as f64;
                let next = if tuner.epochs() < FREEZE_AFTER_EPOCHS {
                    tuner.advance(-avg).to_vec()
                } else {
                    // Search budget spent: pin the incumbent and stop
                    // paying live entropy for exploration.
                    tuner
                        .best()
                        .map(|(x, _, _)| x)
                        .unwrap_or_else(|| tuner.current().to_vec())
                };
                self.epoch_means.clear();
                verdict.weights = PlacementWeights::from_slice(&next);
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahq_cluster::{AppliedMove, ClusterWindowStat};
    use ahq_sim::MachineConfig;

    fn view(index: usize, es: f64, be_apps: usize, lc_apps: usize) -> NodeView {
        NodeView {
            index,
            machine: MachineConfig::paper_xeon(),
            lc_threads: 2 * lc_apps as u32,
            be_threads: 2 * be_apps as u32,
            apps: be_apps + lc_apps,
            be_apps,
            recent_es: Some(es),
            recent_ret: Some(0.6),
        }
    }

    fn window(round: usize, mean_es: f64) -> ClusterWindowStat {
        ClusterWindowStat {
            window: round,
            round,
            mean_es,
            p95_es: mean_es,
            max_es: mean_es,
            violations: 0,
            active_nodes: 2,
            hifi_nodes: 2,
            lofi_nodes: 0,
            apps: 2,
            round_migrations: 0,
        }
    }

    fn applied(from: usize, to: usize) -> AppliedMove {
        AppliedMove {
            id: 7,
            name: "be-7".into(),
            from,
            to,
            kind: AppKind::Be,
            from_slot: 0,
        }
    }

    fn observe_round(ctrl: &mut GlobalArq, round: usize, mean: f64) -> ControlVerdict {
        let windows = [window(round, mean)];
        let views = [view(0, mean, 1, 1), view(1, mean, 0, 0)];
        ctrl.observe(&RoundObservation {
            round,
            windows: &windows,
            views: &views,
            applied: None,
        })
    }

    #[test]
    fn no_plan_before_history() {
        let mut ctrl = GlobalArq::new(CtrlConfig::default());
        let views = [view(0, 0.9, 2, 0), view(1, 0.1, 0, 0)];
        assert_eq!(ctrl.plan(5, &views), None, "needs a baseline first");
    }

    #[test]
    fn plans_hot_to_cool_be_move() {
        let mut ctrl = GlobalArq::new(CtrlConfig::default());
        observe_round(&mut ctrl, 0, 0.5);
        observe_round(&mut ctrl, 1, 0.5);
        let views = [view(0, 0.2, 1, 0), view(1, 0.9, 2, 1), view(2, 0.1, 0, 0)];
        let mv = ctrl.plan(2, &views).expect("gap clears the margin");
        assert_eq!(
            mv,
            AppMove {
                from: 1,
                to: 2,
                kind: AppKind::Be
            }
        );
    }

    #[test]
    fn balanced_fleet_stays_idle() {
        let mut ctrl = GlobalArq::new(CtrlConfig::default());
        observe_round(&mut ctrl, 0, 0.5);
        observe_round(&mut ctrl, 1, 0.5);
        let views = [view(0, 0.50, 1, 0), view(1, 0.52, 1, 0)];
        assert_eq!(ctrl.plan(2, &views), None, "gap below HOT_MARGIN");
    }

    #[test]
    fn lc_move_only_when_no_be_and_allowed() {
        let mut ctrl = GlobalArq::new(CtrlConfig::default());
        observe_round(&mut ctrl, 0, 0.5);
        observe_round(&mut ctrl, 1, 0.5);
        let views = [view(0, 0.9, 0, 2), view(1, 0.1, 0, 0)];
        let mv = ctrl.plan(2, &views).expect("LC fallback");
        assert_eq!(mv.kind, AppKind::Lc);
    }

    #[test]
    fn injected_regression_rolls_back_and_blacklists_donor() {
        let mut ctrl = GlobalArq::new(CtrlConfig::default());
        observe_round(&mut ctrl, 0, 0.30);
        observe_round(&mut ctrl, 1, 0.30);

        let views = [view(0, 0.9, 2, 1), view(1, 0.1, 0, 0)];
        let mv = ctrl.plan(2, &views).expect("hot donor");
        assert_eq!(mv.from, 0);

        // Inject a regression: the round with the move in force scores far
        // above the 0.30 baseline.
        let windows = [window(2, 0.55)];
        let ap = applied(mv.from, mv.to);
        let verdict = ctrl.observe(&RoundObservation {
            round: 2,
            windows: &windows,
            views: &views,
            applied: Some(&ap),
        });
        assert!(verdict.rollback, "regression past epsilon must roll back");

        // The donor is on cooldown: the same hot views no longer yield a
        // plan from node 0...
        assert_eq!(ctrl.plan(3, &views), None, "donor blacklisted");
        // ...until COOLDOWN_ROUNDS have elapsed.
        let later = 2 + COOLDOWN_ROUNDS as usize + 1;
        assert!(ctrl.plan(later, &views).is_some(), "cooldown expires");
    }

    #[test]
    fn improvement_commits_without_rollback() {
        let mut ctrl = GlobalArq::new(CtrlConfig::default());
        observe_round(&mut ctrl, 0, 0.30);
        observe_round(&mut ctrl, 1, 0.30);
        let views = [view(0, 0.9, 2, 1), view(1, 0.1, 0, 0)];
        let mv = ctrl.plan(2, &views).expect("hot donor");
        let windows = [window(2, 0.22)];
        let ap = applied(mv.from, mv.to);
        let verdict = ctrl.observe(&RoundObservation {
            round: 2,
            windows: &windows,
            views: &views,
            applied: Some(&ap),
        });
        assert!(!verdict.rollback, "improved round keeps the move");
        assert!(ctrl.plan(3, &views).is_some(), "donor not blacklisted");
    }

    #[test]
    fn unapplied_plan_never_rolls_back() {
        let mut ctrl = GlobalArq::new(CtrlConfig::default());
        observe_round(&mut ctrl, 0, 0.30);
        observe_round(&mut ctrl, 1, 0.30);
        let views = [view(0, 0.9, 2, 1), view(1, 0.1, 0, 0)];
        ctrl.plan(2, &views).expect("hot donor");
        // The cluster found no matching app, so nothing was applied; even
        // a regressed round must not blame (or blacklist) the donor.
        let windows = [window(2, 0.55)];
        let verdict = ctrl.observe(&RoundObservation {
            round: 2,
            windows: &windows,
            views: &views,
            applied: None,
        });
        assert!(!verdict.rollback);
        assert!(ctrl.plan(3, &views).is_some(), "donor stays eligible");
    }

    #[test]
    fn tuner_emits_weights_each_epoch() {
        let mut ctrl = GlobalArq::new(CtrlConfig { tune: true });
        assert_eq!(ctrl.name(), "global-arq+learned");
        let mut emitted = 0;
        for round in 0..12 {
            let verdict = observe_round(&mut ctrl, round, 0.4 + 0.01 * round as f64);
            let boundary = (round + 1) % EPOCH_ROUNDS == 0;
            assert_eq!(
                verdict.weights.is_some(),
                boundary,
                "weights change exactly at epoch boundaries (round {round})"
            );
            emitted += usize::from(boundary);
        }
        assert_eq!(emitted, 6, "one weight update per 2-round epoch");
    }
}
