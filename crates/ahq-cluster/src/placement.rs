//! The placement subsystem: which node does each arriving application
//! land on, and which BE apps migrate between rounds.
//!
//! Placers are deliberately simple policies over per-node summaries
//! ([`NodeView`]): a slot/bin-packing baseline ([`FirstFit`]), a
//! load-spreading baseline ([`LeastLoaded`]), and the entropy-score-driven
//! [`EntropyAware`] — the cluster-level consumer of the paper's `E_S` /
//! `ReT` interference scores. Every policy breaks ties by lowest node
//! index, which is one of the three determinism legs the crate documents.

use ahq_sim::{AppKind, AppSpec, MachineConfig};

/// Per-node summary a placer decides over: static capacity, current
/// occupancy, and the entropy/tolerance history the cluster maintains
/// from prior rounds' [`ahq_core::EntropyReport`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// Node index in the fleet.
    pub index: usize,
    /// The node's machine budget.
    pub machine: MachineConfig,
    /// Threads of the LC apps currently placed here.
    pub lc_threads: u32,
    /// Threads of the BE apps currently placed here.
    pub be_threads: u32,
    /// Applications currently placed here.
    pub apps: usize,
    /// BE applications currently placed here (the migratable ones).
    pub be_apps: usize,
    /// Mean system entropy `E_S` of this node over the previous round;
    /// `None` before the node has run a populated round.
    pub recent_es: Option<f64>,
    /// Mean remaining tolerance `ReT` of the node's LC apps over the
    /// previous round; `None` when the node hosted no LC app.
    pub recent_ret: Option<f64>,
}

impl NodeView {
    /// Total threads currently placed on the node.
    pub fn used_threads(&self) -> u32 {
        self.lc_threads + self.be_threads
    }

    /// Thread occupancy after hypothetically adding `extra` threads,
    /// as a fraction of the node's cores (can exceed 1).
    pub fn occupancy_with(&self, extra: u32) -> f64 {
        (self.used_threads() + extra) as f64 / self.machine.cores as f64
    }
}

/// One BE migration decided by [`Placer::rebalance`]: move one BE app
/// from node `from` to node `to`. The cluster picks the concrete app
/// (deterministically) and refuses moves from nodes without BE apps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
}

/// The coefficients of [`EntropyAware`]'s predicted post-placement score.
/// Defaults are the hand-tuned constants the placer shipped with; the
/// cluster controller can learn better ones online (GP + expected
/// improvement over a `ahq_bayesopt::WeightGrid`-style candidate set)
/// and install them through [`Placer::set_weights`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementWeights {
    /// Weight of the node's observed recent `E_S`.
    pub es: f64,
    /// Weight of the LC fragility term `max(0, 1 - ReT)`.
    pub fragility: f64,
    /// Weight of the post-placement thread occupancy.
    pub occupancy: f64,
    /// Weight of the oversubscription overflow past the physical cores.
    pub overflow: f64,
}

impl Default for PlacementWeights {
    fn default() -> Self {
        PlacementWeights {
            es: 1.0,
            fragility: 0.25,
            occupancy: 1.0,
            overflow: 2.0,
        }
    }
}

impl PlacementWeights {
    /// The weights as a flat vector `[es, fragility, occupancy, overflow]`
    /// — the layout the online tuner optimizes over.
    pub fn to_vec(self) -> Vec<f64> {
        vec![self.es, self.fragility, self.occupancy, self.overflow]
    }

    /// Rebuilds weights from the tuner's flat layout. Returns `None`
    /// unless exactly four finite values are given.
    pub fn from_slice(v: &[f64]) -> Option<Self> {
        match v {
            [es, fragility, occupancy, overflow] if v.iter().all(|w| w.is_finite()) => {
                Some(PlacementWeights {
                    es: *es,
                    fragility: *fragility,
                    occupancy: *occupancy,
                    overflow: *overflow,
                })
            }
            _ => None,
        }
    }
}

/// A placement policy: assigns arriving apps to nodes and optionally
/// migrates BE apps between rounds.
pub trait Placer {
    /// The policy's display name.
    fn name(&self) -> &'static str;

    /// Picks the node for an arriving `app`. `views` is never empty.
    fn place(&mut self, app: &AppSpec, views: &[NodeView]) -> usize;

    /// Proposes BE migrations for the coming round. Default: none.
    fn rebalance(&mut self, views: &[NodeView]) -> Vec<Migration> {
        let _ = views;
        Vec::new()
    }

    /// Installs learned scoring weights. Default: ignored — only policies
    /// that opted into online tuning (the `learned` placer) accept them,
    /// so the static baselines stay exactly what their names promise.
    fn set_weights(&mut self, weights: &PlacementWeights) {
        let _ = weights;
    }
}

/// Index of the minimum score, first (lowest index) on ties — the shared
/// deterministic argmin of every policy here.
fn argmin_by_score(views: &[NodeView], mut score: impl FnMut(&NodeView) -> f64) -> usize {
    let mut best = 0;
    let mut best_score = f64::INFINITY;
    for view in views {
        let s = score(view);
        if s < best_score {
            best_score = s;
            best = view.index;
        }
    }
    best
}

/// Slot-based bin packing: the first node whose thread count stays within
/// `overcommit x cores` after placement; when every node is full, the one
/// with the lowest post-placement occupancy.
#[derive(Debug, Clone)]
pub struct FirstFit {
    /// Thread overcommit factor defining a "slot-fitting" node.
    pub overcommit: f64,
}

impl Default for FirstFit {
    fn default() -> Self {
        // Two hyperthread-style slots per core: the classic CPU-request
        // bin packing that ignores interference entirely.
        FirstFit { overcommit: 2.0 }
    }
}

impl Placer for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(&mut self, app: &AppSpec, views: &[NodeView]) -> usize {
        for view in views {
            let capacity = view.machine.cores as f64 * self.overcommit;
            if (view.used_threads() + app.threads()) as f64 <= capacity {
                return view.index;
            }
        }
        argmin_by_score(views, |v| v.occupancy_with(app.threads()))
    }
}

/// Load spreading: the node with the lowest post-placement thread
/// occupancy, ties to the lowest index.
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded;

impl Placer for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn place(&mut self, app: &AppSpec, views: &[NodeView]) -> usize {
        argmin_by_score(views, |v| v.occupancy_with(app.threads()))
    }
}

/// Entropy-aware placement: scores every node by a predicted
/// post-placement `E_S` built from the node's recent entropy report
/// history, its remaining-tolerance headroom, and the thread pressure the
/// new app adds; places on the minimum. Between rounds it migrates BE
/// apps off nodes whose recent `E_S` exceeds [`EntropyAware::hot_threshold`].
#[derive(Debug, Clone)]
pub struct EntropyAware {
    /// Recent `E_S` above which a node is migration-hot.
    pub hot_threshold: f64,
    /// Maximum BE migrations proposed per round.
    pub max_migrations: usize,
    /// Scoring coefficients (defaults reproduce the original hand-tuned
    /// constants bit-for-bit).
    pub weights: PlacementWeights,
    /// Whether [`Placer::set_weights`] is honoured. `false` for the
    /// classic `entropy-aware` policy, `true` for the `learned` variant.
    pub tunable: bool,
}

impl Default for EntropyAware {
    fn default() -> Self {
        EntropyAware {
            hot_threshold: 0.25,
            max_migrations: 2,
            weights: PlacementWeights::default(),
            tunable: false,
        }
    }
}

impl EntropyAware {
    /// The `learned` variant: identical scoring shape, but the controller
    /// may install GP-learned weights at epoch boundaries.
    pub fn learned() -> Self {
        EntropyAware {
            tunable: true,
            ..EntropyAware::default()
        }
    }

    /// Predicted post-placement `E_S` of placing `extra` threads on the
    /// node: the observed entropy, plus a fragility term for LC apps that
    /// have already burnt their tolerance (`1 - ReT`), plus the thread
    /// pressure — with oversubscription past the physical cores weighted
    /// heavily, since that is where the entropy knee lives. At the default
    /// weights this is bit-identical to the pre-weight formula (IEEE
    /// multiplication by exactly 1.0 is the identity, and the addition
    /// order is unchanged).
    fn score(&self, view: &NodeView, extra: u32) -> f64 {
        let occupancy = view.occupancy_with(extra);
        let overflow = (occupancy - 1.0).max(0.0);
        let observed = view.recent_es.unwrap_or(0.0);
        let fragility = view.recent_ret.map_or(0.0, |ret| (1.0 - ret).max(0.0));
        let w = &self.weights;
        w.es * observed + w.fragility * fragility + w.occupancy * occupancy + w.overflow * overflow
    }
}

impl Placer for EntropyAware {
    fn name(&self) -> &'static str {
        if self.tunable {
            "learned"
        } else {
            "entropy-aware"
        }
    }

    fn place(&mut self, app: &AppSpec, views: &[NodeView]) -> usize {
        argmin_by_score(views, |v| self.score(v, app.threads()))
    }

    fn rebalance(&mut self, views: &[NodeView]) -> Vec<Migration> {
        // Hot nodes with migratable BE work, hottest first (index breaks
        // ties via the stable sort).
        let mut hot: Vec<&NodeView> = views
            .iter()
            .filter(|v| v.be_apps > 0 && v.recent_es.is_some_and(|es| es > self.hot_threshold))
            .collect();
        hot.sort_by(|a, b| {
            b.recent_es
                .partial_cmp(&a.recent_es)
                .expect("recent_es is finite")
        });

        // Running thread deltas so successive migrations see each other.
        let mut delta: Vec<i64> = vec![0; views.len()];
        let mut moves = Vec::new();
        for source in hot.into_iter().take(self.max_migrations) {
            // BE churn-pool apps run at most 10 threads; 4 is typical.
            // The exact count is unknown here, so score the destination
            // with the typical footprint.
            let assumed_threads = 4u32;
            let mut best: Option<(f64, usize)> = None;
            for view in views {
                if view.index == source.index {
                    continue;
                }
                let shifted = NodeView {
                    lc_threads: view.lc_threads,
                    be_threads: (view.be_threads as i64 + delta[view.index]).max(0) as u32,
                    ..view.clone()
                };
                let s = self.score(&shifted, assumed_threads);
                if best.is_none_or(|(bs, _)| s < bs) {
                    best = Some((s, view.index));
                }
            }
            if let Some((score, to)) = best {
                // Only move when the destination is meaningfully calmer
                // than the source reads today.
                if score < source.recent_es.unwrap_or(0.0) + 1.0 {
                    delta[to] += assumed_threads as i64;
                    delta[source.index] -= assumed_threads as i64;
                    moves.push(Migration {
                        from: source.index,
                        to,
                    });
                }
            }
        }
        moves
    }

    fn set_weights(&mut self, weights: &PlacementWeights) {
        if self.tunable {
            self.weights = *weights;
        }
    }
}

/// Declares [`PlacerKind`] and every lookup over it from one table, so a
/// new policy cannot be added without its display name and constructor:
/// each variant row carries both, and `all`/`name`/`build`/`parse` are
/// generated as exhaustive matches over the same list.
macro_rules! placer_registry {
    (
        $( $(#[$vdoc:meta])* $variant:ident => $display:literal, $build:expr; )+
    ) => {
        /// The named placement policies, as a value type experiment grids
        /// can enumerate.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum PlacerKind {
            $( $(#[$vdoc])* $variant, )+
        }

        impl PlacerKind {
            /// Number of registered policies.
            pub const COUNT: usize = [$(PlacerKind::$variant),+].len();

            /// All policies, in registry order (baselines first).
            pub fn all() -> [PlacerKind; Self::COUNT] {
                [$(PlacerKind::$variant),+]
            }

            /// The policy's display name.
            pub fn name(&self) -> &'static str {
                match self {
                    $( PlacerKind::$variant => $display, )+
                }
            }

            /// Instantiates a fresh placer with default parameters.
            pub fn build(&self) -> Box<dyn Placer> {
                match self {
                    $( PlacerKind::$variant => $build, )+
                }
            }

            /// Parses a policy from its display name.
            pub fn parse(name: &str) -> Option<PlacerKind> {
                match name.to_ascii_lowercase().as_str() {
                    $( $display => Some(PlacerKind::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

placer_registry! {
    /// Slot/bin-packing baseline.
    FirstFit => "first-fit", Box::new(FirstFit::default());
    /// Occupancy-spreading baseline.
    LeastLoaded => "least-loaded", Box::new(LeastLoaded);
    /// Entropy-score-driven placement and BE migration, fixed hand-tuned
    /// weights.
    EntropyAware => "entropy-aware", Box::new(EntropyAware::default());
    /// Entropy-aware scoring whose weights the cluster controller tunes
    /// online ([`Placer::set_weights`]).
    Learned => "learned", Box::new(EntropyAware::learned());
}

/// The three static policies PR 3 shipped — the grid the `repro cluster`
/// family iterates. `Learned` is excluded: without a controller feeding it
/// weights it is identical to `EntropyAware`, and the cluster tables pin
/// byte-identical output across releases.
pub fn static_placers() -> [PlacerKind; 3] {
    [
        PlacerKind::FirstFit,
        PlacerKind::LeastLoaded,
        PlacerKind::EntropyAware,
    ]
}

/// Whether an app of `kind` may migrate (only BE work moves; LC apps pin
/// where they were placed — live-migrating a latency-critical service is
/// exactly the disruption the paper's scheduling avoids).
pub(crate) fn migratable(kind: AppKind) -> bool {
    kind == AppKind::Be
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahq_workloads::profiles;

    fn view(index: usize, lc: u32, be: u32, es: Option<f64>) -> NodeView {
        NodeView {
            index,
            machine: MachineConfig::paper_xeon(),
            lc_threads: lc,
            be_threads: be,
            apps: ((lc + be) / 4) as usize,
            be_apps: (be / 4) as usize,
            recent_es: es,
            recent_ret: None,
        }
    }

    #[test]
    fn first_fit_packs_low_indices() {
        let mut p = FirstFit::default();
        let app = profiles::xapian();
        let views = vec![view(0, 8, 4, None), view(1, 0, 0, None)];
        // 12 + 4 <= 20: still "fits" under 2x overcommit.
        assert_eq!(p.place(&app, &views), 0);
        let full = vec![view(0, 12, 8, None), view(1, 0, 4, None)];
        // 20 + 4 > 20: overflow to the next slot-fitting node.
        assert_eq!(p.place(&app, &full), 1);
    }

    #[test]
    fn first_fit_falls_back_to_least_occupied_when_all_full() {
        let mut p = FirstFit::default();
        let app = profiles::xapian();
        let views = vec![view(0, 12, 12, None), view(1, 12, 8, None)];
        assert_eq!(p.place(&app, &views), 1);
    }

    #[test]
    fn least_loaded_spreads_and_ties_to_lowest_index() {
        let mut p = LeastLoaded;
        let app = profiles::xapian();
        let views = vec![
            view(0, 4, 0, None),
            view(1, 0, 0, None),
            view(2, 0, 0, None),
        ];
        assert_eq!(p.place(&app, &views), 1);
        let tied = vec![view(0, 4, 0, None), view(1, 4, 0, None)];
        assert_eq!(p.place(&app, &tied), 0);
    }

    #[test]
    fn entropy_aware_avoids_hot_nodes() {
        let mut p = EntropyAware::default();
        let app = profiles::xapian();
        // Node 0 is emptier but ran hot; node 1 is busier but calm.
        let views = vec![view(0, 4, 0, Some(0.9)), view(1, 8, 0, Some(0.0))];
        assert_eq!(p.place(&app, &views), 1);
        // Without history it degenerates to occupancy spreading.
        let cold = vec![view(0, 8, 0, None), view(1, 4, 0, None)];
        assert_eq!(p.place(&app, &cold), 1);
    }

    #[test]
    fn entropy_aware_oversubscription_dominates() {
        let mut p = EntropyAware::default();
        let app = profiles::stream(); // 10 threads
                                      // Node 0 oversubscribes badly with 10 more threads; node 1 has a
                                      // mildly bad history but plenty of headroom.
        let views = vec![view(0, 8, 8, Some(0.1)), view(1, 0, 0, Some(0.3))];
        assert_eq!(p.place(&app, &views), 1);
    }

    #[test]
    fn rebalance_moves_be_off_hot_nodes_boundedly() {
        let mut p = EntropyAware::default();
        let views = vec![
            view(0, 8, 12, Some(0.8)),
            view(1, 8, 8, Some(0.6)),
            view(2, 0, 0, Some(0.0)),
            view(3, 0, 0, None),
        ];
        let moves = p.rebalance(&views);
        assert!(!moves.is_empty());
        assert!(moves.len() <= p.max_migrations);
        for m in &moves {
            assert!(m.from <= 1, "only hot nodes shed work: {m:?}");
            assert!(m.to >= 2, "work lands on calm nodes: {m:?}");
        }
        // Cold clusters never migrate.
        let calm = vec![view(0, 8, 8, Some(0.05)), view(1, 0, 0, Some(0.0))];
        assert!(p.rebalance(&calm).is_empty());
    }

    #[test]
    fn kinds_round_trip() {
        for kind in PlacerKind::all() {
            assert_eq!(PlacerKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(PlacerKind::parse("nope"), None);
    }

    #[test]
    fn only_be_apps_migrate() {
        assert!(migratable(AppKind::Be));
        assert!(!migratable(AppKind::Lc));
    }
}
