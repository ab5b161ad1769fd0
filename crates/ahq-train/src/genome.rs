//! The search space: every knob the offline search may turn, flattened
//! into a fixed-length gene vector with per-gene bounds and repair.

use ahq_cluster::{EntropyAware, PlacementWeights};
use ahq_core::json::{FromJson, JsonError, JsonValue, ToJson};
use ahq_sched::ArqConfig;

/// Number of genes in the flat encoding.
pub const GENES: usize = 11;

/// Human-readable gene names, in [`Genome::to_vec`] order.
pub const GENE_NAMES: [&str; GENES] = [
    "es",
    "fragility",
    "occupancy",
    "overflow",
    "hot_threshold",
    "max_migrations",
    "victim_ret",
    "beneficiary_ret",
    "entropy_epsilon",
    "blacklist_secs",
    "throttle_be",
];

/// A complete tunable policy: the entropy-aware placement scoring
/// weights plus the ARQ adjustment rule thresholds. The incumbent
/// hand-tuned policy is [`Genome::default`]; the trainer searches the
/// box around it defined by [`GenomeBounds`].
#[derive(Debug, Clone, PartialEq)]
pub struct Genome {
    /// Placement scoring weights for the entropy-aware placer.
    pub weights: PlacementWeights,
    /// Rebalance trigger: nodes with observed E_S above this are hot.
    pub hot_threshold: f64,
    /// Migration budget per rebalance pass.
    pub max_migrations: usize,
    /// ARQ: a region donates resources while its ReT exceeds this.
    pub victim_ret: f64,
    /// ARQ: an application below this ReT receives resources.
    pub beneficiary_ret: f64,
    /// ARQ: rollback noise floor on window-to-window entropy deltas.
    pub entropy_epsilon: f64,
    /// ARQ: how long a rolled-back victim is protected, in seconds.
    pub blacklist_secs: f64,
    /// ARQ: whether the BE memory-bandwidth throttle gate is enabled.
    pub throttle_be: bool,
}

impl Default for Genome {
    /// The incumbent hand-tuned policy: `EntropyAware::default()`
    /// placement plus `ArqConfig::default()` adjustment thresholds.
    fn default() -> Self {
        let placer = EntropyAware::default();
        let arq = ArqConfig::default();
        Genome {
            weights: placer.weights,
            hot_threshold: placer.hot_threshold,
            max_migrations: placer.max_migrations,
            victim_ret: arq.victim_ret,
            beneficiary_ret: arq.beneficiary_ret,
            entropy_epsilon: arq.entropy_epsilon,
            blacklist_secs: arq.blacklist_secs,
            throttle_be: arq.throttle_be,
        }
    }
}

impl Genome {
    /// Flatten into the fixed [`GENES`]-length vector ([`GENE_NAMES`]
    /// order). Exact: `from_vec(&g.to_vec())` reproduces `g` for any
    /// genome already inside [`GenomeBounds::default`].
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.weights.es,
            self.weights.fragility,
            self.weights.occupancy,
            self.weights.overflow,
            self.hot_threshold,
            self.max_migrations as f64,
            self.victim_ret,
            self.beneficiary_ret,
            self.entropy_epsilon,
            self.blacklist_secs,
            if self.throttle_be { 1.0 } else { 0.0 },
        ]
    }

    /// Decode a raw gene vector, repairing it into a valid policy:
    /// clamp every gene into `bounds`, round `max_migrations` to an
    /// integer, binarize `throttle_be` at 0.5, and cap
    /// `beneficiary_ret` at `victim_ret` (a beneficiary threshold above
    /// the victim threshold would make every region both donor and
    /// recipient at once).
    pub fn from_vec(raw: &[f64], bounds: &GenomeBounds) -> Genome {
        assert_eq!(raw.len(), GENES, "genome vector must have {GENES} genes");
        let mut v = [0.0f64; GENES];
        for (i, slot) in v.iter_mut().enumerate() {
            let x = if raw[i].is_finite() {
                raw[i]
            } else {
                bounds.lo[i]
            };
            *slot = x.clamp(bounds.lo[i], bounds.hi[i]);
        }
        let max_migrations = v[5].round() as usize;
        let victim_ret = v[6];
        let beneficiary_ret = v[7].min(victim_ret);
        Genome {
            weights: PlacementWeights {
                es: v[0],
                fragility: v[1],
                occupancy: v[2],
                overflow: v[3],
            },
            hot_threshold: v[4],
            max_migrations,
            victim_ret,
            beneficiary_ret,
            entropy_epsilon: v[8],
            blacklist_secs: v[9],
            throttle_be: v[10] > 0.5,
        }
    }

    /// The placer this genome encodes. `tunable` is off: the trained
    /// weights are fixed for the whole run, not re-fit online.
    pub fn placer(&self) -> EntropyAware {
        EntropyAware {
            hot_threshold: self.hot_threshold,
            max_migrations: self.max_migrations,
            weights: self.weights,
            tunable: false,
        }
    }

    /// The ARQ configuration this genome encodes. `sharing` stays at its
    /// default — LC priority in the shared region is a structural choice
    /// of the paper's Algorithm 1, not a search knob.
    pub fn arq_config(&self) -> ArqConfig {
        ArqConfig {
            victim_ret: self.victim_ret,
            beneficiary_ret: self.beneficiary_ret,
            blacklist_secs: self.blacklist_secs,
            entropy_epsilon: self.entropy_epsilon,
            throttle_be: self.throttle_be,
            ..ArqConfig::default()
        }
    }
}

impl ToJson for Genome {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("es", self.weights.es.to_json()),
            ("fragility", self.weights.fragility.to_json()),
            ("occupancy", self.weights.occupancy.to_json()),
            ("overflow", self.weights.overflow.to_json()),
            ("hot_threshold", self.hot_threshold.to_json()),
            ("max_migrations", self.max_migrations.to_json()),
            ("victim_ret", self.victim_ret.to_json()),
            ("beneficiary_ret", self.beneficiary_ret.to_json()),
            ("entropy_epsilon", self.entropy_epsilon.to_json()),
            ("blacklist_secs", self.blacklist_secs.to_json()),
            ("throttle_be", self.throttle_be.to_json()),
        ])
    }
}

impl FromJson for Genome {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(Genome {
            weights: PlacementWeights {
                es: value.req("es")?,
                fragility: value.req("fragility")?,
                occupancy: value.req("occupancy")?,
                overflow: value.req("overflow")?,
            },
            hot_threshold: value.req("hot_threshold")?,
            max_migrations: value.req("max_migrations")?,
            victim_ret: value.req("victim_ret")?,
            beneficiary_ret: value.req("beneficiary_ret")?,
            entropy_epsilon: value.req("entropy_epsilon")?,
            blacklist_secs: value.req("blacklist_secs")?,
            throttle_be: value.req("throttle_be")?,
        })
    }
}

/// Per-gene search box, in [`GENE_NAMES`] order. The defaults bracket
/// every incumbent value with room on both sides; the trainer never
/// leaves the box (decode clamps into it).
#[derive(Debug, Clone, PartialEq)]
pub struct GenomeBounds {
    /// Lower bound per gene.
    pub lo: [f64; GENES],
    /// Upper bound per gene.
    pub hi: [f64; GENES],
}

impl Default for GenomeBounds {
    fn default() -> Self {
        GenomeBounds {
            //    es   frag  occ  over  hot  migr  vict  bene  eps  black throt
            lo: [0.0, 0.0, 0.0, 0.0, 0.05, 0.0, 0.02, 0.0, 0.0, 10.0, 0.0],
            hi: [3.0, 2.0, 3.0, 6.0, 0.80, 4.0, 0.40, 0.20, 0.10, 120.0, 1.0],
        }
    }
}

impl GenomeBounds {
    /// Width of gene `i`'s interval — the scale mutations are sized by.
    pub fn range(&self, i: usize) -> f64 {
        self.hi[i] - self.lo[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_genome_matches_incumbents() {
        let g = Genome::default();
        assert_eq!(g.weights, PlacementWeights::default());
        assert_eq!(g.hot_threshold, 0.25);
        assert_eq!(g.max_migrations, 2);
        assert_eq!(g.victim_ret, 0.1);
        assert_eq!(g.beneficiary_ret, 0.05);
        assert!(!g.throttle_be);
    }

    #[test]
    fn vector_round_trip_is_exact() {
        let bounds = GenomeBounds::default();
        let g = Genome::default();
        assert_eq!(Genome::from_vec(&g.to_vec(), &bounds), g);
        let tuned = Genome {
            weights: PlacementWeights {
                es: 1.75,
                fragility: 0.5,
                occupancy: 0.25,
                overflow: 3.0,
            },
            hot_threshold: 0.4,
            max_migrations: 3,
            victim_ret: 0.2,
            beneficiary_ret: 0.08,
            entropy_epsilon: 0.05,
            blacklist_secs: 30.0,
            throttle_be: true,
        };
        assert_eq!(Genome::from_vec(&tuned.to_vec(), &bounds), tuned);
    }

    #[test]
    fn repair_clamps_quantizes_and_orders_thresholds() {
        let bounds = GenomeBounds::default();
        let raw = [9.0, -1.0, 0.5, 0.5, 0.5, 2.4, 0.05, 0.19, 0.5, 1.0, 0.3];
        let g = Genome::from_vec(&raw, &bounds);
        assert_eq!(g.weights.es, 3.0);
        assert_eq!(g.weights.fragility, 0.0);
        assert_eq!(g.max_migrations, 2);
        // beneficiary capped at victim
        assert_eq!(g.beneficiary_ret, g.victim_ret);
        assert_eq!(g.entropy_epsilon, 0.1);
        assert_eq!(g.blacklist_secs, 10.0);
        assert!(!g.throttle_be);
        // NaN genes land on the lower bound rather than poisoning the policy.
        let g = Genome::from_vec(&[f64::NAN; GENES], &bounds);
        assert_eq!(g.weights.es, 0.0);
        assert_eq!(g.blacklist_secs, 10.0);
    }

    #[test]
    fn derived_policy_objects_carry_the_genes() {
        let g = Genome {
            hot_threshold: 0.33,
            throttle_be: true,
            victim_ret: 0.17,
            ..Genome::default()
        };
        let placer = g.placer();
        assert_eq!(placer.hot_threshold, 0.33);
        assert!(!placer.tunable);
        let arq = g.arq_config();
        assert_eq!(arq.victim_ret, 0.17);
        assert!(arq.throttle_be);
        assert_eq!(arq.sharing, ArqConfig::default().sharing);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut g = Genome::default();
        g.weights.es = 1.2345678901234567;
        g.throttle_be = true;
        let text = ahq_core::json::to_string(&g);
        let back: Genome = ahq_core::json::from_str(&text).unwrap();
        assert_eq!(back, g);
    }
}
