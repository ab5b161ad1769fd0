//! The five strategies under evaluation, as a value type the experiment
//! harness can enumerate.

use crate::{Arq, Clite, Heracles, LcFirst, Parties, Scheduler, Unmanaged};

/// One of the paper's five scheduling strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// OS default, everything shared fairly.
    Unmanaged,
    /// Everything shared, LC real-time priority.
    LcFirst,
    /// PARTIES: strict partitioning, slack-driven FSM.
    Parties,
    /// CLITE: strict partitioning via Bayesian optimization.
    Clite,
    /// ARQ: the paper's isolated+shared region strategy.
    Arq,
    /// Heracles-style threshold controller (extra baseline, not part of
    /// the paper's five-strategy comparison grids).
    Heracles,
}

impl StrategyKind {
    /// The paper's five strategies, in its presentation order. The extra
    /// [`StrategyKind::Heracles`] baseline is excluded so the figure grids
    /// match the paper's columns; use [`StrategyKind::extended`] for all
    /// six.
    pub fn all() -> [StrategyKind; 5] {
        [
            StrategyKind::Unmanaged,
            StrategyKind::LcFirst,
            StrategyKind::Parties,
            StrategyKind::Clite,
            StrategyKind::Arq,
        ]
    }

    /// All implemented strategies, including the extra Heracles baseline.
    pub fn extended() -> [StrategyKind; 6] {
        [
            StrategyKind::Unmanaged,
            StrategyKind::LcFirst,
            StrategyKind::Parties,
            StrategyKind::Clite,
            StrategyKind::Arq,
            StrategyKind::Heracles,
        ]
    }

    /// The strategy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Unmanaged => "unmanaged",
            StrategyKind::LcFirst => "lc-first",
            StrategyKind::Parties => "parties",
            StrategyKind::Clite => "clite",
            StrategyKind::Arq => "arq",
            StrategyKind::Heracles => "heracles",
        }
    }

    /// Instantiates a fresh scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            StrategyKind::Unmanaged => Box::new(Unmanaged),
            StrategyKind::LcFirst => Box::new(LcFirst),
            StrategyKind::Parties => Box::new(Parties::new()),
            StrategyKind::Clite => Box::new(Clite::new()),
            StrategyKind::Arq => Box::new(Arq::new()),
            StrategyKind::Heracles => Box::new(Heracles::new()),
        }
    }

    /// Parses a strategy from its display name.
    pub fn parse(name: &str) -> Option<StrategyKind> {
        StrategyKind::extended()
            .into_iter()
            .find(|k| k.name() == name.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in StrategyKind::extended() {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(StrategyKind::parse("nope"), None);
    }
}
