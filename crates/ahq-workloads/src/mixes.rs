//! Named collocation mixes — one per experiment family in the paper.

use ahq_sim::AppSpec;

use crate::profiles;

/// A named collocation: which applications run together, LC apps first.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// A short identifier used in experiment output.
    pub name: &'static str,
    /// The application specs, LC applications first.
    pub apps: Vec<AppSpec>,
}

impl Mix {
    /// Names of the LC applications in this mix.
    pub fn lc_names(&self) -> Vec<&str> {
        self.apps
            .iter()
            .filter(|a| a.kind() == ahq_sim::AppKind::Lc)
            .map(|a| a.name())
            .collect()
    }

    /// Names of the BE applications in this mix.
    pub fn be_names(&self) -> Vec<&str> {
        self.apps
            .iter()
            .filter(|a| a.kind() == ahq_sim::AppKind::Be)
            .map(|a| a.name())
            .collect()
    }
}

/// Xapian + Moses + Img-dnn with Fluidanimate — Table II, Fig. 2, Fig. 3
/// and Fig. 8.
pub fn fluidanimate_mix() -> Mix {
    Mix {
        name: "xapian+moses+img-dnn/fluidanimate",
        apps: vec![
            profiles::xapian(),
            profiles::moses(),
            profiles::img_dnn(),
            profiles::fluidanimate(),
        ],
    }
}

/// Xapian + Moses + Img-dnn with the 10-thread STREAM hog — Fig. 5, 6, 9,
/// 10 and 13.
pub fn stream_mix() -> Mix {
    Mix {
        name: "xapian+moses+img-dnn/stream",
        apps: vec![
            profiles::xapian(),
            profiles::moses(),
            profiles::img_dnn(),
            profiles::stream(),
        ],
    }
}

/// Img-dnn + Moses + Sphinx with STREAM — Fig. 11 ("another application
/// collocation").
pub fn sphinx_mix() -> Mix {
    Mix {
        name: "img-dnn+moses+sphinx/stream",
        apps: vec![
            profiles::img_dnn(),
            profiles::moses(),
            profiles::sphinx(),
            profiles::stream(),
        ],
    }
}

/// All six LC applications with Fluidanimate and Streamcluster — Fig. 12
/// ("collocation of even larger number of applications").
pub fn large_mix() -> Mix {
    Mix {
        name: "6lc/2be",
        apps: vec![
            profiles::moses(),
            profiles::xapian(),
            profiles::img_dnn(),
            profiles::sphinx(),
            profiles::masstree(),
            profiles::silo(),
            profiles::fluidanimate(),
            profiles::streamcluster(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_have_expected_shapes() {
        assert_eq!(fluidanimate_mix().lc_names().len(), 3);
        assert_eq!(fluidanimate_mix().be_names(), vec!["fluidanimate"]);
        assert_eq!(stream_mix().be_names(), vec!["stream"]);
        assert_eq!(sphinx_mix().lc_names(), vec!["img-dnn", "moses", "sphinx"]);
        assert_eq!(large_mix().lc_names().len(), 6);
        assert_eq!(large_mix().be_names().len(), 2);
    }

    #[test]
    fn mixes_build_into_simulations() {
        use ahq_sim::{MachineConfig, NodeSim};
        for mix in [fluidanimate_mix(), stream_mix(), sphinx_mix(), large_mix()] {
            let sim = NodeSim::new(MachineConfig::paper_xeon(), mix.apps.clone(), 1);
            assert!(sim.is_ok(), "mix {} should build", mix.name);
        }
    }
}
