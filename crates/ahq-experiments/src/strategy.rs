//! The strategies under evaluation, as a value type the experiment
//! harness can enumerate. [`StrategyKind`] lives in `ahq-sched` beside
//! [`RunSpec`](crate::exec::RunSpec) and is re-exported here.

pub use ahq_sched::StrategyKind;
