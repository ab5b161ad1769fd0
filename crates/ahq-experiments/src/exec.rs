//! The deterministic parallel run engine: experiment modules describe
//! their simulations as value-typed [`RunSpec`] jobs and submit whole
//! grids at once; the [`Engine`] fans the jobs out over a scoped-thread
//! worker pool and memoizes results so configurations shared across
//! figures execute exactly once per `repro` invocation.
//!
//! # Determinism
//!
//! A [`RunSpec`] (from `ahq-sched`, re-exported here) is a *closed* job
//! description, so executing a spec twice yields byte-identical
//! [`RunResult`]s, and nothing about a run depends on worker identity or
//! scheduling order. Results are returned in submission order, so
//! `--jobs 1` and `--jobs N` produce identical output.
//!
//! The engine groups the specs of a batch that draw the same request
//! stream ([`RunSpec::same_arrivals`]: a strategy grid's cell) and runs
//! each group as one work unit through [`execute_lockstep`], which steps
//! every member through each window on one set of draws. A lone spec is
//! a group of one. Each member's result and work counters are exactly
//! those of its own run; only the draws are shared.
//!
//! # Cache keying
//!
//! A spec's identity is its full `Debug` rendering ([`RunSpec::key`]),
//! so no field can be left out. The memo keys results by
//! [`RunSpec::digest`], the 128-bit hash of that text, and holds no text;
//! debug builds assert that one digest never names two texts. The disk
//! tier verifies the full text inside each shard. Hits and misses are
//! counted per engine and reported by the `repro` binary.
//!
//! # What the memo holds
//!
//! Each memoized result is kept packed: an exact byte encoding (`f64`s
//! as their bits, integers as LEB128, names once per result) in one
//! exact-size allocation, written on the worker that ran the spec. A hit
//! decodes a fresh [`RunResult`]; in-batch duplicates still share their
//! owner's `Arc`. A live result is twenty-odd heap blocks and 1.5–2.8 KB,
//! its packing 250–620 B, and most node jobs are never hit again, so the
//! memo is most of a cluster run's resident memory. Debug builds decode
//! every packing on insert and assert it renders the result's `Debug`
//! text.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

use ahq_sched::{execute_lockstep, RunResult};
pub use ahq_sched::{RunKey, RunSpec, SchedSpec, StaticPartition};
use ahq_sim::{AppSpec, SimPerfStats};

use crate::packed;
use crate::runs::ExpConfig;

/// Locks `mutex`, ignoring poisoning. Every critical section is a single
/// insert, pop or store, so a panic elsewhere never leaves the guarded data
/// half-updated; the panicking worker still fails the scoped run.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hit/miss counters of an [`Engine`]'s run cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Submissions answered from the cache (including duplicates within
    /// one batch, which execute once).
    pub hits: u64,
    /// Submissions that executed a simulation.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of submissions answered without executing, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The parallel run engine: a scoped-thread worker pool plus a two-tier
/// memoized result cache keyed by canonical [`RunSpec`]. Tier 1 is the
/// in-process map below; tier 2 is an optional persistent
/// [`DiskCache`](crate::cache::DiskCache) attached via
/// [`Engine::set_disk_cache`], probed on tier-1 misses and written
/// through after every execution so results survive the process.
pub struct Engine {
    jobs: usize,
    // Packed results (see the module docs), by spec digest.
    cache: Mutex<HashMap<u128, Box<[u8]>>>,
    // Debug builds: the key text behind each digest, to catch a collision.
    #[cfg(debug_assertions)]
    key_texts: Mutex<HashMap<u128, RunKey>>,
    disk: Option<crate::cache::DiskCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    // Aggregated simulator work counters over every *executed* run
    // (cached runs re-use a prior execution and add nothing).
    sim_events: AtomicU64,
    sim_rate_hits: AtomicU64,
    sim_rate_misses: AtomicU64,
}

impl Engine {
    /// Creates an engine with `jobs` workers; `0` means the machine's
    /// available parallelism.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        Engine {
            jobs,
            cache: Mutex::new(HashMap::new()),
            #[cfg(debug_assertions)]
            key_texts: Mutex::new(HashMap::new()),
            disk: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            sim_events: AtomicU64::new(0),
            sim_rate_hits: AtomicU64::new(0),
            sim_rate_misses: AtomicU64::new(0),
        }
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Attaches the persistent tier-2 store. Tier-1 misses are probed on
    /// disk before executing, and every executed result is written back.
    pub fn set_disk_cache(&mut self, disk: crate::cache::DiskCache) {
        self.disk = Some(disk);
    }

    /// The attached tier-2 store, if any.
    pub fn disk_cache(&self) -> Option<&crate::cache::DiskCache> {
        self.disk.as_ref()
    }

    /// Tier-2 counters, when a disk cache is attached.
    pub fn disk_stats(&self) -> Option<crate::cache::DiskCacheStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    /// Current cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Results held by the in-process memo.
    pub fn memo_entries(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Bytes of packed results held by the in-process memo (the encoded
    /// results only, not the map's own table). Deterministic for a given
    /// set of submissions, whatever the worker count.
    pub fn memo_bytes(&self) -> usize {
        lock(&self.cache).values().map(|entry| entry.len()).sum()
    }

    /// Aggregated simulator work counters across every run this engine
    /// actually executed: discrete events processed and fluid-rate-cache
    /// hits/misses inside the simulators.
    pub fn sim_stats(&self) -> SimPerfStats {
        SimPerfStats {
            events: self.sim_events.load(Ordering::Relaxed),
            rate_hits: self.sim_rate_hits.load(Ordering::Relaxed),
            rate_misses: self.sim_rate_misses.load(Ordering::Relaxed),
        }
    }

    fn record_sim_stats(&self, stats: SimPerfStats) {
        self.sim_events.fetch_add(stats.events, Ordering::Relaxed);
        self.sim_rate_hits
            .fetch_add(stats.rate_hits, Ordering::Relaxed);
        self.sim_rate_misses
            .fetch_add(stats.rate_misses, Ordering::Relaxed);
    }

    /// Runs a single spec through the cache.
    pub fn run_one(&self, spec: &RunSpec) -> Arc<RunResult> {
        self.run_all(std::slice::from_ref(spec))
            .pop()
            .expect("one spec in, one result out")
    }

    /// Runs a grid of specs, returning results in submission order.
    ///
    /// Cached and duplicated specs execute at most once. The rest are
    /// grouped into work units — specs that share a request stream
    /// ([`RunSpec::same_arrivals`]) run in lockstep as one unit, a lone
    /// spec as a group of one — and fanned out over the worker pool,
    /// heaviest unit first.
    /// Because every job's result is a pure function of its spec and
    /// results are reassembled by submission index, the output is
    /// byte-identical for any worker count.
    pub fn run_all(&self, specs: &[RunSpec]) -> Vec<Arc<RunResult>> {
        let digests: Vec<u128> = specs.iter().map(RunSpec::digest).collect();
        let mut results: Vec<Option<Arc<RunResult>>> = vec![None; specs.len()];
        // Unique uncached jobs (by first submission index) and, for
        // in-batch duplicates, which pending slot each one follows.
        let mut owner_of: HashMap<u128, usize> = HashMap::new();
        let mut pending: Vec<usize> = Vec::new();
        let mut followers: Vec<(usize, usize)> = Vec::new();
        {
            let cache = lock(&self.cache);
            for (i, &digest) in digests.iter().enumerate() {
                #[cfg(debug_assertions)]
                {
                    let key = specs[i].key();
                    let mut texts = lock(&self.key_texts);
                    let seen = texts.entry(digest).or_insert_with(|| key.clone());
                    assert_eq!(*seen, key, "two specs share the digest {digest:032x}");
                }
                if let Some(entry) = cache.get(&digest) {
                    results[i] = Some(Arc::new(packed::unpack(entry)));
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else if let Some(&slot) = owner_of.get(&digest) {
                    followers.push((i, slot));
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    owner_of.insert(digest, pending.len());
                    pending.push(i);
                }
            }
        }

        // Tier 2: probe the disk store for each tier-1 miss (no lock
        // held — this is I/O). A disk hit fills its slot up front and
        // counts as a cache hit; only true misses execute. Only here is
        // the key text rendered, once per miss. Each slot receives the
        // result and its memo packing.
        let slots: Vec<Mutex<Option<Slot>>> = pending.iter().map(|_| Mutex::new(None)).collect();
        let mut to_run: Vec<usize> = Vec::with_capacity(pending.len());
        let mut disk_keys: Vec<RunKey> = Vec::new();
        if let Some(disk) = &self.disk {
            disk_keys = pending.iter().map(|&i| specs[i].key()).collect();
            let mut scratch = Vec::new();
            for (slot, key) in disk_keys.iter().enumerate() {
                if let Some(result) = disk.load(key) {
                    let entry = memo_entry(&result, &mut scratch);
                    *lock(&slots[slot]) = Some((result, entry));
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    to_run.push(slot);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            to_run.extend(0..pending.len());
            self.misses
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
        }

        let units = self.plan_units(specs, &pending, &to_run);
        // Each worker packs what it ran, staging through its own scratch.
        let run_unit = |unit: &[usize], scratch: &mut Vec<u8>| {
            let members: Vec<&RunSpec> = unit.iter().map(|&slot| &specs[pending[slot]]).collect();
            for (&slot, (result, sim_stats)) in unit.iter().zip(execute_lockstep(&members)) {
                self.record_sim_stats(sim_stats);
                let entry = memo_entry(&result, scratch);
                *lock(&slots[slot]) = Some((result, entry));
            }
        };
        let workers = self.jobs.min(units.len());
        if workers <= 1 {
            let mut scratch = Vec::new();
            units.iter().for_each(|unit| run_unit(unit, &mut scratch));
        } else {
            let next = AtomicUsize::new(0);
            thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut scratch = Vec::new();
                        while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                            run_unit(unit, &mut scratch);
                        }
                    });
                }
            });
        }

        // Write-through: persist freshly executed results (disk hits are
        // already on disk) before sealing tier 1.
        if let Some(disk) = &self.disk {
            for &slot in &to_run {
                if let Some((result, _)) = lock(&slots[slot]).as_ref() {
                    disk.store(&disk_keys[slot], result);
                }
            }
        }

        {
            let mut cache = lock(&self.cache);
            for (slot, cell) in slots.into_iter().enumerate() {
                let (result, entry) = cell
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("worker filled the slot");
                cache.insert(digests[pending[slot]], entry);
                results[pending[slot]] = Some(Arc::new(result));
            }
        }
        for (i, slot) in followers {
            results[i] = results[pending[slot]].clone();
        }
        results
            .into_iter()
            .map(|r| r.expect("every submission resolved"))
            .collect()
    }

    /// Splits the pending slots in `to_run` (indices into `pending`,
    /// which maps them to `specs`) into work units, in dispatch order.
    ///
    /// * **Grouping.** Specs that draw the same request stream
    ///   ([`RunSpec::same_arrivals`]) form one lockstep unit. Candidates
    ///   are bucketed on seed, window count and window length first, so
    ///   a batch of distinct seeds pays one hash probe per spec.
    /// * **Splitting.** A batch never has fewer units than workers: the
    ///   heaviest group is halved until it does, or every unit is single.
    /// * **Order.** Heaviest first by a deterministic estimate — the
    ///   spec's [`spec_weight`] times its members — ties in submission order.
    fn plan_units(
        &self,
        specs: &[RunSpec],
        pending: &[usize],
        to_run: &[usize],
    ) -> Vec<Vec<usize>> {
        let spec = |slot: usize| &specs[pending[slot]];
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut buckets: HashMap<(u64, usize, Option<u64>), Vec<usize>> = HashMap::new();
        for &slot in to_run {
            let s = spec(slot);
            let bucket = buckets
                .entry((s.seed, s.windows, s.window_ms.map(f64::to_bits)))
                .or_default();
            match bucket.iter().find(|&&u| spec(units[u][0]).same_arrivals(s)) {
                Some(&u) => units[u].push(slot),
                None => {
                    bucket.push(units.len());
                    units.push(vec![slot]);
                }
            }
        }
        let weight = |unit: &[usize]| spec_weight(spec(unit[0])) * unit.len() as f64;
        while units.len() < self.jobs {
            let heaviest = (0..units.len())
                .filter(|&u| units[u].len() > 1)
                .max_by(|&a, &b| {
                    weight(&units[a])
                        .total_cmp(&weight(&units[b]))
                        .then(b.cmp(&a))
                });
            let Some(u) = heaviest else {
                break;
            };
            let half = units[u].len() / 2;
            let tail = units[u].split_off(half);
            units.push(tail);
        }
        let mut weighted: Vec<(f64, Vec<usize>)> = units
            .into_iter()
            .map(|unit| (weight(&unit), unit))
            .collect();
        weighted.sort_by(|(wa, a), (wb, b)| wb.total_cmp(wa).then(a[0].cmp(&b[0])));
        weighted.into_iter().map(|(_, unit)| unit).collect()
    }
}

/// A pending spec's result and its memo entry (its packing).
type Slot = (RunResult, Box<[u8]>);

/// `result`'s memo entry, packed through `scratch`. Debug builds check
/// that the packing decodes to the same `Debug` text.
fn memo_entry(result: &RunResult, scratch: &mut Vec<u8>) -> Box<[u8]> {
    let entry = packed::pack(result, scratch);
    debug_assert_eq!(
        format!("{:?}", packed::unpack(&entry)),
        format!("{result:?}"),
        "the memo packing must round-trip"
    );
    entry
}

/// A deterministic cost estimate of `spec` for dispatch order: the
/// initially offered requests per second times the window count.
fn spec_weight(spec: &RunSpec) -> f64 {
    let qps: f64 = spec
        .loads
        .iter()
        .map(|(name, load)| {
            let app = spec.mix.apps.iter().find(|a| a.name() == name);
            load * app.and_then(AppSpec::max_load_qps).unwrap_or(0.0)
        })
        .sum();
    qps * spec.windows as f64
}

/// Everything an experiment module needs: the configuration plus the
/// shared [`Engine`]. Derefs to [`ExpConfig`], so `cfg.windows()`-style
/// call sites work unchanged.
pub struct ExpContext {
    /// The experiment configuration.
    pub cfg: ExpConfig,
    /// Command-line overrides for the cluster experiment
    /// (`repro cluster --nodes/--rounds/--fidelity`).
    pub cluster: crate::cluster::ClusterOpts,
    /// Command-line overrides for the train/replay experiments
    /// (`repro train --pop/--gens/--train-out/--artifact`).
    pub train: crate::train::TrainOpts,
    engine: Engine,
}

impl ExpContext {
    /// A context using the machine's available parallelism.
    pub fn new(cfg: ExpConfig) -> Self {
        Self::with_jobs(cfg, 0)
    }

    /// A context with an explicit worker count (`0` = auto).
    pub fn with_jobs(cfg: ExpConfig, jobs: usize) -> Self {
        ExpContext {
            cfg,
            cluster: crate::cluster::ClusterOpts::default(),
            train: crate::train::TrainOpts::default(),
            engine: Engine::new(jobs),
        }
    }

    /// The shared engine (and its run cache).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access, for attaching the persistent disk cache
    /// before any experiment runs.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

impl Deref for ExpContext {
    type Target = ExpConfig;

    fn deref(&self) -> &ExpConfig {
        &self.cfg
    }
}

impl Default for ExpContext {
    fn default() -> Self {
        Self::new(ExpConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::build_sim;
    use crate::strategy::StrategyKind;
    use ahq_core::check;
    use ahq_core::rng::Rng;
    use ahq_core::{stable_hash128, EntropyModel, RelativeImportance};
    use ahq_sched::{run_with_hook, ArqConfig};
    use ahq_sim::{MachineConfig, Partition, RegionAlloc, SharingPolicy};
    use ahq_workloads::mixes;

    fn tiny_spec(seed: u64, strategy: StrategyKind) -> RunSpec {
        let cfg = ExpConfig { quick: true, seed };
        let mix = mixes::fluidanimate_mix();
        RunSpec {
            windows: 8,
            ..RunSpec::strategy(
                &cfg,
                MachineConfig::paper_xeon(),
                &mix,
                &[("xapian", 0.3), ("moses", 0.2), ("img-dnn", 0.2)],
                strategy,
            )
        }
    }

    #[test]
    fn duplicated_spec_executes_once() {
        let engine = Engine::new(3);
        let a = tiny_spec(21, StrategyKind::Arq);
        let b = tiny_spec(22, StrategyKind::Arq);
        let c = RunSpec {
            sched: SchedSpec::Kind(StrategyKind::Unmanaged),
            ..a.clone()
        };
        let batch = [a.clone(), b.clone(), a, c, b.clone(), b];
        let results = engine.run_all(&batch);
        assert_eq!(engine.stats(), CacheStats { hits: 3, misses: 3 });
        for (i, j) in [(0, 2), (1, 4), (1, 5)] {
            assert!(Arc::ptr_eq(&results[i], &results[j]), "{j} follows {i}");
        }
        assert!(!Arc::ptr_eq(&results[0], &results[3]));
        assert_equal_runs(&results[3], &batch[3].execute());
    }

    #[test]
    fn cache_persists_across_calls() {
        let engine = Engine::new(2);
        let spec = tiny_spec(9, StrategyKind::Unmanaged);
        let first = engine.run_one(&spec);
        let second = engine.run_one(&spec);
        // A memo hit decodes a fresh copy of the first result.
        assert_equal_runs(&second, &first);
        assert_eq!(engine.stats(), CacheStats { hits: 1, misses: 1 });
        assert!((engine.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(engine.memo_entries(), 1);
        assert!(engine.memo_bytes() > 0);
    }

    /// A batch of every kind of job the memo holds: a strategy grid cell
    /// and HI-FI cluster node jobs (ARQ with a cold start, a lone LC app,
    /// and a BE-only node, which ARQ does not manage).
    fn mixed_batch() -> Vec<RunSpec> {
        use ahq_cluster::{JobFidelity, LocalSched, NodeJob};
        use ahq_workloads::profiles as apps;
        let node = |node: usize, sched, apps: Vec<ahq_sim::AppSpec>, cold: Vec<String>| {
            let loads = apps
                .iter()
                .filter(|a| a.max_load_qps().is_some())
                .map(|a| (a.name().to_owned(), 0.4))
                .collect();
            NodeJob {
                node,
                machine: MachineConfig::paper_xeon(),
                apps: Arc::new(apps),
                loads,
                cold,
                sched,
                arq: None,
                model: EntropyModel::default(),
                windows: 3,
                seed: 70 + node as u64,
                fidelity: JobFidelity::HiFi,
            }
            .spec()
        };
        let mut batch = mixed_cell(17);
        batch.push(node(
            0,
            LocalSched::Arq,
            vec![apps::xapian(), apps::moses(), apps::stream()],
            vec!["moses".into()],
        ));
        batch.push(node(1, LocalSched::Arq, vec![apps::img_dnn()], Vec::new()));
        batch.push(node(
            2,
            LocalSched::Unmanaged,
            vec![apps::stream(), apps::fluidanimate()],
            Vec::new(),
        ));
        batch
    }

    #[test]
    fn memo_hits_equal_direct_execution() {
        let batch = mixed_batch();
        let direct: Vec<RunResult> = batch.iter().map(RunSpec::execute).collect();
        for jobs in [1, 2] {
            let engine = Engine::new(jobs);
            let cold = engine.run_all(&batch);
            let warm = engine.run_all(&batch);
            assert_eq!(
                engine.stats(),
                CacheStats {
                    hits: batch.len() as u64,
                    misses: batch.len() as u64
                }
            );
            assert_eq!(engine.memo_entries(), batch.len());
            for ((cold, warm), direct) in cold.iter().zip(&warm).zip(&direct) {
                assert_equal_runs(cold, direct);
                assert_equal_runs(warm, direct);
            }
        }
    }

    #[test]
    fn parallel_results_are_byte_identical_to_sequential() {
        let grid: Vec<RunSpec> = [0.2, 0.5, 0.8]
            .iter()
            .flat_map(|&load| {
                StrategyKind::all().map(|strategy| {
                    let mut spec = tiny_spec(11, strategy);
                    spec.loads[0].1 = load;
                    spec
                })
            })
            .collect();
        let sequential = Engine::new(1).run_all(&grid);
        let parallel = Engine::new(8).run_all(&grid);
        let render = |results: &[Arc<ahq_sched::RunResult>]| -> String {
            results
                .iter()
                .map(|r| ahq_core::json::to_string(&**r))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&sequential), render(&parallel));
    }

    #[test]
    fn distinct_seeds_are_distinct_jobs() {
        let engine = Engine::new(2);
        let a = engine.run_one(&tiny_spec(1, StrategyKind::Unmanaged));
        let b = engine.run_one(&tiny_spec(2, StrategyKind::Unmanaged));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(engine.stats().misses, 2);
    }

    #[test]
    fn static_scheduler_never_adjusts() {
        let spec = RunSpec {
            sched: SchedSpec::Static(Partition::all_shared(4)),
            ..tiny_spec(5, StrategyKind::Unmanaged)
        };
        let result = spec.execute();
        assert_eq!(result.strategy, "static");
        assert_eq!(result.adjustments, 0);
    }

    /// One cell: a shared request stream (same mix, loads, schedule, seed,
    /// windows and window length) under members that differ in
    /// everything that draws nothing — strategy, ARQ configuration, a
    /// static partition, the entropy model, cold starts and the machine.
    fn mixed_cell(seed: u64) -> Vec<RunSpec> {
        let base = RunSpec {
            windows: 12,
            window_ms: Some(200.0),
            schedule: vec![
                (3, "moses".into(), 0.0),
                (5, "xapian".into(), 0.9),
                (8, "moses".into(), 0.4),
            ],
            ..tiny_spec(seed, StrategyKind::Unmanaged)
        };
        let half_ri = EntropyModel::new(ahq_core::RelativeImportance::new(0.5).unwrap());
        let mut cell: Vec<RunSpec> = StrategyKind::extended()
            .into_iter()
            .map(|s| RunSpec {
                sched: SchedSpec::Kind(s),
                ..base.clone()
            })
            .collect();
        cell.push(RunSpec {
            sched: SchedSpec::Arq(ArqConfig {
                beneficiary_ret: 0.3,
                sharing: SharingPolicy::Fair,
                ..ArqConfig::default()
            }),
            model: half_ri,
            ..base.clone()
        });
        cell.push(RunSpec {
            sched: SchedSpec::Static(Partition::all_shared(4)),
            cold: vec![("xapian".into(), 120.0), ("fluidanimate".into(), 40.0)],
            ..base.clone()
        });
        cell.push(RunSpec {
            sched: SchedSpec::Kind(StrategyKind::Arq),
            machine: MachineConfig::paper_xeon().with_budget(8, 16),
            model: half_ri,
            cold: vec![("moses".into(), 300.0)],
            ..base
        });
        cell
    }

    /// The reference a spec's executor is checked against, independent of
    /// it: the node built by hand, then `run_with_hook` applying the load
    /// schedule before each window.
    fn reference_run(spec: &RunSpec) -> (RunResult, SimPerfStats) {
        let loads: Vec<(&str, f64)> = spec.loads.iter().map(|(n, l)| (n.as_str(), *l)).collect();
        let mut sim = build_sim(spec.machine, &spec.mix, &loads, spec.seed);
        if let Some(ms) = spec.window_ms {
            sim.set_window_ms(ms);
        }
        for (name, ms) in &spec.cold {
            sim.begin_warmup(name, *ms).unwrap();
        }
        let mut sched = spec.sched.build();
        let schedule = &spec.schedule;
        let mut cursor = 0usize;
        let result = run_with_hook(
            &mut sim,
            sched.as_mut(),
            spec.windows,
            &spec.model,
            |sim, w| {
                while cursor < schedule.len() && schedule[cursor].0 <= w {
                    let (_, name, fraction) = &schedule[cursor];
                    let _ = sim.set_load(name, *fraction);
                    cursor += 1;
                }
            },
        );
        (result, sim.perf_stats())
    }

    fn assert_equal_runs(got: &RunResult, alone: &RunResult) {
        assert_eq!(
            format!("{got:?}"),
            format!("{alone:?}"),
            "{}",
            alone.strategy
        );
    }

    #[test]
    fn lockstep_members_equal_their_standalone_runs() {
        let cell = mixed_cell(13);
        assert!(cell.iter().all(|s| s.same_arrivals(&cell[0])));
        // The whole cell, then each member as a group of one.
        let members: Vec<&RunSpec> = cell.iter().collect();
        let grouped = execute_lockstep(&members);
        for (spec, (result, stats)) in cell.iter().zip(grouped) {
            let (alone, alone_stats) = reference_run(spec);
            assert_equal_runs(&result, &alone);
            assert_eq!(stats, alone_stats, "{}", alone.strategy);
            let (single, single_stats) = spec.execute_with_stats();
            assert_equal_runs(&single, &alone);
            assert_eq!(single_stats, alone_stats, "{}", alone.strategy);
        }
    }

    #[test]
    fn grouped_batches_equal_standalone_runs_at_any_worker_count() {
        // Two groups (distinct seeds) and a singleton; then one group
        // alone, fewer units than three workers until it is split.
        let mut batch = mixed_cell(13);
        batch.extend(mixed_cell(14).into_iter().take(3));
        batch.push(tiny_spec(15, StrategyKind::Arq));
        for batch in [batch, mixed_cell(16)] {
            let alone: Vec<(RunResult, SimPerfStats)> = batch.iter().map(reference_run).collect();
            let total = alone
                .iter()
                .fold(SimPerfStats::default(), |t, (_, s)| SimPerfStats {
                    events: t.events + s.events,
                    rate_hits: t.rate_hits + s.rate_hits,
                    rate_misses: t.rate_misses + s.rate_misses,
                });
            for jobs in [1, 3] {
                let engine = Engine::new(jobs);
                let results = engine.run_all(&batch);
                for (got, (alone, _)) in results.iter().zip(&alone) {
                    assert_equal_runs(got, alone);
                }
                assert_eq!(engine.sim_stats(), total, "{jobs} workers");
                assert_eq!(engine.stats().misses, batch.len() as u64);
            }
        }
    }

    #[test]
    fn units_fill_the_workers_and_run_heaviest_first() {
        let cell = mixed_cell(13);
        let all: Vec<usize> = (0..cell.len()).collect();
        assert_eq!(
            Engine::new(1).plan_units(&cell, &all, &all),
            vec![all.clone()]
        );
        let units = Engine::new(3).plan_units(&cell, &all, &all);
        assert_eq!(
            units.len(),
            3,
            "one group is halved until three units exist"
        );
        assert_eq!(units.concat().len(), cell.len());
        let mut members = units.concat();
        members.sort_unstable();
        assert_eq!(members, all);
        // Distinct seeds never group; heavier specs dispatch first and
        // equal weights keep submission order.
        let singles: Vec<RunSpec> = [(1, 0.3), (2, 0.9), (3, 0.3), (4, 0.6)]
            .into_iter()
            .map(|(seed, load)| {
                let mut spec = tiny_spec(seed, StrategyKind::Unmanaged);
                spec.loads[0].1 = load;
                spec
            })
            .collect();
        let all: Vec<usize> = (0..singles.len()).collect();
        let order = Engine::new(2).plan_units(&singles, &all, &all);
        assert_eq!(order, vec![vec![1], vec![3], vec![0], vec![2]]);
    }

    /// A random spec: every [`SchedSpec`] variant, both entropy models,
    /// load schedules, cold lists, `window_ms` set or not, three mixes and
    /// three machines.
    fn random_spec(rng: &mut Rng) -> RunSpec {
        let mix = match rng.below(3) {
            0 => mixes::fluidanimate_mix(),
            1 => mixes::stream_mix(),
            _ => mixes::sphinx_mix(),
        };
        let names: Vec<String> = mix.apps.iter().map(|a| a.name().to_owned()).collect();
        let lc = mix.lc_names().len();
        let pick_lc = |rng: &mut Rng| names[rng.range_usize(0..lc)].clone();
        let windows = rng.range_usize(1..40);
        let sched = match rng.below(3) {
            0 => SchedSpec::Kind(StrategyKind::extended()[rng.range_usize(0..6)]),
            1 => SchedSpec::Arq(ArqConfig {
                victim_ret: rng.f64(),
                beneficiary_ret: rng.f64() * 0.1,
                sharing: if rng.bool() {
                    SharingPolicy::Fair
                } else {
                    SharingPolicy::LcPriority
                },
                throttle_be: rng.bool(),
                ..ArqConfig::default()
            }),
            _ => SchedSpec::Static(Partition::strict(
                (0..names.len())
                    .map(|_| RegionAlloc::new(rng.range_u32(0..4), rng.range_u32(0..4)))
                    .collect(),
            )),
        };
        RunSpec {
            machine: match rng.below(3) {
                0 => MachineConfig::paper_xeon(),
                1 => MachineConfig::paper_xeon().with_budget(8, 16),
                _ => MachineConfig::paper_xeon().with_budget(12, 11),
            },
            loads: check::vec(rng, 0..4, |rng| (pick_lc(rng), rng.f64())),
            sched,
            windows,
            seed: rng.next_u64(),
            window_ms: rng.bool().then(|| rng.range_f64(50.0..=1000.0)),
            model: if rng.bool() {
                EntropyModel::default()
            } else {
                EntropyModel::new(RelativeImportance::new(rng.f64()).unwrap())
            },
            schedule: check::vec(rng, 0..5, |rng| {
                (rng.range_usize(0..windows), pick_lc(rng), rng.f64())
            }),
            cold: check::vec(rng, 0..3, |rng| {
                let app = names[rng.range_usize(0..names.len())].clone();
                (app, rng.range_f64(0.0..=500.0))
            }),
            mix,
        }
    }

    #[test]
    fn digest_is_the_hash_of_the_key_text() {
        check::cases(256, |rng| {
            let spec = random_spec(rng);
            assert_eq!(
                spec.digest(),
                stable_hash128(spec.key().as_str().as_bytes())
            );
        });
    }

    #[test]
    fn every_one_field_change_changes_the_digest() {
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1);
        check::cases(128, |rng| {
            let spec = random_spec(rng);
            let mut variants = vec![
                RunSpec {
                    seed: spec.seed.wrapping_add(1),
                    ..spec.clone()
                },
                RunSpec {
                    seed: spec.seed.wrapping_sub(1),
                    ..spec.clone()
                },
                RunSpec {
                    windows: spec.windows + 1,
                    ..spec.clone()
                },
                RunSpec {
                    window_ms: match spec.window_ms {
                        Some(_) => None,
                        None => Some(1000.0),
                    },
                    ..spec.clone()
                },
            ];
            let mut moved = spec.clone();
            match moved.loads.first_mut() {
                Some(load) => load.1 = ulp(load.1),
                None => moved.loads.push(("xapian".into(), 0.5)),
            }
            variants.push(moved);
            let mut moved = spec.clone();
            match moved.schedule.last_mut() {
                Some(entry) => entry.2 = ulp(entry.2),
                None => moved.schedule.push((0, "moses".into(), 0.5)),
            }
            variants.push(moved);
            let mut moved = spec.clone();
            moved.schedule.push((spec.windows, "moses".into(), 0.0));
            variants.push(moved);
            let mut moved = spec.clone();
            match moved.cold.pop() {
                Some((name, ms)) => moved.cold.push((name, ulp(ms))),
                None => moved.cold.push(("moses".into(), 100.0)),
            }
            variants.push(moved);
            let mut moved = spec.clone();
            moved.cold.push(("moses".into(), 100.0));
            variants.push(moved);
            for variant in &variants {
                assert_ne!(variant.key(), spec.key());
                assert_ne!(variant.digest(), spec.digest(), "{variant:?}");
            }
        });
    }

    fn temp_disk(tag: &str) -> crate::cache::DiskCache {
        let root =
            std::env::temp_dir().join(format!("ahq-engine-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        crate::cache::DiskCache::open(root, None).unwrap()
    }

    #[test]
    fn the_disk_is_probed_once_per_memo_miss() {
        let mut engine = Engine::new(2);
        engine.set_disk_cache(temp_disk("probes"));
        let a = tiny_spec(31, StrategyKind::Unmanaged);
        let b = tiny_spec(32, StrategyKind::Unmanaged);
        let c = tiny_spec(33, StrategyKind::Unmanaged);
        engine.run_one(&a);
        // `a` is a memo hit and the second `b` a follower: only `b` and
        // `c` reach the disk, once each.
        engine.run_all(&[a, b.clone(), c, b]);
        let disk = engine.disk_stats().unwrap();
        assert_eq!((disk.hits, disk.misses), (0, 3));
        assert_eq!(engine.stats(), CacheStats { hits: 2, misses: 3 });
        std::fs::remove_dir_all(engine.disk_cache().unwrap().root()).ok();
    }

    #[test]
    fn a_shard_stored_under_the_key_text_is_a_disk_hit() {
        let disk = temp_disk("stored");
        let spec = tiny_spec(41, StrategyKind::Parties);
        let result = spec.execute();
        disk.store(&spec.key(), &result);
        let written = disk.stats().bytes_written;
        let root = disk.root().to_path_buf();
        let mut engine = Engine::new(1);
        engine.set_disk_cache(disk);
        let got = engine.run_one(&spec);
        assert_equal_runs(&got, &result);
        assert_eq!(engine.stats(), CacheStats { hits: 1, misses: 0 });
        let disk = engine.disk_stats().unwrap();
        assert_eq!((disk.hits, disk.misses), (1, 0));
        assert_eq!(disk.bytes_written, written, "a disk hit is not rewritten");
        std::fs::remove_dir_all(root).ok();
    }
}
