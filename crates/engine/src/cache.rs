//! Cross-job reuse inside a sweep: the decoded-program cache and the
//! per-worker simulator slot.
//!
//! A sweep like `fig5` runs five defense configurations per benchmark,
//! and every one of them executes the *same* two programs (the warm-up
//! and the measured run differ only in iteration count). Building those
//! programs per job is pure waste — the build is deterministic in
//! `(benchmark, iterations)`, exactly the [`JobSpec`] hash inputs that
//! name a benchmark workload. [`ProgramCache`] memoizes the build under
//! that key and hands out `Arc<Program>` clones, so a 110-job `fig5`
//! sweep performs 44 builds (22 benchmarks × two iteration counts)
//! instead of 220.
//!
//! The same cache memoizes each program's functional instruction count
//! ([`ProgramCache::insts_or_count`]). A sampled run counts its program
//! once in the driver; every window job then reads the segment grid
//! from the memo instead of repeating a whole-program functional pass.
//!
//! [`WorkerContext`] is the per-worker companion: each scheduler worker
//! owns one, holding a shared handle to the sweep's `ProgramCache` plus
//! the worker's resident [`Simulator`]. Between jobs the simulator is
//! reset in place ([`Simulator::reset_in_place`]) when the next job
//! wants the same [`SimConfig`], and rebuilt only when the
//! configuration actually changes — simulator state (caches, predictor
//! tables, the event wheel) is allocated once per worker per
//! configuration, not once per job. Reuse is observationally invisible:
//! a reset simulator produces byte-identical artifacts to a fresh one,
//! which the differential tests in this module assert.
//!
//! [`JobSpec`]: crate::JobSpec

use condspec::{SimConfig, Simulator};
use condspec_isa::Program;
use condspec_workloads::spec::{build_program, by_name};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A sweep-wide memo of built benchmark programs, shared across the
/// worker pool behind an `Arc`.
///
/// Keyed by `(benchmark, iterations)` — the only [`JobSpec`] fields
/// that influence program content. `build_program` is deterministic,
/// so two jobs with equal keys would build identical programs;
/// the cache builds once and clones the `Arc`. The same key names the
/// memoized functional instruction count of that program.
///
/// [`JobSpec`]: crate::JobSpec
#[derive(Debug, Default)]
pub struct ProgramCache {
    programs: Mutex<HashMap<(&'static str, u64), Arc<Program>>>,
    builds: AtomicU64,
    hits: AtomicU64,
    insts: Mutex<HashMap<(&'static str, u64), u64>>,
    count_runs: AtomicU64,
    counts_served: AtomicU64,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// The program for `benchmark` unrolled to `iterations`, building
    /// it on first request.
    ///
    /// The map lock is held across the build on purpose: program
    /// generation is cheap relative to simulation, and serializing
    /// first-builds guarantees each distinct key is built exactly once
    /// — the invariant the sweep's `program-cache:` log line and CI
    /// assertion rely on.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark name (same contract as
    /// [`JobSpec::execute`](crate::JobSpec::execute)).
    pub fn get_or_build(&self, benchmark: &'static str, iterations: u64) -> Arc<Program> {
        let mut map = self.programs.lock().unwrap();
        if let Some(program) = map.get(&(benchmark, iterations)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(program);
        }
        let spec = by_name(benchmark).unwrap_or_else(|| panic!("unknown benchmark `{benchmark}`"));
        let program = Arc::new(build_program(&spec, iterations));
        map.insert((benchmark, iterations), Arc::clone(&program));
        self.builds.fetch_add(1, Ordering::Relaxed);
        program
    }

    /// The number of instructions the `(benchmark, iterations)` program
    /// retires. A memoized count is served when it is at most
    /// `max_insts`; otherwise `count` runs (a functional count pass,
    /// e.g. [`condspec::count_insts`]) and a successful result is
    /// memoized. Errors are never memoized, and a memoized count above
    /// `max_insts` is never served, so a smaller limit fails exactly as
    /// a fresh count pass would.
    ///
    /// The lock is not held across `count`: two jobs missing at once
    /// both count (the results agree), rather than serializing every
    /// other program's lookups behind a long functional pass.
    ///
    /// # Errors
    ///
    /// Whatever `count` returns.
    pub fn insts_or_count(
        &self,
        benchmark: &'static str,
        iterations: u64,
        max_insts: u64,
        count: impl FnOnce() -> Result<u64, String>,
    ) -> Result<u64, String> {
        let key = (benchmark, iterations);
        let memo = self.insts.lock().unwrap().get(&key).copied();
        if let Some(total) = memo.filter(|&total| total <= max_insts) {
            self.counts_served.fetch_add(1, Ordering::Relaxed);
            return Ok(total);
        }
        self.count_runs.fetch_add(1, Ordering::Relaxed);
        let total = count()?;
        self.insts.lock().unwrap().insert(key, total);
        Ok(total)
    }

    /// Programs built (one per distinct key requested).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Requests served from the cache without building.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Functional count passes run by [`ProgramCache::insts_or_count`]
    /// (memo misses, failed passes included).
    pub fn count_runs(&self) -> u64 {
        self.count_runs.load(Ordering::Relaxed)
    }

    /// Instruction counts served from the memo without a count pass.
    pub fn counts_served(&self) -> u64 {
        self.counts_served.load(Ordering::Relaxed)
    }

    /// Distinct programs currently held.
    pub fn len(&self) -> usize {
        self.programs.lock().unwrap().len()
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The summary the sweep driver prints, e.g.
    /// `program-cache: 44 builds, 176 hits, 0 count runs, 0 counts served`.
    pub fn summary(&self) -> String {
        format!(
            "program-cache: {} builds, {} hits, {} count runs, {} counts served",
            self.builds(),
            self.hits(),
            self.count_runs(),
            self.counts_served()
        )
    }
}

/// One scheduler worker's reusable execution state: a handle to the
/// sweep-wide [`ProgramCache`] and the worker's resident simulator.
#[derive(Debug)]
pub struct WorkerContext {
    programs: Arc<ProgramCache>,
    sim: Option<Simulator>,
}

impl WorkerContext {
    /// A context sharing `programs` with the rest of the pool.
    pub fn new(programs: Arc<ProgramCache>) -> WorkerContext {
        WorkerContext {
            programs,
            sim: None,
        }
    }

    /// A context with a private cache, for running a single job outside
    /// any worker pool (the [`JobSpec::execute`](crate::JobSpec::execute)
    /// compatibility path).
    pub fn solo() -> WorkerContext {
        WorkerContext::new(Arc::new(ProgramCache::new()))
    }

    /// The shared program cache.
    pub fn programs(&self) -> &Arc<ProgramCache> {
        &self.programs
    }

    /// A simulator configured as `config`, reusing the worker's
    /// resident simulator (reset in place) when its configuration
    /// matches and rebuilding it otherwise.
    pub fn simulator(&mut self, config: SimConfig) -> &mut Simulator {
        match &mut self.sim {
            Some(sim) if *sim.config() == config => sim.reset_in_place(),
            slot => *slot = Some(Simulator::new(config)),
        }
        self.sim.as_mut().expect("slot was just filled")
    }

    /// Discards the resident simulator. The scheduler calls this after
    /// a job panics: the simulator may have unwound mid-cycle, and its
    /// state is no longer trustworthy for reuse.
    pub fn discard_simulator(&mut self) {
        self.sim = None;
    }

    /// Whether a simulator is currently resident (test introspection).
    pub fn has_simulator(&self) -> bool {
        self.sim.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec::DefenseConfig;

    #[test]
    fn cache_builds_each_key_once() {
        let cache = ProgramCache::new();
        let a = cache.get_or_build("gcc", 40);
        let b = cache.get_or_build("gcc", 40);
        let c = cache.get_or_build("gcc", 6);
        assert!(Arc::ptr_eq(&a, &b), "same key returns the same program");
        assert!(!Arc::ptr_eq(&a, &c), "iteration count is part of the key");
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.summary(),
            "program-cache: 2 builds, 1 hits, 0 count runs, 0 counts served"
        );
    }

    #[test]
    fn insts_memo_serves_within_the_limit_and_never_memoizes_errors() {
        let cache = ProgramCache::new();
        let failed = cache.insts_or_count("gcc", 40, 100, || Err("limit".to_string()));
        assert_eq!(failed, Err("limit".to_string()));
        assert_eq!(cache.insts_or_count("gcc", 40, 100, || Ok(90)), Ok(90));
        let unused = || -> Result<u64, String> { panic!("a memoized count must not re-run") };
        assert_eq!(cache.insts_or_count("gcc", 40, 90, unused), Ok(90));
        let smaller = cache.insts_or_count("gcc", 40, 89, || Err("limit".to_string()));
        assert_eq!(
            smaller,
            Err("limit".to_string()),
            "never served above the limit"
        );
        assert_eq!((cache.count_runs(), cache.counts_served()), (3, 1));
        assert_eq!(
            cache.summary(),
            "program-cache: 0 builds, 0 hits, 3 count runs, 1 counts served"
        );
    }

    #[test]
    fn worker_context_reuses_matching_simulator() {
        let mut ctx = WorkerContext::solo();
        let baseline = SimConfig::new(DefenseConfig::Baseline);
        let origin = SimConfig::new(DefenseConfig::Origin);

        ctx.simulator(baseline);
        assert!(ctx.has_simulator());
        let first = ctx.simulator(baseline) as *const Simulator;
        let again = ctx.simulator(baseline) as *const Simulator;
        assert_eq!(first, again, "matching config reuses the same simulator");

        let swapped = ctx.simulator(origin);
        assert_eq!(*swapped.config(), origin, "config change rebuilds");

        ctx.discard_simulator();
        assert!(!ctx.has_simulator());
    }
}
