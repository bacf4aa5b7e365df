//! The design-space search: exhaustive on small spaces, seeded local
//! search otherwise, with candidate evaluations fanned over `cpa-pool`.
//!
//! # Search space
//!
//! For an `n`-task set the space is the product of the enabled dimensions:
//! `cores^n` partitionings × `n!` priority orders × `colors^n` cache
//! colorings. When the product fits under
//! [`SearchKnobs::exhaustive_limit`] every point is enumerated in a fixed
//! mixed-radix order (coloring digits, then partitioning digits, then a
//! Lehmer-coded permutation) and evaluated in one pool batch — ties break
//! to the earliest index, so the result is a pure function of the input.
//!
//! Otherwise a steepest-ascent hill climb runs `restarts` times: restart 0
//! starts from the default configuration refined by Audsley's optimal
//! priority assignment, later restarts perturb the default with a
//! ChaCha-seeded random walk. Each round samples `neighbors` single moves
//! (core reassignment, core swap, rank swap, recolor) *on the driver
//! thread* — the pool only ever evaluates fully formed candidates, so the
//! outcome is invariant in the worker count.
//!
//! # Delta-scoped candidate evaluation
//!
//! Before any engine call, every batch runs a driver-side admission
//! pipeline (see DESIGN.md §16):
//!
//! 1. **Admission pruning** ([`crate::prune`]) — candidates a cheap O(n)
//!    lower bound proves unschedulable are assigned the canonical worst
//!    evaluation without ever being solved. Pruning is part of the search
//!    semantics (it applies to exhaustive enumeration and local-search
//!    walks, never to the default configuration or Audsley probes), so it
//!    is active in *every* evaluation mode.
//! 2. **Solve memo** ([`crate::cache::SolveMemo`]) — admitted candidates
//!    are looked up in a batch-scoped content-addressed memo keyed on
//!    (base set, analysis environment, candidate vectors); repeats within
//!    and across requests replay their evaluation instead of re-solving.
//!    Within one batch, duplicate keys collapse onto a single solve.
//! 3. **Slot-patched assembly** — the surviving solves run on the pool;
//!    each worker builds a candidate's task set by patching the slots
//!    that differ from its previous candidate ([`EvalScratch`]).
//!
//! The first two stages decide on the driver thread in candidate order,
//! so the set of engine calls — and the response bytes — are invariant
//! in the worker-thread count. Every solve is an independent
//! [`analyze_with`] call (the per-worker scratch only recycles buffers).
//! The `full_eval` escape hatch disables the memo and slot-patched
//! assembly (each candidate is rebuilt with [`Candidate::apply`]; pruning
//! stays), which is what the byte-identity acceptance in `cpa-bench`
//! compares against.
//!
//! # Priority seeding
//!
//! [`Searcher::audsley`] is textbook OPA: levels are assigned lowest
//! first, and at each level the unassigned tasks are probed one at a time
//! in base order until one converges there. The scan is sequential on
//! purpose: a speculative window of parallel probes would make
//! `stats.candidates` and the memo contents depend on the thread count.
//!
//! # Determinism
//!
//! All randomness flows from `ChaCha8Rng::seed_from_u64(derive_seed(seed,
//! restart, 0))` and is consumed on the driver; `cpa_pool::map` returns
//! results in item order regardless of threading; every fold over batch
//! results is sequential with first-wins ties. Same seed + same request ⇒
//! identical best candidate at any `--threads`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use cpa_analysis::{
    analyze_with, AnalysisConfig, AnalysisContext, AnalysisScratch, ContextBuffers, CrpdApproach,
};
use cpa_experiments::runner::derive_seed;
use cpa_model::{ContentHasher, CoreId, Platform, Priority, Task, TaskSet};
use cpa_pool::PoolOptions;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::cache::SolveMemo;
use crate::candidate::Candidate;
use crate::prune::{Admission, AdmissionCheck, AdmissionScratch};
use crate::score::{evaluate_result, Evaluation, Score};

/// Tuning knobs of one optimization run. Part of the request format (all
/// fields are required in JSON — the vendored serde has no `default`) and
/// of the content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchKnobs {
    /// Local-search restarts (restart 0 is the Audsley-seeded one).
    pub restarts: u32,
    /// Maximum hill-climbing rounds per restart.
    pub max_rounds: u32,
    /// Neighbour candidates sampled and batch-evaluated per round.
    pub neighbors: u32,
    /// Rounds without strict improvement before a restart gives up.
    pub patience: u32,
    /// Cache colors: footprint rotations are multiples of
    /// `cache_sets / colors` (clamped to at least one set).
    pub colors: u32,
    /// Largest design-space size still enumerated exhaustively.
    pub exhaustive_limit: u64,
    /// Search over task-to-core partitionings.
    pub partitioning: bool,
    /// Search over priority orders.
    pub priorities: bool,
    /// Search over cache colorings.
    pub coloring: bool,
}

impl SearchKnobs {
    /// Sensible service defaults: all three dimensions on, a few seeded
    /// restarts, exhaustive only for genuinely tiny spaces.
    #[must_use]
    pub fn standard() -> SearchKnobs {
        SearchKnobs {
            restarts: 3,
            max_rounds: 32,
            neighbors: 16,
            patience: 4,
            colors: 8,
            exhaustive_limit: 1_024,
            partitioning: true,
            priorities: true,
            coloring: true,
        }
    }

    /// Small knobs for smoke tests and toy sets.
    #[must_use]
    pub fn toy() -> SearchKnobs {
        SearchKnobs {
            restarts: 2,
            max_rounds: 12,
            neighbors: 8,
            patience: 3,
            colors: 4,
            exhaustive_limit: 512,
            partitioning: true,
            priorities: true,
            coloring: true,
        }
    }

    /// Feeds every knob into the request fingerprint: two requests that
    /// differ only in search effort must not share a cache entry.
    pub fn hash_content(&self, hasher: &mut ContentHasher) {
        hasher.write_u64(u64::from(self.restarts));
        hasher.write_u64(u64::from(self.max_rounds));
        hasher.write_u64(u64::from(self.neighbors));
        hasher.write_u64(u64::from(self.patience));
        hasher.write_u64(u64::from(self.colors));
        hasher.write_u64(self.exhaustive_limit);
        hasher.write_u64(u64::from(self.partitioning));
        hasher.write_u64(u64::from(self.priorities));
        hasher.write_u64(u64::from(self.coloring));
    }
}

/// What one search run did, for the response document and the
/// `optimize.*` counters.
#[derive(Debug, Clone, Serialize)]
pub struct SearchStats {
    /// `"exhaustive"` or `"local-search"`.
    pub strategy: String,
    /// Candidates evaluated (including the default and Audsley probes).
    pub candidates: u64,
    /// Accepted strict-improvement moves across all restarts.
    pub moves_accepted: u64,
    /// Evaluated neighbours that did not become the current point.
    pub moves_rejected: u64,
    /// Restarts actually run (0 for exhaustive).
    pub restarts: u32,
    /// Hill-climbing rounds actually run (0 for exhaustive).
    pub rounds: u32,
    /// Candidates rejected by admission pruning without an engine call.
    /// Counted inside `candidates`; identical across evaluation modes
    /// and thread counts (pruning decides on the driver).
    pub pruned: u64,
}

/// Result of one optimization run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best configuration found; never scores below the default.
    pub best: Candidate,
    /// Score of `best`.
    pub best_score: Score,
    /// Score of the unmodified (identity) configuration.
    pub default_score: Score,
    /// Search accounting.
    pub stats: SearchStats,
}

/// Per-worker reusable state: one analysis scratch plus recycled context
/// tables, so a worker allocates only on its first candidate. Owned by
/// the [`Searcher`] and threaded through [`cpa_pool::map_with`], so the
/// buffers and the build cache survive across *every* evaluation batch
/// of one search, not just within one batch.
#[derive(Debug)]
struct EvalScratch {
    scratch: AnalysisScratch,
    buffers: ContextBuffers,
    /// Built tasks of this search's base set, keyed by
    /// `(base index, core, rank, shift)` with their content hashes.
    /// A neighbour differs from the current point in one or two tasks, so
    /// nearly every per-task build is a repeat; caching them turns
    /// [`Candidate::apply`]'s full rebuild (rotate three block sets,
    /// re-validate, re-hash every task) into a few map hits and clones.
    /// Keyed per worker — never shared — so results cannot depend on
    /// claim order.
    assembled: HashMap<(usize, usize, u32, usize), (Task, u64)>,
    /// Parts of the set this worker assembled last, handed back through
    /// [`EvalScratch::recycle_set`]. Successive candidates on one worker
    /// differ in a slot or two, so patching the kept parts beats cloning
    /// every task again.
    cur: Option<(Vec<Task>, Vec<u64>)>,
    /// The build key each slot of `cur` was assembled from.
    cur_keys: Vec<(usize, usize, u32, usize)>,
}

impl EvalScratch {
    fn new() -> EvalScratch {
        EvalScratch {
            scratch: AnalysisScratch::new(),
            buffers: ContextBuffers::new(),
            assembled: HashMap::new(),
            cur: None,
            cur_keys: Vec::new(),
        }
    }

    /// [`Candidate::apply`] through the per-worker build cache: bitwise
    /// the same `TaskSet` (same task order, same content hashes), built
    /// by patching the slots that differ from this worker's previous
    /// candidate. The delta-scoped fast path uses this; full evaluation
    /// rebuilds from scratch like an independent solver would.
    fn assemble(&mut self, base: &TaskSet, c: &Candidate) -> TaskSet {
        let n = base.len();
        let (mut tasks, mut hashes) = match self.cur.take() {
            Some(cur) if cur.0.len() == n && self.cur_keys.len() == n => cur,
            _ => {
                // First candidate on this worker: placeholder-fill, then
                // let the sentinel keys force every slot to be patched.
                self.cur_keys.clear();
                self.cur_keys.resize(n, (usize::MAX, 0, 0, 0));
                let seed_task = base.iter().next().expect("sets are non-empty");
                (vec![seed_task.clone(); n], vec![0u64; n])
            }
        };
        for (k, t) in base.iter().enumerate() {
            let key = (k, c.cores[k], c.ranks[k], c.shifts[k]);
            // Ranks are a permutation, so rank r is priority r is index r
            // after the sort `TaskSet::new` would have done.
            let r = c.ranks[k] as usize;
            if self.cur_keys[r] == key {
                continue;
            }
            let (task, hash) = self.assembled.entry(key).or_insert_with(|| {
                let task = Task::builder(t.name())
                    .processing_demand(t.processing_demand())
                    .memory_demand(t.memory_demand())
                    .residual_memory_demand(t.residual_memory_demand())
                    .period(t.period())
                    .deadline(t.deadline())
                    .core(CoreId::new(c.cores[k]))
                    .priority(Priority::new(c.ranks[k]))
                    .ecb(t.ecb().rotated(c.shifts[k]))
                    .ucb(t.ucb().rotated(c.shifts[k]))
                    .pcb(t.pcb().rotated(c.shifts[k]))
                    .build()
                    .expect("rotation and reassignment preserve task invariants");
                let mut h = ContentHasher::new();
                task.hash_content(&mut h);
                (task, h.finish())
            });
            tasks[r].clone_from(task);
            hashes[r] = *hash;
            self.cur_keys[r] = key;
        }
        TaskSet::from_sorted_parts(tasks, hashes)
    }

    /// Returns an assembled set's parts for the next [`EvalScratch::
    /// assemble`] to patch. Skipping this (a panic, a code path that
    /// drops the set) only costs the next candidate a full rebuild.
    fn recycle_set(&mut self, set: TaskSet) {
        self.cur = Some(set.into_parts());
    }
}

struct Searcher<'a> {
    base: &'a TaskSet,
    platform: &'a Platform,
    config: &'a AnalysisConfig,
    knobs: &'a SearchKnobs,
    pool: PoolOptions,
    /// Cores available for partitioning.
    cores: usize,
    /// The shift values the coloring dimension ranges over (always
    /// contains 0, the identity coloring).
    shifts: Vec<usize>,
    /// Candidates evaluated so far.
    evaluated: u64,
    /// Candidates rejected by admission pruning.
    pruned: u64,
    /// Batch-scoped solve memo, shared across requests by the service.
    memo: &'a mut SolveMemo,
    /// Persistent per-worker evaluation states ([`cpa_pool::map_with`]):
    /// scratches, context buffers and build caches survive across
    /// evaluation batches for the whole search.
    states: Vec<EvalScratch>,
    /// Reused driver-side batch buffers (cleared per batch): memo keys,
    /// solve worklist, within-batch duplicates, first-seen keys.
    batch_keys: Vec<u64>,
    batch_need: Vec<usize>,
    batch_dups: Vec<(usize, usize)>,
    batch_first: HashMap<u64, usize>,
    /// Admission bounds of the base set (candidate-independent columns).
    admission: AdmissionCheck,
    /// Reused per-core accumulator for the admission loop.
    admit_scratch: AdmissionScratch,
    /// Fingerprint of (base set, analysis environment); prefix of every
    /// memo key, so fragments of different requests never collide.
    env_key: u64,
    /// Evaluate every admitted candidate independently: no memo, no
    /// slot-patched assembly.
    full_eval: bool,
}

impl<'a> Searcher<'a> {
    fn new(
        base: &'a TaskSet,
        platform: &'a Platform,
        config: &'a AnalysisConfig,
        knobs: &'a SearchKnobs,
        pool: PoolOptions,
        memo: &'a mut SolveMemo,
        full_eval: bool,
    ) -> Searcher<'a> {
        let cache_sets = base.cache_sets();
        let colors = (knobs.colors.max(1) as usize).min(cache_sets.max(1));
        let step = (cache_sets / colors).max(1);
        let env_key = {
            let mut h = ContentHasher::new();
            base.hash_content(&mut h);
            // The engine config and platform shape pin the analysis
            // environment; the CRPD approach is fixed (EcbUnion) below.
            h.write_str(&format!("{config:?}"));
            h.write_usize(platform.cores());
            h.write_u64(platform.memory_latency().cycles());
            h.finish()
        };
        Searcher {
            base,
            platform,
            config,
            knobs,
            pool,
            cores: platform.cores(),
            shifts: (0..colors).map(|c| c * step).collect(),
            evaluated: 0,
            pruned: 0,
            memo,
            states: Vec::new(),
            batch_keys: Vec::new(),
            batch_need: Vec::new(),
            batch_dups: Vec::new(),
            batch_first: HashMap::new(),
            admission: AdmissionCheck::new(base, platform.memory_latency()),
            admit_scratch: AdmissionScratch::default(),
            env_key,
            full_eval,
        }
    }

    /// Evaluates a batch of candidates over the pool; results come back in
    /// candidate order whatever the thread count. `prune` admits the
    /// batch through the admission bounds first — on for exhaustive
    /// enumeration and local-search walks, off for the default
    /// configuration and Audsley probes.
    fn evaluate_batch(&mut self, candidates: &[Candidate], prune: bool) -> Vec<Evaluation> {
        let _span = cpa_obs::span!("optimize.evaluate_batch");
        self.evaluated += candidates.len() as u64;
        cpa_obs::counter("optimize.candidates").add(candidates.len() as u64);

        // Stage 1+2, on the driver in candidate order: prune, then memo,
        // then collapse within-batch duplicates. Only `need` reaches the
        // pool, so the engine workload is thread-count invariant. The
        // batch buffers live on the searcher so the per-round batches of
        // a long search stop paying allocation setup.
        let Self {
            base,
            platform,
            config,
            pool,
            cores,
            pruned,
            memo,
            states,
            admission,
            admit_scratch,
            env_key,
            full_eval,
            batch_keys: keys,
            batch_need: need,
            batch_dups: dups,
            batch_first: first_by_key,
            ..
        } = &mut *self;
        let (base, platform, config, pool) = (*base, *platform, *config, *pool);
        let (cores, env_key, full_eval) = (*cores, *env_key, *full_eval);
        let mut rows: Vec<Option<Evaluation>> = Vec::with_capacity(candidates.len());
        rows.resize_with(candidates.len(), || None);
        keys.clear();
        keys.resize(candidates.len(), 0);
        need.clear();
        dups.clear();
        first_by_key.clear();
        for (k, candidate) in candidates.iter().enumerate() {
            if prune {
                match admission.admit_with(&candidate.cores, cores, admit_scratch) {
                    Admission::Admitted => {}
                    verdict => {
                        *pruned += 1;
                        cpa_obs::counter("optimize.pruned_candidates").incr();
                        cpa_obs::counter(match verdict {
                            Admission::DemandExceedsDeadline => "optimize.pruned_demand",
                            _ => "optimize.pruned_utilization",
                        })
                        .incr();
                        rows[k] = Some(PRUNED_EVAL);
                        continue;
                    }
                }
            }
            if full_eval {
                need.push(k);
                continue;
            }
            let key = memo_key(env_key, candidate);
            keys[k] = key;
            if let Some(eval) = memo.get(key) {
                cpa_obs::counter("optimize.memo_hits").incr();
                rows[k] = Some(eval);
                continue;
            }
            cpa_obs::counter("optimize.memo_misses").incr();
            match first_by_key.entry(key) {
                Entry::Occupied(first) => dups.push((k, *first.get())),
                Entry::Vacant(slot) => {
                    slot.insert(need.len());
                    need.push(k);
                }
            }
        }

        // Stage 3: solve the remainder on the pool.
        let solved: Vec<Evaluation> = if need.is_empty() {
            Vec::new()
        } else {
            let epoch = cpa_obs::next_scope_epoch();
            let need = &*need;
            cpa_pool::map_with(
                need.len(),
                pool,
                epoch,
                |_| EvalScratch::new(),
                states,
                |state, j| {
                    let k = need[j];
                    let tasks = if full_eval {
                        candidates[k].apply(base)
                    } else {
                        state.assemble(base, &candidates[k])
                    };
                    let ctx = AnalysisContext::with_crpd_approach_buffers(
                        platform,
                        &tasks,
                        CrpdApproach::EcbUnion,
                        &mut state.buffers,
                    )
                    .expect("candidates stay valid for the platform");
                    let result = analyze_with(&ctx, config, &mut state.scratch);
                    let eval = evaluate_result(&tasks, &result);
                    ctx.recycle(&mut state.buffers);
                    if !full_eval {
                        state.recycle_set(tasks);
                    }
                    eval
                },
            )
        };

        // Stitch, sequentially in solve order: memoize each fresh solve
        // and fan duplicates out from their solved representative.
        for &(k, j) in &*dups {
            rows[k] = Some(solved[j]);
        }
        for (j, eval) in solved.into_iter().enumerate() {
            let k = need[j];
            if !full_eval {
                memo.insert(keys[k], eval);
            }
            rows[k] = Some(eval);
        }
        rows.into_iter()
            .map(|row| row.expect("every candidate pruned, memoized, or solved"))
            .collect()
    }

    /// Index of the best evaluation, ties to the earliest — the tiebreak
    /// that makes enumeration order part of the determinism contract.
    fn argmax(evals: &[Evaluation]) -> usize {
        let mut best = 0;
        for (k, e) in evals.iter().enumerate().skip(1) {
            if e.score > evals[best].score {
                best = k;
            }
        }
        best
    }

    /// Total design-space size, `None` on overflow (treated as "too big").
    fn space_size(&self) -> Option<u64> {
        let n = u32::try_from(self.base.len()).ok()?;
        let mut size = 1u64;
        if self.knobs.partitioning {
            size = (self.cores as u64).checked_pow(n)?;
        }
        if self.knobs.priorities {
            size = size.checked_mul(factorial(n)?)?;
        }
        if self.knobs.coloring {
            size = size.checked_mul((self.shifts.len() as u64).checked_pow(n)?)?;
        }
        Some(size)
    }

    /// Decodes point `index` of the mixed-radix enumeration. Digit order:
    /// coloring (least significant), then partitioning, then the Lehmer
    /// code of the priority permutation.
    fn decode(&self, mut index: u64) -> Candidate {
        let n = self.base.len();
        let mut c = Candidate::identity(self.base);
        if self.knobs.coloring {
            let radix = self.shifts.len() as u64;
            for shift in c.shifts.iter_mut() {
                *shift = self.shifts[(index % radix) as usize];
                index /= radix;
            }
        }
        if self.knobs.partitioning {
            let radix = self.cores as u64;
            for core in c.cores.iter_mut() {
                *core = (index % radix) as usize;
                index /= radix;
            }
        }
        if self.knobs.priorities {
            c.ranks = ranks_from_lehmer(index, n);
        }
        c
    }

    /// Applies one random move to `c`. Move kinds are drawn uniformly from
    /// the enabled, non-degenerate dimensions in a fixed order.
    fn mutate(&self, c: &mut Candidate, rng: &mut ChaCha8Rng) {
        #[derive(Clone, Copy)]
        enum Move {
            Reassign,
            SwapCores,
            SwapRanks,
            Recolor,
        }
        let n = c.cores.len();
        let mut moves = Vec::with_capacity(4);
        if self.knobs.partitioning && self.cores > 1 {
            moves.push(Move::Reassign);
            if n > 1 {
                moves.push(Move::SwapCores);
            }
        }
        if self.knobs.priorities && n > 1 {
            moves.push(Move::SwapRanks);
        }
        if self.knobs.coloring && self.shifts.len() > 1 {
            moves.push(Move::Recolor);
        }
        if moves.is_empty() {
            return;
        }
        match moves[rng.gen_range(0..moves.len())] {
            Move::Reassign => {
                let k = rng.gen_range(0..n);
                let mut core = rng.gen_range(0..self.cores);
                if core == c.cores[k] {
                    core = (core + 1) % self.cores;
                }
                c.cores[k] = core;
            }
            Move::SwapCores => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                c.cores.swap(a, b);
            }
            Move::SwapRanks => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                c.ranks.swap(a, b);
            }
            Move::Recolor => {
                let k = rng.gen_range(0..n);
                c.shifts[k] = self.shifts[rng.gen_range(0..self.shifts.len())];
            }
        }
    }

    /// Audsley's optimal priority assignment on top of the default
    /// partitioning and coloring: assign levels lowest-first; at each level
    /// probe the still-unassigned tasks one at a time, in base order, and
    /// give the level to the first whose task converges there (to the
    /// first unassigned task when none does). Quadratic in task count in
    /// the worst case, so only run for seeding.
    fn audsley(&mut self, default: &Candidate) -> Candidate {
        let _span = cpa_obs::span!("optimize.audsley");
        let n = self.base.len();
        let mut ranks = vec![u32::MAX; n];
        let mut unassigned: Vec<usize> = (0..n).collect();
        let mut probe = default.clone();
        for level in (0..n).rev() {
            // `position` stops at the first converging probe.
            let pick = unassigned.iter().position(|&u| {
                // Assigned tasks keep their level, the probed task takes
                // this one, the rest fill the higher levels in base order.
                let mut next = 0u32;
                for (k, slot) in probe.ranks.iter_mut().enumerate() {
                    *slot = if ranks[k] != u32::MAX {
                        ranks[k]
                    } else if k == u {
                        level as u32
                    } else {
                        let r = next;
                        next += 1;
                        r
                    };
                }
                cpa_obs::counter("optimize.audsley_probes").incr();
                // Probes are never pruned: they share the default
                // partition, and the seeding pass must stay a pure
                // function of real evaluations.
                let eval = self.evaluate_batch(std::slice::from_ref(&probe), false)[0];
                (eval.converged_mask >> level) & 1 == 1
            });
            let pick = pick.unwrap_or_else(|| {
                cpa_obs::counter("optimize.audsley_fallbacks").incr();
                0
            });
            let u = unassigned.remove(pick);
            ranks[u] = level as u32;
        }
        Candidate {
            cores: default.cores.clone(),
            ranks,
            shifts: default.shifts.clone(),
        }
    }
}

/// The memo key of one candidate: environment prefix plus the three
/// candidate vectors. Equal keys rebuild identical task sets, so the
/// memoized evaluation is exact.
fn memo_key(env_key: u64, c: &Candidate) -> u64 {
    let mut h = ContentHasher::new();
    h.write_u64(env_key);
    for &core in &c.cores {
        h.write_usize(core);
    }
    for &rank in &c.ranks {
        h.write_u64(u64::from(rank));
    }
    for &shift in &c.shifts {
        h.write_usize(shift);
    }
    h.finish()
}

/// The canonical evaluation of a pruned candidate: the worst score any
/// real evaluation loses to, no converged tasks.
const PRUNED_EVAL: Evaluation = Evaluation {
    score: Score::worst(),
    converged_mask: 0,
};

fn factorial(n: u32) -> Option<u64> {
    (1..=u64::from(n)).try_fold(1u64, u64::checked_mul)
}

/// Decodes a Lehmer code into a rank vector: `ranks[k]` is the priority
/// rank of base task `k`. Code 0 is the identity.
fn ranks_from_lehmer(mut code: u64, n: usize) -> Vec<u32> {
    let mut fact = vec![1u64; n.max(1)];
    for i in 1..n {
        fact[i] = fact[i - 1].saturating_mul(i as u64);
    }
    let mut available: Vec<u32> = (0..n as u32).collect();
    let mut ranks = Vec::with_capacity(n);
    for k in 0..n {
        let f = fact[n - 1 - k];
        let pos = ((code / f) as usize).min(available.len() - 1);
        code %= f;
        ranks.push(available.remove(pos));
    }
    ranks
}

/// Runs the full design-space search for `base` on `platform` under
/// `config`, deterministically in `seed` and invariant in `pool`'s thread
/// and chunk settings. The returned best never scores below the default
/// configuration, which is always evaluated first and kept as fallback.
#[must_use]
pub fn optimize(
    base: &TaskSet,
    platform: &Platform,
    config: &AnalysisConfig,
    knobs: &SearchKnobs,
    seed: u64,
    pool: PoolOptions,
) -> SearchOutcome {
    optimize_with_memo(
        base,
        platform,
        config,
        knobs,
        seed,
        pool,
        &mut SolveMemo::new(),
        false,
    )
}

/// [`optimize`] with a caller-owned [`SolveMemo`] — the service passes
/// one memo per batch so solve fragments are shared across requests —
/// and the `full_eval` escape hatch, which evaluates every admitted
/// candidate independently (no memo, no slot-patched assembly;
/// admission pruning stays because it defines the search semantics). Both knobs accelerate or de-accelerate the same
/// deterministic trajectory: the outcome is byte-identical either way.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn optimize_with_memo(
    base: &TaskSet,
    platform: &Platform,
    config: &AnalysisConfig,
    knobs: &SearchKnobs,
    seed: u64,
    pool: PoolOptions,
    memo: &mut SolveMemo,
    full_eval: bool,
) -> SearchOutcome {
    let _span = cpa_obs::span!("optimize.search");
    let mut s = Searcher::new(base, platform, config, knobs, pool, memo, full_eval);
    let default = Candidate::identity(base);
    let default_eval = s.evaluate_batch(std::slice::from_ref(&default), false)[0];
    let mut best = default.clone();
    let mut best_eval = default_eval;
    let mut stats = SearchStats {
        strategy: String::new(),
        candidates: 0,
        moves_accepted: 0,
        moves_rejected: 0,
        restarts: 0,
        rounds: 0,
        pruned: 0,
    };

    let space = s.space_size();
    if let Some(size) = space.filter(|&size| size <= knobs.exhaustive_limit) {
        stats.strategy = "exhaustive".to_string();
        cpa_obs::counter("optimize.exhaustive_runs").incr();
        // One batch over the whole space; ties break to the lowest index.
        let candidates: Vec<Candidate> = (0..size).map(|ix| s.decode(ix)).collect();
        let evals = s.evaluate_batch(&candidates, true);
        if !evals.is_empty() {
            let bi = Searcher::argmax(&evals);
            if evals[bi].score > best_eval.score {
                best = candidates[bi].clone();
                best_eval = evals[bi];
            }
        }
    } else {
        stats.strategy = "local-search".to_string();
        let n = base.len();
        // One reused neighbour buffer for every round of every restart;
        // `clone_from` refills the existing allocations.
        let mut neighbors: Vec<Candidate> = Vec::new();
        for restart in 0..knobs.restarts.max(1) {
            stats.restarts += 1;
            cpa_obs::counter("optimize.restarts").incr();
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, u64::from(restart), 0));
            let mut current = if restart == 0 {
                if knobs.priorities && (2..=128).contains(&n) {
                    s.audsley(&default)
                } else {
                    default.clone()
                }
            } else {
                // Later restarts walk away from the default at random.
                let mut c = default.clone();
                for _ in 0..n.max(2) {
                    s.mutate(&mut c, &mut rng);
                }
                c
            };
            let mut current_eval = s.evaluate_batch(std::slice::from_ref(&current), true)[0];
            if current_eval.score > best_eval.score {
                best = current.clone();
                best_eval = current_eval;
            }
            let mut stale = 0u32;
            for _ in 0..knobs.max_rounds {
                stats.rounds += 1;
                neighbors.resize_with(knobs.neighbors as usize, || current.clone());
                for c in &mut neighbors {
                    c.cores.clone_from(&current.cores);
                    c.ranks.clone_from(&current.ranks);
                    c.shifts.clone_from(&current.shifts);
                    s.mutate(c, &mut rng);
                }
                if neighbors.is_empty() {
                    break;
                }
                let evals = s.evaluate_batch(&neighbors, true);
                let bi = Searcher::argmax(&evals);
                if evals[bi].score > current_eval.score {
                    stats.moves_accepted += 1;
                    stats.moves_rejected += (neighbors.len() - 1) as u64;
                    current = neighbors[bi].clone();
                    current_eval = evals[bi];
                    stale = 0;
                    if current_eval.score > best_eval.score {
                        best = current.clone();
                        best_eval = current_eval;
                    }
                } else {
                    stats.moves_rejected += neighbors.len() as u64;
                    stale += 1;
                    // Sideways drift along score plateaus, seeded like
                    // everything else, to escape flat regions.
                    if evals[bi].score == current_eval.score && rng.gen_bool(0.5) {
                        current = neighbors[bi].clone();
                        current_eval = evals[bi];
                    }
                    if stale >= knobs.patience.max(1) {
                        break;
                    }
                }
            }
        }
    }

    stats.candidates = s.evaluated;
    stats.pruned = s.pruned;
    cpa_obs::counter("optimize.moves_accepted").add(stats.moves_accepted);
    cpa_obs::counter("optimize.moves_rejected").add(stats.moves_rejected);
    SearchOutcome {
        best,
        best_score: best_eval.score,
        default_score: default_eval.score,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_analysis::{BusPolicy, PersistenceMode};
    use cpa_model::CacheGeometry;
    use cpa_workload::{GeneratorConfig, TaskSetGenerator};

    #[test]
    fn lehmer_code_enumerates_all_permutations() {
        let n = 4;
        let mut seen = std::collections::HashSet::new();
        for code in 0..24 {
            let ranks = ranks_from_lehmer(code, n);
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3], "code {code} is a permutation");
            seen.insert(ranks);
        }
        assert_eq!(seen.len(), 24, "codes are distinct");
        assert_eq!(ranks_from_lehmer(0, n), [0, 1, 2, 3], "code 0 is identity");
    }

    #[test]
    fn factorial_overflow_is_none() {
        assert_eq!(factorial(0), Some(1));
        assert_eq!(factorial(5), Some(120));
        assert_eq!(factorial(30), None);
    }

    /// A generated 4-core × 5-task set and its platform, shaped like a
    /// service request.
    fn generated(seed: u64, util: f64) -> (TaskSet, Platform) {
        let mut config = GeneratorConfig::paper_default()
            .with_cores(4)
            .with_per_core_utilization(util);
        config.tasks_per_core = 5;
        let d_mem = config.d_mem;
        let tasks = TaskSetGenerator::new(config)
            .and_then(|g| g.generate(&mut ChaCha8Rng::seed_from_u64(seed)))
            .expect("paper-shaped configs generate");
        let platform = Platform::builder()
            .cores(4)
            .cache(CacheGeometry::direct_mapped(tasks.cache_sets(), 32))
            .memory_latency(d_mem)
            .build()
            .expect("valid platform");
        (tasks, platform)
    }

    /// The eager reference: at each level, evaluate one probe per
    /// unassigned task in a single batch and keep the first whose task
    /// converges (the first unassigned task when none does). Returns the
    /// ranks and, per level, the probe count and the pick (`None` when no
    /// probe converged).
    fn eager_audsley(
        s: &mut Searcher<'_>,
        default: &Candidate,
    ) -> (Vec<u32>, Vec<(usize, Option<usize>)>) {
        let n = s.base.len();
        let mut ranks = vec![u32::MAX; n];
        let mut unassigned: Vec<usize> = (0..n).collect();
        let mut levels = Vec::new();
        for level in (0..n).rev() {
            let probes: Vec<Candidate> = unassigned
                .iter()
                .map(|&u| {
                    let mut c = default.clone();
                    let mut next = 0u32;
                    for (k, slot) in c.ranks.iter_mut().enumerate() {
                        *slot = if ranks[k] != u32::MAX {
                            ranks[k]
                        } else if k == u {
                            level as u32
                        } else {
                            let r = next;
                            next += 1;
                            r
                        };
                    }
                    c
                })
                .collect();
            let evals = s.evaluate_batch(&probes, false);
            let pick = evals
                .iter()
                .position(|e| (e.converged_mask >> level) & 1 == 1);
            levels.push((probes.len(), pick));
            let u = unassigned.remove(pick.unwrap_or(0));
            ranks[u] = level as u32;
        }
        (ranks, levels)
    }

    #[test]
    fn lazy_audsley_matches_the_eager_reference() {
        let knobs = SearchKnobs::toy();
        let (mut late_picks, mut fallbacks) = (0, 0);
        for bus in ["fp", "rr", "tdma", "perfect"] {
            for mode in [PersistenceMode::Aware, PersistenceMode::Oblivious] {
                let config = AnalysisConfig::new(BusPolicy::parse(bus, 2).unwrap(), mode);
                for (seed, util) in [(3u64, 0.3), (4, 0.6), (5, 0.9)] {
                    let tag = format!("{bus} {mode:?} seed {seed} util {util}");
                    let (base, platform) = generated(seed, util);
                    let default = Candidate::identity(&base);
                    let one = PoolOptions::new().with_threads(1);
                    let mut memo = SolveMemo::new();
                    let mut reference =
                        Searcher::new(&base, &platform, &config, &knobs, one, &mut memo, false);
                    let (ranks, levels) = eager_audsley(&mut reference, &default);
                    let expected: u64 = levels
                        .iter()
                        .map(|&(probes, pick)| pick.map_or(probes, |p| p + 1) as u64)
                        .sum();
                    late_picks += levels.iter().filter(|l| l.1.is_some_and(|p| p > 0)).count();
                    fallbacks += levels.iter().filter(|l| l.1.is_none()).count();
                    for threads in [1, 4] {
                        let pool = PoolOptions::new().with_threads(threads);
                        let mut memo = SolveMemo::new();
                        let mut s = Searcher::new(
                            &base, &platform, &config, &knobs, pool, &mut memo, false,
                        );
                        let seeded = s.audsley(&default);
                        assert_eq!(seeded.ranks, ranks, "{tag} threads {threads}: ranks");
                        assert_eq!(seeded.cores, default.cores, "{tag}: partition kept");
                        assert_eq!(seeded.shifts, default.shifts, "{tag}: coloring kept");
                        assert_eq!(s.evaluated, expected, "{tag} threads {threads}: probes");
                    }
                }
            }
        }
        assert!(
            late_picks > 0,
            "fixture must pick a task other than the first"
        );
        assert!(
            fallbacks > 0,
            "fixture must have a level where no probe converges"
        );
    }
}
