//! The design-space search: exhaustive on small spaces, seeded local
//! search otherwise. One search is a plain sequential loop on the calling
//! thread; the service fans whole requests over `cpa-pool`
//! ([`crate::service`]).
//!
//! # Search space
//!
//! For an `n`-task set the space is the product of the enabled dimensions:
//! `cores^n` partitionings × `n!` priority orders × `colors^n` cache
//! colorings. When the product fits under
//! [`SearchKnobs::exhaustive_limit`] every point is decoded in a fixed
//! mixed-radix order (coloring digits, then partitioning digits, then a
//! Lehmer-coded permutation), evaluated, and folded into the running best
//! as it is decoded — ties break to the earliest index, so the result is
//! a pure function of the input.
//!
//! Otherwise a steepest-ascent hill climb runs `restarts` times: restart 0
//! starts from the default configuration refined by Audsley's optimal
//! priority assignment, later restarts perturb the default with a
//! ChaCha-seeded random walk. Each round samples `neighbors` single moves
//! (core reassignment, core swap, rank swap, recolor) and moves to the
//! first best of them.
//!
//! # Candidate evaluation
//!
//! Every candidate goes through [`Searcher::evaluate`] and is scored by
//! the full analysis (see DESIGN.md §16):
//!
//! 1. **Solve memo** — candidates are looked up in a per-request map from
//!    candidate to evaluation; a point the search meets again (a
//!    revisited configuration, a repeated neighbour) replays its
//!    evaluation instead of re-solving.
//! 2. **Slot-patched assembly** — a miss builds the candidate's task set
//!    by patching the slots that differ from the previous solve
//!    ([`EvalScratch`]) and runs one [`analyze_with`] call.
//!
//! The `full_eval` escape hatch disables the memo and slot-patched
//! assembly (each candidate is rebuilt with [`Candidate::apply`]), which
//! the `optimizer_determinism` tests compare against byte for byte.
//!
//! # Priority seeding
//!
//! [`Searcher::audsley`] is textbook OPA: levels are assigned lowest
//! first, and at each level the unassigned tasks are probed one at a time
//! in base order until one converges there.
//!
//! # Determinism
//!
//! All randomness flows from `ChaCha8Rng::seed_from_u64(derive_seed(seed,
//! restart, 0))`, and every fold over evaluations keeps the first of
//! equal scores. A search runs on one thread, so same seed + same request
//! ⇒ identical outcome, whatever thread the service runs it on.

use std::collections::HashMap;

use cpa_analysis::{
    analyze_with, AnalysisConfig, AnalysisContext, AnalysisScratch, ContextBuffers, CrpdApproach,
};
use cpa_experiments::runner::derive_seed;
use cpa_model::{ContentHasher, CoreId, Platform, Priority, Task, TaskSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::candidate::Candidate;
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

/// Reusable evaluation state of one search: one analysis scratch plus
/// recycled context tables, so a search allocates only on its first
/// solve.
#[derive(Debug)]
struct EvalScratch {
    scratch: AnalysisScratch,
    buffers: ContextBuffers,
    /// Built tasks of this search's base set, keyed by
    /// `(base index, core, rank, shift)`.
    /// A neighbour differs from the current point in one or two tasks, so
    /// nearly every per-task build is a repeat; caching them turns
    /// [`Candidate::apply`]'s full rebuild (rotate three block sets,
    /// re-validate every task) into a few map hits and clones.
    assembled: HashMap<(usize, usize, u32, usize), Task>,
    /// Tasks of the set assembled last, handed back through
    /// [`EvalScratch::recycle_set`]. Successive solves differ in a slot
    /// or two, so patching the kept tasks beats cloning every task again.
    cur: Option<Vec<Task>>,
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

    /// [`Candidate::apply`] through the build cache: bitwise the same
    /// `TaskSet` (same task order, same tasks), built by
    /// patching the slots that differ from the previous solve. The fast
    /// path uses this; full evaluation rebuilds from scratch like an
    /// independent solver would.
    fn assemble(&mut self, base: &TaskSet, c: &Candidate) -> TaskSet {
        let _span = cpa_obs::span!("optimize.assemble");
        let n = base.len();
        let mut tasks = match self.cur.take() {
            Some(cur) if cur.len() == n && self.cur_keys.len() == n => cur,
            _ => {
                // First solve of this search: placeholder-fill, then
                // let the sentinel keys force every slot to be patched.
                self.cur_keys.clear();
                self.cur_keys.resize(n, (usize::MAX, 0, 0, 0));
                let seed_task = base.iter().next().expect("sets are non-empty");
                vec![seed_task.clone(); n]
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
            let task = self.assembled.entry(key).or_insert_with(|| {
                Task::builder(t.name())
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
                    .expect("rotation and reassignment preserve task invariants")
            });
            tasks[r].clone_from(task);
            self.cur_keys[r] = key;
        }
        TaskSet::from_sorted_parts(tasks)
    }

    /// Returns an assembled set's tasks for the next [`EvalScratch::
    /// assemble`] to patch. Skipping this (a panic, a code path that
    /// drops the set) only costs the next candidate a full rebuild.
    fn recycle_set(&mut self, set: TaskSet) {
        self.cur = Some(set.into());
    }
}

struct Searcher<'a> {
    base: &'a TaskSet,
    platform: &'a Platform,
    config: &'a AnalysisConfig,
    knobs: &'a SearchKnobs,
    /// Cores available for partitioning.
    cores: usize,
    /// The shift values the coloring dimension ranges over (always
    /// contains 0, the identity coloring).
    shifts: Vec<usize>,
    /// Candidates evaluated so far.
    evaluated: u64,
    /// Evaluations of the candidates solved so far. Equal
    /// candidates of one request rebuild identical task sets, so a hit
    /// is exact. Unused under `full_eval`.
    memo: HashMap<Candidate, Evaluation>,
    /// Buffers and build cache every solve of this search reuses.
    scratch: EvalScratch,
    /// Evaluate every candidate independently: no memo, no slot-patched
    /// assembly.
    full_eval: bool,
}

impl<'a> Searcher<'a> {
    fn new(
        base: &'a TaskSet,
        platform: &'a Platform,
        config: &'a AnalysisConfig,
        knobs: &'a SearchKnobs,
        full_eval: bool,
    ) -> Searcher<'a> {
        let cache_sets = base.cache_sets();
        let colors = (knobs.colors.max(1) as usize).min(cache_sets.max(1));
        let step = (cache_sets / colors).max(1);
        Searcher {
            base,
            platform,
            config,
            knobs,
            cores: platform.cores(),
            shifts: (0..colors).map(|c| c * step).collect(),
            evaluated: 0,
            memo: HashMap::new(),
            scratch: EvalScratch::new(),
            full_eval,
        }
    }

    /// Evaluates one candidate: the memo, then a solve.
    fn evaluate(&mut self, candidate: &Candidate) -> Evaluation {
        self.evaluated += 1;
        cpa_obs::counter("optimize.candidates").incr();
        if self.full_eval {
            return self.solve(candidate);
        }
        if let Some(&eval) = self.memo.get(candidate) {
            cpa_obs::counter("optimize.memo_hits").incr();
            return eval;
        }
        cpa_obs::counter("optimize.memo_misses").incr();
        let eval = self.solve(candidate);
        self.memo.insert(candidate.clone(), eval);
        eval
    }

    /// Builds the candidate's task set and runs the analysis on it.
    fn solve(&mut self, candidate: &Candidate) -> Evaluation {
        let state = &mut self.scratch;
        let tasks = if self.full_eval {
            candidate.apply(self.base)
        } else {
            state.assemble(self.base, candidate)
        };
        let ctx = AnalysisContext::with_crpd_approach_buffers(
            self.platform,
            &tasks,
            CrpdApproach::EcbUnion,
            &mut state.buffers,
        )
        .expect("candidates stay valid for the platform");
        let result = analyze_with(&ctx, self.config, &mut state.scratch);
        let eval = evaluate_result(&tasks, &result);
        ctx.recycle(&mut state.buffers);
        if !self.full_eval {
            state.recycle_set(tasks);
        }
        eval
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
                let eval = self.evaluate(&probe);
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
/// `config`, deterministically in `seed`. The returned best never scores
/// below the default configuration, which is always evaluated first and
/// kept as fallback.
///
/// `full_eval` evaluates every candidate independently (no memo, no
/// slot-patched assembly). It walks the same deterministic trajectory, so
/// the outcome is identical either way.
#[must_use]
pub fn optimize(
    base: &TaskSet,
    platform: &Platform,
    config: &AnalysisConfig,
    knobs: &SearchKnobs,
    seed: u64,
    full_eval: bool,
) -> SearchOutcome {
    let _span = cpa_obs::span!("optimize.search");
    let mut s = Searcher::new(base, platform, config, knobs, full_eval);
    let default = Candidate::identity(base);
    let default_eval = s.evaluate(&default);
    let mut best = default.clone();
    let mut best_eval = default_eval;
    let mut stats = SearchStats {
        strategy: String::new(),
        candidates: 0,
        moves_accepted: 0,
        moves_rejected: 0,
        restarts: 0,
        rounds: 0,
    };

    let space = s.space_size();
    if let Some(size) = space.filter(|&size| size <= knobs.exhaustive_limit) {
        stats.strategy = "exhaustive".to_string();
        cpa_obs::counter("optimize.exhaustive_runs").incr();
        // Only a strictly better point replaces the best, so ties break
        // to the default, then to the lowest index.
        for index in 0..size {
            let candidate = s.decode(index);
            let eval = s.evaluate(&candidate);
            if eval.score > best_eval.score {
                best = candidate;
                best_eval = eval;
            }
        }
    } else {
        stats.strategy = "local-search".to_string();
        let n = base.len();
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
            let mut current_eval = s.evaluate(&current);
            if current_eval.score > best_eval.score {
                best = current.clone();
                best_eval = current_eval;
            }
            let mut stale = 0u32;
            for _ in 0..knobs.max_rounds {
                stats.rounds += 1;
                // The round's first best neighbour.
                let mut round_best: Option<(Candidate, Evaluation)> = None;
                for _ in 0..knobs.neighbors {
                    let mut neighbor = current.clone();
                    s.mutate(&mut neighbor, &mut rng);
                    let eval = s.evaluate(&neighbor);
                    if round_best
                        .as_ref()
                        .is_none_or(|(_, best)| eval.score > best.score)
                    {
                        round_best = Some((neighbor, eval));
                    }
                }
                let Some((neighbor, eval)) = round_best else {
                    break;
                };
                if eval.score > current_eval.score {
                    stats.moves_accepted += 1;
                    stats.moves_rejected += u64::from(knobs.neighbors - 1);
                    current = neighbor;
                    current_eval = eval;
                    stale = 0;
                    if current_eval.score > best_eval.score {
                        best = current.clone();
                        best_eval = current_eval;
                    }
                } else {
                    stats.moves_rejected += u64::from(knobs.neighbors);
                    stale += 1;
                    // Sideways drift along score plateaus, seeded like
                    // everything else, to escape flat regions.
                    if eval.score == current_eval.score && rng.gen_bool(0.5) {
                        current = neighbor;
                        current_eval = eval;
                    }
                    if stale >= knobs.patience.max(1) {
                        break;
                    }
                }
            }
        }
    }

    stats.candidates = s.evaluated;
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
    /// unassigned task and keep the first whose task converges (the first
    /// unassigned task when none does). Returns the ranks and, per level,
    /// the probe count and the pick (`None` when no probe converged).
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
            let evals: Vec<Evaluation> = probes.iter().map(|p| s.evaluate(p)).collect();
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
                let config = AnalysisConfig::new(BusPolicy::try_parse(bus, 2).unwrap(), mode);
                for (seed, util) in [(3u64, 0.3), (4, 0.6), (5, 0.9)] {
                    let tag = format!("{bus} {mode:?} seed {seed} util {util}");
                    let (base, platform) = generated(seed, util);
                    let default = Candidate::identity(&base);
                    let mut reference = Searcher::new(&base, &platform, &config, &knobs, false);
                    let (ranks, levels) = eager_audsley(&mut reference, &default);
                    let expected: u64 = levels
                        .iter()
                        .map(|&(probes, pick)| pick.map_or(probes, |p| p + 1) as u64)
                        .sum();
                    late_picks += levels.iter().filter(|l| l.1.is_some_and(|p| p > 0)).count();
                    fallbacks += levels.iter().filter(|l| l.1.is_none()).count();
                    let mut s = Searcher::new(&base, &platform, &config, &knobs, false);
                    let seeded = s.audsley(&default);
                    assert_eq!(seeded.ranks, ranks, "{tag}: ranks");
                    assert_eq!(seeded.cores, default.cores, "{tag}: partition kept");
                    assert_eq!(seeded.shifts, default.shifts, "{tag}: coloring kept");
                    assert_eq!(s.evaluated, expected, "{tag}: probes");
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
