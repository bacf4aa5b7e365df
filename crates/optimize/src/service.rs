//! The batch service surface: JSON requests in, JSON verdicts out.
//!
//! A batch is a JSON array of [`OptimizeRequest`]s. Each request is
//! fingerprinted ([`request_key`]) over its *canonical* content — the
//! task set hashed in priority order (so client-side task reordering and
//! JSON round trips hit the same entry), the platform shape, the analysis
//! configuration, the seed and the search knobs — and served from the
//! [`ResultCache`] when possible. Responses are serialized compactly, one
//! per line inside the batch array, and cached as those exact bytes, so
//! warm runs are byte-identical to cold runs.
//!
//! A batch runs in four steps on the calling thread, with one parallel
//! region:
//!
//! 1. every request is parsed and validated in batch order, so the first
//!    bad request fails the batch before any lookup or search;
//! 2. each request's key is looked up in the cache, the first occurrence
//!    of a key only;
//! 3. the unique misses fan out over `cpa-pool`, one whole search per
//!    item ([`crate::search`] is a plain sequential loop);
//! 4. responses are cached, in-batch repeats read back from the cache,
//!    and everything is tallied in batch order.
//!
//! A search depends on its own request alone and the pool returns results
//! in item order, so the output is independent of the worker count.

use std::collections::HashSet;

use cpa_analysis::{AnalysisConfig, BusPolicy, PersistenceMode};
use cpa_experiments::runner::derive_seed;
use cpa_model::{CacheGeometry, ContentHasher, Platform, Task, TaskSet, Time};
use cpa_pool::PoolOptions;
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::cache::ResultCache;
use crate::candidate::Candidate;
use crate::score::Score;
use crate::search::{optimize, SearchKnobs, SearchStats};

/// One design-space optimization request. Every field is required in the
/// JSON form (the vendored serde has no `#[serde(default)]`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizeRequest {
    /// Client-chosen label, echoed in the response.
    pub name: String,
    /// Seed of the (deterministic) search.
    pub seed: u64,
    /// Bus policy label: `fp`, `rr`, `tdma` or `perfect`.
    pub bus: String,
    /// RR/TDMA slot count (ignored for `fp`/`perfect`).
    pub slots: u64,
    /// Persistence mode: `aware` or `oblivious`.
    pub mode: String,
    /// Memory latency `d_mem` in cycles.
    pub d_mem: u64,
    /// Cores available for partitioning.
    pub cores: usize,
    /// Search tuning knobs.
    pub search: SearchKnobs,
    /// The tasks to optimize (any order; canonicalized on load).
    pub tasks: Vec<Task>,
}

impl OptimizeRequest {
    /// A per-request error message, naming the request.
    fn error(&self, what: String) -> String {
        format!("request '{}': {what}", self.name)
    }
}

/// Where one task ended up in the optimized configuration.
#[derive(Debug, Clone, Serialize)]
pub struct TaskAssignment {
    /// Task name, as in the request.
    pub task: String,
    /// Assigned core.
    pub core: usize,
    /// Priority rank (0 = highest).
    pub priority: u32,
    /// Cache-coloring rotation in cache sets (0 = unchanged).
    pub color_shift: usize,
}

/// The verdict for one request.
#[derive(Debug, Clone, Serialize)]
pub struct OptimizeResponse {
    /// Echoed request name.
    pub name: String,
    /// Content-addressed cache key, as 16 hex digits.
    pub key: String,
    /// Echoed bus label.
    pub bus: String,
    /// Echoed persistence mode.
    pub mode: String,
    /// Whether the unmodified configuration is schedulable.
    pub schedulable_default: bool,
    /// Whether the optimized configuration is schedulable.
    pub schedulable_optimized: bool,
    /// Whether the optimizer strictly improved on the default score.
    pub improved: bool,
    /// Score of the unmodified configuration.
    pub default_score: Score,
    /// Score of the optimized configuration (never below the default).
    pub optimized_score: Score,
    /// Optimized placement of every task, in request priority order.
    pub assignment: Vec<TaskAssignment>,
    /// Search accounting.
    pub stats: SearchStats,
}

/// Knobs of one `process_batch` invocation that must *not* influence the
/// response bytes: worker threads, pool chunking, and the full-evaluation
/// escape hatch.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceOptions {
    /// Worker threads the batch's searches fan out over (0 = auto).
    pub threads: usize,
    /// Pool chunk size in requests (0 = auto).
    pub chunk: usize,
    /// Evaluate every candidate independently: disables each search's
    /// solve memo and slot-patched candidate assembly. Slower,
    /// byte-identical output; the acceptance baseline the delta-scoped
    /// fast path is compared against.
    pub full_eval: bool,
}

/// Aggregate accounting for one batch run. Reported out-of-band (stderr /
/// `--stats`), never inside the response document, so cold and warm runs
/// stay byte-identical.
#[derive(Debug, Default, Serialize)]
pub struct BatchStats {
    /// Requests in the batch.
    pub requests: u64,
    /// Requests served from the result cache.
    pub cache_hits: u64,
    /// Requests that ran a search.
    pub cache_misses: u64,
    /// Requests whose default configuration was schedulable.
    pub schedulable_default: u64,
    /// Requests whose optimized configuration is schedulable.
    pub schedulable_optimized: u64,
    /// Requests the optimizer strictly improved.
    pub strictly_improved: u64,
    /// Candidates evaluated this run (0 for fully cached batches).
    pub candidates: u64,
}

/// Fingerprints one request over its canonical content. Tasks are hashed
/// through [`TaskSet::hash_content`] — priority order, not JSON order —
/// so serialization round trips and client-side reordering map to the
/// same key. Pool threading is deliberately *not* part of the key.
#[must_use]
pub fn request_key(request: &OptimizeRequest, tasks: &TaskSet) -> u64 {
    let mut hasher = ContentHasher::new();
    tasks.hash_content(&mut hasher);
    hasher.write_str(&request.name);
    hasher.write_u64(request.seed);
    hasher.write_str(&request.bus);
    hasher.write_u64(request.slots);
    hasher.write_str(&request.mode);
    hasher.write_u64(request.d_mem);
    hasher.write_usize(request.cores);
    request.search.hash_content(&mut hasher);
    hasher.finish()
}

/// Processes a JSON batch: parse and validate every request, serve what
/// the cache holds, search the unique misses in parallel, and return the
/// response document plus out-of-band stats. The document is a function
/// of the batch content alone — threading and cache temperature never
/// reach it.
///
/// # Errors
///
/// Returns a message naming the first offending request, in batch order,
/// on parse errors, unknown bus/mode labels, zero RR/TDMA slots, more
/// cores than tasks, platform mismatches, or cache I/O failures. A
/// request that fails validation fails the batch before any search.
pub fn process_batch(
    json: &str,
    opts: &ServiceOptions,
    cache: &mut ResultCache,
) -> Result<(String, BatchStats), String> {
    let _span = cpa_obs::span!("optimize.batch");
    let requests: Vec<OptimizeRequest> =
        serde_json::from_str(json).map_err(|e| format!("parse request batch: {e}"))?;
    cpa_obs::counter("optimize.requests").add(requests.len() as u64);
    let jobs = requests
        .iter()
        .map(Job::new)
        .collect::<Result<Vec<Job>, String>>()?;
    let mut stats = BatchStats {
        requests: requests.len() as u64,
        ..BatchStats::default()
    };

    // Look up the first occurrence of each key; a repeat waits for its
    // first occurrence's response to reach the cache.
    let mut seen = HashSet::new();
    let mut docs: Vec<Option<String>> = Vec::with_capacity(jobs.len());
    let mut misses = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let doc = if seen.insert(job.key) {
            let doc = cache.get(job.key);
            if doc.is_none() {
                misses.push(i);
            }
            doc
        } else {
            None
        };
        docs.push(doc);
    }

    let searched = {
        let _span = cpa_obs::span!("optimize.evaluate_batch");
        let pool = PoolOptions::new()
            .with_threads(opts.threads)
            .with_chunk(opts.chunk);
        cpa_pool::map(
            misses.len(),
            pool,
            cpa_obs::next_scope_epoch(),
            |_| (),
            |(), m| jobs[misses[m]].search(opts.full_eval),
        )
    };
    for (&i, result) in misses.iter().zip(searched) {
        let (doc, candidates) = result?;
        cache
            .put(jobs[i].key, &doc)
            .map_err(|e| jobs[i].request.error(format!("cache write: {e}")))?;
        stats.cache_misses += 1;
        stats.candidates += candidates;
        docs[i] = Some(doc);
    }

    let mut body = Vec::with_capacity(jobs.len());
    for (job, doc) in jobs.iter().zip(docs) {
        let doc = match doc {
            Some(doc) => doc,
            // A repeat: its first occurrence is in the cache by now.
            None => cache
                .get(job.key)
                .expect("a repeat's first occurrence is cached"),
        };
        tally(&mut stats, &doc);
        body.push(doc);
    }
    stats.cache_hits = stats.requests - stats.cache_misses;
    let body = if body.is_empty() {
        "[]\n".to_string()
    } else {
        format!("[\n{}\n]\n", body.join(",\n"))
    };
    Ok((body, stats))
}

/// One validated request: the canonical task set, the platform and
/// analysis configuration it asks for, and its cache key.
struct Job<'a> {
    request: &'a OptimizeRequest,
    tasks: TaskSet,
    platform: Platform,
    config: AnalysisConfig,
    key: u64,
}

impl<'a> Job<'a> {
    fn new(request: &'a OptimizeRequest) -> Result<Job<'a>, String> {
        let fail = |what: String| request.error(what);
        let tasks = TaskSet::new(request.tasks.clone()).map_err(|e| fail(e.to_string()))?;
        let bus = BusPolicy::try_parse(&request.bus, request.slots).map_err(fail)?;
        let mode = match request.mode.as_str() {
            "aware" => PersistenceMode::Aware,
            "oblivious" => PersistenceMode::Oblivious,
            other => return Err(fail(format!("unknown persistence mode `{other}`"))),
        };
        let highest_core = tasks.iter().map(|t| t.core().index()).max().unwrap_or(0);
        if request.cores <= highest_core {
            return Err(fail(format!(
                "{} cores cannot host task on core {highest_core}",
                request.cores
            )));
        }
        // A partition of n tasks occupies at most n identical cores, and
        // the analysis sizes its tables by the core count.
        if request.cores > tasks.len() {
            return Err(fail(format!(
                "{} cores exceed the {} tasks to partition",
                request.cores,
                tasks.len()
            )));
        }
        let platform = Platform::builder()
            .cores(request.cores)
            .cache(CacheGeometry::direct_mapped(tasks.cache_sets(), 32))
            .memory_latency(Time::from_cycles(request.d_mem))
            .build()
            .map_err(|e| fail(e.to_string()))?;
        Ok(Job {
            request,
            key: request_key(request, &tasks),
            tasks,
            platform,
            config: AnalysisConfig::new(bus, mode),
        })
    }

    /// Runs the search and serializes the response; returns the document
    /// and the candidates evaluated.
    fn search(&self, full_eval: bool) -> Result<(String, u64), String> {
        let request = self.request;
        let outcome = optimize(
            &self.tasks,
            &self.platform,
            &self.config,
            &request.search,
            request.seed,
            full_eval,
        );
        let response = OptimizeResponse {
            name: request.name.clone(),
            key: format!("{:016x}", self.key),
            bus: request.bus.clone(),
            mode: request.mode.clone(),
            schedulable_default: outcome.default_score.schedulable,
            schedulable_optimized: outcome.best_score.schedulable,
            improved: outcome.best_score > outcome.default_score,
            default_score: outcome.default_score,
            optimized_score: outcome.best_score,
            assignment: assignment(&self.tasks, &outcome.best),
            stats: outcome.stats,
        };
        let doc = serde_json::to_string(&response).map_err(|e| request.error(e.to_string()))?;
        Ok((doc, response.stats.candidates))
    }
}

/// Folds one response document into the batch stats. Works on the
/// serialized form so cached and freshly computed responses are tallied
/// identically; the probed substrings are fixed by our own serializer.
fn tally(stats: &mut BatchStats, doc: &str) {
    if doc.contains("\"schedulable_default\":true") {
        stats.schedulable_default += 1;
    }
    if doc.contains("\"schedulable_optimized\":true") {
        stats.schedulable_optimized += 1;
    }
    if doc.contains("\"improved\":true") {
        stats.strictly_improved += 1;
        cpa_obs::counter("optimize.improved").incr();
    }
}

fn assignment(tasks: &TaskSet, best: &Candidate) -> Vec<TaskAssignment> {
    tasks
        .iter()
        .enumerate()
        .map(|(k, t)| TaskAssignment {
            task: t.name().to_string(),
            core: best.cores[k],
            priority: best.ranks[k],
            color_shift: best.shifts[k],
        })
        .collect()
}

/// Options for [`gen_batch`]: a seeded batch of generator-drawn requests,
/// mirroring the experiment generator's paper defaults at small scale.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Number of requests to generate.
    pub sets: usize,
    /// Base seed; task sets and search seeds are derived per request.
    pub seed: u64,
    /// Cores per request.
    pub cores: usize,
    /// Tasks per core.
    pub tasks_per_core: usize,
    /// Cache sets of the generated footprints.
    pub cache_sets: usize,
    /// Per-core utilization target.
    pub util: f64,
    /// Memory latency in cycles.
    pub d_mem: u64,
    /// Bus policy label.
    pub bus: String,
    /// RR/TDMA slots.
    pub slots: u64,
    /// Persistence mode label.
    pub mode: String,
    /// Use [`SearchKnobs::toy`] instead of [`SearchKnobs::standard`].
    pub toy: bool,
}

impl Default for GenOptions {
    fn default() -> GenOptions {
        GenOptions {
            sets: 1,
            seed: 42,
            cores: 2,
            tasks_per_core: 4,
            cache_sets: 64,
            util: 0.6,
            d_mem: 5,
            bus: "fp".to_string(),
            slots: 2,
            mode: "aware".to_string(),
            toy: false,
        }
    }
}

/// Generates a pretty-printed batch of requests, deterministic in the
/// options. Request `s` draws its task set from
/// `derive_seed(seed, 0, s)` and searches with `derive_seed(seed, 1, s)`.
///
/// # Errors
///
/// Returns a message when the generator configuration is invalid, or
/// when a generated request fails the per-request check
/// [`process_batch`] applies (unknown bus/mode, zero RR/TDMA slots, more
/// cores than tasks): `gen` never writes a batch that `run` rejects.
pub fn gen_batch(opts: &GenOptions) -> Result<String, String> {
    let mut config = GeneratorConfig::paper_default()
        .with_cores(opts.cores)
        .with_cache_sets(opts.cache_sets)
        .with_per_core_utilization(opts.util)
        .with_d_mem(Time::from_cycles(opts.d_mem));
    config.tasks_per_core = opts.tasks_per_core;
    let generator = TaskSetGenerator::new(config).map_err(|e| e.to_string())?;
    let mut requests = Vec::with_capacity(opts.sets);
    for s in 0..opts.sets {
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(opts.seed, 0, s as u64));
        let set = generator.generate(&mut rng).map_err(|e| e.to_string())?;
        requests.push(OptimizeRequest {
            name: format!("req-{s:03}"),
            seed: derive_seed(opts.seed, 1, s as u64),
            bus: opts.bus.clone(),
            slots: opts.slots,
            mode: opts.mode.clone(),
            d_mem: opts.d_mem,
            cores: opts.cores,
            search: if opts.toy {
                SearchKnobs::toy()
            } else {
                SearchKnobs::standard()
            },
            tasks: set.into(),
        });
    }
    for request in &requests {
        Job::new(request)?;
    }
    serde_json::to_string_pretty(&requests).map_err(|e| e.to_string())
}
