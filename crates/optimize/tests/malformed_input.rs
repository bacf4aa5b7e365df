//! No panics on input: request batches and task-set JSON with adversarial
//! fields (periods 0, 1 and `u64::MAX`, demands up to `u64::MAX`, `d_mem`
//! and slot counts 0, 1 and `u64::MAX`, 0 to n+2 cores, empty task lists,
//! block sets with the wrong word count) either process or fail with a
//! diagnostic; they never panic. The JSON is written by hand, so values
//! the typed builders refuse still reach the parsers.

use cpa_model::TaskSet;
use cpa_optimize::{process_batch, BatchStats, ResultCache, ServiceOptions};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;

const EDGES: [u64; 6] = [0, 1, 2, 1_000, u64::MAX / 2, u64::MAX];

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// `valid`, or `broken` in one draw of 48: each field breaks its rule
/// rarely enough that about one batch in six reaches the search.
fn or_wild<T>(rng: &mut TestRng, valid: T, broken: T) -> T {
    match rng.gen_range(0..48) {
        0 => broken,
        _ => valid,
    }
}

/// The JSON array of one to three tasks (none when wild) on cores below
/// `cores`, and its length.
fn tasks(rng: &mut TestRng, cores: usize) -> (usize, String) {
    let n = rng.gen_range(1..4);
    let n = or_wild(rng, n, 0);
    let tasks: Vec<String> = (0..n).map(|i| task(rng, i, cores)).collect();
    (n, format!("[{}]", tasks.join(", ")))
}

fn task(rng: &mut TestRng, index: usize, cores: usize) -> String {
    let [md, edge, pd] = [(); 3].map(|()| pick(rng, &EDGES));
    let (period, small) = (pick(rng, &[1, 7, 1_000, u64::MAX]), rng.gen_range(0..50));
    let pd = if rng.gen() { pd } else { small };
    let period = or_wild(rng, period, 0);
    let md_r = or_wild(rng, md.min(edge), edge);
    let deadline = or_wild(rng, edge.min(period).max(1), edge);
    let hosts = or_wild(rng, cores.max(1), 4);
    let core = rng.gen_range(0..hosts);
    let priority = or_wild(rng, index, 0);
    // UCB and PCB inside ECB, one word per 64 cache sets, unless wild.
    let ecb: u64 = rng.gen();
    let (ucb, pcb) = (ecb & rng.gen::<u64>(), ecb & rng.gen::<u64>());
    let mut set = |word: u64| {
        let (words, stray) = (pick(rng, &[0, 2]), rng.gen::<u64>());
        let words = vec![or_wild(rng, word, stray).to_string(); or_wild(rng, 1, words)];
        format!("{{\"capacity\": 64, \"words\": [{}]}}", words.join(", "))
    };
    let (ucb, ecb, pcb) = (set(ucb), set(ecb), set(pcb));
    format!(
        "{{\"name\": \"t{index}\", \"pd\": {pd}, \"md\": {md}, \"md_r\": {md_r}, \
         \"deadline\": {deadline}, \"period\": {period}, \"core\": {core}, \
         \"priority\": {priority}, \"ucb\": {ucb}, \"ecb\": {ecb}, \"pcb\": {pcb}}}"
    )
}

/// One request with toy search knobs.
fn request(rng: &mut TestRng, i: u64) -> String {
    let cores = rng.gen_range(0..6);
    let (n, tasks) = tasks(rng, cores);
    // Mostly a core count that can host the set.
    let cores = or_wild(rng, cores.clamp(1, n.max(1)), cores);
    let bus = pick(rng, &["fp", "rr", "tdma", "perfect"]);
    let mode = pick(rng, &["aware", "oblivious"]);
    let [slots, d_mem] = [(); 2].map(|()| {
        let knob = pick(rng, &[1, 2, u64::MAX]);
        or_wild(rng, knob, 0)
    });
    format!(
        "{{\"name\": \"r{i}\", \"seed\": {i}, \"bus\": \"{bus}\", \"slots\": {slots}, \
         \"mode\": \"{mode}\", \"d_mem\": {d_mem}, \"cores\": {cores}, \"search\": \
         {{\"restarts\": 2, \"max_rounds\": 12, \"neighbors\": 8, \"patience\": 3, \
         \"colors\": 4, \"exhaustive_limit\": 512, \"partitioning\": true, \
         \"priorities\": true, \"coloring\": true}}, \"tasks\": {tasks}}}"
    )
}

/// A batch of 1–3 requests, and its request count.
struct AnyBatch;

impl Strategy for AnyBatch {
    type Value = (u64, String);
    fn generate(&self, rng: &mut TestRng) -> (u64, String) {
        let count = rng.gen_range(1..4);
        let requests: Vec<String> = (0..count).map(|i| request(rng, i)).collect();
        (count, format!("[{}]", requests.join(",\n")))
    }
}

fn run(batch: &str) -> Result<(String, BatchStats), String> {
    let opts = ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    };
    process_batch(batch, &opts, &mut ResultCache::in_memory())
}

/// The mix is not all rejections, and the panic the proptest found — a
/// block set without words for its 64 cache sets decoded, then indexed
/// past its words inside the search — is refused at parse time.
#[test]
fn the_mix_reaches_the_search_and_refuses_wordless_block_sets() {
    let batches: Vec<String> = (0..64)
        .map(|case| AnyBatch.generate(&mut TestRng::for_case("mix", case)).1)
        .filter(|batch| run(batch).is_ok())
        .collect();
    assert!(
        batches.len() >= 8,
        "{} of 64 batches searched",
        batches.len()
    );
    let words = batches[0].find("\"words\": [").unwrap() + 10;
    let end = words + batches[0][words..].find(']').unwrap();
    let wordless = format!("{}{}", &batches[0][..words], &batches[0][end..]);
    assert!(run(&wordless).unwrap_err().contains("needs 1 words, got 0"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn adversarial_batches_process_or_fail_without_panicking(batch in AnyBatch) {
        let (requests, json) = batch;
        match run(&json) {
            Ok((body, stats)) => {
                prop_assert_eq!(stats.requests, requests);
                prop_assert!(body.starts_with('['));
            }
            Err(message) => prop_assert!(!message.is_empty()),
        }
    }

    #[test]
    fn adversarial_task_sets_parse_or_fail_without_panicking(seed in any::<u32>()) {
        let (n, json) = tasks(&mut TestRng::for_case("task sets", seed), 4);
        match TaskSet::from_json(&json) {
            Ok(set) => prop_assert_eq!(set.len(), n),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
