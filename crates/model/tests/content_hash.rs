//! Content-hash canonicalization: the `cpa-optimize` cache key must be
//! invariant under serialization round trips and task reordering, and
//! must move when any semantic field moves.

use cpa_model::{CacheBlockSet, CoreId, Priority, Task, TaskSet, Time};

fn task(name: &str, prio: u32, core: usize, offset: usize) -> Task {
    Task::builder(name)
        .processing_demand(Time::from_cycles(40 + u64::from(prio)))
        .memory_demand(12)
        .residual_memory_demand(3)
        .period(Time::from_cycles(1_000))
        .deadline(Time::from_cycles(900))
        .core(CoreId::new(core))
        .priority(Priority::new(prio))
        .ecb(CacheBlockSet::contiguous(64, offset, 12))
        .ucb(CacheBlockSet::contiguous(64, offset, 5))
        .pcb(CacheBlockSet::contiguous(64, offset + 5, 4))
        .build()
        .unwrap()
}

fn sample() -> Vec<Task> {
    vec![
        task("fdct", 1, 0, 0),
        task("jfdctint", 2, 1, 10),
        task("crc", 3, 0, 20),
        task("matmult", 4, 1, 40),
    ]
}

#[test]
fn hash_is_invariant_under_task_reordering() {
    let forward = TaskSet::new(sample()).unwrap();
    let mut reversed_tasks = sample();
    reversed_tasks.reverse();
    let reversed = TaskSet::new(reversed_tasks).unwrap();
    let mut shuffled_tasks = sample();
    shuffled_tasks.swap(0, 2);
    shuffled_tasks.swap(1, 3);
    let shuffled = TaskSet::new(shuffled_tasks).unwrap();

    assert_eq!(forward.content_hash(), reversed.content_hash());
    assert_eq!(forward.content_hash(), shuffled.content_hash());
}

#[test]
fn hash_survives_json_round_trips() {
    let original = TaskSet::new(sample()).unwrap();
    let hash = original.content_hash();

    // One round trip, then a round trip of the round trip: any hidden
    // normalization would show up as drift on the second pass.
    let once = TaskSet::from_json(&original.to_json()).unwrap();
    let twice = TaskSet::from_json(&once.to_json()).unwrap();
    assert_eq!(once.content_hash(), hash);
    assert_eq!(twice.content_hash(), hash);
    assert_eq!(once, original);
}

#[test]
fn hash_is_invariant_under_json_array_reordering() {
    let original = TaskSet::new(sample()).unwrap();

    // Reorder the *serialized* array: decode to raw tasks via a reversed
    // rebuild, mimicking a client that emits tasks in its own order.
    let mut tasks: Vec<Task> = original.iter().cloned().collect();
    tasks.rotate_left(2);
    let rotated = TaskSet::new(tasks).unwrap();
    let reparsed = TaskSet::from_json(&rotated.to_json()).unwrap();

    assert_eq!(reparsed.content_hash(), original.content_hash());
}

#[test]
fn hash_moves_with_every_semantic_field() {
    let base = TaskSet::new(sample()).unwrap();
    let base_hash = base.content_hash();

    let variants: Vec<Vec<Task>> = vec![
        // Renamed task.
        {
            let mut v = sample();
            v[0] = task("renamed", 1, 0, 0);
            v
        },
        // Different core assignment.
        {
            let mut v = sample();
            v[1] = task("jfdctint", 2, 0, 10);
            v
        },
        // Different priority level (same relative order).
        {
            let mut v = sample();
            v[3] = task("matmult", 9, 1, 40);
            v
        },
        // Shifted cache footprint (the coloring move).
        {
            let mut v = sample();
            v[2] = task("crc", 3, 0, 21);
            v
        },
    ];
    for (i, tasks) in variants.into_iter().enumerate() {
        let variant = TaskSet::new(tasks).unwrap();
        assert_ne!(
            variant.content_hash(),
            base_hash,
            "variant {i} should change the hash"
        );
    }
}

#[test]
fn hash_composes_into_larger_keys() {
    use cpa_model::ContentHasher;

    let tasks = TaskSet::new(sample()).unwrap();
    let key = |seed: u64| {
        let mut h = ContentHasher::new();
        tasks.hash_content(&mut h);
        h.write_u64(seed);
        h.finish()
    };
    assert_eq!(key(7), key(7));
    assert_ne!(key(7), key(8), "request context must reach the key");
}

/// The hash is an on-disk format: `cpa-optimize` names its result-cache
/// entries by keys built from it, so a change to the encoding would turn
/// every existing cache directory into misses.
#[test]
fn hash_is_pinned() {
    assert_eq!(
        TaskSet::new(sample()).unwrap().content_hash(),
        0xe964_39b0_d6c9_7000
    );
}
