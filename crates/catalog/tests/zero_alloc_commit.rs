//! The tentpole assertion: after warmup, the catalog-only commit hot
//! path — begin, buffered write, validate, sequence, install, publish,
//! vacuum — runs with ZERO allocations per commit. Pooled transaction
//! scratch (write-set vector, read set, footprint buffer), inline shard
//! guards and the drain-in-place installer together mean a warm store
//! touches the allocator not at all.
//!
//! Runs only with `--features track-alloc` (the tracking global
//! allocator); without it the file compiles to nothing.
#![cfg(feature = "track-alloc")]

use polaris_catalog::{IsolationLevel, MvccStore};

/// Commits-per-measurement window, comfortably past any amortized
/// doubling a cold structure might still do.
const WARMUP: usize = 64;
const MEASURED: usize = 256;

fn commit_loop(s: &MvccStore<u64, u64>, n: usize) {
    for i in 0..n {
        let mut t = s.begin(IsolationLevel::Snapshot);
        s.write(&mut t, 7, i as u64).expect("write");
        s.commit(&mut t).expect("commit");
        // Keep the version chain bounded so installs never grow it.
        s.vacuum(s.now());
    }
}

#[test]
fn catalog_commit_path_is_allocation_free_after_warmup() {
    let s: MvccStore<u64, u64> = MvccStore::new();
    commit_loop(&s, WARMUP);
    let (allocs_before, frees_before) = polaris_obs::alloc::thread_counts();
    commit_loop(&s, MEASURED);
    let (allocs_after, frees_after) = polaris_obs::alloc::thread_counts();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "warm catalog commit path allocated ({} allocs / {} frees over {MEASURED} commits)",
        allocs_after - allocs_before,
        frees_after - frees_before,
    );
    assert_eq!(frees_after - frees_before, 0, "warm path freed memory");
}

#[test]
fn serializable_commit_path_is_allocation_free_after_warmup() {
    // Same discipline with a tracked read set: the pooled HashSet keeps
    // its capacity, so Serializable reads don't allocate once warm.
    let s: MvccStore<u64, u64> = MvccStore::new();
    let run = |n: usize| {
        for i in 0..n {
            let mut t = s.begin(IsolationLevel::Serializable);
            let _ = s.read(&mut t, &7).expect("read");
            s.write(&mut t, 7, i as u64).expect("write");
            s.commit(&mut t).expect("commit");
            s.vacuum(s.now());
        }
    };
    run(WARMUP);
    let (allocs_before, _) = polaris_obs::alloc::thread_counts();
    run(MEASURED);
    let (allocs_after, _) = polaris_obs::alloc::thread_counts();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "warm Serializable commit path allocated",
    );
}

#[test]
fn batched_commit_path_is_allocation_free_after_warmup() {
    // Four writers on disjoint keys behind a commit-log hook that holds
    // the sequencer for ~200 µs: committers queue behind it and drain in
    // shared batches, so this measures the batched path — queue entry,
    // outcome slot, per-batch descriptor and records — not a lone drain.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    const WORKERS: usize = 4;
    let s: Arc<MvccStore<u64, u64>> = Arc::new(MvccStore::new());
    // While armed, the hook parks until every worker has queued, so the
    // next drain carries all of them: each shared buffer reaches its
    // worst-case size during warmup rather than inside a measured window.
    let armed = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicBool::new(false));
    {
        let (armed, parked) = (Arc::clone(&armed), Arc::clone(&parked));
        let store = Arc::downgrade(&s);
        s.set_commit_log(Some(Arc::new(move |_batch, _records| {
            if armed.swap(false, Ordering::SeqCst) {
                parked.store(true, Ordering::SeqCst);
                let store = store.upgrade().expect("store outlives its hook");
                let deadline = Instant::now() + Duration::from_secs(10);
                while store.group_queue_depth() < WORKERS {
                    assert!(Instant::now() < deadline, "workers never queued");
                    std::thread::yield_now();
                }
            }
            // Allocation-free hold: spin rather than sleep.
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(200) {
                std::hint::spin_loop();
            }
            Ok(())
        })));
    }
    let barrier = Arc::new(Barrier::new(WORKERS + 1));
    let commit = |s: &MvccStore<u64, u64>, key: u64, n: usize| {
        for i in 0..n {
            let mut t = s.begin(IsolationLevel::Snapshot);
            s.write(&mut t, key, i as u64).expect("write");
            s.commit(&mut t).expect("disjoint commit");
            s.vacuum(s.now());
        }
    };
    let workers: Vec<_> = (0..WORKERS as u64)
        .map(|key| {
            let (s, barrier, parked) = (Arc::clone(&s), Arc::clone(&barrier), Arc::clone(&parked));
            std::thread::spawn(move || {
                commit(&s, key, WARMUP);
                // The forced full batch: queue once behind the parked hook.
                barrier.wait();
                while !parked.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                commit(&s, key, 1);
                // Let the main thread snapshot the batch histogram between
                // the forced batch and the measured windows.
                barrier.wait();
                barrier.wait();
                let (allocs_before, _) = polaris_obs::alloc::thread_counts();
                commit(&s, key, MEASURED);
                let (allocs_after, _) = polaris_obs::alloc::thread_counts();
                assert_eq!(
                    allocs_after - allocs_before,
                    0,
                    "warm batched commit path allocated on worker {key}"
                );
            })
        })
        .collect();
    barrier.wait();
    armed.store(true, Ordering::SeqCst);
    commit(&s, WORKERS as u64, 1);
    barrier.wait();
    let batches = &s.meter().group_batch_size;
    let (count_before, sum_before) = (batches.count(), batches.sum_ns());
    barrier.wait();
    for w in workers {
        w.join().expect("worker");
    }
    let (count, sum) = (
        batches.count() - count_before,
        batches.sum_ns() - sum_before,
    );
    assert_eq!(sum, (WORKERS * MEASURED) as u64);
    assert!(
        sum > count,
        "some measured batch must carry more than one commit ({sum} commits in {count} batches)"
    );
}
