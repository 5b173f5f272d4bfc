//! An [`ObjectStore`] wrapper that times every call into the store layer.

use polaris_store::{BlobMeta, BlobPath, BlockId, Bytes, ObjectStore, Stamp, StoreResult};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Passes every call through to `inner` unchanged and adds up how long the
/// calls took. Concurrent calls each count in full, so `busy_ns` is store
/// time summed over callers, not wall time.
pub struct TimingStore<S> {
    inner: S,
    busy_ns: AtomicU64,
}

impl<S: ObjectStore> TimingStore<S> {
    pub fn new(inner: S) -> Self {
        TimingStore {
            inner,
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Nanoseconds spent in calls since creation.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    fn timed<T>(&self, call: impl FnOnce(&S) -> T) -> T {
        let start = Instant::now();
        let out = call(&self.inner);
        // Relaxed: statistics only, read after the measured threads joined.
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl<S: ObjectStore> ObjectStore for TimingStore<S> {
    fn put(&self, path: &BlobPath, data: Bytes, stamp: Stamp) -> StoreResult<()> {
        self.timed(|s| s.put(path, data, stamp))
    }

    fn get(&self, path: &BlobPath) -> StoreResult<Bytes> {
        self.timed(|s| s.get(path))
    }

    fn get_range(&self, path: &BlobPath, range: Range<u64>) -> StoreResult<Bytes> {
        self.timed(|s| s.get_range(path, range))
    }

    fn head(&self, path: &BlobPath) -> StoreResult<BlobMeta> {
        self.timed(|s| s.head(path))
    }

    fn exists(&self, path: &BlobPath) -> StoreResult<bool> {
        self.timed(|s| s.exists(path))
    }

    fn delete(&self, path: &BlobPath) -> StoreResult<()> {
        self.timed(|s| s.delete(path))
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<BlobMeta>> {
        self.timed(|s| s.list(prefix))
    }

    fn stage_block(
        &self,
        path: &BlobPath,
        block: BlockId,
        data: Bytes,
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.timed(|s| s.stage_block(path, block, data, stamp))
    }

    fn commit_block_list(
        &self,
        path: &BlobPath,
        blocks: &[BlockId],
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.timed(|s| s.commit_block_list(path, blocks, stamp))
    }

    fn committed_blocks(&self, path: &BlobPath) -> StoreResult<Vec<BlockId>> {
        self.timed(|s| s.committed_blocks(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_store::MemoryStore;

    fn path(p: &str) -> BlobPath {
        BlobPath::new(p).expect("valid path")
    }

    /// Runs the same script against a bare store and a wrapped one; every
    /// result, including every error, must be identical.
    #[test]
    fn passes_results_and_errors_through_unchanged() {
        let bare = MemoryStore::new();
        let timed = TimingStore::new(MemoryStore::new());
        let stores: [&dyn ObjectStore; 2] = [&bare, &timed];
        let mut outcomes: Vec<Vec<String>> = Vec::new();
        for store in stores {
            let a = path("t/a");
            let b = path("t/b");
            let missing = path("t/missing");
            let blk = |s: &str| BlockId::new(s);
            let log = vec![
                format!(
                    "{:?}",
                    store.put(&a, Bytes::from_static(b"hello"), Stamp(3))
                ),
                format!("{:?}", store.get(&a)),
                format!("{:?}", store.get_range(&a, 1..4)),
                format!("{:?}", store.get_range(&a, 2..99)),
                format!("{:?}", store.get(&missing)),
                format!("{:?}", store.head(&a)),
                format!("{:?}", store.head(&missing)),
                format!("{:?}", store.exists(&a)),
                format!("{:?}", store.exists(&missing)),
                format!(
                    "{:?}",
                    store.stage_block(&b, blk("1"), Bytes::from_static(b"x"), Stamp(4))
                ),
                format!(
                    "{:?}",
                    store.commit_block_list(&b, &[blk("1"), blk("2")], Stamp(4))
                ),
                format!("{:?}", store.commit_block_list(&b, &[blk("1")], Stamp(4))),
                format!("{:?}", store.committed_blocks(&b)),
                format!("{:?}", store.list("t/")),
                format!("{:?}", store.delete(&a)),
                format!("{:?}", store.delete(&a)),
                format!("{:?}", store.list("t/")),
            ];
            outcomes.push(log);
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert!(
            outcomes[0].iter().any(|o| o.starts_with("Err")),
            "script must hit errors"
        );
        assert!(timed.busy_ns() > 0, "calls are timed");
    }
}
