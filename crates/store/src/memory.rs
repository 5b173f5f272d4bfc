//! In-memory object store backend.

use crate::{BlobMeta, BlobPath, BlockId, ObjectStore, Stamp, StoreError, StoreResult};
use bytes::{Bytes, BytesMut};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};

/// Per-blob state: committed content plus the block machinery behind it.
#[derive(Debug, Default)]
struct BlobState {
    /// Concatenation of the committed block list (or the `put` payload).
    committed: Option<Bytes>,
    /// Creation stamp recorded at first write.
    stamp: Stamp,
    /// Blocks that are staged or referenced by the committed list.
    /// Committed blocks are retained so later commits can re-list them
    /// (the "append" pattern); their payloads are windows into
    /// `committed`, not second copies.
    blocks: HashMap<BlockId, Block>,
    /// Currently committed block list, in order.
    committed_list: Vec<BlockId>,
    /// IDs staged since the last commit (discarded if not committed).
    staged: Vec<BlockId>,
    /// Number of successful block-list commits; marks which blocks the
    /// newest list references.
    commits: u64,
}

#[derive(Debug)]
struct Block {
    data: Bytes,
    /// Value of [`BlobState::commits`] at the newest commit that listed
    /// this block (0: staged, never listed).
    listed_in: u64,
}

/// In-memory [`ObjectStore`]. Cheap to clone via `Arc`; all operations are
/// linearizable under an internal `RwLock`.
///
/// This is the default backend for tests and benchmarks: the paper's
/// correctness story never depends on durability, only on the *visibility*
/// semantics of the block-blob protocol, which this backend implements
/// exactly.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blobs: RwLock<BTreeMap<BlobPath, BlobState>>,
}

impl MemoryStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed blobs (staged-only blobs are excluded).
    pub fn committed_count(&self) -> usize {
        self.blobs
            .read()
            .values()
            .filter(|b| b.committed.is_some())
            .count()
    }

    /// Total committed bytes across all blobs.
    pub fn committed_bytes(&self) -> u64 {
        self.blobs
            .read()
            .values()
            .filter_map(|b| b.committed.as_ref().map(|c| c.len() as u64))
            .sum()
    }
}

impl ObjectStore for MemoryStore {
    fn put(&self, path: &BlobPath, data: Bytes, stamp: Stamp) -> StoreResult<()> {
        let mut blobs = self.blobs.write();
        let state = blobs.entry(path.clone()).or_default();
        state.committed = Some(data);
        state.stamp = stamp;
        state.blocks.clear();
        state.committed_list.clear();
        state.staged.clear();
        Ok(())
    }

    fn get(&self, path: &BlobPath) -> StoreResult<Bytes> {
        self.blobs
            .read()
            .get(path)
            .and_then(|b| b.committed.clone())
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })
    }

    fn head(&self, path: &BlobPath) -> StoreResult<BlobMeta> {
        let blobs = self.blobs.read();
        let state = blobs
            .get(path)
            .filter(|b| b.committed.is_some())
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        Ok(BlobMeta {
            path: path.clone(),
            size: state.committed.as_ref().map_or(0, |c| c.len() as u64),
            stamp: state.stamp,
        })
    }

    fn delete(&self, path: &BlobPath) -> StoreResult<()> {
        let mut blobs = self.blobs.write();
        // A blob "exists" for deletion purposes if it has committed content
        // or staged blocks; phantom entries do not count.
        let exists = blobs
            .get(path)
            .is_some_and(|b| b.committed.is_some() || !b.blocks.is_empty());
        if !exists {
            return Err(StoreError::NotFound { path: path.clone() });
        }
        blobs.remove(path);
        Ok(())
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<BlobMeta>> {
        Ok(self
            .blobs
            .read()
            .iter()
            .filter(|(p, b)| p.starts_with(prefix) && b.committed.is_some())
            .map(|(p, b)| BlobMeta {
                path: p.clone(),
                size: b.committed.as_ref().map_or(0, |c| c.len() as u64),
                stamp: b.stamp,
            })
            .collect())
    }

    fn stage_block(
        &self,
        path: &BlobPath,
        block: BlockId,
        data: Bytes,
        stamp: Stamp,
    ) -> StoreResult<()> {
        let mut blobs = self.blobs.write();
        let state = blobs.entry(path.clone()).or_default();
        if state.committed.is_none() {
            state.stamp = stamp;
        }
        // `blocks` holds exactly the staged and listed ids.
        if !state.blocks.contains_key(&block) {
            state.staged.push(block.clone());
        }
        state.blocks.insert(block, Block { data, listed_in: 0 });
        Ok(())
    }

    fn commit_block_list(
        &self,
        path: &BlobPath,
        blocks: &[BlockId],
        stamp: Stamp,
    ) -> StoreResult<()> {
        let mut map = self.blobs.write();
        // Validate first — against the existing state only, so a failed
        // commit neither mutates the blob nor creates a phantom entry.
        {
            let existing = map.get(path);
            for id in blocks {
                let known = existing.is_some_and(|s| s.blocks.contains_key(id));
                if !known {
                    return Err(StoreError::UnknownBlock {
                        path: path.clone(),
                        block: id.clone(),
                    });
                }
            }
        }
        let state = map.entry(path.clone()).or_default();
        let total = blocks.iter().map(|id| state.blocks[id].data.len()).sum();
        let mut content = BytesMut::with_capacity(total);
        for id in blocks {
            content.extend_from_slice(&state.blocks[id].data);
        }
        let content = content.freeze();
        // Each listed block keeps only a window into the committed blob,
        // so the blob's bytes are held once.
        state.commits += 1;
        let mut offset = 0;
        for id in blocks {
            let block = state.blocks.get_mut(id).expect("validated above");
            let end = offset + block.data.len();
            block.data = content.slice(offset..end);
            block.listed_in = state.commits;
            offset = end;
        }
        // Staged or previously listed blocks left out of the new list are
        // discarded (Azure semantics).
        let BlobState {
            blocks: payloads,
            committed_list,
            staged,
            commits,
            ..
        } = state;
        for id in staged.iter().chain(committed_list.iter()) {
            if payloads.get(id).is_some_and(|b| b.listed_in != *commits) {
                payloads.remove(id);
            }
        }
        staged.clear();
        // The append pattern re-lists the old list plus a suffix: keep the
        // shared prefix instead of cloning every id again.
        let shared = committed_list
            .iter()
            .zip(blocks)
            .take_while(|(old, new)| old == new)
            .count();
        committed_list.truncate(shared);
        committed_list.extend_from_slice(&blocks[shared..]);
        if state.committed.is_none() {
            state.stamp = stamp;
        }
        state.committed = Some(content);
        Ok(())
    }

    fn committed_blocks(&self, path: &BlobPath) -> StoreResult<Vec<BlockId>> {
        let blobs = self.blobs.read();
        let state = blobs
            .get(path)
            .filter(|b| b.committed.is_some())
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        Ok(state.committed_list.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trait_tests::conformance;

    #[test]
    fn conforms_to_object_store_semantics() {
        conformance(&MemoryStore::new());
    }

    #[test]
    fn counters_track_committed_state_only() {
        let s = MemoryStore::new();
        let p = BlobPath::new("a/b").unwrap();
        let m = BlobPath::new("a/m").unwrap();
        s.put(&p, Bytes::from_static(b"1234"), Stamp(1)).unwrap();
        s.stage_block(&m, BlockId::new("x"), Bytes::from_static(b"zz"), Stamp(1))
            .unwrap();
        assert_eq!(s.committed_count(), 1);
        assert_eq!(s.committed_bytes(), 4);
        s.commit_block_list(&m, &[BlockId::new("x")], Stamp(1))
            .unwrap();
        assert_eq!(s.committed_count(), 2);
        assert_eq!(s.committed_bytes(), 6);
    }

    #[test]
    fn failed_commit_leaves_blob_untouched() {
        let s = MemoryStore::new();
        let m = BlobPath::new("a/m").unwrap();
        let b1 = BlockId::new("b1");
        s.stage_block(&m, b1.clone(), Bytes::from_static(b"AA"), Stamp(1))
            .unwrap();
        s.commit_block_list(&m, std::slice::from_ref(&b1), Stamp(1))
            .unwrap();
        let err = s
            .commit_block_list(&m, &[b1.clone(), BlockId::new("ghost")], Stamp(1))
            .unwrap_err();
        assert!(matches!(err, StoreError::UnknownBlock { .. }));
        assert_eq!(s.get(&m).unwrap(), Bytes::from_static(b"AA"));
        assert_eq!(s.committed_blocks(&m).unwrap(), vec![b1]);
    }

    #[test]
    fn restaging_a_block_replaces_payload() {
        let s = MemoryStore::new();
        let m = BlobPath::new("a/m").unwrap();
        let b = BlockId::new("b");
        s.stage_block(&m, b.clone(), Bytes::from_static(b"old"), Stamp(1))
            .unwrap();
        s.stage_block(&m, b.clone(), Bytes::from_static(b"new"), Stamp(1))
            .unwrap();
        s.commit_block_list(&m, &[b], Stamp(1)).unwrap();
        assert_eq!(s.get(&m).unwrap(), Bytes::from_static(b"new"));
    }

    #[test]
    fn relisting_holds_the_exact_concatenation_and_drops_unlisted_blocks() {
        let s = MemoryStore::new();
        let m = BlobPath::new("a/log").unwrap();
        let mut list = Vec::new();
        let mut expected = Vec::new();
        for i in 0..200u32 {
            let id = BlockId::new(format!("b{i:03}"));
            let payload = format!("<{i}:{}>", "x".repeat(i as usize % 7));
            s.stage_block(&m, id.clone(), Bytes::from(payload.clone()), Stamp(1))
                .unwrap();
            list.push(id);
            expected.extend_from_slice(payload.as_bytes());
            s.commit_block_list(&m, &list, Stamp(1)).unwrap();
            assert_eq!(s.get(&m).unwrap(), expected);
            assert_eq!(s.committed_blocks(&m).unwrap(), list);
        }
        // A staged block left out of the next list is discarded.
        let ghost = BlockId::new("ghost");
        s.stage_block(&m, ghost.clone(), Bytes::from_static(b"??"), Stamp(1))
            .unwrap();
        s.commit_block_list(&m, &list, Stamp(1)).unwrap();
        assert_eq!(s.get(&m).unwrap(), expected);
        let mut with_ghost = list.clone();
        with_ghost.push(ghost);
        assert!(matches!(
            s.commit_block_list(&m, &with_ghost, Stamp(1)),
            Err(StoreError::UnknownBlock { .. })
        ));
        // A block dropped from the list can no longer be listed.
        let dropped = list.remove(0);
        s.commit_block_list(&m, &list, Stamp(1)).unwrap();
        assert_eq!(s.get(&m).unwrap(), expected[b"<0:>".len()..]);
        assert!(matches!(
            s.commit_block_list(&m, &[dropped], Stamp(1)),
            Err(StoreError::UnknownBlock { .. })
        ));
        assert_eq!(s.committed_blocks(&m).unwrap(), list);
    }

    #[test]
    fn put_clears_block_state() {
        let s = MemoryStore::new();
        let m = BlobPath::new("a/m").unwrap();
        let b = BlockId::new("b");
        s.stage_block(&m, b.clone(), Bytes::from_static(b"x"), Stamp(1))
            .unwrap();
        s.put(&m, Bytes::from_static(b"direct"), Stamp(2)).unwrap();
        assert!(matches!(
            s.commit_block_list(&m, &[b], Stamp(2)),
            Err(StoreError::UnknownBlock { .. })
        ));
        assert!(s.committed_blocks(&m).unwrap().is_empty());
    }
}
