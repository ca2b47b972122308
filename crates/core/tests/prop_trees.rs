//! Property-style tests for the content-indexed red-black tree against
//! models (a sorted set of keys, and the contents of real pages) and its
//! balance invariants, driven by the in-repo seeded PRNG: each test sweeps
//! many seeds so failures reproduce exactly by seed.

// Tests assert setup preconditions with expect("why"); the crate-level
// expect_used deny targets simulation code, not its test harness.
#![allow(clippy::expect_used)]

use std::cmp::Ordering;
use std::collections::BTreeMap;
use vusion_core::{ContentRbTree, NodeId};
use vusion_mem::FrameId;
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

const SEEDS: u64 = 96;

fn by_id(a: FrameId, b: FrameId) -> Ordering {
    a.0.cmp(&b.0)
}

#[derive(Debug, Clone, Copy)]
enum TreeOp {
    Insert(u64),
    Remove(u64),
    Find(u64),
}

fn ops(rng: &mut StdRng) -> Vec<TreeOp> {
    let n = rng.random_range(1..400usize);
    (0..n)
        .map(|_| {
            let k = rng.random_range(0..200u64);
            match rng.random_range(0..3u8) {
                0 => TreeOp::Insert(k),
                1 => TreeOp::Remove(k),
                _ => TreeOp::Find(k),
            }
        })
        .collect()
}

/// The red-black tree behaves exactly like a sorted map and keeps its
/// invariants through arbitrary operation sequences.
#[test]
fn rbtree_matches_model() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9b7e);
        let mut tree = ContentRbTree::new();
        let mut ids = BTreeMap::new();
        let mut model = std::collections::BTreeSet::new();
        for op in ops(&mut rng) {
            match op {
                TreeOp::Insert(k) => {
                    let (id, inserted) = tree.insert(FrameId(k), k, by_id);
                    assert_eq!(inserted, model.insert(k), "seed {seed}");
                    ids.insert(k, id);
                }
                TreeOp::Remove(k) => {
                    if model.remove(&k) {
                        let id = ids.remove(&k).expect("tracked");
                        assert_eq!(tree.remove(id), k, "seed {seed}");
                    }
                }
                TreeOp::Find(k) => {
                    assert_eq!(
                        tree.find(FrameId(k), by_id).is_some(),
                        model.contains(&k),
                        "seed {seed}"
                    );
                }
            }
            assert_eq!(tree.len(), model.len(), "seed {seed}");
        }
        tree.assert_invariants();
    }
}

/// Keyed by real page bytes, the red-black tree agrees with a model of
/// the contents it holds: an insert is new exactly when no held page has
/// the same bytes, a duplicate returns the holder's node, a search finds
/// the holder of equal bytes, and a remove forgets the content.
#[test]
fn rbtree_matches_content_model() {
    use vusion_mem::{PhysAddr, PhysMemory};
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
        let mut mem = PhysMemory::new(64);
        for f in 0..64u64 {
            // Deliberately create duplicate contents (key % 16).
            mem.write_u64(PhysAddr(f * 4096), f % 16);
        }
        let cmp = |a: FrameId, b: FrameId| mem.compare_pages(a, b);
        let mut tree = ContentRbTree::new();
        // Content key → the frame holding it and its node.
        let mut model: BTreeMap<u64, (FrameId, NodeId)> = BTreeMap::new();
        let n = rng.random_range(1..100usize);
        for _ in 0..n {
            let k = rng.random_range(0..64u64);
            if rng.random_bool(0.25) {
                if let Some((_, node)) = model.remove(&(k % 16)) {
                    tree.remove(node);
                }
            } else {
                let (node, inserted) = tree.insert(FrameId(k), (), cmp);
                match model.get(&(k % 16)) {
                    Some(&(_, held)) => {
                        assert!(!inserted, "seed {seed}: duplicate content inserted");
                        assert_eq!(node, held, "seed {seed}");
                    }
                    None => {
                        assert!(inserted, "seed {seed}: new content not inserted");
                        model.insert(k % 16, (FrameId(k), node));
                    }
                }
            }
            for probe in 0..64u64 {
                assert_eq!(
                    tree.find(FrameId(probe), cmp),
                    model.get(&(probe % 16)).map(|&(_, node)| node),
                    "seed {seed}: search for frame {probe}"
                );
            }
            assert_eq!(tree.len(), model.len(), "seed {seed}");
        }
        for &(frame, node) in model.values() {
            assert_eq!(tree.frame(node), frame, "seed {seed}");
        }
        tree.assert_invariants();
    }
}
