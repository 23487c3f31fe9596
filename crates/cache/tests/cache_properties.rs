//! Property tests for the global cache: read-your-prefetch, quota
//! consistency, dirty-data conservation through drain, and batched
//! write buffering matching the one-region path.

use dualpar_cache::{CacheConfig, GlobalCache, NodeId, OwnerId};
use dualpar_pfs::{FileId, FileRegion};
use dualpar_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn cache() -> GlobalCache {
    GlobalCache::new(CacheConfig {
        chunk_size: 4096,
        num_nodes: 4,
        idle_ttl: SimDuration::from_secs(10),
        node_capacity: u64::MAX,
    })
}

fn cache_with(num_nodes: u32, node_capacity: u64) -> GlobalCache {
    GlobalCache::new(CacheConfig {
        chunk_size: 4096,
        num_nodes,
        idle_ttl: SimDuration::from_secs(10),
        node_capacity,
    })
}

/// Bytes per home node: all that the engine's cache access time reads
/// from a homes list.
fn per_node(homes: &[(NodeId, u64)]) -> std::collections::BTreeMap<NodeId, u64> {
    let mut m = std::collections::BTreeMap::new();
    for &(n, b) in homes {
        *m.entry(n).or_insert(0) += b;
    }
    m
}

/// Assert two caches are indistinguishable through their public state.
fn assert_same(a: &GlobalCache, b: &GlobalCache) {
    assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
    assert_eq!(a.prefetch_ledger(), b.prefetch_ledger());
    assert_eq!(a.dirty_bytes(), b.dirty_bytes());
    assert_eq!(a.total_bytes(), b.total_bytes());
    for o in 0..3 {
        assert_eq!(
            a.usage(OwnerId(o)),
            b.usage(OwnerId(o)),
            "usage of owner {o}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Anything prefetched is readable in full (read-your-prefetch).
    #[test]
    fn read_your_prefetch(regions in proptest::collection::vec((0u64..100_000, 1u64..10_000), 1..40)) {
        let mut c = cache();
        for &(off, len) in &regions {
            c.put_prefetch(OwnerId(1), FileId(1), FileRegion::new(off, len), SimTime::ZERO);
        }
        for &(off, len) in &regions {
            let r = c.read(FileId(1), FileRegion::new(off, len), SimTime::ZERO);
            prop_assert!(r.hit, "prefetched region {off}+{len} must hit");
        }
    }

    /// Total usage across owners equals total present bytes, regardless of
    /// the interleaving of prefetches and writes.
    #[test]
    fn usage_matches_present(
        ops in proptest::collection::vec(
            (0u64..4, 0u64..50_000, 1u64..5_000, any::<bool>()), 1..60)
    ) {
        let mut c = cache();
        for &(owner, off, len, is_write) in &ops {
            let region = FileRegion::new(off, len);
            if is_write {
                c.put_write(OwnerId(owner), FileId(1), region, SimTime::ZERO);
            } else {
                c.put_prefetch(OwnerId(owner), FileId(1), region, SimTime::ZERO);
            }
        }
        let total_usage: u64 = (0..4).map(|o| c.usage(OwnerId(o))).sum();
        prop_assert_eq!(total_usage, c.total_bytes());
    }

    /// Dirty bytes drained equal dirty bytes written (no loss, no
    /// duplication), and the drained regions are sorted and disjoint.
    #[test]
    fn drain_conserves_dirty(
        writes in proptest::collection::vec((0u64..100_000, 1u64..8_000), 1..40)
    ) {
        let mut c = cache();
        let mut expect = dualpar_pfs::RangeSet::new();
        for &(off, len) in &writes {
            c.put_write(OwnerId(1), FileId(1), FileRegion::new(off, len), SimTime::ZERO);
            expect.insert(off, len);
        }
        prop_assert_eq!(c.dirty_bytes(), expect.covered());
        let drained = c.drain_dirty();
        let mut got = dualpar_pfs::RangeSet::new();
        let mut last_end = 0u64;
        for (file, r) in &drained {
            prop_assert_eq!(*file, FileId(1));
            prop_assert!(r.offset >= last_end, "drained regions must be sorted/disjoint");
            last_end = r.end();
            got.insert(r.offset, r.len);
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(c.dirty_bytes(), 0);
    }

    /// Eviction never removes dirty data and usage never goes negative.
    #[test]
    fn eviction_safe(
        ops in proptest::collection::vec((0u64..50_000, 1u64..4_000, any::<bool>()), 1..40),
        evict_at in 0u64..100,
    ) {
        let mut c = cache();
        for (i, &(off, len, is_write)) in ops.iter().enumerate() {
            let t = SimTime::from_secs(i as u64 / 10);
            if is_write {
                c.put_write(OwnerId(1), FileId(1), FileRegion::new(off, len), t);
            } else {
                c.put_prefetch(OwnerId(1), FileId(1), FileRegion::new(off, len), t);
            }
        }
        let dirty_before = c.dirty_bytes();
        c.evict_idle(SimTime::from_secs(evict_at));
        prop_assert_eq!(c.dirty_bytes(), dirty_before, "eviction must not lose dirty data");
        prop_assert!(c.total_bytes() >= c.dirty_bytes());
    }

    /// One `put_writes` per call is indistinguishable from one `put_write`
    /// per region: same stats, ledger, dirty bytes, usage, drained regions
    /// and per-node transfer bytes, with and without capacity evictions.
    /// Calls are strided pieces (BTIO-like, overlapping when the stride is
    /// shorter than a piece) that straddle chunk boundaries, interleaved
    /// with prefetches by several owners.
    #[test]
    fn put_writes_matches_per_region_put_write(
        calls in proptest::collection::vec(
            (any::<bool>(), 0u64..3, 0u64..40_000, 1u64..3_000, 1u64..2_000, 1u64..24), 1..24),
        num_nodes in 2u32..5,
        finite in any::<bool>(),
    ) {
        let capacity = if finite { 3 * 4096 } else { u64::MAX };
        let mut batched = cache_with(num_nodes, capacity);
        let mut single = cache_with(num_nodes, capacity);
        let mut homes = Vec::new();
        for (i, &(is_write, owner, base, stride, len, count)) in calls.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            let owner = OwnerId(owner);
            // Every fifth region is empty, which must change nothing.
            let regions: Vec<FileRegion> = (0..count)
                .map(|k| FileRegion::new(base + k * stride, if k % 5 == 4 { 0 } else { len }))
                .collect();
            if is_write {
                batched.put_writes(owner, FileId(1), &regions, now, &mut homes);
                let mut single_homes = Vec::new();
                for &r in &regions {
                    single_homes.extend(single.put_write(owner, FileId(1), r, now));
                }
                prop_assert_eq!(per_node(&homes), per_node(&single_homes));
            } else {
                for &r in &regions {
                    batched.put_prefetch(owner, FileId(1), r, now);
                    single.put_prefetch(owner, FileId(1), r, now);
                }
            }
            assert_same(&batched, &single);
        }
        batched.assert_conservation();
        single.assert_conservation();
        prop_assert_eq!(batched.drain_dirty(), single.drain_dirty());
        assert_same(&batched, &single);
    }

    /// Mis-prefetch ratio is always within [0, 1].
    #[test]
    fn misprefetch_ratio_bounded(
        prefetches in proptest::collection::vec((0u64..50_000, 1u64..4_000), 1..20),
        reads in proptest::collection::vec((0u64..50_000, 1u64..4_000), 0..20),
    ) {
        let mut c = cache();
        for &(off, len) in &prefetches {
            c.put_prefetch(OwnerId(1), FileId(1), FileRegion::new(off, len), SimTime::ZERO);
        }
        for &(off, len) in &reads {
            c.read(FileId(1), FileRegion::new(off, len), SimTime::ZERO);
        }
        if let Some(ratio) = c.end_prefetch_epoch(OwnerId(1)) {
            prop_assert!((0.0..=1.0).contains(&ratio), "ratio {ratio}");
        }
    }
}
