//! A sorted, disjoint set of byte ranges.
//!
//! Used by the global cache to track which bytes of a chunk are present or
//! dirty, and by the CRM to compute holes between requests. Stored as a
//! sorted `Vec<(start, end)>` of half-open intervals, merged on insert,
//! plus a running total of the bytes covered: `covered()` is O(1), and
//! `insert`/`remove` report the bytes they changed so callers keep their
//! own byte ledgers without before/after diffs.

/// Set of disjoint half-open byte intervals `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    runs: Vec<(u64, u64)>,
    /// Sum of `end - start` over `runs`.
    covered: u64,
}

/// One-past-the-end offset of `[start, start+len)`. A range whose end
/// exceeds `u64::MAX` is a caller bug (file offsets are byte positions, so
/// the last representable byte is `u64::MAX - 1`); catch it loudly in debug
/// builds and clamp to `u64::MAX` in release rather than wrapping around to
/// a tiny end and silently corrupting the run list.
#[inline]
fn range_end(start: u64, len: u64) -> u64 {
    debug_assert!(
        start.checked_add(len).is_some(),
        "byte range overflows u64: start={start} len={len}"
    );
    start.saturating_add(len)
}

impl RangeSet {
    /// The empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// A set containing the single interval `[start, start+len)`.
    pub fn from_range(start: u64, len: u64) -> Self {
        let mut s = RangeSet::new();
        s.insert(start, len);
        s
    }

    /// Does the set cover nothing?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of disjoint runs.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total bytes covered.
    #[inline]
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Iterate the disjoint `(start, end)` runs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().copied()
    }

    /// Insert `[start, start+len)`, merging with touching/overlapping runs.
    /// Returns the bytes newly covered.
    pub fn insert(&mut self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut s = start;
        let mut e = range_end(start, len);
        // Find all runs overlapping or touching [s, e).
        let lo = self.runs.partition_point(|&(_, re)| re < s);
        let mut hi = lo;
        let mut merged = 0u64;
        while hi < self.runs.len() && self.runs[hi].0 <= e {
            let (rs, re) = self.runs[hi];
            s = s.min(rs);
            e = e.max(re);
            merged += re - rs;
            hi += 1;
        }
        // `splice` costs measurably more here, on the cache's per-piece
        // write path, than this insert-or-overwrite.
        if hi == lo {
            self.runs.insert(lo, (s, e));
        } else {
            self.runs[lo] = (s, e);
            self.runs.drain(lo + 1..hi);
        }
        let added = (e - s) - merged;
        self.covered += added;
        added
    }

    /// Remove `[start, start+len)` from the set. Returns the bytes removed.
    pub fn remove(&mut self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let s = start;
        let e = range_end(start, len);
        // Runs lo..hi overlap [s, e); only the first and last can survive
        // in part.
        let lo = self.runs.partition_point(|&(_, re)| re <= s);
        let mut hi = lo;
        let mut removed = 0u64;
        while hi < self.runs.len() && self.runs[hi].0 < e {
            let (rs, re) = self.runs[hi];
            removed += re.min(e) - rs.max(s);
            hi += 1;
        }
        if hi == lo {
            return 0;
        }
        let first = self.runs[lo];
        let last = self.runs[hi - 1];
        let head = (first.0 < s).then_some((first.0, s));
        let tail = (last.1 > e).then_some((e, last.1));
        self.runs.splice(lo..hi, head.into_iter().chain(tail));
        self.covered -= removed;
        removed
    }

    /// Does the set fully cover `[start, start+len)`?
    pub fn contains_range(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let e = range_end(start, len);
        let idx = self.runs.partition_point(|&(_, re)| re <= start);
        match self.runs.get(idx) {
            Some(&(rs, re)) => rs <= start && e <= re,
            None => false,
        }
    }

    /// Bytes of `[start, start+len)` covered by the set.
    pub fn intersect_len(&self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let e = range_end(start, len);
        let mut covered = 0;
        let idx = self.runs.partition_point(|&(_, re)| re <= start);
        for &(rs, re) in &self.runs[idx..] {
            if rs >= e {
                break;
            }
            covered += re.min(e) - rs.max(start);
        }
        covered
    }

    /// The gaps of `[start, start+len)` not covered by the set.
    pub fn gaps(&self, start: u64, len: u64) -> Vec<(u64, u64)> {
        let e = range_end(start, len);
        let mut gaps = Vec::new();
        let mut cursor = start;
        let idx = self.runs.partition_point(|&(_, re)| re <= start);
        for &(rs, re) in &self.runs[idx..] {
            if rs >= e {
                break;
            }
            if rs > cursor {
                gaps.push((cursor, rs - cursor));
            }
            cursor = cursor.max(re);
        }
        if cursor < e {
            gaps.push((cursor, e - cursor));
        }
        gaps
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.covered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merges_touching() {
        let mut r = RangeSet::new();
        r.insert(0, 10);
        r.insert(10, 10); // touching
        assert_eq!(r.num_runs(), 1);
        assert_eq!(r.covered(), 20);
        r.insert(30, 5);
        assert_eq!(r.num_runs(), 2);
        r.insert(15, 20); // bridges the gap
        assert_eq!(r.num_runs(), 1);
        assert_eq!(r.covered(), 35);
    }

    #[test]
    fn insert_overlapping_is_idempotent() {
        let mut r = RangeSet::from_range(5, 10);
        r.insert(5, 10);
        r.insert(7, 3);
        assert_eq!(r.covered(), 10);
        assert_eq!(r.num_runs(), 1);
    }

    #[test]
    fn remove_splits_runs() {
        let mut r = RangeSet::from_range(0, 100);
        r.remove(40, 20);
        assert_eq!(r.num_runs(), 2);
        assert_eq!(r.covered(), 80);
        assert!(r.contains_range(0, 40));
        assert!(r.contains_range(60, 40));
        assert!(!r.contains_range(39, 2));
    }

    #[test]
    fn remove_nonexistent_is_noop() {
        let mut r = RangeSet::from_range(0, 10);
        r.remove(50, 10);
        assert_eq!(r.covered(), 10);
    }

    #[test]
    fn contains_range_edges() {
        let r = RangeSet::from_range(10, 10);
        assert!(r.contains_range(10, 10));
        assert!(r.contains_range(15, 5));
        assert!(!r.contains_range(15, 6));
        assert!(!r.contains_range(9, 2));
        assert!(r.contains_range(0, 0)); // empty range trivially contained
    }

    #[test]
    fn intersect_len_partial() {
        let mut r = RangeSet::new();
        r.insert(0, 10);
        r.insert(20, 10);
        assert_eq!(r.intersect_len(5, 20), 10); // 5..10 and 20..25
        assert_eq!(r.intersect_len(10, 10), 0);
        assert_eq!(r.intersect_len(0, 30), 20);
    }

    #[test]
    fn gaps_are_complement() {
        let mut r = RangeSet::new();
        r.insert(10, 10);
        r.insert(30, 10);
        let gaps = r.gaps(0, 50);
        assert_eq!(gaps, vec![(0, 10), (20, 10), (40, 10)]);
        assert_eq!(r.gaps(10, 10), vec![]);
        assert_eq!(r.gaps(12, 5), vec![]);
    }

    #[test]
    fn zero_len_operations() {
        let mut r = RangeSet::new();
        r.insert(5, 0);
        assert!(r.is_empty());
        r.insert(5, 5);
        r.remove(6, 0);
        assert_eq!(r.covered(), 5);
        assert_eq!(r.intersect_len(0, 0), 0);
    }

    #[test]
    fn near_max_ranges_are_exact() {
        // The largest representable range ends exactly at u64::MAX.
        let start = u64::MAX - 100;
        let mut r = RangeSet::from_range(start, 100);
        assert_eq!(r.covered(), 100);
        assert!(r.contains_range(start, 100));
        assert!(r.contains_range(u64::MAX - 1, 1));
        assert_eq!(r.intersect_len(start, 100), 100);
        assert_eq!(r.gaps(start, 100), vec![]);
        r.remove(start + 40, 20);
        assert_eq!(r.covered(), 80);
        assert_eq!(r.gaps(start, 100), vec![(start + 40, 20)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "byte range overflows u64")]
    fn overflowing_range_panics_in_debug() {
        let mut r = RangeSet::new();
        r.insert(u64::MAX - 5, 10);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Ranges pinned near `u64::MAX` whose end still fits in `u64`.
        fn near_max_range() -> impl Strategy<Value = (u64, u64)> {
            (0u64..4096).prop_flat_map(|back| {
                let start = u64::MAX - back;
                (Just(start), 0..=back)
            })
        }

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Insert(u64, u64),
            Remove(u64, u64),
            Clear,
        }

        /// Operations over a 256-byte window, so ranges often overlap,
        /// touch and split one another. Clears are rare (1 in 17), so
        /// sets grow fragmented first.
        fn op() -> impl Strategy<Value = Op> {
            (0u64..17, 0u64..256, 0u64..48).prop_map(|(k, s, l)| match k {
                0..=7 => Op::Insert(s, l),
                8..=15 => Op::Remove(s, l),
                _ => Op::Clear,
            })
        }

        proptest! {
            /// Random insert/remove/clear sequences against a byte-level
            /// model: the running total, the returned deltas and the run
            /// structure must all agree with it after every operation.
            #[test]
            fn matches_byte_model(ops in proptest::collection::vec(op(), 1..64)) {
                let mut r = RangeSet::new();
                let mut model = std::collections::BTreeSet::<u64>::new();
                for op in ops {
                    let before = model.len() as u64;
                    match op {
                        Op::Insert(s, l) => {
                            let added = r.insert(s, l);
                            model.extend(s..s + l);
                            prop_assert_eq!(added, model.len() as u64 - before);
                        }
                        Op::Remove(s, l) => {
                            let removed = r.remove(s, l);
                            model.retain(|&b| b < s || b >= s + l);
                            prop_assert_eq!(removed, before - model.len() as u64);
                        }
                        Op::Clear => {
                            r.clear();
                            model.clear();
                        }
                    }
                    prop_assert_eq!(r.covered(), model.len() as u64);
                    let runs: Vec<(u64, u64)> = r.iter().collect();
                    for &(s, e) in &runs {
                        prop_assert!(s < e, "empty run {:?}", (s, e));
                    }
                    for w in runs.windows(2) {
                        prop_assert!(w[0].1 < w[1].0, "runs overlap or touch: {:?}", w);
                    }
                    let bytes: Vec<u64> = runs.iter().flat_map(|&(s, e)| s..e).collect();
                    let want: Vec<u64> = model.iter().copied().collect();
                    prop_assert_eq!(bytes, want);
                }
            }

            #[test]
            fn single_insert_near_max_round_trips(
                (start, len) in near_max_range()
            ) {
                let r = RangeSet::from_range(start, len);
                prop_assert_eq!(r.covered(), len);
                prop_assert!(r.contains_range(start, len));
                prop_assert_eq!(r.intersect_len(start, len), len);
                prop_assert_eq!(r.gaps(start, len), vec![]);
            }

            #[test]
            fn insert_remove_near_max_is_consistent(
                (s1, l1) in near_max_range(),
                (s2, l2) in near_max_range(),
            ) {
                let mut r = RangeSet::new();
                r.insert(s1, l1);
                r.insert(s2, l2);
                // covered == probe-based count over the union window
                // (bounded: lo >= u64::MAX - 4095, so <= 4096 probes).
                let lo = s1.min(s2);
                let want: u64 = (lo..=u64::MAX)
                    .filter(|&b| {
                        (b >= s1 && b - s1 < l1) || (b >= s2 && b - s2 < l2)
                    })
                    .count() as u64;
                prop_assert_eq!(r.covered(), want);
                r.remove(s2, l2);
                prop_assert_eq!(r.intersect_len(s2, l2), 0);
                // gaps ∪ runs must tile the removed window exactly.
                let gap_total: u64 =
                    r.gaps(s2, l2).iter().map(|&(_, g)| g).sum();
                prop_assert_eq!(gap_total + r.intersect_len(s2, l2), l2);
            }
        }
    }
}
