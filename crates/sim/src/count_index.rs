//! A Fenwick tree of per-slot counts (Fenwick 1994): O(log n) point
//! update, O(1) total, and O(log n) "which slot holds the `k`-th item".
//!
//! Both step loops pick their next action uniformly from a list that is
//! the concatenation of per-slot runs: the engine's enabled moves are the
//! per-process caches in process order, and `SimNet`'s candidate events
//! are the ready queues in queue order followed by the non-dead nodes in
//! id order. Indexing the run lengths lets `find(k)` name exactly the
//! `k`-th element of that list without building it.
//!
//! ```
//! use diners_sim::count_index::CountIndex;
//!
//! let mut idx = CountIndex::new(4);
//! idx.set(0, 2);
//! idx.set(2, 3);
//! assert_eq!(idx.total(), 5);
//! // Items 0..2 live in slot 0, items 2..5 in slot 2 (slot 1 is empty).
//! assert_eq!(idx.find(1), (0, 1));
//! assert_eq!(idx.find(2), (2, 0));
//! assert_eq!(idx.find(4), (2, 2));
//! ```

/// Per-slot counts with prefix-sum search; see the module docs.
#[derive(Clone, Debug)]
pub struct CountIndex {
    /// The count of each slot.
    counts: Vec<usize>,
    /// 1-based Fenwick array: `tree[i]` sums `counts[i - lowbit(i) .. i]`.
    tree: Vec<usize>,
    total: usize,
    /// Largest power of two ≤ `counts.len()` (0 when empty): the first
    /// stride of the descent in [`CountIndex::find`].
    top: usize,
}

impl CountIndex {
    /// An index over `len` slots, every count zero.
    pub fn new(len: usize) -> Self {
        CountIndex {
            counts: vec![0; len],
            tree: vec![0; len + 1],
            total: 0,
            top: if len == 0 { 0 } else { 1 << len.ilog2() },
        }
    }

    /// Sum of all counts.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Set slot `i`'s count to `c`. O(log n); a no-op when unchanged.
    pub fn set(&mut self, i: usize, c: usize) {
        let old = std::mem::replace(&mut self.counts[i], c);
        if old == c {
            return;
        }
        // Two's-complement delta: every partial sum stays non-negative,
        // so wrapping arithmetic lands on the right value either way.
        let delta = c.wrapping_sub(old);
        self.total = self.total.wrapping_add(delta);
        let mut j = i + 1;
        while j < self.tree.len() {
            self.tree[j] = self.tree[j].wrapping_add(delta);
            j += j & j.wrapping_neg();
        }
    }

    /// The slot holding item `k` of the concatenated runs, and `k`'s
    /// offset inside that slot's run: the unique `(slot, offset)` with
    /// `sum(counts[..slot]) + offset == k` and `offset < counts[slot]`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.total()`.
    pub fn find(&self, k: usize) -> (usize, usize) {
        assert!(
            k < self.total,
            "count index: item {k} out of range (total {})",
            self.total
        );
        // Binary descent: `pos` is the longest prefix whose sum is ≤ k.
        let mut pos = 0;
        let mut rem = k;
        let mut stride = self.top;
        while stride > 0 {
            let next = pos + stride;
            if next < self.tree.len() && self.tree[next] <= rem {
                pos = next;
                rem -= self.tree[next];
            }
            stride >>= 1;
        }
        (pos, rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The specification: a linear prefix scan over the counts.
    fn scan(counts: &[usize], k: usize) -> (usize, usize) {
        let mut rem = k;
        for (slot, &c) in counts.iter().enumerate() {
            if rem < c {
                return (slot, rem);
            }
            rem -= c;
        }
        panic!("item {k} out of range");
    }

    fn assert_matches_scan(idx: &CountIndex, counts: &[usize], label: &str) {
        let total: usize = counts.iter().sum();
        assert_eq!(idx.total(), total, "{label}: total");
        for k in 0..total {
            assert_eq!(idx.find(k), scan(counts, k), "{label}: find({k})");
        }
    }

    #[test]
    fn random_updates_agree_with_a_prefix_scan() {
        // Non-powers of two, a power of two, and n = 1, with counts
        // biased toward zero so empty runs sit next to each other.
        for n in [1usize, 2, 3, 5, 7, 8, 13, 64, 100] {
            for seed in 0..8u64 {
                let mut r = crate::rng::rng(crate::rng::subseed(seed, n as u64));
                let mut idx = CountIndex::new(n);
                let mut counts = vec![0usize; n];
                for op in 0..200 {
                    let i = r.gen_range(0..n);
                    let c = if r.gen_bool(0.5) {
                        0
                    } else {
                        r.gen_range(1..6)
                    };
                    idx.set(i, c);
                    counts[i] = c;
                    let label = format!("n={n} seed={seed} op={op}");
                    let total: usize = counts.iter().sum();
                    assert_eq!(idx.total(), total, "{label}: total");
                    if total > 0 {
                        for k in [0, r.gen_range(0..total), total - 1] {
                            assert_eq!(idx.find(k), scan(&counts, k), "{label}: find({k})");
                        }
                    }
                }
                assert_matches_scan(&idx, &counts, &format!("n={n} seed={seed} final"));
            }
        }
    }

    #[test]
    fn single_slot_and_zero_runs() {
        let mut one = CountIndex::new(1);
        assert_eq!(one.total(), 0);
        one.set(0, 3);
        assert_matches_scan(&one, &[3], "n=1");
        assert_eq!(one.find(2), (0, 2), "k = total - 1");

        // Only the last slot of a non-power-of-two index is populated:
        // the descent must skip every empty run in front of it.
        let mut idx = CountIndex::new(11);
        idx.set(10, 2);
        assert_eq!(idx.find(0), (10, 0));
        assert_eq!(idx.find(1), (10, 1));
        // Emptying and refilling a slot restores the old answers.
        idx.set(3, 4);
        assert_eq!(idx.find(4), (10, 0));
        idx.set(3, 0);
        assert_matches_scan(&idx, &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2], "refilled");
        assert_eq!(CountIndex::new(0).total(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn find_past_the_total_panics() {
        let mut idx = CountIndex::new(3);
        idx.set(1, 2);
        idx.find(2);
    }
}
