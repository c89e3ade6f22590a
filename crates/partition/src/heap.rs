//! An indexed max-heap over vertices, for greedy region growing.
//!
//! Each vertex holds at most one slot, keyed by `(key, vertex)`; keys only
//! ever increase. The heap pops the largest `(key, vertex)` pair, so ties
//! on key go to the larger vertex id. A lazy `BinaryHeap<(u64, u32)>` that
//! pushes a fresh entry on every key change (and skips entries whose key is
//! no longer current) pops exactly the same sequence, since its largest
//! *valid* entry is that same maximum; this heap reaches it without the
//! stale entries, one slot per vertex instead of one entry per update.

const ABSENT: u32 = u32::MAX;

pub(crate) struct IndexedMaxHeap {
    /// Heap-ordered vertices.
    heap: Vec<u32>,
    /// `key[v]`, meaningful while `v` is in the heap.
    key: Vec<u64>,
    /// `pos[v]`: index of `v` in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl IndexedMaxHeap {
    /// An empty heap over vertices `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            heap: Vec::new(),
            key: vec![0; n],
            pos: vec![ABSENT; n],
        }
    }

    /// Inserts `v` with `key`, or raises `v`'s key to `key` if present.
    ///
    /// # Panics
    /// Debug builds panic if `key` is below `v`'s current key.
    pub(crate) fn push_or_raise(&mut self, v: u32, key: u64) {
        let i = match self.pos[v as usize] {
            ABSENT => {
                self.heap.push(v);
                self.heap.len() - 1
            }
            i => {
                debug_assert!(key >= self.key[v as usize], "keys only increase");
                i as usize
            }
        };
        self.key[v as usize] = key;
        self.sift_up(i, v);
    }

    /// Removes and returns the vertex with the largest `(key, vertex)`.
    pub(crate) fn pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().unwrap();
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        Some(top)
    }

    #[inline]
    fn above(&self, a: u32, b: u32) -> bool {
        (self.key[a as usize], a) > (self.key[b as usize], b)
    }

    /// Moves `v` up from slot `i` to where it belongs.
    fn sift_up(&mut self, mut i: usize, v: u32) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let u = self.heap[parent];
            if !self.above(v, u) {
                break;
            }
            self.heap[i] = u;
            self.pos[u as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    /// Moves `v` down from slot `i` to where it belongs.
    fn sift_down(&mut self, mut i: usize, v: u32) {
        let len = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.above(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            let u = self.heap[child];
            if !self.above(u, v) {
                break;
            }
            self.heap[i] = u;
            self.pos[u as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_util::qc;
    use pargcn_util::rng::Rng;
    use std::collections::BinaryHeap;

    #[test]
    fn ties_go_to_the_larger_vertex() {
        let mut h = IndexedMaxHeap::new(4);
        for v in [1, 3, 0, 2] {
            h.push_or_raise(v, 5);
        }
        h.push_or_raise(0, 6);
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, vec![0, 3, 2, 1]);
    }

    #[test]
    fn matches_a_lazy_heap_under_interleaved_raises_and_pops() {
        qc::check(|rng| {
            let n = rng.gen_range(1..40usize);
            let mut indexed = IndexedMaxHeap::new(n);
            let mut lazy: BinaryHeap<(u64, u32)> = BinaryHeap::new();
            let mut key = vec![0u64; n];
            let mut queued = vec![false; n];
            for _ in 0..rng.gen_range(0..200usize) {
                if rng.gen_range(0..3u32) == 0 {
                    let expect = loop {
                        match lazy.pop() {
                            Some((k, v)) if queued[v as usize] && k == key[v as usize] => {
                                break Some(v)
                            }
                            Some(_) => continue,
                            None => break None,
                        }
                    };
                    let got = indexed.pop();
                    assert_eq!(got, expect);
                    if let Some(v) = got {
                        queued[v as usize] = false;
                    }
                } else {
                    let v = rng.gen_range(0..n as u32);
                    if !queued[v as usize] {
                        key[v as usize] = 0;
                    }
                    key[v as usize] += rng.gen_range(0..3u64);
                    queued[v as usize] = true;
                    lazy.push((key[v as usize], v));
                    indexed.push_or_raise(v, key[v as usize]);
                }
            }
        });
    }
}
