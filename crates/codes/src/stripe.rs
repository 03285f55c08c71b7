//! Buffer accounting for the chunk-striped encode path.
//!
//! Striping splits a large value into fixed-size chunks that are encoded
//! independently. Per stripe the encoder needs `n2` per-element output
//! buffers and nothing else — it reads the stripe where it lies in the
//! value. [`BufPool`] hands those buffers out and instruments the checkout
//! pattern, so the bounded-peak-allocation property of the striped write
//! path (live buffers ≈ stripe × n2, independent of the value size) is a
//! testable number rather than a comment.
//!
//! Buffers leave the pool in one of two ways: [`BufPool::put`] returns a
//! buffer for reuse (an encode that failed gives its buffers back), while
//! [`BufPool::detach`] records that a buffer's ownership moved elsewhere for
//! good — the per-element outputs become message payloads and never come
//! back. Both settle the buffer's bytes into the live accounting, and the
//! high-water mark over a checkout round is what the instrumentation
//! reports.

/// Checkout statistics of a [`BufPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out by [`BufPool::take`].
    pub taken: u64,
    /// Takes served from the free list (no allocation).
    pub reused: u64,
    /// Buffers returned for reuse via [`BufPool::put`].
    pub returned: u64,
    /// Buffers permanently detached via [`BufPool::detach`].
    pub detached: u64,
    /// Peak bytes simultaneously checked out over any single round (a round
    /// closes when every outstanding buffer has been put back or detached).
    /// For the striped encode this is the `n2` element outputs of one stripe
    /// — the O(stripe × n2) bound.
    pub peak_round_bytes: usize,
}

/// A free-list of byte buffers with checkout instrumentation.
///
/// Not thread-safe by design: each server shard owns its pool, matching the
/// single-threaded automaton execution model.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    stats: PoolStats,
    /// Buffers currently checked out.
    outstanding: usize,
    /// Bytes settled (via put/detach) since the current round opened.
    round_bytes: usize,
}

impl BufPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// Checks a buffer out, reusing a free one when available. The buffer is
    /// empty (cleared) but keeps its previous capacity.
    pub fn take(&mut self) -> Vec<u8> {
        self.stats.taken += 1;
        self.outstanding += 1;
        match self.free.pop() {
            Some(mut buf) => {
                self.stats.reused += 1;
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer for reuse by a later [`BufPool::take`].
    pub fn put(&mut self, buf: Vec<u8>) {
        self.stats.returned += 1;
        self.settle(buf.len());
        self.free.push(buf);
    }

    /// Records that a taken buffer of `len` bytes left the pool permanently
    /// (its ownership moved into a message payload).
    pub fn detach(&mut self, len: usize) {
        self.stats.detached += 1;
        self.settle(len);
    }

    /// The checkout statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Buffers currently sitting on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    fn settle(&mut self, len: usize) {
        debug_assert!(self.outstanding > 0, "settle without a matching take");
        self.round_bytes += len;
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.outstanding == 0 {
            self.stats.peak_round_bytes = self.stats.peak_round_bytes.max(self.round_bytes);
            self.round_bytes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_reuses_capacity() {
        let mut pool = BufPool::new();
        let mut a = pool.take();
        a.extend_from_slice(&[1, 2, 3, 4]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take();
        assert!(b.is_empty(), "reused buffers come back cleared");
        assert!(b.capacity() >= cap, "capacity survives the round trip");
        let s = pool.stats();
        assert_eq!(s.taken, 2);
        assert_eq!(s.reused, 1);
        assert_eq!(s.returned, 1);
    }

    #[test]
    fn peak_tracks_one_round_of_outstanding_bytes() {
        let mut pool = BufPool::new();
        // Round 1: three buffers out at once, 10 + 20 + 30 bytes.
        let mut bufs: Vec<Vec<u8>> = (0..3).map(|_| pool.take()).collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            b.resize((i + 1) * 10, 0);
        }
        let detached_len = bufs[2].len();
        pool.put(bufs.remove(0));
        pool.put(bufs.remove(0));
        pool.detach(detached_len);
        assert_eq!(pool.stats().peak_round_bytes, 60);
        // Round 2 is smaller and must not lower the peak.
        let mut c = pool.take();
        c.resize(5, 0);
        pool.put(c);
        assert_eq!(pool.stats().peak_round_bytes, 60);
        assert_eq!(pool.stats().detached, 1);
        // Two buffers were put back and one detached for good; round 2 took
        // and returned one of the free ones.
        assert_eq!(pool.free_buffers(), 2);
        assert_eq!(pool.stats().reused, 1);
    }
}
