//! Frame-buffer recycling for the wire hot path.
//!
//! Every protocol message crosses the transport as an encoded frame, and
//! at paper scale (d ≈ 1.75M) each frame is ~7 MiB — allocating (and
//! page-faulting) one per message dominates the serialization cost the
//! paper's §5.3 measures. [`BufPool`] is a small mutexed free-list of
//! `Vec<u8>` scratch buffers: `encode` borrows one, fills it, publishes
//! the bytes as an `Arc<[u8]>`, and returns the scratch — so steady-state
//! rounds re-use the same few warmed buffers instead of hitting the
//! allocator per message.
//!
//! One pool is shared per mesh (both the channel and the TCP plane build
//! one in `mesh()`), sized deliberately small: the number of concurrently
//! live scratch buffers is bounded by the number of node threads encoding
//! at once, and retaining more would only pin memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::Serialize;

/// Retained free-list length. Concurrent encodes per mesh are bounded by
/// the node count actually sending at the same instant, which on the
/// protocol's phase structure is far below this.
const MAX_POOLED: usize = 8;

/// A mutexed free-list of reusable byte buffers.
///
/// The lock is held only for a `Vec` push/pop — nanoseconds against the
/// milliseconds a paper-scale frame spends being encoded — so contention
/// is not a concern even with every node thread sharing one pool.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
    recycled: AtomicU64,
    fresh: AtomicU64,
    outstanding: AtomicU64,
    high_water: AtomicU64,
}

/// A snapshot of a pool's counters, carried by `ClusterReport` and
/// embedded in `SoakReport` JSON so the pooled-frame plane is observable
/// in soak runs and benchmarks, not just unit tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PoolStats {
    /// `get`s that had to allocate a fresh buffer.
    pub fresh: u64,
    /// `get`s served from the free list.
    pub recycled: u64,
    /// Most buffers simultaneously checked out over the pool's lifetime —
    /// the true concurrency of the encode plane (and the upper bound on
    /// memory the pool can ever pin beyond its retention cap).
    pub high_water: u64,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows a cleared buffer: a recycled one when available, a fresh
    /// allocation otherwise. Return it with [`put`](Self::put) when done.
    pub fn get(&self) -> Vec<u8> {
        let buf = match self.free.lock().expect("pool lock").pop() {
            Some(buf) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        let now = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        buf
    }

    /// Returns a buffer to the free list (cleared, capacity kept). Beyond
    /// the retention cap the buffer is simply dropped — the pool bounds
    /// pinned memory, it does not grow with burst size.
    pub fn put(&self, mut buf: Vec<u8>) {
        // Saturating: `put` also accepts buffers the pool never handed out
        // (tests seed capacity this way), which must not wrap the gauge.
        let _ = self
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        buf.clear();
        let mut free = self.free.lock().expect("pool lock");
        if free.len() < MAX_POOLED {
            free.push(buf);
        }
    }

    /// Buffers currently parked on the free list.
    pub fn pooled(&self) -> usize {
        self.free.lock().expect("pool lock").len()
    }

    /// `get`s served from the free list so far.
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// `get`s that had to allocate a fresh buffer.
    pub fn fresh(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Most buffers simultaneously checked out so far.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Snapshot of all counters for report JSON.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.fresh(),
            recycled: self.recycled(),
            high_water: self.high_water(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_reuses_capacity() {
        let pool = BufPool::new();
        let mut buf = pool.get();
        buf.extend_from_slice(&[7u8; 4096]);
        let cap = buf.capacity();
        pool.put(buf);
        let again = pool.get();
        assert_eq!(again.capacity(), cap, "recycled buffer keeps its capacity");
        assert!(again.is_empty(), "recycled buffer comes back cleared");
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.fresh(), 1);
    }

    #[test]
    fn retention_is_capped() {
        let pool = BufPool::new();
        for _ in 0..(MAX_POOLED + 5) {
            pool.put(Vec::with_capacity(16));
        }
        assert_eq!(pool.pooled(), MAX_POOLED);
    }

    #[test]
    fn empty_pool_hands_out_fresh_buffers() {
        let pool = BufPool::new();
        assert_eq!(pool.pooled(), 0);
        let buf = pool.get();
        assert!(buf.is_empty());
        assert_eq!(pool.fresh(), 1);
        assert_eq!(pool.recycled(), 0);
    }

    #[test]
    fn high_water_tracks_peak_concurrent_checkouts() {
        let pool = BufPool::new();
        let a = pool.get();
        let b = pool.get();
        let c = pool.get();
        pool.put(a);
        pool.put(b);
        let _d = pool.get(); // back to 2 outstanding; peak stays 3
        assert_eq!(pool.high_water(), 3);
        pool.put(c);
        let stats = pool.stats();
        assert_eq!(stats.high_water, 3);
        assert_eq!(stats.fresh, 3);
        assert_eq!(stats.recycled, 1);
    }

    #[test]
    fn foreign_puts_never_wrap_the_gauge() {
        let pool = BufPool::new();
        pool.put(Vec::with_capacity(8)); // never checked out
        let _a = pool.get();
        assert_eq!(pool.high_water(), 1, "gauge must not have wrapped");
    }

    #[test]
    fn stats_serialise() {
        let pool = BufPool::new();
        pool.put(pool.get());
        let json = serde_json::to_string(&pool.stats()).unwrap();
        assert!(json.contains("\"high_water\":1"), "unexpected json: {json}");
    }
}
