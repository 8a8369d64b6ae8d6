//! A sharded clock-replacement buffer pool over a [`PageStore`].
//!
//! The disk experiment (§7.8) reconfigures PostgreSQL's buffer pool so the
//! B+-tree fits in memory while heap fetches still pay for page access; our
//! pool exposes the same knob (capacity in pages) plus hit/miss counters so
//! the benchmark harness can report the breakdown.
//!
//! No shard latch is held across a page read: a miss notes its shard's
//! store-write generation, drops the latch, reads the page, and re-takes
//! the latch to install it (see [`BufferPool::read`]). Concurrent misses,
//! even on a one-shard pool, therefore overlap their I/O.
//!
//! The pool is split into independent *shards* — inner pools keyed by
//! `page_id % shards`, each behind its own mutex with its own clock hand.
//! Since misses already read outside the latch, sharding only spreads
//! contention on the hit path (map lookup, copy-out under the latch).
//! [`BufferPool::new`] builds a single-shard pool (fully deterministic
//! replacement, the right default for the small pools the experiments
//! configure); [`BufferPool::new_sharded`] spreads the capacity across N
//! shards.

use super::io::PageStore;
use super::page::{Page, PageId};
use crate::Result;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hit/miss/eviction counters for a buffer pool.
///
/// The counters are shared by all shards (they are lock-free atomics), so
/// [`BufferPool::stats`] always reports pool-wide aggregates no matter how
/// the capacity is sharded.
///
/// A miss is counted once, when the page it read is installed. When two
/// threads miss on the same page at once, the one that finds the page
/// already installed on re-taking the latch counts a hit, so `misses`
/// equals the number of installs from the store; a failed store read
/// counts neither.
#[derive(Debug, Default)]
pub struct PoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PoolStats {
    /// Lookups served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that read their page from the store and installed it.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Pages evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

struct Frame {
    page_id: PageId,
    page: Page,
    referenced: bool,
    dirty: bool,
}

struct PoolInner {
    frames: Vec<Option<Frame>>,
    /// page id → frame index
    map: HashMap<PageId, usize>,
    /// Unoccupied frame indices; popping one is O(1), replacing the linear
    /// scan a fill used to pay per install.
    free: Vec<usize>,
    clock_hand: usize,
    /// Store writes issued under this shard's latch (dirty write-backs on
    /// eviction, [`BufferPool::flush`]). A miss that read its page outside
    /// the latch installs the copy only if this has not moved meanwhile.
    store_writes: u64,
}

impl PoolInner {
    fn with_capacity(capacity: usize) -> Self {
        PoolInner {
            frames: (0..capacity).map(|_| None).collect(),
            map: HashMap::with_capacity(capacity),
            // Reverse order so frames are handed out 0, 1, 2, … — the same
            // fill order the old linear scan produced.
            free: (0..capacity).rev().collect(),
            clock_hand: 0,
            store_writes: 0,
        }
    }
}

/// Sharded clock-replacement buffer pool.
pub struct BufferPool {
    store: Arc<dyn PageStore>,
    shards: Vec<Mutex<PoolInner>>,
    capacity: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// Single-shard pool holding at most `capacity` pages over `store`.
    pub fn new(store: Arc<dyn PageStore>, capacity: usize) -> Self {
        Self::new_sharded(store, capacity, 1)
    }

    /// Pool of `capacity` pages split across `shards` independent clock
    /// pools (shard of a page = `page_id % shards`). Capacity is distributed
    /// as evenly as possible; every shard gets at least one frame, so
    /// `capacity >= shards` is required.
    pub fn new_sharded(store: Arc<dyn PageStore>, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(shards > 0, "buffer pool needs at least one shard");
        assert!(capacity >= shards, "each shard needs at least one frame ({capacity} < {shards})");
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards = (0..shards)
            .map(|i| Mutex::new(PoolInner::with_capacity(base + usize::from(i < extra))))
            .collect();
        BufferPool { store, shards, capacity, stats: PoolStats::default() }
    }

    /// Pool capacity in pages (summed across shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of independent shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hit/miss counters, aggregated across all shards.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    #[inline]
    fn shard(&self, id: PageId) -> &Mutex<PoolInner> {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Allocate a fresh page in the store and install an empty page image in
    /// the pool.
    pub fn allocate(&self, record_width: u16) -> Result<PageId> {
        let id = self.store.allocate();
        let page = Page::new(record_width);
        // Persist immediately so a later miss can re-read it.
        self.store.write(id, &page)?;
        let mut inner = self.shard(id).lock();
        self.install(&mut inner, id, page)?;
        Ok(id)
    }

    /// Read a page through the pool, copying the result out.
    ///
    /// A copying API (rather than returning guards) keeps the pool trivially
    /// deadlock-free; the per-fetch copy is the same order of magnitude as
    /// the page-miss cost we are modeling and is charged to both hits and
    /// misses uniformly. Batch callers amortize the lock + map lookup by
    /// extracting many values under one `f`.
    ///
    /// On a miss the shard latch is not held across the store read, so
    /// threads missing on different pages read in parallel; `f` itself runs
    /// under the latch.
    pub fn read<T>(&self, id: PageId, f: impl FnOnce(&Page) -> T) -> Result<T> {
        let (mut inner, idx) = self.resident(id)?;
        let frame = inner.frames[idx].as_mut().expect("resident frame exists");
        frame.referenced = true;
        Ok(f(&frame.page))
    }

    /// Mutate a page through the pool; the frame is marked dirty and written
    /// back on eviction or [`flush`](Self::flush). A miss reads outside the
    /// latch, as in [`read`](Self::read).
    pub fn write<T>(&self, id: PageId, f: impl FnOnce(&mut Page) -> T) -> Result<T> {
        let (mut inner, idx) = self.resident(id)?;
        let frame = inner.frames[idx].as_mut().expect("resident frame exists");
        frame.referenced = true;
        frame.dirty = true;
        Ok(f(&mut frame.page))
    }

    /// The latched shard of `id` and the frame `id` occupies in it, read
    /// from the store on a miss.
    ///
    /// The store read runs with the latch released. On re-taking it, a
    /// frame another thread installed meanwhile wins, and this lookup counts
    /// a hit. Otherwise the copy is installed only if the shard issued no
    /// store write in between: a write-back of this page during the read
    /// could have left the copy stale or torn, so the page is read once
    /// more, under the latch.
    fn resident(&self, id: PageId) -> Result<(MutexGuard<'_, PoolInner>, usize)> {
        let shard = self.shard(id);
        let inner = shard.lock();
        if let Some(&idx) = inner.map.get(&id) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((inner, idx));
        }
        let generation = inner.store_writes;
        drop(inner);
        let copy = self.store.read(id);
        let mut inner = shard.lock();
        if let Some(&idx) = inner.map.get(&id) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((inner, idx));
        }
        let page = if inner.store_writes == generation { copy? } else { self.store.read(id)? };
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let idx = self.install(&mut inner, id, page)?;
        Ok((inner, idx))
    }

    /// Write all dirty frames back to the store and [`PageStore::sync`] it,
    /// so a completed flush is an actual durability point (previously the
    /// written pages could still sit in the OS page cache at a crash).
    pub fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            let inner = &mut *shard.lock();
            for frame in inner.frames.iter_mut().flatten() {
                if frame.dirty {
                    inner.store_writes += 1;
                    self.store.write(frame.page_id, &frame.page)?;
                    frame.dirty = false;
                }
            }
        }
        self.store.sync()
    }

    /// Drop every cached frame (writing dirty ones back). Used by benchmarks
    /// to start from a cold cache.
    pub fn clear(&self) -> Result<()> {
        self.flush()?;
        for shard in &self.shards {
            let mut inner = shard.lock();
            let capacity = inner.frames.len();
            for frame in inner.frames.iter_mut() {
                *frame = None;
            }
            inner.map.clear();
            inner.free.clear();
            inner.free.extend((0..capacity).rev());
            inner.clock_hand = 0;
        }
        Ok(())
    }

    /// Install `page` into a frame of `inner`, evicting via the clock
    /// algorithm if necessary. Returns the frame index.
    fn install(&self, inner: &mut PoolInner, id: PageId, page: Page) -> Result<usize> {
        // Fast path: a free frame off the stack.
        if let Some(idx) = inner.free.pop() {
            inner.frames[idx] = Some(Frame { page_id: id, page, referenced: true, dirty: false });
            inner.map.insert(id, idx);
            return Ok(idx);
        }
        // Clock sweep: clear reference bits until a victim is found. Bounded
        // by two full sweeps.
        let cap = inner.frames.len();
        for _ in 0..2 * cap {
            let idx = inner.clock_hand;
            inner.clock_hand = (inner.clock_hand + 1) % cap;
            let frame = inner.frames[idx].as_mut().expect("no free frames at this point");
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            // Victim found.
            if frame.dirty {
                inner.store_writes += 1;
                self.store.write(frame.page_id, &frame.page)?;
            }
            inner.map.remove(&frame.page_id);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            inner.frames[idx] = Some(Frame { page_id: id, page, referenced: true, dirty: false });
            inner.map.insert(id, idx);
            return Ok(idx);
        }
        unreachable!("clock sweep always finds a victim within two sweeps");
    }
}

/// Dropping the pool flushes dirty frames back to the store, best-effort.
///
/// Without this, every dirty frame still resident at drop was silently
/// discarded — on a file-backed store the rows were simply gone after
/// reopen. Errors are swallowed (there is nowhere to report them from a
/// destructor); paths that need guaranteed durability call
/// [`flush`](BufferPool::flush) explicitly and check the result.
impl Drop for BufferPool {
    fn drop(&mut self) {
        // hermit-lint: allow(error-swallow) destructors have nowhere to report; durable paths call flush() explicitly and check it (see the impl docs)
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::io::{IoStats, SimulatedPageStore};
    use std::sync::atomic::AtomicBool;
    use std::sync::Condvar;
    use std::time::Duration;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Arc::new(SimulatedPageStore::new()), cap)
    }

    fn sharded(cap: usize, shards: usize) -> BufferPool {
        BufferPool::new_sharded(Arc::new(SimulatedPageStore::new()), cap, shards)
    }

    /// A [`SimulatedPageStore`] that calls `after_read` once a read has
    /// fetched its bytes and before it returns them, so a test can hold a
    /// reader inside `PageStore::read`.
    struct HookStore<H> {
        inner: SimulatedPageStore,
        after_read: H,
    }

    impl<H: Fn() + Send + Sync> PageStore for HookStore<H> {
        fn allocate(&self) -> PageId {
            self.inner.allocate()
        }

        fn read(&self, id: PageId) -> Result<Page> {
            let page = self.inner.read(id)?;
            (self.after_read)();
            Ok(page)
        }

        fn write(&self, id: PageId, page: &Page) -> Result<()> {
            self.inner.write(id, page)
        }

        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }

        fn stats(&self) -> &IoStats {
            self.inner.stats()
        }
    }

    fn hooked(cap: usize, after_read: impl Fn() + Send + Sync + 'static) -> BufferPool {
        BufferPool::new(Arc::new(HookStore { inner: SimulatedPageStore::new(), after_read }), cap)
    }

    /// A one-shot flag that a waiter gives up on after five seconds, so a
    /// pool that serializes its misses fails the tests below instead of
    /// hanging them.
    #[derive(Default)]
    struct Flag(std::sync::Mutex<bool>, Condvar);

    impl Flag {
        fn set(&self) {
            *self.0.lock().unwrap() = true;
            self.1.notify_all();
        }

        fn wait(&self) {
            let set = self.0.lock().unwrap();
            let _ = self.1.wait_timeout_while(set, Duration::from_secs(5), |set| !*set).unwrap();
        }
    }

    /// A pool whose next store read, once armed, parks after fetching its
    /// bytes: it sets `fetched`, then waits for `released`.
    struct Parking {
        pool: BufferPool,
        armed: Arc<AtomicBool>,
        fetched: Arc<Flag>,
        released: Arc<Flag>,
    }

    impl Parking {
        fn new(cap: usize) -> Self {
            let armed = Arc::new(AtomicBool::new(false));
            let fetched = Arc::new(Flag::default());
            let released = Arc::new(Flag::default());
            let (a, f, r) = (armed.clone(), fetched.clone(), released.clone());
            let pool = hooked(cap, move || {
                if a.swap(false, Ordering::SeqCst) {
                    f.set();
                    r.wait();
                }
            });
            Parking { pool, armed, fetched, released }
        }

        fn arm(&self) {
            self.armed.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn read_through_and_hit() {
        let p = pool(4);
        let id = p.allocate(8).unwrap();
        p.write(id, |page| page.insert(&7u64.to_le_bytes()).unwrap()).unwrap();
        let v = p
            .read(id, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap()))
            .unwrap();
        assert_eq!(v, 7);
        // allocate() installs the page, so both accesses were hits.
        assert_eq!(p.stats().misses(), 0);
        assert!(p.stats().hits() >= 2);
    }

    #[test]
    fn eviction_and_writeback() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate(8).unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, |page| page.insert(&(i as u64).to_le_bytes()).unwrap()).unwrap();
        }
        // Pool holds 2 of 4 pages; reading them all forces misses + evictions.
        for (i, &id) in ids.iter().enumerate() {
            let v = p
                .read(id, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap()))
                .unwrap();
            assert_eq!(v, i as u64, "page {id} lost its dirty data across eviction");
        }
        assert!(p.stats().evictions() > 0);
        assert!(p.stats().misses() > 0);
    }

    #[test]
    fn flush_persists_dirty_pages() {
        let store = Arc::new(SimulatedPageStore::new());
        let p = BufferPool::new(store.clone(), 2);
        let id = p.allocate(8).unwrap();
        p.write(id, |page| page.insert(&99u64.to_le_bytes()).unwrap()).unwrap();
        p.flush().unwrap();
        // Bypass the pool: the store must have the data.
        let raw = store.read(id).unwrap();
        assert_eq!(raw.get(0).unwrap(), &99u64.to_le_bytes());
    }

    #[test]
    fn dropped_pool_flushes_dirty_frames_to_the_store() {
        use crate::paged::io::FilePageStore;
        let dir = std::env::temp_dir().join(format!("hermit-pool-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let id = {
            let store = Arc::new(FilePageStore::create(&path).unwrap());
            let p = BufferPool::new(store, 4);
            let id = p.allocate(8).unwrap();
            p.write(id, |page| page.insert(&4_2u64.to_le_bytes()).unwrap()).unwrap();
            id
            // Pool dropped here with the frame still dirty — the Drop impl
            // must write it back (the old behavior lost the row entirely).
        };
        let store = FilePageStore::open(&path).unwrap();
        let page = store.read(id).unwrap();
        assert_eq!(
            page.get(0).unwrap(),
            &4_2u64.to_le_bytes(),
            "dirty frame dropped on the floor: row did not survive pool drop + reopen"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_cools_the_cache() {
        let p = pool(4);
        let id = p.allocate(8).unwrap();
        p.write(id, |page| page.insert(&1u64.to_le_bytes()).unwrap()).unwrap();
        p.clear().unwrap();
        p.stats().reset();
        p.read(id, |_| ()).unwrap();
        assert_eq!(p.stats().misses(), 1, "read after clear must miss");
    }

    #[test]
    fn capacity_one_pool_works() {
        let p = pool(1);
        let a = p.allocate(8).unwrap();
        let b = p.allocate(8).unwrap();
        p.write(a, |page| page.insert(&1u64.to_le_bytes()).unwrap()).unwrap();
        p.write(b, |page| page.insert(&2u64.to_le_bytes()).unwrap()).unwrap();
        let va =
            p.read(a, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap())).unwrap();
        let vb =
            p.read(b, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap())).unwrap();
        assert_eq!((va, vb), (1, 2));
    }

    #[test]
    fn sharded_pool_distributes_capacity() {
        let p = sharded(10, 4);
        assert_eq!(p.capacity(), 10);
        assert_eq!(p.shard_count(), 4);
        // 10 frames over 4 shards → 3 + 3 + 2 + 2.
        let sizes: Vec<usize> = p.shards.iter().map(|s| s.lock().frames.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }

    #[test]
    fn sharded_pool_roundtrips_across_shards() {
        let p = sharded(8, 4);
        let ids: Vec<PageId> = (0..16).map(|_| p.allocate(8).unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, |page| page.insert(&(i as u64).to_le_bytes()).unwrap()).unwrap();
        }
        // Each shard holds 2 frames for 4 resident pages → forced evictions
        // inside every shard; data must survive the churn.
        for (i, &id) in ids.iter().enumerate() {
            let v = p
                .read(id, |page| u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap()))
                .unwrap();
            assert_eq!(v, i as u64, "page {id} lost data across sharded eviction");
        }
        assert!(p.stats().evictions() > 0);
    }

    #[test]
    fn sharded_stats_aggregate_across_shards() {
        let p = sharded(4, 4);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate(8).unwrap()).collect();
        p.stats().reset();
        // One read per page; pages 0..4 land in 4 distinct shards, and every
        // hit must show up in the shared counters.
        for &id in &ids {
            p.read(id, |_| ()).unwrap();
        }
        assert_eq!(p.stats().hits(), 4);
        assert_eq!(p.stats().misses(), 0);
        p.clear().unwrap();
        p.stats().reset();
        for &id in &ids {
            p.read(id, |_| ()).unwrap();
        }
        assert_eq!(p.stats().misses(), 4, "cold reads in every shard must all be counted");
    }

    #[test]
    fn clock_victim_rotation_single_shard() {
        // Capacity 3 with pages a,b,c resident, all reference bits set by
        // their installs. Installing d sweeps the clock: one full rotation
        // clears every bit, the hand wraps to frame 0 and evicts a. The
        // next install (e) resumes from frame 1 and evicts b — rotation, not
        // restart-from-zero.
        let p = pool(3);
        let a = p.allocate(8).unwrap();
        let b = p.allocate(8).unwrap();
        let c = p.allocate(8).unwrap();
        let d = p.allocate(8).unwrap();
        let e = p.allocate(8).unwrap();
        assert_eq!(p.stats().evictions(), 2);
        // Survivors c (bit cleared by d's sweep), d, and e are resident.
        p.stats().reset();
        for id in [c, d, e] {
            p.read(id, |_| ()).unwrap();
        }
        assert_eq!(p.stats().hits(), 3, "c/d/e must have survived the rotation");
        assert_eq!(p.stats().misses(), 0);
        // The rotation's victims were a then b.
        p.stats().reset();
        p.read(a, |_| ()).unwrap();
        p.read(b, |_| ()).unwrap();
        assert_eq!(p.stats().misses(), 2, "a and b must have been the clock victims");
    }

    #[test]
    fn free_list_fills_before_evicting() {
        let p = pool(4);
        for _ in 0..4 {
            p.allocate(8).unwrap();
        }
        assert_eq!(p.stats().evictions(), 0, "fills must use free frames, not evict");
        p.allocate(8).unwrap();
        assert_eq!(p.stats().evictions(), 1, "fifth install into 4 frames must evict");
    }

    #[test]
    #[should_panic(expected = "each shard needs at least one frame")]
    fn rejects_more_shards_than_frames() {
        let _ = sharded(2, 4);
    }

    #[test]
    fn concurrent_sharded_reads() {
        let p = std::sync::Arc::new(sharded(16, 4));
        let ids: Vec<PageId> = (0..32).map(|_| p.allocate(8).unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, |page| page.insert(&(i as u64).to_le_bytes()).unwrap()).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = &p;
                let ids = &ids;
                s.spawn(move || {
                    for round in 0..50 {
                        for (i, &id) in ids.iter().enumerate().skip(t % 2).step_by(2) {
                            let v = p
                                .read(id, |page| {
                                    u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap())
                                })
                                .unwrap();
                            assert_eq!(v, i as u64, "thread {t} round {round}");
                        }
                    }
                });
            }
        });
        // 32 pages through 16 frames: plenty of concurrent churn.
        assert!(p.stats().evictions() > 0);
    }

    #[test]
    fn stale_read_after_concurrent_write_back_is_discarded() {
        // Capacity 1. The first read of x parks after fetching x's bytes.
        // Meanwhile the main thread installs x, appends a record and evicts
        // x dirty, so the store now holds a newer image than the parked
        // copy. The parked reader must not install its copy.
        let t = Parking::new(1);
        let p = &t.pool;
        let x = p.allocate(8).unwrap();
        p.write(x, |page| page.insert(&1u64.to_le_bytes()).unwrap()).unwrap();
        let y = p.allocate(8).unwrap(); // evicts x: the store holds one record
        t.arm();
        std::thread::scope(|s| {
            let parked = s.spawn(|| p.read(x, |page| page.count()).unwrap());
            t.fetched.wait();
            p.write(x, |page| page.insert(&2u64.to_le_bytes()).unwrap()).unwrap();
            p.read(y, |_| ()).unwrap(); // evicts x dirty: a store write
            t.released.set();
            assert_eq!(parked.join().unwrap(), 2, "parked reader returned its stale copy");
        });
        assert_eq!(p.read(x, |page| page.count()).unwrap(), 2, "stale copy left resident");
    }

    #[test]
    fn a_miss_that_loses_the_install_race_counts_a_hit() {
        // The first read of x parks after fetching; the main thread then
        // misses on x and installs it. The parked reader finds x resident
        // and uses that frame: one miss and one hit, two store reads.
        let t = Parking::new(2);
        let p = &t.pool;
        let x = p.allocate(8).unwrap();
        p.clear().unwrap();
        p.stats().reset();
        t.arm();
        std::thread::scope(|s| {
            let parked = s.spawn(|| p.read(x, |_| ()).unwrap());
            t.fetched.wait();
            p.read(x, |_| ()).unwrap();
            t.released.set();
            parked.join().unwrap();
        });
        assert_eq!((p.stats().misses(), p.stats().hits()), (1, 1));
        assert_eq!(p.store().stats().reads(), 2);
    }

    #[test]
    fn misses_on_one_shard_overlap_their_store_reads() {
        // Each store read waits, bounded, until the other thread is inside
        // `PageStore::read` too. A latch held across the read would keep
        // the second thread out: the first times out and the test fails
        // instead of hanging.
        let met = Arc::new((std::sync::Mutex::new((0usize, false)), Condvar::new()));
        let p = {
            let met = met.clone();
            hooked(2, move || {
                let (lock, cv) = &*met;
                let mut state = lock.lock().unwrap();
                state.0 += 1;
                if state.0 == 2 {
                    state.1 = true;
                    cv.notify_all();
                }
                let (mut state, _) =
                    cv.wait_timeout_while(state, Duration::from_secs(5), |s| !s.1).unwrap();
                state.0 -= 1;
            })
        };
        assert_eq!(p.shard_count(), 1);
        let (a, b) = (p.allocate(8).unwrap(), p.allocate(8).unwrap());
        p.clear().unwrap();
        std::thread::scope(|s| {
            for id in [a, b] {
                let p = &p;
                s.spawn(move || p.read(id, |_| ()).unwrap());
            }
        });
        assert!(met.0.lock().unwrap().1, "two misses on one shard never overlapped in the store");
        assert_eq!(p.stats().misses(), 2);
    }
}
