//! Deterministic intra-party data parallelism.
//!
//! The paper's cost model is dominated by per-element symmetric-key work —
//! OPRF evaluations, per-bin polynomial hints, garbled AND gates — all
//! independent across elements, bins, and circuit levels. This crate
//! provides the one worker pool every hot path shares, built directly on
//! `std::thread::scope` (no dependencies), with a contract the MPC layers
//! rely on:
//!
//! **Determinism.** Work is partitioned *statically* by public sizes only
//! (contiguous index ranges), and every parallel stage writes into
//! pre-allocated output slots in canonical order. Nothing observable —
//! protocol transcripts in particular — may depend on the thread count or
//! on scheduling. The helpers here make that the path of least resistance:
//! [`Pool::map`] preserves input order exactly,
//! [`Pool::chunks_mut`]/[`Pool::zip_chunks_mut`] hand each worker disjoint
//! contiguous slices of a caller-owned buffer.
//!
//! **Secret independence.** Partition boundaries derive from lengths
//! (public in every calling protocol), never from data values, so the
//! thread schedule leaks nothing an observer of the public sizes could not
//! already compute.
//!
//! Thread count: [`set_threads`] (programmatic override) takes precedence
//! over the `SECYAN_THREADS` environment variable, which takes precedence
//! over [`std::thread::available_parallelism`]. At one thread everything
//! runs inline on the caller — no spawns, no synchronization, identical
//! results.
//!
//! A pool is *scoped*: [`with_pool`] spawns workers once and the closure
//! may dispatch many parallel sections through them (tiled garbling
//! dispatches once per circuit segment), amortizing spawn cost.

use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Programmatic thread-count override; 0 = no override.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `SECYAN_THREADS` value; 0 = unset or unparsable.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Set the worker count programmatically (takes precedence over the
/// `SECYAN_THREADS` environment variable). `0` clears the override.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count parallel sections will use: the [`set_threads`]
/// override if set, else `SECYAN_THREADS` if set, else the machine's
/// available parallelism.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    let env = *ENV_THREADS.get_or_init(|| {
        std::env::var("SECYAN_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
    });
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A type-erased broadcast job: runs part `p` of the current parallel
/// section. The `'static` lifetime is a lie told under lock — see the
/// SAFETY argument in [`Pool::broadcast`].
type Job = &'static (dyn Fn(usize) + Sync);

#[derive(Default)]
struct State {
    /// Bumped once per dispatched section; workers track the last epoch
    /// they served so a stale wakeup never re-runs a job.
    epoch: u64,
    job: Option<Job>,
    /// Number of parts in the current section (part 0 runs on the caller).
    parts: usize,
    /// Workers that have not yet acknowledged the current section.
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
}

/// Handle to a scoped worker pool (or to the serial fallback). Obtained via
/// [`with_pool`]; every dispatch helper partitions deterministically and
/// returns only after all parts finished.
pub struct Pool<'scope> {
    shared: Option<&'scope Shared>,
    workers: usize,
}

/// Run `f` with a worker pool of [`threads`] workers (the caller thread
/// participates, so `threads() - 1` are spawned). At one thread no spawn
/// happens and every dispatch runs inline. Panics inside parallel sections
/// propagate to the caller; workers are always joined before returning.
pub fn with_pool<R>(f: impl FnOnce(&Pool) -> R) -> R {
    let n = threads();
    if n <= 1 {
        return f(&Pool {
            shared: None,
            workers: 1,
        });
    }
    let shared = Shared {
        state: Mutex::new(State::default()),
        work: Condvar::new(),
        done: Condvar::new(),
    };
    std::thread::scope(|s| {
        for w in 0..n - 1 {
            let sh = &shared;
            s.spawn(move || worker_loop(sh, w));
        }
        let pool = Pool {
            shared: Some(&shared),
            workers: n,
        };
        let out = catch_unwind(AssertUnwindSafe(|| f(&pool)));
        // Always release the workers, even when `f` unwound, or the scope
        // would deadlock joining them.
        let mut st = shared.state.lock().expect("pool lock poisoned");
        st.shutdown = true;
        drop(st);
        shared.work.notify_all();
        match out {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    })
}

/// Like [`with_pool`] but with the pool gated on `parallel`: callers pass
/// `parallel = false` for small inputs so no threads spawn and the serial
/// path runs with zero overhead (and byte-identical results).
pub fn with_pool_if<R>(parallel: bool, f: impl FnOnce(&Pool) -> R) -> R {
    if parallel {
        with_pool(f)
    } else {
        f(&Pool {
            shared: None,
            workers: 1,
        })
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut seen = 0u64;
    loop {
        let (job, parts) = {
            let mut st = shared.state.lock().expect("pool lock poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break (st.job.expect("job set with epoch"), st.parts);
                }
                st = shared.work.wait(st).expect("pool lock poisoned");
            }
        };
        // Spawned worker w serves part w + 1 (part 0 runs on the caller).
        // Sections with fewer parts than workers leave the tail idle.
        let part = worker + 1;
        let res = if part < parts {
            catch_unwind(AssertUnwindSafe(|| job(part)))
        } else {
            Ok(())
        };
        let mut st = shared.state.lock().expect("pool lock poisoned");
        if res.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

impl Pool<'_> {
    /// Number of workers (including the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(p)` for every part `p` in `0..parts`, on up to `parts`
    /// threads; the caller thread runs part 0. Blocks until every part
    /// finished. `parts` must not exceed [`Pool::workers`].
    pub fn broadcast(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        let Some(shared) = self.shared else {
            for p in 0..parts {
                f(p);
            }
            return;
        };
        assert!(parts <= self.workers, "more parts than workers");
        if parts <= 1 {
            if parts == 1 {
                f(0);
            }
            return;
        }
        // SAFETY: the borrow of `f` is erased to 'static so it can sit in
        // the shared state, but this function does not return until every
        // worker decremented `remaining` (the wait loop below), i.e. until
        // no worker can still hold the reference. The job slot is cleared
        // before the wait ends, so a stale pointer never survives the call.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut st = shared.state.lock().expect("pool lock poisoned");
            st.job = Some(job);
            st.parts = parts;
            st.epoch += 1;
            st.remaining = self.workers - 1;
            st.panicked = false;
        }
        shared.work.notify_all();
        // The caller participates as part 0. A panic here must still wait
        // for the workers (they borrow from the caller's frame).
        let mine = catch_unwind(AssertUnwindSafe(|| f(0)));
        let mut st = shared.state.lock().expect("pool lock poisoned");
        while st.remaining > 0 {
            st = shared.done.wait(st).expect("pool lock poisoned");
        }
        st.job = None;
        let worker_panicked = st.panicked;
        drop(st);
        if let Err(p) = mine {
            resume_unwind(p);
        }
        assert!(
            !worker_panicked,
            "worker panicked during a parallel section"
        );
    }

    /// Split `0..len` into at most [`Pool::workers`] contiguous ranges of
    /// at least `min_per_part` indices each and run `f` on each range in
    /// parallel. The partition depends only on `len` and the worker count —
    /// never on data — and small inputs collapse to one inline call.
    ///
    /// Floor division sizes the part count: an input shorter than
    /// `2 * min_per_part` runs as a single inline call, so a caller's
    /// minimum-work threshold is a real floor on per-worker work, not a
    /// rounding suggestion. Fanning out below the threshold is exactly the
    /// regime where dispatch overhead dominates and multicore loses to the
    /// serial loop.
    pub fn ranges(&self, len: usize, min_per_part: usize, f: impl Fn(Range<usize>) + Sync) {
        if len == 0 {
            return;
        }
        let per = min_per_part.max(1);
        let parts = self.workers.min(len / per).max(1);
        if parts == 1 {
            f(0..len);
            return;
        }
        let base = len / parts;
        let rem = len % parts;
        self.broadcast(parts, &|p| {
            let start = p * base + p.min(rem);
            let end = start + base + usize::from(p < rem);
            f(start..end);
        });
    }

    /// Order-preserving parallel map: `out[i] = f(i, &items[i])`. Slots are
    /// written exactly once, in pre-allocated canonical positions, so the
    /// result is identical at any thread count.
    pub fn map<I: Sync, O: Send>(
        &self,
        items: &[I],
        min_per_part: usize,
        f: impl Fn(usize, &I) -> O + Sync,
    ) -> Vec<O> {
        let n = items.len();
        let mut raw: Vec<MaybeUninit<O>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
        let dst = SharedSlice::new(&mut raw);
        self.ranges(n, min_per_part, |r| {
            // SAFETY: `ranges` hands each part a disjoint index range, so
            // the slices below never alias across workers.
            let slots = unsafe { dst.slice_mut(r.clone()) };
            for (slot, i) in slots.iter_mut().zip(r) {
                slot.write(f(i, &items[i]));
            }
        });
        // SAFETY: `ranges` covers every index in 0..n exactly once, so all
        // slots are initialized; Vec<MaybeUninit<O>> and Vec<O> share
        // layout. (If `f` panicked we never get here — the Vec leaks its
        // contents rather than dropping uninitialized slots.)
        unsafe {
            let mut raw = std::mem::ManuallyDrop::new(raw);
            Vec::from_raw_parts(raw.as_mut_ptr().cast::<O>(), raw.len(), raw.capacity())
        }
    }

    /// Partition `data` (whose length must be a multiple of `granule`)
    /// into contiguous granule-aligned chunks and run
    /// `f(first_granule_index, chunk)` on each in parallel.
    pub fn chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        granule: usize,
        min_per_part: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(granule > 0, "granule must be positive");
        assert_eq!(data.len() % granule, 0, "data must be granule-aligned");
        let n = data.len() / granule;
        let dst = SharedSlice::new(data);
        self.ranges(n, min_per_part, |r| {
            // SAFETY: granule-aligned images of disjoint granule-index
            // ranges are disjoint element ranges.
            let chunk = unsafe { dst.slice_mut(r.start * granule..r.end * granule) };
            f(r.start, chunk);
        });
    }

    /// Parallel lockstep over per-item state and a granule-strided buffer:
    /// `f(i, &mut items[i], &mut data[i*granule..(i+1)*granule])`. The
    /// per-column PRG fills in OT extension are exactly this shape.
    pub fn zip_chunks_mut<A: Send, T: Send>(
        &self,
        items: &mut [A],
        data: &mut [T],
        granule: usize,
        min_per_part: usize,
        f: impl Fn(usize, &mut A, &mut [T]) + Sync,
    ) {
        assert!(granule > 0, "granule must be positive");
        assert_eq!(
            items.len() * granule,
            data.len(),
            "data must hold one granule per item"
        );
        let si = SharedSlice::new(items);
        let sd = SharedSlice::new(data);
        self.ranges(items.len(), min_per_part, |r| {
            // SAFETY: `ranges` hands each part a disjoint index range, so
            // both the item slice and its granule image are exclusive.
            let its = unsafe { si.slice_mut(r.clone()) };
            // SAFETY: granule-aligned image of a disjoint index range.
            let chunk = unsafe { sd.slice_mut(r.start * granule..r.end * granule) };
            for (k, a) in its.iter_mut().enumerate() {
                f(r.start + k, a, &mut chunk[k * granule..(k + 1) * granule]);
            }
        });
    }
}

/// A raw view of a caller-owned `&mut [T]` that parallel sections carve
/// into disjoint sub-slices. All unsafety of the pool concentrates here;
/// every public helper above guarantees disjointness via static contiguous
/// partitioning.
struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: a SharedSlice is only ever used to hand *disjoint* element
// ranges to different threads (the helpers partition by disjoint index
// ranges), so concurrent access never aliases; T: Send makes moving the
// elements' mutation across threads sound.
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    fn new(data: &mut [T]) -> SharedSlice<T> {
        SharedSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    /// Carve out `r` as an exclusive slice.
    ///
    /// SAFETY contract: the caller must guarantee `r` is in bounds and that
    /// no other live slice from this view overlaps `r`.
    // The `&self -> &mut` shape is the whole point of this raw-pointer
    // view: workers share one `SharedSlice` and each carves a disjoint
    // exclusive range out of it (the unsafe contract above).
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, r: Range<usize>) -> &mut [T] {
        debug_assert!(r.start <= r.end && r.end <= self.len);
        // SAFETY: bounds checked above; exclusivity is the caller's
        // contract (disjoint ranges per worker).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.end - r.start) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Tests mutate the global thread-count override; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(n);
        let out = f();
        set_threads(0);
        out
    }

    #[test]
    fn map_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let want: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for n in [1, 2, 3, 8] {
            let got = with_threads(n, || {
                with_pool(|pool| pool.map(&items, 1, |_, &x| x * x + 1))
            });
            assert_eq!(got, want, "threads={n}");
        }
    }

    #[test]
    fn chunks_cover_every_slot_once() {
        let mut data = vec![0u32; 24 * 5];
        with_threads(3, || {
            with_pool(|pool| {
                pool.chunks_mut(&mut data, 5, 2, |first, chunk| {
                    assert_eq!(chunk.len() % 5, 0);
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (first * 5 + k) as u32;
                    }
                });
            });
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn zip_chunks_pairs_items_with_their_granules() {
        let mut items: Vec<u32> = (0..40).collect();
        let mut data = vec![0u32; 40 * 3];
        with_threads(4, || {
            with_pool(|pool| {
                pool.zip_chunks_mut(&mut items, &mut data, 3, 4, |i, item, chunk| {
                    *item += 100;
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 3 + k) as u32;
                    }
                });
            });
        });
        assert!(items.iter().enumerate().all(|(i, &v)| v == i as u32 + 100));
        assert!(data.iter().enumerate().all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn many_dispatches_reuse_one_scope() {
        let hits = AtomicU64::new(0);
        with_threads(4, || {
            with_pool(|pool| {
                for _ in 0..50 {
                    pool.ranges(64, 1, |r| {
                        hits.fetch_add(r.len() as u64, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 50 * 64);
    }

    #[test]
    fn min_per_part_collapses_small_inputs() {
        // With a high min_per_part a small input must run as one part
        // (inline), which we can observe via thread identity.
        with_threads(4, || {
            with_pool(|pool| {
                let caller = std::thread::current().id();
                pool.ranges(10, 1000, |r| {
                    assert_eq!(r, 0..10);
                    assert_eq!(std::thread::current().id(), caller);
                });
            });
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_shuts_down() {
        let result = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                with_pool(|pool| {
                    pool.ranges(100, 1, |r| {
                        if r.contains(&99) {
                            panic!("boom in part");
                        }
                    });
                })
            }))
        });
        assert!(result.is_err());
        // A fresh pool still works after the previous one unwound.
        let ok = with_threads(4, || {
            with_pool(|pool| pool.map(&[1, 2, 3], 1, |_, &x| x + 1))
        });
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn set_threads_overrides_and_clears() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn serial_pool_is_inline() {
        with_threads(1, || {
            with_pool(|pool| {
                assert_eq!(pool.workers(), 1);
                let caller = std::thread::current().id();
                pool.ranges(1000, 1, |_| {
                    assert_eq!(std::thread::current().id(), caller);
                });
            });
        });
    }

    #[test]
    fn map_results_in_input_order_regardless_of_part_timing() {
        // Stagger part durations so completion order differs from index
        // order; the output must still be in input order.
        let items: Vec<u64> = (0..64).collect();
        let got = with_threads(4, || {
            with_pool(|pool| {
                pool.map(&items, 1, |i, &x| {
                    if i % 16 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    x * 10
                })
            })
        });
        assert_eq!(got, (0..64).map(|x| x * 10).collect::<Vec<u64>>());
    }
}
