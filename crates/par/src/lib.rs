//! Deterministic intra-party data parallelism.
//!
//! Two stages fan out across threads: OPPRF hint construction (one
//! polynomial per bin) and tiled garbling (independent rows of a scan
//! segment). Everything else runs one thread per party, as in the paper's
//! cost model. Each dispatched section is one [`std::thread::scope`]: part
//! 0 runs on the caller, parts 1.. on scoped threads that are joined
//! before the section returns. The crate has no dependencies and is safe
//! Rust throughout (`forbid(unsafe_code)`). The MPC layers rely on this
//! contract:
//!
//! **Determinism.** Work is partitioned *statically* by public sizes only
//! (contiguous index ranges), and every part owns its range or its
//! `split_at_mut` slice of a caller-owned buffer. Nothing observable —
//! protocol transcripts in particular — may depend on the thread count or
//! on scheduling: [`Pool::map`] returns its outputs in input order, and
//! [`Pool::chunks_mut`] hands each part a disjoint contiguous chunk.
//!
//! **Secret independence.** Partition boundaries derive from lengths
//! (public in every calling protocol), never from data values, so the
//! thread schedule leaks nothing an observer of the public sizes could not
//! already compute.
//!
//! Thread count: [`set_threads`] (programmatic override) takes precedence
//! over the `SECYAN_THREADS` environment variable, which takes precedence
//! over [`std::thread::available_parallelism`]. A section of one part —
//! always the case at one thread — runs inline on the caller, with no
//! spawn. A panic in any part reaches the caller with that part's own
//! payload.

#![forbid(unsafe_code)]

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// The worker count of a run of parallel sections, fixed by [`with_pool`].
/// Every dispatch helper partitions deterministically and returns only
/// after all parts finished.
pub struct Pool {
    workers: usize,
}

/// Run `f` with a pool of [`threads`] workers (the caller counts as one).
/// Nothing is spawned here: each section `f` dispatches spawns its own
/// scoped threads.
pub fn with_pool<R>(f: impl FnOnce(&Pool) -> R) -> R {
    f(&Pool { workers: threads() })
}

/// Run `jobs` — the first on the caller, the rest on scoped threads — and
/// return their outputs in job order. A single job runs inline, with no
/// spawn and no allocation beyond its output. A panic in any job is
/// re-raised on the caller with its own payload, after every thread was
/// joined.
fn scatter<T: Send, J: FnOnce() -> T + Send>(jobs: impl Iterator<Item = J>) -> Vec<T> {
    let mut jobs = jobs.peekable();
    let Some(first) = jobs.next() else {
        return Vec::new();
    };
    if jobs.peek().is_none() {
        return vec![first()];
    }
    std::thread::scope(|s| {
        let rest: Vec<_> = jobs.map(|job| s.spawn(job)).collect();
        let mut out = vec![first()];
        for h in rest {
            out.push(h.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        out
    })
}

impl Pool {
    /// Number of workers (including the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Split `0..len` into at most [`Pool::workers`] contiguous ranges of
    /// at least `min_per_part` indices each (the first `len % parts` one
    /// index longer). Floor division sizes the part count: an input
    /// shorter than `2 * min_per_part` is a single part, so a caller's
    /// minimum-work threshold is a real floor on per-part work — below it
    /// a spawn costs more than the serial loop saves.
    fn partition(&self, len: usize, min_per_part: usize) -> impl Iterator<Item = Range<usize>> {
        let parts = self.workers.min(len / min_per_part.max(1)).max(1);
        let (base, rem) = (len / parts, len % parts);
        let ranges = (0..parts).map(move |p| {
            let start = p * base + p.min(rem);
            start..start + base + usize::from(p < rem)
        });
        // Only an empty input yields an empty part: run nothing for it.
        ranges.filter(|r| !r.is_empty())
    }

    /// Run `f(p)` for every part `p` in `0..parts`; the caller thread runs
    /// part 0. Blocks until every part finished. `parts` must not exceed
    /// [`Pool::workers`].
    pub fn broadcast(&self, parts: usize, f: &(dyn Fn(usize) + Sync)) {
        assert!(parts <= self.workers, "more parts than workers");
        scatter((0..parts).map(|p| move || f(p)));
    }

    /// Order-preserving parallel map: `out[i] = f(i, &items[i])`, each part
    /// mapping its own range, the parts' outputs joined in input order.
    pub fn map<I: Sync, O: Send>(
        &self,
        items: &[I],
        min_per_part: usize,
        f: impl Fn(usize, &I) -> O + Sync,
    ) -> Vec<O> {
        let f = &f;
        let jobs = self
            .partition(items.len(), min_per_part)
            .map(|r| move || r.map(|i| f(i, &items[i])).collect::<Vec<O>>());
        // A single part's output is the result itself, with no copy.
        scatter(jobs)
            .into_iter()
            .reduce(|mut out, part| {
                out.extend(part);
                out
            })
            .unwrap_or_default()
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
        let (f, mut rest) = (&f, data);
        let jobs = self.partition(rest.len() / granule, min_per_part).map(|r| {
            let chunk = rest.split_off_mut(..r.len() * granule);
            let chunk = chunk.expect("the partition covers `data`");
            move || f(r.start, chunk)
        });
        scatter(jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

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
    fn many_dispatches_reuse_one_scope() {
        // Fifty sections under one `with_pool`, each its own thread scope.
        let hits = AtomicU64::new(0);
        with_threads(4, || {
            with_pool(|pool| {
                for _ in 0..50 {
                    pool.chunks_mut(&mut [0u8; 64], 1, 1, |_, chunk| {
                        hits.fetch_add(chunk.len() as u64, Ordering::Relaxed);
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
                pool.chunks_mut(&mut [0u8; 10], 1, 1000, |first, chunk| {
                    assert_eq!((first, chunk.len()), (0, 10));
                    assert_eq!(std::thread::current().id(), caller);
                });
                // An empty input runs no part at all.
                pool.chunks_mut(&mut [0u8; 0], 1, 1, |_, _| panic!("empty input ran a part"));
                assert!(pool.map(&[0u8; 0], 1, |_, &x| x).is_empty());
            });
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_shuts_down() {
        let caller = std::thread::current().id();
        let result = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                with_pool(|pool| {
                    pool.map(&[0u8; 100], 1, |i, _| {
                        if i == 99 {
                            assert_ne!(std::thread::current().id(), caller);
                            panic!("boom in part");
                        }
                    });
                })
            }))
        });
        // The caller sees the panicking part's own payload.
        let payload = result.expect_err("the part's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in part"));
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
                let on_caller = || assert_eq!(std::thread::current().id(), caller);
                let got = pool.map(&[1u32, 2, 3], 1, |_, &x| {
                    on_caller();
                    x * 2
                });
                assert_eq!(got, vec![2, 4, 6]);
                pool.chunks_mut(&mut [0u8; 12], 3, 1, |_, _| on_caller());
                pool.broadcast(1, &|_| on_caller());
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
