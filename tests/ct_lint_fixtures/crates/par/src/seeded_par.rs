//! Determinism fixtures for pool dispatch closures (the DESIGN.md §9
//! three-rule contract): no RNG, no channel I/O, no clocks, no spawns
//! inside the parallel sections. Seeded PAR violations plus clean twins.

/// RNG inside a dispatch closure: per-thread entropy makes the parallel
/// schedule observable and the transcript nondeterministic.
pub fn par_rng(pool: &Pool, xs: &[u64]) -> Vec<u64> {
    // ct-expect: PAR
    pool.map(xs, 8, |_, x| x.wrapping_add(rng.gen_range(0..2)))
}

/// Channel I/O inside a dispatch closure: message order would depend on
/// thread interleaving.
pub fn par_channel(pool: &Pool, ch: &mut Channel, xs: &[u64]) -> Vec<u64> {
    // ct-expect: PAR
    pool.map(xs, 8, |_, x| { ch.send(vec![*x as u8]); *x })
}

/// Clock reads inside a dispatch closure: timing-dependent results.
pub fn par_clock(pool: &Pool, xs: &[u64]) -> Vec<u64> {
    // ct-expect: PAR
    pool.map(xs, 8, |_, x| x.wrapping_add(Instant::now().elapsed().as_nanos() as u64))
}

/// RNG inside a `ranges` closure: every dispatch method is a parallel
/// section, not only `map`.
pub fn par_ranges_rng(pool: &Pool, out: &AtomicU64) {
    // ct-expect: PAR
    pool.ranges(64, 8, |r| { out.fetch_add(r.len() as u64 ^ rng.gen::<u64>(), Relaxed); })
}

/// Clean twin: pure arithmetic on the chunk index and element — the only
/// things a dispatch closure may depend on.
pub fn par_clean(pool: &Pool, xs: &[u64]) -> Vec<u64> {
    pool.map(xs, 8, |i, x| x.wrapping_mul(i as u64 + 1))
}

/// Clean twin: channel I/O in the *serial* glue between dispatches is
/// fine; only the closures themselves are parallel sections.
pub fn serial_io_between_dispatches(pool: &Pool, ch: &mut Channel, xs: &[u64]) -> Vec<u64> {
    let doubled = pool.map(xs, 8, |_, x| x.wrapping_mul(2));
    ch.send(vec![doubled.len() as u8]);
    pool.map(&doubled, 8, |_, x| x.wrapping_add(1))
}
