//! Outside the secret scope a marker name is public, but a value derived
//! from `expose()` is secret in every crate: EQ and DEBUG follow the
//! dataflow like every other sink. Each seeded item has a clean twin.

/// Variable-time comparison of an exposed value.
pub fn compare_exposed(s: Secret<u64>, other: u64) -> bool {
    let v = s.expose();
    // ct-expect: EQ
    v == other
}

/// Clean twin: comparing the public length of an exposed value.
pub fn compare_exposed_len(s: Secret<Vec<u8>>, n: usize) -> bool {
    s.expose().len() == n
}

/// Debug-formatting an exposed value.
pub fn print_exposed(s: Secret<u64>) {
    let v = s.expose();
    // ct-expect: DEBUG
    println!("v = {:?}", v);
}

/// Clean twin: Debug-formatting its public length.
pub fn print_exposed_len(s: Secret<Vec<u8>>) {
    let n = s.expose().len();
    println!("n = {:?}", n);
}

/// A suppression that covers no finding is itself reported, so it cannot
/// outlive the code it once excused.
pub fn dead_suppression(n: u64) -> u64 {
    // ct-expect: DEAD-OK
    // ct-ok: nothing on the next line is secret.
    n + 1
}
