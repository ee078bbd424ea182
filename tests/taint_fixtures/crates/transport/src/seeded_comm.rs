//! Communication-shape fixtures: message lengths must trace to public
//! shape. Seeded T-COMM violations plus the clean public-shape twins
//! (transport is outside the marker-param secret scope, so taint here
//! always originates from an explicit source call).

/// Buffer sized from a secret, then sent: the frame length leaks it.
pub fn send_secret_sized(ch: &mut Channel, s: Secret<usize>) {
    let n = s.expose();
    // taint-expect: T-COMM
    let buf = vec![0u8; n];
    ch.send(buf);
}

/// Length header encoding a secret count.
pub fn send_secret_header(ch: &mut Channel, s: Secret<u32>) {
    let n = s.expose();
    // taint-expect: T-COMM
    ch.send(n.to_le_bytes().to_vec());
}

/// Resizing a wire-bound buffer to a secret length.
pub fn resize_secret(ch: &mut Channel, s: Secret<usize>) {
    let n = s.expose();
    let mut buf = Vec::new();
    // taint-expect: T-COMM
    buf.resize(n, 0u8);
    ch.send(buf);
}

/// `send_with`'s first argument *is* the message length.
pub fn send_with_secret_len(ch: &mut Channel, s: Secret<usize>) {
    let n = s.expose();
    // taint-expect: T-COMM
    ch.send_with(8 * n, |buf| buf.fill(0));
}

/// Clean twin: the length is public shape, and `fill` writes into a
/// buffer of exactly that length — what it writes may be anything.
pub fn send_with_public_len(ch: &mut Channel, rows: usize, s: Secret<u64>) {
    let pad = s.expose();
    ch.send_with(8 * rows, |buf| buf[..8].copy_from_slice(&pad.to_le_bytes()));
}

/// Clean twin: buffer sized by public shape (row count from the query
/// plan), contents freely derived from masked data. Only lengths are
/// checked — payload bytes are protected by the masking upstream.
pub fn send_public_shape(ch: &mut Channel, rows: usize, mask: &[u8]) {
    let mut buf = vec![0u8; rows * 16];
    for (b, m) in buf.iter_mut().zip(mask) {
        *b ^= m;
    }
    ch.send(buf);
}

/// Clean twin: the *length* of an exposed vector is public shape, so
/// sizing a reply from it is fine.
pub fn send_len_of_secret(ch: &mut Channel, s: Secret<Vec<u8>>) {
    let vals = s.expose();
    let reply = vec![0u8; vals.len()];
    ch.send(reply);
}
