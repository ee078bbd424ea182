//! Communication-shape fixtures: message lengths must trace to public
//! shape. Seeded COMM violations plus the clean public-shape twins
//! (transport is outside the marker-param secret scope, so taint here
//! always originates from an explicit source call).

/// Buffer sized from a secret, then sent: the frame length leaks it.
pub fn send_secret_sized(ch: &mut Channel, s: Secret<usize>) {
    let n = s.expose();
    // ct-expect: COMM
    let buf = vec![0u8; n];
    ch.send(buf);
}

/// Length header encoding a secret count.
pub fn send_secret_header(ch: &mut Channel, s: Secret<u32>) {
    let n = s.expose();
    // ct-expect: COMM
    ch.send(n.to_le_bytes().to_vec());
}

/// Resizing a wire-bound buffer to a secret length.
pub fn resize_secret(ch: &mut Channel, s: Secret<usize>) {
    let n = s.expose();
    let mut buf = Vec::new();
    // ct-expect: COMM
    buf.resize(n, 0u8);
    ch.send(buf);
}

/// A staged slice cut at a secret length.
pub fn stage_secret_len(ch: &mut Channel, s: Secret<usize>, buf: &[u8]) {
    let n = s.expose();
    // ct-expect: COMM INDEX
    ch.stage(&buf[..n]);
}

/// `send_with`'s first argument *is* the message length.
pub fn send_with_secret_len(ch: &mut Channel, s: Secret<usize>) {
    let n = s.expose();
    // ct-expect: COMM
    ch.send_with(8 * n, |buf| buf.fill(0));
}

/// A label-correction batch cut at a secret length: Δ's low byte picks
/// how many corrections go out.
pub fn send_labels_secret_len(ch: &mut Channel, ot: &mut OtSender, zero: &[Block]) {
    let delta = ot.label_delta();
    let n = delta.0 as usize & 0xff;
    // ct-expect: COMM INDEX
    ot.send_labels(ch, &zero[..n]);
}

/// A word-OT correction batch sized by a raw IKNP row.
pub fn send_words_row_len(ch: &mut Channel, ot: &mut OtSender, ring: RingCtx) {
    let (_, rows) = ot.draw_rows(ch, 4);
    let n = rows.first().0 as usize;
    // ct-expect: COMM
    let deltas = vec![[0u64; 2]; n];
    ot.send_words(ch, ring, 4, |_| 1, |_| deltas);
}

/// Clean twin: a staged slice cut at a public length.
pub fn stage_public_len(ch: &mut Channel, rows: usize, s: Secret<Vec<u8>>) {
    let vals = s.expose();
    ch.stage(&vals[..rows]);
}

/// Clean twin: label corrections for a public count of wires.
pub fn send_labels_public_len(ch: &mut Channel, ot: &mut OtSender, zero: &[Block], wires: usize) {
    let delta = ot.label_delta();
    let _ = delta;
    ot.send_labels(ch, &zero[..wires]);
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
