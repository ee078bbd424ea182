//! Round-discipline fixtures: a send inside a loop that also blocks on
//! the wire (or forces a frame) pays one round trip per iteration — the
//! per-edge ping-pong the staged send/flush transport API exists to
//! eliminate. Seeded COMM violations plus the staged clean twins.

/// Per-edge ping-pong: one wire round trip per element.
pub fn pingpong_loop(ch: &mut Channel, xs: &[u64]) -> u64 {
    let mut acc = 0;
    for x in xs {
        // ct-expect: COMM
        ch.send_u64(*x);
        acc ^= ch.recv_u64();
    }
    acc
}

/// `stage` is a send too: staging a slice per received reply is the same
/// per-element round trip.
pub fn stage_pingpong_loop(ch: &mut Channel, rows: &[Vec<u8>]) -> u64 {
    let mut acc = 0;
    for row in rows {
        // ct-expect: COMM
        ch.stage(row);
        acc ^= ch.recv_u64();
    }
    acc
}

/// Forcing a frame per iteration defeats staging the same way.
pub fn flush_per_item(ch: &mut Channel, xs: &[u64]) {
    for x in xs {
        // ct-expect: COMM
        ch.send_u64(*x);
        ch.flush();
    }
}

/// Clean twin: stage the whole batch, then receive — the sends coalesce
/// into one super-frame and the loop costs a single round trip total.
pub fn staged_batch(ch: &mut Channel, xs: &[u64]) -> u64 {
    for x in xs {
        ch.send_u64(*x);
    }
    let mut acc = 0;
    for _x in xs {
        acc ^= ch.recv_u64();
    }
    acc
}

/// Clean twin: staged slices, then the replies.
pub fn staged_rows(ch: &mut Channel, rows: &[Vec<u8>]) -> u64 {
    for row in rows {
        ch.stage(row);
    }
    let mut acc = 0;
    for _row in rows {
        acc ^= ch.recv_u64();
    }
    acc
}

/// Clean twin: receive-only loops are the consuming half of a staged
/// exchange; there is nothing to coalesce on this side.
pub fn drain_batch(ch: &mut Channel, xs: &[u64]) -> u64 {
    let mut acc = 0;
    for _x in xs {
        acc ^= ch.recv_u64();
    }
    acc
}
