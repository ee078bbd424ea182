//! The garbler's label shift: per evaluator wire a garbler bit k that
//! moves the wire's zero-label by k·Δ. The bits are the garbler's private
//! OPPRF masks, so choosing Δ must not branch on them.

/// Seeded: the shift picks Δ through a branch, and through a tainted
/// binding of it.
pub fn shifted_by_branch(zero: &[Block], shift: &[bool], delta: Block) -> Vec<Block> {
    let mut out = Vec::with_capacity(zero.len());
    for (&l, &k) in zero.iter().zip(shift) {
        // ct-expect: BRANCH
        let moved = if k { l ^ delta } else { l };
        out.push(moved);
    }
    // ct-expect: BRANCH
    if shift[0] {
        out[0] = out[0] ^ delta;
    }
    out
}

/// Clean twin: the shift masks Δ in or out, as `Garbling::input_label`
/// does; only the shift's public length steers anything.
pub fn shifted_by_mask(zero: &[Block], shift: &[bool], delta: Block) -> Vec<Block> {
    if shift.is_empty() {
        return zero.to_vec();
    }
    let pairs = zero.iter().zip(shift);
    pairs
        .map(|(&l, &k)| l ^ delta.ct_masked(CtChoice::from_bool(k)))
        .collect()
}
