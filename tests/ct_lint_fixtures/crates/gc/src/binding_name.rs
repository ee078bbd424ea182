//! A `let` binding's own name is not an operand of the comparison it
//! binds: a marker word in the name (`shift_arity`) must not make an
//! equality between public sizes secret.

/// Clean: both operands project the shift to its public length.
pub fn shift_arity_ok(shift: &[bool], wires: usize) -> bool {
    let shift_arity = shift.is_empty() || shift.len() == wires;
    shift_arity
}

/// Seeded twin: the same binding compares a shift bit, a secret.
pub fn shift_arity_reads_a_bit(shift: &[bool], wires: usize) -> bool {
    // ct-expect: EQ
    let shift_arity = shift.len() == wires && shift[0] == true;
    shift_arity
}
