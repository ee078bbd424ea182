//! Typed failures of the two-party transport and protocol layers.
//!
//! The protocols in this workspace are synchronous and framed: every
//! message's length and position in the conversation is a function of the
//! public parameters. A transport fault — a peer dying mid-round, a
//! truncated or split write, frames delivered out of order — therefore
//! never needs to be *tolerated*; it must be *detected* and surfaced as a
//! typed error so the caller can tear the session down without hanging and
//! without leaking (drop-time zeroization of secret material still runs on
//! the unwind path; see `secyan-crypto::secret`).
//!
//! Error propagation is by typed unwind: the infallible channel API used
//! throughout the protocol crates raises a [`ProtocolError`] panic payload
//! on a transport fault, and [`crate::try_run_protocol`] catches exactly
//! that payload at the session boundary, returning `Err(ProtocolError)`.
//! Any other panic is a genuine bug and is re-raised unchanged. Fallible
//! `try_*` channel methods are also available where a `Result` is more
//! convenient than an unwind.

/// A failure of the byte transport between the two parties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer (or the network path to it) closed while a message was
    /// outstanding. `during` names the operation that observed the close.
    PeerClosed { during: &'static str },
    /// A frame's payload was shorter than its header declared — a
    /// truncated or split write on the wire.
    Truncated { expected: usize, got: usize },
    /// A well-framed message had another length than the receiver's
    /// public parameters fix for it: a receive reads exactly one whole
    /// message, so a message that is short, long, or the first of several
    /// the receiver expected as one never desynchronises the stream.
    MessageLength { expected: usize, got: usize },
    /// A frame arrived out of sequence — reordered, duplicated, or
    /// dropped traffic within a round.
    OutOfOrder { expected: u64, got: u64 },
    /// A frame failed structural validation (header too short to parse).
    Corrupt { detail: &'static str },
    /// A frame's phase tag disagrees with the receiving endpoint's current
    /// execution phase — offline traffic arriving during the online phase
    /// or vice versa (desynchronized phase switch, replay across phases).
    PhaseMismatch {
        expected: crate::channel::Phase,
        got: crate::channel::Phase,
    },
    /// A frame declared a payload beyond [`crate::MAX_FRAME_SIZE`]. The
    /// bound is checked before any allocation, so a coalesced super-frame
    /// (or a tampered header) cannot act as an allocation bomb.
    FrameTooLarge { declared: u64, limit: u64 },
    /// A socket read or write exceeded the endpoint's configured I/O
    /// deadline (see `Channel::set_io_timeout`). A stalled peer therefore
    /// surfaces as a typed error instead of blocking a session thread
    /// forever; only socket-backed channels can raise this — the
    /// in-process pipe has no deadline.
    Timeout { during: &'static str },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerClosed { during } => {
                write!(f, "peer closed the channel during {during}")
            }
            TransportError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: declared {expected} payload bytes, got {got}"
                )
            }
            TransportError::MessageLength { expected, got } => {
                write!(f, "message of {got} bytes where {expected} were expected")
            }
            TransportError::OutOfOrder { expected, got } => {
                write!(f, "frame out of order: expected seq {expected}, got {got}")
            }
            TransportError::Corrupt { detail } => write!(f, "corrupt frame: {detail}"),
            TransportError::PhaseMismatch { expected, got } => {
                write!(
                    f,
                    "phase mismatch: endpoint in {expected:?} phase received a {got:?}-tagged frame"
                )
            }
            TransportError::FrameTooLarge { declared, limit } => {
                write!(
                    f,
                    "frame too large: declared {declared} payload bytes, limit {limit}"
                )
            }
            TransportError::Timeout { during } => {
                write!(f, "i/o deadline exceeded during {during}")
            }
        }
    }
}

impl TransportError {
    /// Raise this transport failure as a typed [`ProtocolError`] unwind
    /// (see [`ProtocolError::raise`]).
    pub fn raise(self) -> ! {
        ProtocolError::Transport(self).raise()
    }
}

impl std::error::Error for TransportError {}

/// A typed failure of a two-party protocol run: either the transport
/// broke underneath it, or the peer spoke the transport correctly but
/// sent data violating the public protocol contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The byte transport failed (close, truncation, reordering).
    Transport(TransportError),
    /// The peer's data violates the public protocol contract (e.g. a
    /// declared relation size beyond any sane bound). `context` says
    /// which check rejected it.
    Malformed { context: String },
}

impl ProtocolError {
    /// Raise this error as a typed unwind, to be caught by
    /// [`crate::try_run_protocol`] at the session boundary. Unwinding
    /// (rather than threading `Result` through every protocol signature)
    /// keeps the hot paths clean while still running every destructor —
    /// in particular the zeroize-on-drop of secret material.
    pub fn raise(self) -> ! {
        std::panic::panic_any(self)
    }

    /// Shorthand: raise a [`ProtocolError::Malformed`] with `context`.
    pub fn malformed(context: impl Into<String>) -> ! {
        ProtocolError::Malformed {
            context: context.into(),
        }
        .raise()
    }
}

impl From<TransportError> for ProtocolError {
    fn from(e: TransportError) -> ProtocolError {
        ProtocolError::Transport(e)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Transport(e) => write!(f, "transport failure: {e}"),
            ProtocolError::Malformed { context } => {
                write!(f, "malformed peer input: {context}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Transport(e) => Some(e),
            ProtocolError::Malformed { .. } => None,
        }
    }
}

/// Interpret a caught panic payload: `Ok` for typed protocol errors,
/// `Err` with the original payload for anything else (a genuine bug).
pub(crate) fn try_downcast_panic(
    payload: Box<dyn std::any::Any + Send + 'static>,
) -> Result<ProtocolError, Box<dyn std::any::Any + Send + 'static>> {
    match payload.downcast::<ProtocolError>() {
        Ok(e) => Ok(*e),
        Err(payload) => match payload.downcast::<TransportError>() {
            Ok(e) => Ok(ProtocolError::Transport(*e)),
            Err(payload) => Err(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = TransportError::Truncated {
            expected: 10,
            got: 3,
        };
        assert!(e.to_string().contains("10"));
        let p = ProtocolError::from(e.clone());
        assert!(p.to_string().contains("transport"));
        let m = ProtocolError::Malformed {
            context: "size 2^63".into(),
        };
        assert!(m.to_string().contains("size 2^63"));
    }

    #[test]
    fn downcast_recovers_typed_payloads() {
        let p = std::panic::catch_unwind(|| {
            ProtocolError::malformed("bad");
        })
        .unwrap_err();
        assert_eq!(
            try_downcast_panic(p).expect("typed payload"),
            ProtocolError::Malformed {
                context: "bad".into()
            }
        );
        let t = std::panic::catch_unwind(|| {
            std::panic::panic_any(TransportError::PeerClosed { during: "recv" });
        })
        .unwrap_err();
        assert_eq!(
            try_downcast_panic(t).expect("typed payload"),
            ProtocolError::Transport(TransportError::PeerClosed { during: "recv" })
        );
    }

    #[test]
    fn downcast_rejects_foreign_panics() {
        let p = std::panic::catch_unwind(|| panic!("real bug")).unwrap_err();
        assert!(try_downcast_panic(p).is_err());
    }
}
