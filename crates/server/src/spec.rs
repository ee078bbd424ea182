//! The session request riding in the handshake hello payload.
//!
//! A request names a testkit instance family and seed (both parties can
//! regenerate the full instance deterministically from those — only each
//! party's *own* relations are ever used as private inputs), an execution
//! mode, and a run count. The byte codec is deliberately rigid: a fixed
//! 14-byte layout, unknown tags rejected, trailing bytes rejected — a
//! malformed payload surfaces as a typed handshake rejection, never as a
//! misparsed session.

use secyan_core::{
    run_offline, run_online, run_online_pooled, secure_yannakakis, PreprocPool, QueryResult,
    Session,
};
use secyan_crypto::TweakHasher;
use secyan_testkit::{session_seeds, Instance};
use secyan_transport::{Channel, Role};

/// Which seeded instance family the session evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySpec {
    /// [`Instance::generate`] — the random free-connex family.
    Random { seed: u64 },
    /// [`Instance::generate_chain`] — the baseline-shaped chain family.
    Chain { seed: u64 },
}

impl QuerySpec {
    /// Materialize the named instance.
    pub fn instance(&self) -> Instance {
        match *self {
            QuerySpec::Random { seed } => Instance::generate(seed),
            QuerySpec::Chain { seed } => Instance::generate_chain(seed),
        }
    }

    fn family_tag(&self) -> u8 {
        match self {
            QuerySpec::Random { .. } => 0,
            QuerySpec::Chain { .. } => 1,
        }
    }

    fn seed(&self) -> u64 {
        match *self {
            QuerySpec::Random { seed } | QuerySpec::Chain { seed } => seed,
        }
    }
}

/// How the session executes the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Classic one-shot runs (`secure_yannakakis` per run).
    Single,
    /// Offline phase then online phase, per run.
    PhaseSplit,
    /// Provision the session's preprocessing pool `runs` times up front,
    /// then serve `runs` pooled online executions against it.
    Pooled,
}

impl RunMode {
    fn tag(&self) -> u8 {
        match self {
            RunMode::Single => 0,
            RunMode::PhaseSplit => 1,
            RunMode::Pooled => 2,
        }
    }
}

/// One party's side of an accepted session: `req.runs` executions of
/// `inst`'s query in `req.mode`, revealing to Alice (the client). Both
/// `secyan-server` (Bob) and `secyan-client` (Alice) run exactly this, so
/// the two processes cannot drift apart in what a mode means. Session
/// seeds derive from the instance seed the way the in-process harness
/// derives them, offset per run so repeated runs stay distinct yet
/// reproducible. `pool` backs `Pooled` mode and is left to the caller to
/// report on. Returns the last run's result; raises typed protocol
/// unwinds like every driver call (wrap in `catch_protocol`).
pub fn run_party(
    ch: &mut Channel,
    pool: &mut PreprocPool,
    inst: &Instance,
    req: &SessionRequest,
) -> QueryResult {
    let me = ch.role();
    let (sa, sb) = session_seeds(inst);
    let base = if me.is_alice() { sa } else { sb };
    let seed = |i: u32| base.wrapping_add(u64::from(i));
    let (query, sizes, ring) = (inst.query(), inst.sizes(), inst.ring_ctx());
    let rels = inst.party_relations(me);
    let hasher = TweakHasher::default();
    let receiver = Role::Alice;
    if req.mode == RunMode::Pooled {
        for i in 0..req.runs {
            pool.provision(ch, &query, &sizes, receiver, ring, hasher, seed(i));
        }
    }
    let mut last = None;
    for i in 0..req.runs {
        last = Some(match req.mode {
            RunMode::Single => {
                let mut sess = Session::new(ch, ring, hasher, seed(i));
                secure_yannakakis(&mut sess, &query, &rels, receiver)
            }
            RunMode::PhaseSplit => {
                let m = run_offline(ch, &query, &sizes, receiver, ring, hasher, seed(i));
                run_online(ch, &query, &rels, receiver, ring, hasher, m)
            }
            RunMode::Pooled => run_online_pooled(
                pool,
                ch,
                &query,
                &sizes,
                &rels,
                receiver,
                ring,
                hasher,
                seed(i),
            ),
        });
    }
    last.expect("runs >= 1 is enforced by SessionRequest::decode")
}

/// A full session request: what to run, how, and how many times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRequest {
    pub spec: QuerySpec,
    pub mode: RunMode,
    /// Number of query executions in this session (1 ..= [`MAX_RUNS`]).
    pub runs: u32,
}

/// Most executions one session may ask for. `Pooled` mode banks all `runs`
/// materials before the first online run, so an unbounded count would let a
/// client make the server hold arbitrarily much offline material.
pub const MAX_RUNS: u32 = 64;

/// Encoded size of a [`SessionRequest`]: family u8 | seed u64 LE |
/// mode u8 | runs u32 LE.
pub const REQUEST_LEN: usize = 14;

impl SessionRequest {
    /// Serialize into the hello payload format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(REQUEST_LEN);
        out.push(self.spec.family_tag());
        out.extend_from_slice(&self.spec.seed().to_le_bytes());
        out.push(self.mode.tag());
        out.extend_from_slice(&self.runs.to_le_bytes());
        out
    }

    /// Parse a hello payload. `None` on any deviation from the fixed
    /// layout: wrong length, unknown family or mode tag, a run count
    /// outside `1..=MAX_RUNS`.
    pub fn decode(payload: &[u8]) -> Option<SessionRequest> {
        if payload.len() != REQUEST_LEN {
            return None;
        }
        let seed = u64::from_le_bytes(payload[1..9].try_into().ok()?);
        let spec = match payload[0] {
            0 => QuerySpec::Random { seed },
            1 => QuerySpec::Chain { seed },
            _ => return None,
        };
        let mode = match payload[9] {
            0 => RunMode::Single,
            1 => RunMode::PhaseSplit,
            2 => RunMode::Pooled,
            _ => return None,
        };
        let runs = u32::from_le_bytes(payload[10..14].try_into().ok()?);
        if !(1..=MAX_RUNS).contains(&runs) {
            return None;
        }
        Some(SessionRequest { spec, mode, runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        for req in [
            SessionRequest {
                spec: QuerySpec::Random { seed: 7 },
                mode: RunMode::Single,
                runs: 1,
            },
            SessionRequest {
                spec: QuerySpec::Chain { seed: u64::MAX },
                mode: RunMode::Pooled,
                runs: 3,
            },
            SessionRequest {
                spec: QuerySpec::Random { seed: 0 },
                mode: RunMode::PhaseSplit,
                runs: 2,
            },
        ] {
            let wire = req.encode();
            assert_eq!(wire.len(), REQUEST_LEN);
            assert_eq!(SessionRequest::decode(&wire), Some(req));
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let good = SessionRequest {
            spec: QuerySpec::Random { seed: 1 },
            mode: RunMode::Single,
            runs: 1,
        }
        .encode();
        assert!(SessionRequest::decode(&good[..13]).is_none(), "short");
        let mut long = good.clone();
        long.push(0);
        assert!(SessionRequest::decode(&long).is_none(), "trailing bytes");
        let mut bad_family = good.clone();
        bad_family[0] = 9;
        assert!(SessionRequest::decode(&bad_family).is_none());
        let mut bad_mode = good.clone();
        bad_mode[9] = 9;
        assert!(SessionRequest::decode(&bad_mode).is_none());
        let mut zero_runs = good.clone();
        zero_runs[10..14].copy_from_slice(&0u32.to_le_bytes());
        assert!(SessionRequest::decode(&zero_runs).is_none());
        let mut runs = good.clone();
        runs[10..14].copy_from_slice(&MAX_RUNS.to_le_bytes());
        assert!(SessionRequest::decode(&runs).is_some(), "MAX_RUNS itself");
        runs[10..14].copy_from_slice(&(MAX_RUNS + 1).to_le_bytes());
        assert!(SessionRequest::decode(&runs).is_none(), "over MAX_RUNS");
    }
}
