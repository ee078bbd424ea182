//! Unit-cost probes: one layer at a time, at fixed sizes, from outside.
//!
//! They run only in the traced pass and do not depend on the workload or
//! its seed. Each times calls into a crate's public functions — two party
//! threads over `channel_pair()` where the layer is a protocol — and
//! reports the median of a few repetitions per element of work, so a
//! number here can be multiplied by a count from the shape planner.

use crate::workload::hasher;
use crate::{median, put, Metric};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secyan_circuit::Circuit;
use secyan_core::Session;
use secyan_crypto::gf64::{self, Gf64};
use secyan_crypto::transpose::BitMatrix;
use secyan_crypto::{Block, RingCtx};
use secyan_gc::{evaluate_shared, garble_shared, with_shared_outputs, SharedOutputSpec};
use secyan_oep::{shared_oep_other, shared_oep_perm_holder};
use secyan_ot::{OtReceiver, OtSender};
use secyan_psi::opprf::{opprf_evaluate, opprf_program, PsiItem};
use secyan_psi::{bin_count, psi_receiver, psi_sender, CuckooTable};
use secyan_transport::{channel_pair, run_protocol, run_protocol_on, tcp_channel_pair, Channel};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median of the seconds `REPS` runs of `f` report.
fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&runs)
}

/// Median seconds of `REPS` runs of `f`.
fn time(mut f: impl FnMut()) -> f64 {
    median_of(|| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

/// Run a two-party protocol step on fresh sessions over the in-process
/// pipe, `REPS` times. Returns the median seconds Alice's side of the step
/// took, session set-up excluded, and the step's payload bytes, the
/// sessions' own excluded.
fn step(alice: impl Fn(&mut Session) + Sync, bob: impl Fn(&mut Session) + Sync) -> (f64, f64) {
    let ring = RingCtx::new(32);
    let run = |alice: &(dyn Fn(&mut Session) + Sync), bob: &(dyn Fn(&mut Session) + Sync)| {
        let (secs, (), stats) = run_protocol(
            |ch| {
                let mut sess = Session::new(ch, ring, hasher(), 1);
                let t = Instant::now();
                alice(&mut sess);
                t.elapsed().as_secs_f64()
            },
            |ch| {
                let mut sess = Session::new(ch, ring, hasher(), 2);
                bob(&mut sess);
            },
        );
        (secs, stats.total_bytes() as f64)
    };
    let (_, session_bytes) = run(&|_| {}, &|_| {});
    let runs: Vec<(f64, f64)> = (0..REPS).map(|_| run(&alice, &bob)).collect();
    let secs: Vec<f64> = runs.iter().map(|r| r.0).collect();
    (median(&secs), runs[0].1 - session_bytes)
}

/// The 75-row product circuit of a reduce-join at ℓ = 32: per row, two
/// shared words reconstructed and multiplied.
fn product_circuit() -> (Circuit, SharedOutputSpec) {
    const ROWS: usize = 75;
    let spec = SharedOutputSpec::uniform(ROWS, 32);
    let circuit = with_shared_outputs(&spec, |b| {
        let va: Vec<_> = (0..ROWS).map(|_| b.alice_word(32)).collect();
        let za: Vec<_> = (0..ROWS).map(|_| b.alice_word(32)).collect();
        let vb: Vec<_> = (0..ROWS).map(|_| b.bob_word(32)).collect();
        let zb: Vec<_> = (0..ROWS).map(|_| b.bob_word(32)).collect();
        (0..ROWS)
            .map(|i| {
                let v = b.add_words(&va[i], &vb[i]);
                let z = b.add_words(&za[i], &zb[i]);
                b.mul_words(&v, &z)
            })
            .collect()
    });
    (circuit, spec)
}

/// Seconds for `trips` one-byte round trips over `pair`.
fn ping_pong(pair: (Channel, Channel), trips: usize) -> f64 {
    let (secs, (), _) = run_protocol_on(
        pair,
        |ch| {
            let t = Instant::now();
            for _ in 0..trips {
                ch.send(vec![1]);
                black_box(ch.recv());
            }
            t.elapsed().as_secs_f64()
        },
        |ch| {
            for _ in 0..trips {
                black_box(ch.recv());
                ch.send(vec![2]);
            }
        },
    );
    secs
}

/// Seconds to move `frames` one-MiB frames one way over `pair`.
fn bulk(pair: (Channel, Channel), frames: usize) -> f64 {
    let frame = vec![0x5au8; 1 << 20];
    let (secs, (), _) = run_protocol_on(
        pair,
        |ch| {
            let t = Instant::now();
            for _ in 0..frames {
                ch.stage(&frame);
                ch.flush();
            }
            black_box(ch.recv());
            t.elapsed().as_secs_f64()
        },
        |ch| {
            for _ in 0..frames {
                black_box(ch.recv());
            }
            ch.send(vec![1]);
        },
    );
    secs
}

pub fn run_all() -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let ring = RingCtx::new(32);

    // crypto: the three kernels under OT extension, garbling and OPPRF.
    const BLOCKS: usize = 1 << 16;
    let blocks: Vec<Block> = (0..BLOCKS as u128)
        .map(|i| Block(i.wrapping_mul(0x9e37_79b9)))
        .collect();
    let secs = time(|| {
        black_box(hasher().hash_batch(&blocks, 0));
    });
    put(
        &mut m,
        "crypto.aes_hash_ns_per_block",
        secs * 1e9 / BLOCKS as f64,
        "ns",
    );

    let matrix = BitMatrix::from_fn(128, BLOCKS, |r, c| (r * 31 + c * 7) % 3 == 0);
    let secs = time(|| {
        black_box(matrix.transpose());
    });
    put(
        &mut m,
        "crypto.transpose_ns_per_kbit",
        secs * 1e9 / (128 * BLOCKS / 1024) as f64,
        "ns",
    );

    const BINS: usize = 2048;
    const DEGREE: usize = 24;
    let points: Vec<Vec<(Gf64, Gf64)>> = (0..BINS as u64)
        .map(|b| {
            (0..DEGREE as u64)
                .map(|i| {
                    let x = (b * DEGREE as u64 + i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    (Gf64(x), Gf64(x ^ b))
                })
                .collect()
        })
        .collect();
    let secs = time(|| {
        for bin in &points {
            black_box(gf64::poly_interpolate(bin));
        }
    });
    put(
        &mut m,
        "crypto.gf64_interp_us_per_bin",
        secs * 1e6 / BINS as f64,
        "us",
    );

    // ot: base-OT set-up, then IKNP and KKRT extension per instance.
    let secs = time(|| {
        run_protocol(
            |ch| {
                black_box(OtSender::setup(ch, &mut StdRng::seed_from_u64(1), hasher()));
            },
            |ch| {
                black_box(OtReceiver::setup(
                    ch,
                    &mut StdRng::seed_from_u64(2),
                    hasher(),
                ));
            },
        );
    });
    put(&mut m, "ot.base_setup_ms", secs * 1e3, "ms");

    const OTS: usize = 1 << 16;
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..OTS)
        .map(|i| (vec![i as u8; 16], vec![!i as u8; 16]))
        .collect();
    let choices: Vec<bool> = (0..OTS).map(|i| i % 3 == 0).collect();
    let (secs, bytes) = step(
        |s| s.ot_send.send_bytes(s.ch, &pairs),
        |s| {
            black_box(s.ot_recv.recv_bytes(s.ch, &choices, 16));
        },
    );
    put(&mut m, "ot.iknp_ns_per_ot", secs * 1e9 / OTS as f64, "ns");
    put(&mut m, "ot.iknp_bytes_per_ot", bytes / OTS as f64, "bytes");

    const OPRFS: usize = 1 << 13;
    let inputs: Vec<[u8; 8]> = (0..OPRFS as u64).map(|i| i.to_le_bytes()).collect();
    let input_refs: Vec<&[u8]> = inputs.iter().map(|i| i.as_slice()).collect();
    let (secs, _) = step(
        |s| {
            black_box(s.kkrt_recv.eval_batch(s.ch, &input_refs));
        },
        |s| {
            black_box(s.kkrt_send.key_batch(s.ch, OPRFS).len());
        },
    );
    put(
        &mut m,
        "ot.kkrt_ns_per_oprf",
        secs * 1e9 / OPRFS as f64,
        "ns",
    );

    // gc: the kernels alone for time, the protocol for bytes.
    let (circuit, spec) = product_circuit();
    let ands = circuit.and_count() as f64;
    let mut garbling = None;
    let secs = time(|| {
        garbling = Some(secyan_gc::scheme::garble(
            &circuit,
            hasher(),
            &mut StdRng::seed_from_u64(3),
        ));
    });
    put(&mut m, "gc.garble_ns_per_and", secs * 1e9 / ands, "ns");
    let garbling = garbling.expect("garbled at least once");
    let tables = secyan_gc::EvalTables {
        tables: garbling.tables.clone(),
    };
    let labels: Vec<Block> = (0..circuit.alice_inputs + circuit.bob_inputs)
        .map(|i| garbling.input_label(i, i % 3 == 0))
        .collect();
    let secs = time(|| {
        black_box(secyan_gc::scheme::eval(
            &circuit,
            &tables,
            &labels,
            hasher(),
        ));
    });
    put(&mut m, "gc.eval_ns_per_and", secs * 1e9 / ands, "ns");
    let alice_bits: Vec<bool> = (0..75 * 64).map(|i| i % 3 == 0).collect();
    let bob_bits = alice_bits.clone();
    let (_, bytes) = step(
        |s| {
            black_box(garble_shared(
                s.ch,
                &circuit,
                &spec,
                &alice_bits,
                &mut s.ot_send,
                hasher(),
                &mut s.rng,
            ));
        },
        |s| {
            black_box(evaluate_shared(
                s.ch,
                &circuit,
                &spec,
                &bob_bits,
                &mut s.ot_recv,
                hasher(),
            ));
        },
    );
    put(&mut m, "gc.bytes_per_and", bytes / ands, "bytes");

    // oep: a shared extended permutation over 4 096 elements.
    const ELEMS: usize = 4096;
    let xi: Vec<usize> = (0..ELEMS).map(|i| (i * 7 + 3) % ELEMS).collect();
    let shares = vec![7u64; ELEMS];
    let (secs, bytes) = step(
        |s| {
            black_box(shared_oep_perm_holder(
                s.ch,
                &xi,
                &shares,
                ring,
                &mut s.ot_recv,
            ));
        },
        |s| {
            black_box(shared_oep_other(
                s.ch,
                &shares,
                ELEMS,
                ring,
                &mut s.ot_send,
                &mut s.rng,
            ));
        },
    );
    put(
        &mut m,
        "oep.shared_oep_us_per_elem",
        secs * 1e6 / ELEMS as f64,
        "us",
    );
    put(&mut m, "oep.bytes_per_elem", bytes / ELEMS as f64, "bytes");

    // psi: circuit PSI 1 024 against 4 096, and its two local steps.
    const RECEIVER: usize = 1024;
    const SENDER: usize = 4096;
    let x: Vec<u64> = (0..RECEIVER as u64).map(|i| i * 3).collect();
    let y: Vec<(u64, u64)> = (0..SENDER as u64).map(|i| (i, i % 97)).collect();
    let (secs, bytes) = step(
        |s| {
            black_box(
                psi_receiver(
                    s.ch,
                    &x,
                    SENDER,
                    ring,
                    &mut s.kkrt_recv,
                    &mut s.ot_recv,
                    hasher(),
                    &mut VecDeque::new(),
                )
                .ind_shares
                .len(),
            );
        },
        |s| {
            black_box(
                psi_sender(
                    s.ch,
                    &y,
                    RECEIVER,
                    ring,
                    &mut s.kkrt_send,
                    &mut s.ot_send,
                    hasher(),
                    &mut s.rng,
                    &mut VecDeque::new(),
                )
                .ind_shares
                .len(),
            );
        },
    );
    put(
        &mut m,
        "psi.psi_us_per_elem",
        secs * 1e6 / (RECEIVER + SENDER) as f64,
        "us",
    );
    put(
        &mut m,
        "psi.bytes_per_elem",
        bytes / (RECEIVER + SENDER) as f64,
        "bytes",
    );

    let elements: Vec<u64> = (0..SENDER as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let secs = time(|| {
        black_box(CuckooTable::build(&elements, bin_count(SENDER), 7).seed);
    });
    put(
        &mut m,
        "psi.cuckoo_build_ns_per_elem",
        secs * 1e9 / SENDER as f64,
        "ns",
    );

    let programs: Vec<Vec<(u64, u64)>> = (0..BINS as u64)
        .map(|b| (0..8).map(|i| (b * 100 + i, b ^ i)).collect())
        .collect();
    let queries: Vec<PsiItem> = (0..BINS as u64).map(|b| PsiItem::Real(b * 100)).collect();
    let (secs, _) = step(
        |s| opprf_program(s.ch, &mut s.kkrt_send, &programs, DEGREE, &mut s.rng),
        |s| {
            black_box(opprf_evaluate(s.ch, &mut s.kkrt_recv, &queries, DEGREE));
        },
    );
    put(
        &mut m,
        "psi.opprf_program_us_per_bin",
        secs * 1e6 / BINS as f64,
        "us",
    );

    // transport: latency and bandwidth of the two real links.
    const TRIPS: usize = 2000;
    const FRAMES: usize = 64;
    let tcp = || tcp_channel_pair().expect("loopback socket pair");
    put(
        &mut m,
        "transport.mpsc_rtt_us",
        median_of(|| ping_pong(channel_pair(), TRIPS)) * 1e6 / TRIPS as f64,
        "us",
    );
    put(
        &mut m,
        "transport.tcp_rtt_us",
        median_of(|| ping_pong(tcp(), TRIPS)) * 1e6 / TRIPS as f64,
        "us",
    );
    put(
        &mut m,
        "transport.mpsc_bulk_mb_per_s",
        FRAMES as f64 / median_of(|| bulk(channel_pair(), FRAMES)),
        "MB/s",
    );
    put(
        &mut m,
        "transport.tcp_bulk_mb_per_s",
        FRAMES as f64 / median_of(|| bulk(tcp(), FRAMES)),
        "MB/s",
    );

    // par: what one empty parallel section costs at this thread count.
    const SECTIONS: usize = 10_000;
    let secs = time(|| {
        secyan_par::with_pool(|pool| {
            for _ in 0..SECTIONS {
                pool.broadcast(pool.workers(), &|part| {
                    black_box(part);
                });
            }
        });
    });
    put(
        &mut m,
        "par.broadcast_us",
        secs * 1e6 / SECTIONS as f64,
        "us",
    );

    m
}
