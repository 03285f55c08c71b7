//! Seeded property tests for the chunk-striped assembly state machines
//! under at-least-once, out-of-order delivery — the automaton-level
//! counterpart of the transport-level adversarial suite in
//! `tests/partition.rs`.
//!
//! PR 6's hand-built interleavings pinned down specific schedules
//! (rotated streams, two-sender interleaves, monolithic supersede); these
//! tests extend them with *seeded random* schedules: every `PUT-STRIPE` /
//! `WRITE-CODE-STRIPE` part of one `(obj, tag, sender)` stream duplicated
//! 1–3× and shuffled, driven straight into an [`L1Server`] / [`L2Server`]
//! via the same `step()` idiom the unit tests use. Whatever the order:
//!
//! * the assembled value / coded element is byte-identical to a clean
//!   delivery (no corruption, no mixing of duplicate payloads);
//! * completions never exceed the number of full part-sets delivered and
//!   acks are never doubled for a single completed stream;
//! * no complete part-set is ever stranded in a pending assembly.
//!
//! Seeded through `lds_workload::seed::chaos_seed` like every adversarial
//! test; failures print a one-line `LDS_CHAOS_SEED=…` repro command.

use lds_core::backend::{make_backend, BackendCodec, BackendKind};
use lds_core::server1::{L1Options, L1Server};
use lds_core::stripe;
use lds_core::{
    ClientId, L2Server, LdsMessage, Membership, ObjectId, OpId, Profile, ReadPayload, SystemParams,
    Tag, Value,
};
use lds_sim::{Context, Process, ProcessId};
use lds_workload::seed::{chaos_seed, repro_guard};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const DEFAULT_SEED: u64 = 0xC4A0_5EED;
const TRIALS: u64 = 50;
const STRIPE: usize = 64;

fn setup() -> (SystemParams, Membership, Arc<dyn BackendCodec>) {
    let params = SystemParams::for_failures(1, 1, 2, 3).unwrap(); // n1=4, n2=5
    let l1: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    let l2: Vec<ProcessId> = (4..9).map(ProcessId).collect();
    let membership = Membership::new(l1, l2);
    let backend = make_backend(BackendKind::Mbr, &params).unwrap();
    (params, membership, backend)
}

/// L2 server 1 of the paper profile (the one that acknowledges).
fn l2_server(membership: &Membership, backend: &Arc<dyn BackendCodec>) -> L2Server {
    L2Server::new(
        1,
        membership.clone(),
        Arc::clone(backend),
        Profile::PaperFaithful,
    )
}

// Both helpers run the automaton standalone: the pid only stamps outgoing
// messages, so a fixed id per layer (L1 server 0, an out-of-band L2 pid) is
// fine for these single-server schedules.
fn step_l1(
    server: &mut L1Server,
    from: ProcessId,
    msg: LdsMessage,
) -> Vec<(ProcessId, LdsMessage)> {
    let mut outgoing = Vec::new();
    let mut events = Vec::new();
    let mut ctx = Context::standalone(
        ProcessId(0),
        lds_sim::SimTime::ZERO,
        &mut outgoing,
        &mut events,
    );
    server.on_message(from, msg, &mut ctx);
    outgoing
}

fn step_l2(
    server: &mut L2Server,
    from: ProcessId,
    msg: LdsMessage,
) -> Vec<(ProcessId, LdsMessage)> {
    let mut outgoing = Vec::new();
    let mut events = Vec::new();
    let mut ctx = Context::standalone(
        ProcessId(101),
        lds_sim::SimTime::ZERO,
        &mut outgoing,
        &mut events,
    );
    server.on_message(from, msg, &mut ctx);
    outgoing
}

/// Duplicates every schedule entry to a multiplicity drawn from `1..=3`
/// and Fisher–Yates-shuffles the result. Returns the schedule and the
/// smallest multiplicity (the upper bound on how many complete part-sets
/// the schedule can contain).
fn duplicate_and_shuffle<T: Clone>(items: &[T], rng: &mut SmallRng) -> (Vec<T>, usize) {
    let mut schedule = Vec::new();
    let mut min_mult = usize::MAX;
    for item in items {
        let mult = rng.gen_range(1..=3usize);
        min_mult = min_mult.min(mult);
        for _ in 0..mult {
            schedule.push(item.clone());
        }
    }
    for i in (1..schedule.len()).rev() {
        let j = rng.gen_range(0..=i);
        schedule.swap(i, j);
    }
    (schedule, min_mult)
}

/// Pure shuffle, each part exactly once.
fn shuffle<T: Clone>(items: &[T], rng: &mut SmallRng) -> Vec<T> {
    let mut schedule = items.to_vec();
    for i in (1..schedule.len()).rev() {
        let j = rng.gen_range(0..=i);
        schedule.swap(i, j);
    }
    schedule
}

/// The striped parts addressed to L2 index `l2_index`, as
/// `(seq, count, part)` triples from the streaming encoder.
fn striped_parts(
    backend: &Arc<dyn BackendCodec>,
    value: &Value,
    l2_index: usize,
) -> Vec<(u32, u32, lds_codes::Share)> {
    let mut parts = Vec::new();
    stripe::encode_elements_striped(&**backend, value, STRIPE, {
        let parts = &mut parts;
        move |l2, seq, count, part| {
            if l2 == l2_index {
                parts.push((seq, count, part));
            }
        }
    })
    .unwrap();
    parts
}

/// Commits `tag` at the L1 server (three broadcast origins reach the
/// `f1 + k` threshold) and returns everything the server emitted.
fn commit_at_l1(s: &mut L1Server, obj: ObjectId, tag: Tag) -> Vec<(ProcessId, LdsMessage)> {
    let mut out = Vec::new();
    for origin in 0..3 {
        out.extend(step_l1(
            s,
            ProcessId(origin),
            LdsMessage::BcastDeliver {
                obj,
                tag,
                origin: ProcessId(origin),
            },
        ));
    }
    out
}

/// Reordered (but not duplicated) PUT-STRIPE streams: whatever the
/// permutation, the value assembles exactly once, byte-identical, with no
/// pending residue — and after commit the server serves it and acks the
/// writer exactly once.
#[test]
fn reordered_put_stripe_streams_assemble_once_and_serve_the_exact_value() {
    let base = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(base, "stripe_faults");
    let (params, membership, backend) = setup();
    for trial in 0..TRIALS {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(trial));
        let len = rng.gen_range(STRIPE..8 * STRIPE);
        let source = Value::new((0..len).map(|i| ((i * 37 + 11) % 251) as u8).collect());
        let spans = stripe::stripe_spans(source.len(), STRIPE);
        let count = spans.len() as u32;
        let parts: Vec<(u32, Value)> = spans
            .iter()
            .enumerate()
            .map(|(i, span)| (i as u32, source.slice(span.clone())))
            .collect();
        let schedule = shuffle(&parts, &mut rng);

        let mut s = L1Server::new(
            0,
            params,
            membership.clone(),
            Arc::clone(&backend),
            L1Options::default(),
        );
        let obj = ObjectId(trial);
        let tag = Tag::new(1, ClientId(3));
        let writer = ProcessId(77);
        for (seq, part) in schedule {
            step_l1(
                &mut s,
                writer,
                LdsMessage::PutStripe {
                    obj,
                    op: OpId::default(),
                    tag,
                    seq,
                    count,
                    stripe: part,
                },
            );
        }
        assert_eq!(
            s.pending_stripe_parts(),
            0,
            "trial {trial}: completed assembly must be dropped"
        );
        assert_eq!(s.live_list_entries(), 1, "trial {trial}: one listed write");
        assert_eq!(
            s.temporary_storage_bytes(),
            source.len(),
            "trial {trial}: reassembled value has the wrong size"
        );

        let commit_out = commit_at_l1(&mut s, obj, tag);
        let acks = commit_out
            .iter()
            .filter(|(to, m)| *to == writer && matches!(m, LdsMessage::AckPutData { .. }))
            .count();
        assert_eq!(acks, 1, "trial {trial}: exactly one writer ack");
        let out = step_l1(
            &mut s,
            ProcessId(80),
            LdsMessage::QueryData {
                obj,
                op: OpId::default(),
                treq: tag,
            },
        );
        match &out[0].1 {
            LdsMessage::DataResp {
                payload: ReadPayload::Value(v),
                ..
            } => assert_eq!(*v, source, "trial {trial}: reassembled value corrupted"),
            other => panic!("trial {trial}: expected a value response, got {other:?}"),
        }
    }
}

/// Duplicated + shuffled PUT-STRIPE streams: repeated parts must never
/// double-list the write, never corrupt or resize the assembled value, and
/// never strand a complete part-set in a pending assembly.
#[test]
fn duplicated_put_stripe_streams_never_double_commit_or_corrupt() {
    let base = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(base, "stripe_faults");
    let (params, membership, backend) = setup();
    for trial in 0..TRIALS {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(0x5EED).wrapping_add(trial));
        let len = rng.gen_range(STRIPE..8 * STRIPE);
        let source = Value::new((0..len).map(|i| ((i * 29 + 5) % 251) as u8).collect());
        let spans = stripe::stripe_spans(source.len(), STRIPE);
        let count = spans.len() as u32;
        let parts: Vec<(u32, Value)> = spans
            .iter()
            .enumerate()
            .map(|(i, span)| (i as u32, source.slice(span.clone())))
            .collect();
        let (schedule, _) = duplicate_and_shuffle(&parts, &mut rng);

        let mut s = L1Server::new(
            0,
            params,
            membership.clone(),
            Arc::clone(&backend),
            L1Options::default(),
        );
        let obj = ObjectId(trial);
        let tag = Tag::new(2, ClientId(5));
        let writer = ProcessId(77);
        for (seq, part) in schedule {
            step_l1(
                &mut s,
                writer,
                LdsMessage::PutStripe {
                    obj,
                    op: OpId::default(),
                    tag,
                    seq,
                    count,
                    stripe: part,
                },
            );
        }
        // Duplicates may re-open a partial assembly after the stream
        // completed, but a *complete* set can never be stranded: the
        // moment the last distinct seq lands, the assembly completes and
        // is removed.
        assert!(
            s.pending_stripe_parts() < count as usize,
            "trial {trial}: a full part-set was stranded ({} parts pending of {count})",
            s.pending_stripe_parts()
        );
        assert_eq!(
            s.live_list_entries(),
            1,
            "trial {trial}: duplicates double-listed the write"
        );
        assert_eq!(
            s.temporary_storage_bytes(),
            source.len(),
            "trial {trial}: duplicates corrupted the stored value size"
        );

        let commit_out = commit_at_l1(&mut s, obj, tag);
        let acks = commit_out
            .iter()
            .filter(|(to, m)| *to == writer && matches!(m, LdsMessage::AckPutData { .. }))
            .count();
        assert_eq!(acks, 1, "trial {trial}: the writer was double-acked");
        let out = step_l1(
            &mut s,
            ProcessId(80),
            LdsMessage::QueryData {
                obj,
                op: OpId::default(),
                treq: tag,
            },
        );
        match &out[0].1 {
            LdsMessage::DataResp {
                payload: ReadPayload::Value(v),
                ..
            } => assert_eq!(*v, source, "trial {trial}: duplicates corrupted the value"),
            other => panic!("trial {trial}: expected a value response, got {other:?}"),
        }
    }
}

/// Duplicated + shuffled WRITE-CODE-STRIPE streams at an L2 server: the
/// stored coded element must be indistinguishable from a clean monolithic
/// write (same tag, same size, identical helper responses), acks are
/// bounded by the number of complete part-sets the schedule could contain,
/// and no complete set is ever stranded.
#[test]
fn duplicated_write_code_stripe_streams_store_the_exact_element() {
    let base = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(base, "stripe_faults");
    let (_, membership, backend) = setup();
    for trial in 0..TRIALS {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(0xE1EE7).wrapping_add(trial));
        let len = rng.gen_range(STRIPE..8 * STRIPE);
        let value = Value::new((0..len).map(|i| ((i * 41 + 3) % 251) as u8).collect());
        let parts = striped_parts(&backend, &value, 1);
        let count = parts[0].1;
        let (schedule, min_mult) = duplicate_and_shuffle(&parts, &mut rng);

        let mut s = l2_server(&membership, &backend);
        let obj = ObjectId(trial);
        let tag = Tag::new(1, ClientId(1));
        let sender = membership.l1[0];
        let mut acks = 0usize;
        for (seq, count, part) in schedule {
            let out = step_l2(
                &mut s,
                sender,
                LdsMessage::WriteCodeStripe {
                    obj,
                    tag,
                    seq,
                    count,
                    part,
                },
            );
            acks += out
                .iter()
                .filter(|(_, m)| matches!(m, LdsMessage::AckCodeElem { tag: t, .. } if *t == tag))
                .count();
        }
        assert!(acks >= 1, "trial {trial}: the stream never completed");
        assert!(
            acks <= min_mult,
            "trial {trial}: {acks} acks exceed the {min_mult} complete part-sets delivered"
        );
        assert!(
            s.pending_stripe_parts() < count as usize,
            "trial {trial}: a full part-set was stranded"
        );
        assert_eq!(s.stored_tag(obj), tag, "trial {trial}: wrong stored tag");

        // The duplicated-stream server must answer element queries exactly
        // like a control server that took the same stream cleanly (in
        // order, each part once). A *monolithic* control would not do: a
        // striped element is intentionally stored with its stripe layout.
        let mut control = l2_server(&membership, &backend);
        for (seq, count, part) in parts.clone() {
            step_l2(
                &mut control,
                sender,
                LdsMessage::WriteCodeStripe {
                    obj,
                    tag,
                    seq,
                    count,
                    part,
                },
            );
        }
        assert_eq!(
            s.storage_bytes(),
            control.storage_bytes(),
            "trial {trial}: duplicated stream stored a different-sized element"
        );
        let query = |server: &mut L2Server| {
            step_l2(
                server,
                sender,
                LdsMessage::QueryCodeElem {
                    obj,
                    reader: ProcessId(50),
                    op: OpId::default(),
                },
            )
        };
        assert_eq!(
            query(&mut s),
            query(&mut control),
            "trial {trial}: duplicated stream serves a corrupt element"
        );
    }
}

/// Two senders stream the same `(obj, tag)` concurrently — as every
/// offloading L1 server does — while the adversary duplicates and reorders
/// *within* each stream. Per-sender assembly isolation must hold: each
/// sender earns at least one ack and the element is never cross-
/// contaminated (identical helper responses to a monolithic control).
#[test]
fn interleaved_duplicated_streams_from_two_senders_stay_isolated() {
    let base = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(base, "stripe_faults");
    let (_, membership, backend) = setup();
    for trial in 0..TRIALS {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(0xD00D).wrapping_add(trial));
        let len = rng.gen_range(STRIPE..6 * STRIPE);
        let value = Value::new((0..len).map(|i| ((i * 13 + 7) % 251) as u8).collect());
        let parts = striped_parts(&backend, &value, 1);
        let senders = [membership.l1[0], membership.l1[1]];
        // One independently duplicated/shuffled schedule per sender, then a
        // random interleave of the two.
        let (a, _) = duplicate_and_shuffle(&parts, &mut rng);
        let (b, _) = duplicate_and_shuffle(&parts, &mut rng);
        let mut streams = [
            a.into_iter().map(|p| (senders[0], p)).collect::<Vec<_>>(),
            b.into_iter().map(|p| (senders[1], p)).collect::<Vec<_>>(),
        ];
        let mut schedule = Vec::new();
        while !streams[0].is_empty() || !streams[1].is_empty() {
            let pick = if streams[0].is_empty() {
                1
            } else if streams[1].is_empty() {
                0
            } else {
                usize::from(rng.gen_bool(0.5))
            };
            schedule.push(streams[pick].remove(0));
        }

        let mut s = l2_server(&membership, &backend);
        let obj = ObjectId(trial);
        let tag = Tag::new(3, ClientId(2));
        let mut acks_by_sender = [0usize; 2];
        for (sender, (seq, count, part)) in schedule {
            let out = step_l2(
                &mut s,
                sender,
                LdsMessage::WriteCodeStripe {
                    obj,
                    tag,
                    seq,
                    count,
                    part,
                },
            );
            for (to, m) in out {
                if matches!(m, LdsMessage::AckCodeElem { tag: t, .. } if t == tag) {
                    let which = senders.iter().position(|&p| p == to).unwrap();
                    acks_by_sender[which] += 1;
                }
            }
        }
        for (which, &acks) in acks_by_sender.iter().enumerate() {
            assert!(
                acks >= 1,
                "trial {trial}: sender {which} completed a stream but was never acked"
            );
        }
        assert_eq!(s.stored_tag(obj), tag);

        // Clean-stream control, as above: same parts, one sender, in order.
        let mut control = l2_server(&membership, &backend);
        for (seq, count, part) in parts.clone() {
            step_l2(
                &mut control,
                senders[0],
                LdsMessage::WriteCodeStripe {
                    obj,
                    tag,
                    seq,
                    count,
                    part,
                },
            );
        }
        let query = |server: &mut L2Server| {
            step_l2(
                server,
                senders[0],
                LdsMessage::QueryCodeElem {
                    obj,
                    reader: ProcessId(50),
                    op: OpId::default(),
                },
            )
        };
        assert_eq!(
            query(&mut s),
            query(&mut control),
            "trial {trial}: interleaved duplicated streams cross-contaminated the element"
        );
    }
}
