//! The trace-event table: the one declaration of every [`EventKind`].
//!
//! A row gives a kind its numeric code (what a ring slot stores), its JSONL
//! name, what it records, and the meaning of its three payload words. The
//! macro generates the enum — the row's text is the variant's rustdoc —
//! with [`EventKind::ALL`], [`EventKind::name`], [`EventKind::help`] and
//! [`EventKind::payload`]; README's event reference is generated from those.
//!
//! Message class indices are
//! [`LdsMessage::class_index`](lds_core::LdsMessage::class_index) values
//! (`PING` last), named by
//! [`MESSAGE_CLASSES`](lds_core::messages::MESSAGE_CLASSES). The GC event
//! is *aggregated*: a server shard records how far its counters moved since
//! its last publish, so one event may cover several protocol steps (the
//! deltas are in `b`/`c`).

macro_rules! events {
    ($( $kind:ident = $code:literal $name:literal $help:literal [$a:literal, $b:literal, $c:literal]; )*) => {
        /// What a trace event describes, and what its payload words `a`,
        /// `b`, `c` carry. Generated from the event table in `obs/events.rs`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum EventKind {
            $(
                #[doc = $help]
                #[doc = ""]
                #[doc = concat!("`a`: ", $a, "; `b`: ", $b, "; `c`: ", $c, ".")]
                $kind = $code,
            )*
        }

        impl EventKind {
            /// Every kind, in code order.
            pub const ALL: &'static [EventKind] = &[$(EventKind::$kind,)*];

            /// The JSONL name of this kind.
            pub fn name(self) -> &'static str {
                match self { $(EventKind::$kind => $name,)* }
            }

            /// What an event of this kind records.
            pub fn help(self) -> &'static str {
                match self { $(EventKind::$kind => $help,)* }
            }

            /// The meaning of the payload words `[a, b, c]`.
            pub fn payload(self) -> [&'static str; 3] {
                match self { $(EventKind::$kind => [$a, $b, $c],)* }
            }

            pub(super) fn from_u64(code: u64) -> Option<EventKind> {
                match code {
                    $($code => Some(EventKind::$kind),)*
                    _ => None,
                }
            }
        }
    };
}

events! {
    OpSubmitted = 0 "op_submitted" "A client operation entered the pipeline."
        ["object id", "0 = write, 1 = read", "ticket"];
    OpPhase = 1 "op_phase" "A client operation crossed a protocol-phase boundary."
        ["object id", "phase entered (0 = tag, 1 = data, 2 = commit)", "ticket"];
    OpCompleted = 2 "op_completed" "A client operation completed."
        ["object id", "0 = write, 1 = read", "latency µs"];
    RouterSend = 3 "router_send" "A server handed a protocol message to the router."
        ["message class index", "from pid", "to pid"];
    TransportFault = 4 "transport_fault" "The fault-injecting transport acted on a message."
        ["0 = drop, 1 = duplicate, 2 = delay, 3 = partition", "message class index", "to pid"];
    GcEvict = 5 "gc_evict" "Committed-tag garbage collection evicted temporary-store entries."
        ["server pid", "entries evicted since the last event", "bytes evicted since the last event"];
    HealSuspect = 6 "heal_suspect" "The heartbeat monitor started suspecting a server."
        ["layer (0 = L1, 1 = L2)", "server index", "0"];
    HealClear = 7 "heal_clear" "The heartbeat monitor cleared a suspicion."
        ["layer (0 = L1, 1 = L2)", "server index", "0"];
    RepairStart = 8 "repair_start" "The heal supervisor dispatched a repair attempt."
        ["layer (0 = L1, 1 = L2)", "server index", "0"];
    RepairOk = 9 "repair_ok" "A supervised repair succeeded."
        ["layer (0 = L1, 1 = L2)", "server index", "0"];
    RepairBackoff = 10 "repair_backoff" "A supervised repair failed and its target entered backoff."
        ["layer (0 = L1, 1 = L2)", "server index", "backoff µs"];
    RepairPark = 11 "repair_park" "A repair target was parked (too few live helpers for a quorum)."
        ["layer (0 = L1, 1 = L2)", "server index", "0"];
}
