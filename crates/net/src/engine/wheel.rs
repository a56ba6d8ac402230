//! Per-shard event wheel.
//!
//! A hybrid timing wheel: near-future events land in a ring of time
//! slots, far-future events in an overflow heap, and the slot currently
//! being drained in a small binary heap ordered by `(time, key)`. The
//! key (see [`LocalEvent::key`]) is a canonical, sharding-invariant
//! ordering, so the pop sequence — and therefore the simulation — is
//! identical for any slot width and any partitioning of the topology.
//!
//! The ring, the overflow and the current heap move only 40-byte
//! `(time, key, slot)` entries; the events themselves sit still in a
//! slab until they pop, and a popped event's slot is reused by the next
//! schedule.

use super::shard::{EventKey, LocalEvent};
use crate::event::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Ring size; slots beyond the window overflow into a heap.
const SLOTS: usize = 256;

struct Entry {
    time: SimTime,
    key: EventKey,
    /// Index of the event in [`EventWheel::events`].
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted for earliest-(time, key)-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// Earliest-first pending-event store for one shard.
pub(crate) struct EventWheel {
    slot_ns: u64,
    /// `ring[s % SLOTS]` holds events of absolute slot `s` for
    /// `s` in `(cursor, cursor + SLOTS)`.
    ring: Vec<Vec<Entry>>,
    ring_len: usize,
    /// Events at slots at or beyond `cursor + SLOTS`.
    overflow: BinaryHeap<Entry>,
    /// Loaded events of slots `<= cursor`, min-first by `(time, key)`.
    current: BinaryHeap<Entry>,
    /// Absolute index of the most recently loaded slot.
    cursor: u64,
    /// Pending events, addressed by their entries' `slot`; `None` slots
    /// are listed in `free`.
    events: Vec<Option<LocalEvent>>,
    free: Vec<u32>,
}

impl EventWheel {
    /// An empty wheel with the given slot width (ns). Width only affects
    /// performance, never ordering.
    pub fn new(slot_ns: u64) -> Self {
        Self {
            slot_ns: slot_ns.max(1),
            ring: (0..SLOTS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            current: BinaryHeap::new(),
            cursor: 0,
            events: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Schedules `ev` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, ev: LocalEvent) {
        let key = ev.key();
        let slot = match self.free.pop() {
            Some(s) => {
                self.events[s as usize] = Some(ev);
                s
            }
            None => {
                self.events.push(Some(ev));
                u32::try_from(self.events.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let e = Entry { time, key, slot };
        let wslot = time / self.slot_ns;
        if wslot <= self.cursor {
            self.current.push(e);
        } else if wslot - self.cursor < SLOTS as u64 {
            self.ring[(wslot % SLOTS as u64) as usize].push(e);
            self.ring_len += 1;
        } else {
            self.overflow.push(e);
        }
    }

    /// Makes `current` hold the globally earliest pending event (if any
    /// events are pending at all) by advancing the cursor.
    fn refill(&mut self) {
        while self.current.is_empty() && (self.ring_len > 0 || !self.overflow.is_empty()) {
            if self.ring_len == 0 {
                // Ring empty: jump straight to the earliest overflow slot
                // instead of stepping through empty slots one by one.
                let t = self.overflow.peek().expect("overflow non-empty").time;
                self.cursor = self.cursor.max(t / self.slot_ns);
            } else {
                self.cursor += 1;
            }
            let idx = (self.cursor % SLOTS as u64) as usize;
            let drained = self.ring[idx].len();
            self.ring_len -= drained;
            self.current.extend(self.ring[idx].drain(..));
            while self
                .overflow
                .peek()
                .is_some_and(|e| e.time / self.slot_ns <= self.cursor)
            {
                let e = self.overflow.pop().expect("peeked");
                self.current.push(e);
            }
        }
    }

    /// Pops the earliest event strictly before `before` — the epoch
    /// boundary — in `(time, key)` order.
    pub fn pop_next(&mut self, before: SimTime) -> Option<(SimTime, LocalEvent)> {
        self.refill();
        if self.current.peek()?.time >= before {
            return None;
        }
        let e = self.current.pop().expect("peeked");
        let ev = self.events[e.slot as usize].take().expect("live slot");
        self.free.push(e.slot);
        Some((e.time, ev))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.refill();
        self.current.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len() - self.free.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tick(flow: usize) -> LocalEvent {
        LocalEvent::SourceEmit { flow }
    }

    #[test]
    fn pops_in_time_order_across_slots_and_overflow() {
        let mut w = EventWheel::new(100);
        // Same slot, next slot, far beyond the ring, and slot zero.
        for &t in &[250u64, 90, 1_000_000, 3, 255, 26_000] {
            w.schedule(t, tick(t as usize));
        }
        assert_eq!(w.len(), 6);
        assert_eq!(w.peek_time(), Some(3));
        let mut seen = Vec::new();
        while let Some((t, _)) = w.pop_next(SimTime::MAX) {
            seen.push(t);
        }
        assert_eq!(seen, vec![3, 90, 250, 255, 26_000, 1_000_000]);
        assert!(w.is_empty());
    }

    #[test]
    fn equal_times_pop_in_key_order_regardless_of_insertion() {
        let mut w = EventWheel::new(1_000);
        w.schedule(500, LocalEvent::TransmitDone { channel: 2, gen: 0 });
        w.schedule(500, tick(9));
        w.schedule(500, tick(1));
        let keys: Vec<EventKey> =
            std::iter::from_fn(|| w.pop_next(600).map(|(_, e)| e.key())).collect();
        // SourceEmit (class 0) by flow id, then TransmitDone (class 2).
        assert_eq!(keys, vec![(0, 1, 0), (0, 9, 0), (2, 2, 0)]);
    }

    #[test]
    fn entries_stay_small_whatever_the_event_size() {
        assert_eq!(std::mem::size_of::<Entry>(), 40);
        assert!(
            std::mem::size_of::<LocalEvent>() > 100,
            "events live out of line"
        );
    }

    #[test]
    fn pop_next_respects_the_epoch_boundary() {
        let mut w = EventWheel::new(10);
        w.schedule(5, tick(0));
        w.schedule(15, tick(1));
        assert_eq!(w.pop_next(10).map(|(t, _)| t), Some(5));
        assert!(w.pop_next(10).is_none(), "15 is at or past the boundary");
        assert_eq!(w.len(), 1);
        // Events scheduled mid-drain for the current slot still pop.
        w.schedule(15, tick(2));
        assert_eq!(w.pop_next(16).map(|(t, _)| t), Some(15));
        assert_eq!(w.pop_next(16).map(|(t, _)| t), Some(15));
        assert!(w.is_empty());
    }

    /// An event of key class `class` (0–5 map onto the six variants)
    /// with key components drawn from `a` and `b`.
    fn event_of(class: u8, a: u64, b: u64) -> LocalEvent {
        use crate::sim::tests_support::packet_with_cos;
        let (a, b) = (a as usize, b as usize);
        match class {
            0 => tick(a),
            1 => LocalEvent::Arrive {
                node: a as u32,
                local: 0,
                packet: packet_with_cos(0, 0),
                via: Some((b, 0)),
            },
            2 => LocalEvent::TransmitDone {
                channel: a,
                gen: b as u64,
            },
            3 => LocalEvent::Ack {
                flow: a,
                seq: b as u64,
                ecn: false,
            },
            4 => LocalEvent::XferArrive { flow: a },
            _ => LocalEvent::RtoCheck { flow: a },
        }
    }

    proptest! {
        /// Random interleavings of `schedule` and `pop_next` pop exactly
        /// the `(time, key)` sequence of a sorted reference, with times in
        /// the current slot, the ring and the overflow and many
        /// same-instant keys of every class; freed slab slots are reused,
        /// so the slab never outgrows the peak number of pending events.
        #[test]
        fn pops_match_a_sorted_reference(
            ops in proptest::collection::vec(
                (0u8..10, 0u64..1_000_000, 0u8..6, 0u64..3, 0u64..3),
                1..600,
            ),
        ) {
            use std::collections::BTreeMap;
            let mut w = EventWheel::new(100);
            let mut reference: BTreeMap<(SimTime, EventKey), ()> = BTreeMap::new();
            let mut clock: SimTime = 0;
            let mut peak = 0usize;
            for (op, r, class, a, b) in ops {
                if op < 7 {
                    // Same instant, same slot, in the ring window (256
                    // slots of 100 ns) or beyond it, past the clock.
                    let time = clock + match op {
                        0 | 1 => 0,
                        2 | 3 => r % 100,
                        4 | 5 => r % 25_600,
                        _ => r,
                    };
                    let ev = event_of(class, a, b);
                    if reference.insert((time, ev.key()), ()).is_none() {
                        w.schedule(time, ev);
                    }
                    peak = peak.max(reference.len());
                } else {
                    let before = clock + r % 50_000;
                    let want = reference
                        .keys()
                        .next()
                        .copied()
                        .filter(|&(t, _)| t < before);
                    let got = w.pop_next(before).map(|(t, ev)| (t, ev.key()));
                    prop_assert_eq!(got, want);
                    if let Some(k) = want {
                        reference.remove(&k);
                        clock = k.0;
                    }
                }
                prop_assert_eq!(w.len(), reference.len());
                prop_assert!(w.events.len() <= peak, "slab {} > peak {}", w.events.len(), peak);
            }
            // Drain: the remainder pops in reference order too.
            prop_assert_eq!(w.peek_time(), reference.keys().next().map(|&(t, _)| t));
            let rest: Vec<(SimTime, EventKey)> =
                std::iter::from_fn(|| w.pop_next(SimTime::MAX).map(|(t, ev)| (t, ev.key())))
                    .collect();
            prop_assert_eq!(rest, reference.into_keys().collect::<Vec<_>>());
            prop_assert!(w.is_empty());
        }
    }
}
