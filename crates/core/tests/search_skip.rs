//! The search skip-ahead is invisible: an untraced modifier (which jumps
//! over undecided search triples) and a traced one (which clocks every
//! cycle) stay in lock step through random programs — same results, cycle
//! counts, FSM states, counters, stack and information-base outputs after
//! every operation.

use mpls_core::{IbOperation, LabelStackModifier, Level, OpResult, RouterType, LEVEL_CAPACITY};
use mpls_packet::{label::LabelStackEntry, CosBits, Label};
use proptest::prelude::*;
use proptest::TestRng;

const LEVELS: [Level; 3] = [Level::L1, Level::L2, Level::L3];
const OPS: [IbOperation; 4] = [
    IbOperation::Nop,
    IbOperation::Push,
    IbOperation::Pop,
    IbOperation::Swap,
];
const TTLS: [u8; 5] = [0, 1, 2, 64, 255];

/// The untraced modifier under test and its per-cycle reference.
struct Pair {
    fast: LabelStackModifier,
    reference: LabelStackModifier,
    /// Index words written to each level, in slot order (pre-truncation).
    keys: [Vec<u64>; 3],
}

impl Pair {
    fn new(router_type: RouterType) -> Self {
        let mut fast = LabelStackModifier::new(router_type);
        let mut reference = LabelStackModifier::new(router_type);
        fast.enable_perf();
        reference.enable_perf();
        reference.enable_trace();
        Self {
            fast,
            reference,
            keys: Default::default(),
        }
    }

    /// Runs `op` on both sides and checks every observable afterwards.
    fn run(
        &mut self,
        what: &str,
        mut op: impl FnMut(&mut LabelStackModifier) -> OpResult,
    ) -> Result<(), TestCaseError> {
        let a = op(&mut self.fast);
        let b = op(&mut self.reference);
        // Keep the reference's trace (and its memory) bounded; only its
        // per-cycle stepping matters here.
        self.reference.enable_trace();
        prop_assert_eq!(a, b, "{}: result", what);
        let (f, r) = (&self.fast, &self.reference);
        prop_assert_eq!(f.total_cycles(), r.total_cycles(), "{}: total", what);
        prop_assert_eq!(f.fsm_states(), r.fsm_states(), "{}: states", what);
        prop_assert_eq!(
            serde_json::to_string(f.perf().unwrap()).unwrap(),
            serde_json::to_string(r.perf().unwrap()).unwrap(),
            "{}: perf",
            what
        );
        let (sf, sr) = (f.stack_snapshot(), r.stack_snapshot());
        prop_assert_eq!(sf.entries(), sr.entries(), "{}: stack", what);
        for level in LEVELS {
            let (lf, lr) = (f.info_base().level(level), r.info_base().level(level));
            prop_assert_eq!(
                (lf.index_out(), lf.label_out(), lf.op_out(), lf.read_index()),
                (lr.index_out(), lr.label_out(), lr.op_out(), lr.read_index()),
                "{}: {:?} outputs",
                what,
                level
            );
        }
        Ok(())
    }

    fn write(&mut self, rng: &mut TestRng, level: Level) -> Result<(), TestCaseError> {
        let keys = &mut self.keys[level.index()];
        // A small key pool relative to the fill makes duplicates common
        // (the first stored match wins); label-keyed levels also get junk
        // above bit 20, which the 20-bit index memory drops.
        let pool = 1 + keys.len() as u64 / 2;
        let mut index = rng.below(pool.max(8));
        if level != Level::L1 && rng.below(2) == 0 {
            index |= rng.below(1 << 12) << 20;
        }
        let full = keys.len() == LEVEL_CAPACITY;
        if !full {
            keys.push(index);
        }
        let label = Label::from_masked(rng.next_u64() as u32);
        let op = OPS[rng.below(4) as usize];
        self.run("write_pair", |m| m.write_pair(level, index, label, op))
    }

    /// A search key for `level`: a stored key at the first, a middle, the
    /// last or a random slot (sometimes with different bits above the
    /// comparator width), or a random key that most likely misses.
    fn key(&self, rng: &mut TestRng, level: Level) -> u64 {
        let keys = &self.keys[level.index()];
        let width = level.index_width();
        let n = keys.len();
        let stored = match rng.below(6) {
            _ if n == 0 => None,
            0 => Some(keys[0]),
            1 => Some(keys[n / 2]),
            2 => Some(keys[n - 1]),
            3 => Some(keys[rng.below(n as u64) as usize]),
            _ => None,
        };
        match stored {
            Some(k) if rng.below(2) == 0 => k ^ (rng.below(1 << 8) << width),
            Some(k) => k,
            None => rng.next_u64() >> rng.below(64),
        }
    }

    fn lookup(&mut self, rng: &mut TestRng) -> Result<(), TestCaseError> {
        let level = LEVELS[rng.below(3) as usize];
        let key = self.key(rng, level);
        self.run("lookup", |m| m.lookup(level, key))
    }

    /// Rebuilds a stack of random depth 0–3 whose top label is usually a
    /// stored key of the level the update will search, then updates it.
    fn update(&mut self, rng: &mut TestRng) -> Result<(), TestCaseError> {
        while self.fast.stack_depth() > 0 {
            self.run("drain", |m| m.user_pop())?;
        }
        let depth = rng.below(4) as usize;
        for i in 0..depth {
            let level = Level::for_stack_depth(depth);
            let label = if i + 1 == depth {
                self.key(rng, level) as u32
            } else {
                rng.next_u64() as u32
            };
            let e = LabelStackEntry::new(
                Label::from_masked(label),
                CosBits::new(rng.below(8) as u8).unwrap(),
                false,
                TTLS[rng.below(5) as usize],
            );
            self.run("push", |m| m.user_push(e))?;
        }
        let packet_id = self.key(rng, Level::L1) as u32;
        let cos = CosBits::new(rng.below(8) as u8).unwrap();
        let ttl = TTLS[rng.below(5) as usize];
        self.run("update_stack", |m| m.update_stack(packet_id, cos, ttl))
    }
}

/// Occupancy of one level: empty, a single pair, random, or full.
fn occupancy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1usize), 0usize..=1024, Just(1024usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skip_ahead_matches_per_cycle_stepping(
        fill in (occupancy(), occupancy(), occupancy()),
        ler: bool,
        seed: u64,
        ops in proptest::collection::vec(0u8..4, 1..48),
    ) {
        let mut rng = TestRng::for_test(&seed.to_string());
        let mut pair = Pair::new(if ler { RouterType::Ler } else { RouterType::Lsr });
        for (level, n) in LEVELS.into_iter().zip([fill.0, fill.1, fill.2]) {
            for _ in 0..n {
                pair.write(&mut rng, level)?;
            }
        }
        for op in ops {
            match op {
                0 => pair.lookup(&mut rng)?,
                1 | 2 => pair.update(&mut rng)?,
                _ => {
                    let level = LEVELS[rng.below(3) as usize];
                    pair.write(&mut rng, level)?;
                }
            }
        }
    }
}

#[test]
fn hits_at_first_middle_and_last_slot_and_misses_agree() {
    let mut pair = Pair::new(RouterType::Lsr);
    for i in 0..1024u64 {
        // Slot 700 repeats slot 3's key: the first copy must win.
        let index = if i == 700 { 3 } else { i + (5 << 20) };
        pair.keys[Level::L2.index()].push(index);
        let label = Label::new(i as u32).unwrap();
        pair.run("fill", |m| {
            m.write_pair(Level::L2, index, label, IbOperation::Swap)
        })
        .unwrap();
    }
    for key in [5 << 20, 3, 512, 1023, 1023 + (7 << 20), 4096, 1 << 20] {
        pair.run("lookup", |m| m.lookup(Level::L2, key)).unwrap();
    }
    let hit = pair.fast.lookup(Level::L2, 3);
    assert_eq!(hit.cycles, 3 * 4 + 5, "first copy of a duplicate key");
    let miss = pair.fast.lookup(Level::L2, 4096);
    assert_eq!(miss.cycles, 3 * 1024 + 5, "miss over a full level");
}
