//! The information base: three levels of index/label/operation memory
//! (paper Figs. 12 and 13).
//!
//! "Separate memory components exist for an index, label value, and
//! operation. Counters are used to address memory components so the index
//! (the packet identifier or the first part of the label pair) can be
//! associated with its corresponding label and operation. ... Each memory
//! component supports 1 KB of label pairs." (§3.2)
//!
//! Model-accuracy note: the paper addresses each level with 10-bit
//! counters and detects search exhaustion with a 10-bit comparator. A
//! 10-bit write counter cannot distinguish a *full* level (1024 entries)
//! from an *empty* one, yet the paper's own worst case fills a level with
//! 1024 pairs and then searches all of them. We therefore carry an 11-bit
//! occupancy count (equivalently, the 10-bit counter plus the `full`
//! flip-flop any real implementation would add) and refuse writes beyond
//! capacity. DESIGN.md records this as a deliberate model choice.

use crate::ops::{IbOperation, Level};
use mpls_rtl::{Clocked, Comparator, CounterCtl, SyncMemory, UpDownCounter};

/// Capacity of each level: "1 KB long" memory components hold 1024 entries.
pub const LEVEL_CAPACITY: usize = 1024;

/// One level of the information base: three parallel memory components
/// sharing read/write address counters (Fig. 13).
#[derive(Debug, Clone)]
pub struct InfoBaseLevel {
    level: Level,
    index_mem: SyncMemory,
    label_mem: SyncMemory,
    op_mem: SyncMemory,
    /// Read address counter (`r_index` in the Fig. 14–16 waveforms).
    read_ctr: UpDownCounter,
    /// Write address / occupancy counter (`w_index`); 11 bits so that a
    /// full level (1024) is representable — see the module-level note.
    write_ctr: UpDownCounter,
}

impl InfoBaseLevel {
    /// Creates an empty level.
    pub fn new(level: Level) -> Self {
        Self {
            level,
            index_mem: SyncMemory::new(level.index_width(), LEVEL_CAPACITY),
            label_mem: SyncMemory::new(20, LEVEL_CAPACITY),
            op_mem: SyncMemory::new(2, LEVEL_CAPACITY),
            read_ctr: UpDownCounter::new(10),
            write_ctr: UpDownCounter::new(11),
        }
    }

    /// Which level this is.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Number of label pairs stored.
    pub fn occupancy(&self) -> usize {
        self.write_ctr.value() as usize
    }

    /// True when no further pair fits.
    pub fn is_full(&self) -> bool {
        self.occupancy() == LEVEL_CAPACITY
    }

    /// Current read index (`r_index`).
    pub fn read_index(&self) -> u64 {
        self.read_ctr.value()
    }

    /// Current write index (`w_index`).
    pub fn write_index(&self) -> u64 {
        self.write_ctr.value()
    }

    /// Stages a write of a label pair at the write index and a write-counter
    /// increment, both committing on the next edge. Caller must have checked
    /// [`Self::is_full`]; writes to a full level are ignored (the decoder
    /// is not driven), keeping hardware semantics rather than panicking.
    pub fn stage_write_pair(&mut self, index: u64, new_label: u64, op: IbOperation) {
        if self.is_full() {
            return;
        }
        let w = self.write_ctr.value();
        self.index_mem.write(w, index);
        self.label_mem.write(w, new_label);
        self.op_mem.write(w, op.to_bits());
        self.write_ctr.control(CounterCtl::Increment);
    }

    /// Stages a read of all three components at the current read index; the
    /// words appear on the `*_out` pins after the next edge.
    pub fn stage_read_at_cursor(&mut self) {
        let r = self.read_ctr.value();
        self.index_mem.set_read_addr(r);
        self.label_mem.set_read_addr(r);
        self.op_mem.set_read_addr(r);
    }

    /// Stages a read-counter increment.
    pub fn stage_advance_cursor(&mut self) {
        self.read_ctr.control(CounterCtl::Increment);
    }

    /// Stages a read-counter clear (start of a search).
    pub fn stage_clear_cursor(&mut self) {
        self.read_ctr.control(CounterCtl::Clear);
    }

    /// Skips the undecided read/wait/compare triples of a search for `key`
    /// compared at `width` bits, starting at the read cursor.
    ///
    /// The first slot `j` at or after the cursor whose compare ends the
    /// search is either the match or the last stored pair. The level is
    /// left as if the `n` triples before it had been clocked: the read
    /// counter holds `j` and the three outputs hold slot `j - 1`. Returns
    /// `n`; with `n == 0` nothing changes. Must only be called at the
    /// start of a `READ` cycle, when nothing is staged.
    pub(crate) fn skip_undecided(&mut self, key: u64, width: u32) -> u64 {
        let from = self.read_index();
        let last = self.occupancy() as u64 - 1;
        let mut j = from;
        while j < last && !Comparator::compare(width, self.index_mem.peek(j as usize), key) {
            j += 1;
        }
        let n = j - from;
        if n > 0 {
            self.read_ctr.control(CounterCtl::Load(j));
            self.read_ctr.tick();
            for mem in [&mut self.index_mem, &mut self.label_mem, &mut self.op_mem] {
                mem.set_read_addr(j - 1);
                mem.tick();
            }
        }
        n
    }

    /// Registered output of the index component.
    pub fn index_out(&self) -> u64 {
        self.index_mem.data_out()
    }

    /// Registered output of the label component.
    pub fn label_out(&self) -> u64 {
        self.label_mem.data_out()
    }

    /// Registered output of the operation component.
    pub fn op_out(&self) -> IbOperation {
        IbOperation::from_bits(self.op_mem.data_out())
    }

    /// Debug/software peek at a stored pair, bypassing the read port. Used
    /// by the routing-functionality interface and by tests.
    pub fn peek(&self, slot: usize) -> Option<(u64, u64, IbOperation)> {
        if slot >= self.occupancy() {
            return None;
        }
        Some((
            self.index_mem.peek(slot),
            self.label_mem.peek(slot),
            IbOperation::from_bits(self.op_mem.peek(slot)),
        ))
    }
}

impl Clocked for InfoBaseLevel {
    fn tick(&mut self) {
        self.index_mem.tick();
        self.label_mem.tick();
        self.op_mem.tick();
        self.read_ctr.tick();
        self.write_ctr.tick();
    }

    fn reset(&mut self) {
        self.index_mem.reset();
        self.label_mem.reset();
        self.op_mem.reset();
        self.read_ctr.reset();
        self.write_ctr.reset();
    }
}

/// The full three-level information base.
#[derive(Debug, Clone)]
pub struct InfoBase {
    levels: [InfoBaseLevel; 3],
}

impl Default for InfoBase {
    fn default() -> Self {
        Self::new()
    }
}

impl InfoBase {
    /// Creates an empty information base.
    pub fn new() -> Self {
        Self {
            levels: [
                InfoBaseLevel::new(Level::L1),
                InfoBaseLevel::new(Level::L2),
                InfoBaseLevel::new(Level::L3),
            ],
        }
    }

    /// Immutable access to one level.
    pub fn level(&self, level: Level) -> &InfoBaseLevel {
        &self.levels[level.index()]
    }

    /// Mutable access to one level.
    pub fn level_mut(&mut self, level: Level) -> &mut InfoBaseLevel {
        &mut self.levels[level.index()]
    }

    /// Total pairs stored across all levels.
    pub fn total_occupancy(&self) -> usize {
        self.levels.iter().map(|l| l.occupancy()).sum()
    }
}

impl Clocked for InfoBase {
    fn tick(&mut self) {
        for l in &mut self.levels {
            l.tick();
        }
    }

    fn reset(&mut self) {
        for l in &mut self.levels {
            l.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_increments_w_index() {
        let mut l = InfoBaseLevel::new(Level::L1);
        for i in 0..10u64 {
            l.stage_write_pair(600 + i, 500 + i, IbOperation::Swap);
            l.tick();
            assert_eq!(l.write_index(), i + 1, "w_index after write {i}");
        }
        assert_eq!(l.occupancy(), 10);
        assert_eq!(l.peek(4), Some((604, 504, IbOperation::Swap)));
    }

    #[test]
    fn read_port_has_registered_latency() {
        let mut l = InfoBaseLevel::new(Level::L2);
        l.stage_write_pair(7, 700, IbOperation::Pop);
        l.tick();
        l.stage_clear_cursor();
        l.tick();
        l.stage_read_at_cursor();
        assert_eq!(l.label_out(), 0, "pre-edge output");
        l.tick();
        assert_eq!(l.index_out(), 7);
        assert_eq!(l.label_out(), 700);
        assert_eq!(l.op_out(), IbOperation::Pop);
    }

    #[test]
    fn level1_index_is_32_bits_wide() {
        let mut l = InfoBaseLevel::new(Level::L1);
        l.stage_write_pair(0xFFFF_FFFF, 1, IbOperation::Push);
        l.tick();
        assert_eq!(l.peek(0).unwrap().0, 0xFFFF_FFFF);
    }

    #[test]
    fn level2_index_truncates_to_20_bits() {
        let mut l = InfoBaseLevel::new(Level::L2);
        l.stage_write_pair(0xFFFF_FFFF, 1, IbOperation::Push);
        l.tick();
        assert_eq!(l.peek(0).unwrap().0, 0xF_FFFF);
    }

    #[test]
    fn fills_to_exactly_1024_then_rejects() {
        let mut l = InfoBaseLevel::new(Level::L3);
        for i in 0..LEVEL_CAPACITY as u64 {
            assert!(!l.is_full());
            l.stage_write_pair(i, i, IbOperation::Swap);
            l.tick();
        }
        assert!(l.is_full());
        assert_eq!(l.occupancy(), 1024);
        l.stage_write_pair(9999, 9999, IbOperation::Swap);
        l.tick();
        assert_eq!(l.occupancy(), 1024, "write to full level ignored");
        assert_eq!(l.peek(0), Some((0, 0, IbOperation::Swap)));
    }

    #[test]
    fn cursor_controls() {
        let mut l = InfoBaseLevel::new(Level::L2);
        l.stage_advance_cursor();
        l.tick();
        l.stage_advance_cursor();
        l.tick();
        assert_eq!(l.read_index(), 2);
        l.stage_clear_cursor();
        l.tick();
        assert_eq!(l.read_index(), 0);
    }

    #[test]
    fn reset_empties_all_levels() {
        let mut ib = InfoBase::new();
        ib.level_mut(Level::L1)
            .stage_write_pair(1, 2, IbOperation::Push);
        ib.tick();
        ib.level_mut(Level::L2)
            .stage_write_pair(3, 4, IbOperation::Swap);
        ib.tick();
        assert_eq!(ib.total_occupancy(), 2);
        ib.reset();
        assert_eq!(ib.total_occupancy(), 0);
        assert_eq!(ib.level(Level::L1).peek(0), None);
    }
}
