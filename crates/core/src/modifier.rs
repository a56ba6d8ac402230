//! The label stack modifier: control unit + data path, integrated
//! (paper Fig. 7), with cycle-accurate execution.
//!
//! # Cycle accounting
//!
//! An operation's cost is the number of clock cycles from the first edge
//! after the external operation lines are asserted (with the main interface
//! idle) until the edge at which the main interface returns to idle. Under
//! this convention the model reproduces Table 6 of the paper exactly:
//!
//! | operation                  | cycles          |
//! |----------------------------|-----------------|
//! | reset                      | 3               |
//! | push from the user         | 3               |
//! | pop from the user          | 3               |
//! | write label pair           | 3               |
//! | search information base    | 3k + 5 (hit at entry k), 3n + 5 (miss among n) |
//! | swap from the info base    | 6 (after the search retires)                  |
//!
//! The `3k + 5` shape is not hard-coded anywhere: it emerges from the
//! two-cycle dispatch, the one-cycle search start, the three-cycle
//! read/wait/compare loop imposed by the synchronous RAM's read latency,
//! the one-cycle output delay and the one-cycle done pulse.
//!
//! When no waveform trace is attached, [`LabelStackModifier::execute`]
//! skips the search triples whose compare cannot end the search (no match,
//! not the last stored pair) in one step: it jumps the read counter, the
//! memory outputs and the comparators to where those `3n` cycles would
//! have left them and adds `3n` to the cycle count and to [`CorePerf`].
//! Costs, outcomes and counters are unchanged; the deciding triple and
//! everything after it are clocked as before. [`LabelStackModifier::step`]
//! always advances exactly one clock, and traced runs sample every cycle.

use crate::datapath::DataPath;
use crate::fsm::{IbState, LblState, MainState, SearchState};
use crate::ops::{DiscardReason, IbOperation, Level, RouterType};
use crate::perf::CorePerf;
use mpls_packet::{label::LabelStackEntry, CosBits, Label, LabelStack, Ttl};
use mpls_rtl::{Clocked, CounterCtl, SignalId, Trace};

/// An external operation presented on the modifier's input pins
/// (`extOperation` plus the data-in bus of Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// "push from external user": push a complete 32-bit entry.
    UserPush(LabelStackEntry),
    /// "pop from external user".
    UserPop,
    /// Store a label pair: `index -> (new_label, operation)` at a level.
    WritePair {
        /// Target level.
        level: Level,
        /// Packet identifier (level 1) or old label (levels 2–3).
        index: u64,
        /// The replacement/pushed label.
        new_label: Label,
        /// What a stack update should do when this entry matches.
        op: IbOperation,
    },
    /// Read the information base: search `level` for `key`.
    Lookup {
        /// Level to search.
        level: Level,
        /// Packet identifier (level 1) or label (levels 2–3).
        key: u64,
    },
    /// "update stack command from user": the full per-packet operation —
    /// search the appropriate level, then push/pop/swap the stack.
    UpdateStack {
        /// The packet identifier, used when the stack is empty (ingress
        /// LER) and ignored otherwise.
        packet_id: u32,
        /// CoS from the control path for a fresh push ("CoS bits from
        /// control path", Fig. 12).
        push_cos: CosBits,
        /// TTL from the control path for a fresh push ("TTL from control
        /// path").
        push_ttl: Ttl,
        /// Overrides the automatic stack-depth-based level selection
        /// (the `level`/`level_source` inputs of Fig. 12).
        level_override: Option<Level>,
    },
}

/// What an executed operation produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with nothing to report (user push, write pair, reset).
    Done,
    /// A user pop returned this entry.
    Popped(LabelStackEntry),
    /// The stack over- or under-flowed on a direct user operation.
    StackFault,
    /// A write to a full level was rejected.
    WriteRejected,
    /// A lookup found the pair.
    LookupHit {
        /// The stored new label.
        label: Label,
        /// The stored operation.
        op: IbOperation,
    },
    /// A lookup found nothing (`packetdiscard` accompanies `lookup_done`).
    LookupMiss,
    /// A stack update applied this operation.
    Updated {
        /// The operation the matching entry prescribed.
        op: IbOperation,
    },
    /// The packet was discarded and the stack reset.
    Discarded(DiscardReason),
}

/// The result of a high-level operation: its outcome and its exact cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    /// Clock cycles consumed.
    pub cycles: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// Waveform probes attached to the modifier; names follow the paper's
/// Fig. 14–16 simulations.
#[derive(Debug, Clone)]
struct Probes {
    level: SignalId,
    packetid: SignalId,
    label_lookup: SignalId,
    old_label: SignalId,
    new_label: SignalId,
    operation_in: SignalId,
    save: SignalId,
    lookup: SignalId,
    w_index: SignalId,
    r_index: SignalId,
    label_out: SignalId,
    operation_out: SignalId,
    lookup_done: SignalId,
    packetdiscard: SignalId,
    stack_items: SignalId,
}

/// The embedded label stack modifier.
#[derive(Debug, Clone)]
pub struct LabelStackModifier {
    router_type: RouterType,
    main: MainState,
    lbl: LblState,
    ib: IbState,
    search: SearchState,
    dp: DataPath,
    /// Latched external operation lines; held by the user for the duration
    /// of the operation.
    cmd: Option<Command>,
    /// Level latched when a search starts.
    active_level: Level,
    /// Key latched when a search starts (packet identifier or label).
    search_key: u64,
    /// Whether the stack was empty when the update began (ingress LER
    /// push path).
    came_from_empty: bool,
    /// Result latches.
    popped: Option<LabelStackEntry>,
    discard_reason: Option<DiscardReason>,
    write_rejected: bool,
    last_search_found: bool,
    /// Free-running cycle counter.
    total_cycles: u64,
    trace: Option<(Trace, Probes)>,
    /// Optional hardware-style performance counter block; one branch per
    /// clock when disabled, see [`crate::perf`].
    perf: Option<Box<CorePerf>>,
}

impl LabelStackModifier {
    /// Creates a modifier configured as `router_type` (the `rtrtype` pin).
    pub fn new(router_type: RouterType) -> Self {
        Self {
            router_type,
            main: MainState::Idle,
            lbl: LblState::Idle,
            ib: IbState::Idle,
            search: SearchState::Idle,
            dp: DataPath::new(),
            cmd: None,
            active_level: Level::L1,
            search_key: 0,
            came_from_empty: false,
            popped: None,
            discard_reason: None,
            write_rejected: false,
            last_search_found: false,
            total_cycles: 0,
            trace: None,
            perf: None,
        }
    }

    /// The configured router type.
    pub fn router_type(&self) -> RouterType {
        self.router_type
    }

    /// Total clock cycles elapsed since construction or the last counter
    /// reset.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// The current label stack as a software value.
    pub fn stack_snapshot(&self) -> LabelStack {
        self.dp.stack.snapshot()
    }

    /// Current stack depth.
    pub fn stack_depth(&self) -> usize {
        self.dp.stack.size()
    }

    /// Read-only access to the information base (the routing-functionality
    /// interface of Fig. 6 reads through here).
    pub fn info_base(&self) -> &crate::datapath::InfoBase {
        &self.dp.info_base
    }

    /// Attaches a waveform trace; subsequent cycles are recorded with the
    /// signal names of the paper's Figs. 14–16.
    pub fn enable_trace(&mut self) {
        let mut t = Trace::new();
        let probes = Probes {
            level: t.probe("level", 2),
            packetid: t.probe("packetid", 32),
            label_lookup: t.probe("label_lookup", 20),
            old_label: t.probe("old_label", 32),
            new_label: t.probe("new_label", 20),
            operation_in: t.probe("operation_in", 2),
            save: t.probe("save", 1),
            lookup: t.probe("lookup", 1),
            w_index: t.probe("w_index", 11),
            r_index: t.probe("r_index", 10),
            label_out: t.probe("label_out", 20),
            operation_out: t.probe("operation_out", 2),
            lookup_done: t.probe("lookup_done", 1),
            packetdiscard: t.probe("packetdiscard", 1),
            stack_items: t.probe("stack_items", 2),
        };
        self.trace = Some((t, probes));
    }

    /// Detaches and returns the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take().map(|(t, _)| t)
    }

    /// Attaches a fresh performance counter block (no-op if one is already
    /// attached). Counting is purely observational: outcomes and cycle
    /// costs are unchanged.
    pub fn enable_perf(&mut self) {
        if self.perf.is_none() {
            self.perf = Some(Box::default());
        }
    }

    /// The attached counter block, if any.
    pub fn perf(&self) -> Option<&CorePerf> {
        self.perf.as_deref()
    }

    /// Detaches and returns the counter block.
    pub fn take_perf(&mut self) -> Option<Box<CorePerf>> {
        self.perf.take()
    }

    /// Re-attaches a counter block (used to carry counters across a
    /// reprogramming that rebuilds the modifier).
    pub fn set_perf(&mut self, perf: Option<Box<CorePerf>>) {
        self.perf = perf;
    }

    #[inline]
    fn perf_tick(&mut self) {
        if let Some(p) = self.perf.as_deref_mut() {
            p.tick(self.main, self.lbl, self.ib, self.search);
        }
    }

    /// Asserts the external operation lines for `cmd` without clocking:
    /// the low-level half of [`Self::execute`], for callers that want to
    /// drive [`Self::step`] themselves (FSM-schedule tests, waveform
    /// tooling). The lines stay asserted until [`Self::finish_command`].
    pub fn begin(&mut self, cmd: Command) {
        debug_assert_eq!(self.main, MainState::Idle, "modifier busy");
        self.cmd = Some(cmd);
        self.popped = None;
        self.discard_reason = None;
        self.write_rejected = false;
        // `pktdcrd` is cleared when a new operation is accepted.
        self.dp.discard_reg.set(0);
    }

    /// True from the first clock after [`Self::begin`] until the main
    /// interface returns to idle.
    pub fn busy(&self) -> bool {
        self.main != MainState::Idle
    }

    /// Deasserts the operation lines after a manually stepped command.
    pub fn finish_command(&mut self) {
        self.cmd = None;
    }

    /// Current control-unit states `(main, label-stack, info-base,
    /// search)` — for schedule verification and debugging.
    pub fn fsm_states(&self) -> (MainState, LblState, IbState, SearchState) {
        (self.main, self.lbl, self.ib, self.search)
    }

    /// Executes `cmd` to completion, returning the outcome and exact cycle
    /// cost.
    pub fn execute(&mut self, cmd: Command) -> OpResult {
        self.begin(cmd);

        let mut cycles = 0u64;
        loop {
            if self.search == SearchState::Read && self.trace.is_none() {
                cycles += 3 * self.skip_undecided_search();
            }
            self.step();
            cycles += 1;
            if cycles > 1 && self.main == MainState::Idle {
                break;
            }
            assert!(
                cycles < 8 * crate::datapath::LEVEL_CAPACITY as u64,
                "modifier failed to retire {cmd:?}"
            );
        }
        self.cmd = None;

        let outcome = match cmd {
            Command::UserPush(_) => {
                if self.dp.stack.fault() {
                    Outcome::StackFault
                } else {
                    Outcome::Done
                }
            }
            Command::UserPop => match self.popped {
                Some(e) => Outcome::Popped(e),
                None => Outcome::StackFault,
            },
            Command::WritePair { .. } => {
                if self.write_rejected {
                    Outcome::WriteRejected
                } else {
                    Outcome::Done
                }
            }
            Command::Lookup { .. } => {
                if self.last_search_found {
                    Outcome::LookupHit {
                        label: Label::from_masked(self.dp.new_label_reg.q() as u32),
                        op: IbOperation::from_bits(self.dp.op_reg.q()),
                    }
                } else {
                    Outcome::LookupMiss
                }
            }
            Command::UpdateStack { .. } => match self.discard_reason {
                Some(r) => Outcome::Discarded(r),
                None => Outcome::Updated {
                    op: IbOperation::from_bits(self.dp.op_reg.q()),
                },
            },
        };
        OpResult { cycles, outcome }
    }

    /// Asserts the reset line for the documented three cycles: control unit,
    /// interfaces and data path clear in sequence (Table 6: "Reset — 3").
    pub fn reset(&mut self) -> OpResult {
        for _ in 0..3 {
            self.sample_trace();
            self.perf_tick();
            self.total_cycles += 1;
        }
        self.main = MainState::Idle;
        self.lbl = LblState::Idle;
        self.ib = IbState::Idle;
        self.search = SearchState::Idle;
        self.cmd = None;
        self.dp.reset();
        self.popped = None;
        self.discard_reason = None;
        self.write_rejected = false;
        self.last_search_found = false;
        OpResult {
            cycles: 3,
            outcome: Outcome::Done,
        }
    }

    /// Runs `n` idle cycles (no operation asserted); useful to separate
    /// operations in recorded waveforms.
    pub fn idle(&mut self, n: u64) {
        debug_assert!(self.cmd.is_none());
        for _ in 0..n {
            self.step();
        }
    }

    // ---- convenience wrappers -------------------------------------------

    /// Pushes `entry` directly (user push).
    pub fn user_push(&mut self, entry: LabelStackEntry) -> OpResult {
        self.execute(Command::UserPush(entry))
    }

    /// Pops the top entry directly (user pop).
    pub fn user_pop(&mut self) -> OpResult {
        self.execute(Command::UserPop)
    }

    /// Stores a label pair.
    pub fn write_pair(
        &mut self,
        level: Level,
        index: u64,
        new_label: Label,
        op: IbOperation,
    ) -> OpResult {
        self.execute(Command::WritePair {
            level,
            index,
            new_label,
            op,
        })
    }

    /// Searches `level` for `key`.
    pub fn lookup(&mut self, level: Level, key: u64) -> OpResult {
        self.execute(Command::Lookup { level, key })
    }

    /// Performs the per-packet stack update.
    pub fn update_stack(&mut self, packet_id: u32, push_cos: CosBits, push_ttl: Ttl) -> OpResult {
        self.execute(Command::UpdateStack {
            packet_id,
            push_cos,
            push_ttl,
            level_override: None,
        })
    }

    // ---- the clocked machine --------------------------------------------

    /// Advances the design by one clock cycle.
    pub fn step(&mut self) {
        // Signals present during this clock period: register outputs were
        // committed at the previous edge, control outputs are Moore
        // functions of the current states. Sample the waveform first so the
        // trace reflects what an oscilloscope would see this period.
        self.sample_trace();
        self.perf_tick();

        // ---- Moore control outputs (Tables 1–5 signal names in comments).
        let enable_lbl = self.main == MainState::LblInterfaceActive; // enablelblint
        let enable_ib = self.main == MainState::IbInterfaceActive; // enableibint
        let srch_enable = // srchenbl
            self.lbl == LblState::SearchEnable || self.ib == IbState::SearchEnable;
        let srch_done = self.search.done(); // srchdone
        let item_found = self.search.found(); // itemfound
        let lbl_done = self.lbl.done(); // lblstckready / donelblupdt
                                        // ibready: Mealy — WritePair retires by itself, a search retires
                                        // when the search machine pulses done.
        let ib_ready =
            self.ib == IbState::WritePair || (self.ib == IbState::SearchEnable && srch_done);

        // ---- main interface next state (Fig. 8).
        let main_next = match self.main {
            MainState::Idle => match self.cmd {
                Some(Command::UserPush(_) | Command::UserPop | Command::UpdateStack { .. }) => {
                    MainState::LblInterfaceActive
                }
                Some(Command::WritePair { .. } | Command::Lookup { .. }) => {
                    MainState::IbInterfaceActive
                }
                None => MainState::Idle,
            },
            MainState::LblInterfaceActive => {
                if lbl_done {
                    MainState::Idle
                } else {
                    MainState::LblInterfaceActive
                }
            }
            MainState::IbInterfaceActive => {
                if ib_ready {
                    MainState::Idle
                } else {
                    MainState::IbInterfaceActive
                }
            }
        };

        // ---- label stack interface next state + data path staging (Fig. 9).
        let lbl_next = self.step_lbl(enable_lbl, srch_done, item_found);

        // ---- information base interface (Fig. 10).
        let ib_next = self.step_ib(enable_ib, srch_done);

        // ---- search machine (Fig. 11).
        let search_next = self.step_search(srch_enable);

        // ---- commit the edge.
        self.main = main_next;
        self.lbl = lbl_next;
        self.ib = ib_next;
        self.search = search_next;
        self.dp.tick();
        self.total_cycles += 1;
    }

    /// Jumps over the undecided read/wait/compare triples of the running
    /// search (see the module docs) and returns how many were skipped.
    /// The state after the jump is the state `3n` calls to [`Self::step`]
    /// would have produced, the last skipped compare included.
    fn skip_undecided_search(&mut self) -> u64 {
        let key = self.search_key;
        let cmp = if self.active_level == Level::L1 {
            &mut self.dp.cmp32
        } else {
            &mut self.dp.cmp20
        };
        let lv = self.dp.info_base.level_mut(self.active_level);
        let n = lv.skip_undecided(key, cmp.width());
        if n == 0 {
            return 0;
        }
        cmp.drive(lv.index_out(), key);
        self.dp.cmp10.drive(lv.read_index(), lv.occupancy() as u64);
        if let Some(p) = self.perf.as_deref_mut() {
            p.tick_search_triples(self.main, self.lbl, self.ib, n);
        }
        self.total_cycles += 3 * n;
        n
    }

    fn step_lbl(&mut self, enable: bool, srch_done: bool, item_found: bool) -> LblState {
        match self.lbl {
            LblState::Idle => {
                if !enable {
                    return LblState::Idle;
                }
                match self.cmd {
                    Some(Command::UserPush(_)) => LblState::UserPush,
                    Some(Command::UserPop) => LblState::UserPop,
                    Some(Command::UpdateStack {
                        packet_id,
                        level_override,
                        ..
                    }) => {
                        // Latch search context: level from the stack size
                        // (indexsource/level_source muxes) unless overridden,
                        // key from the packet identifier or the top label.
                        let depth = self.dp.stack.size();
                        self.came_from_empty = depth == 0;
                        self.active_level = level_override.unwrap_or(Level::for_stack_depth(depth));
                        self.search_key = if depth == 0 {
                            packet_id as u64
                        } else {
                            LabelStackEntry::from_bits(self.dp.stack.top_bits())
                                .label
                                .value() as u64
                        };
                        self.dp
                            .info_base
                            .level_mut(self.active_level)
                            .stage_clear_cursor();
                        LblState::SearchEnable
                    }
                    _ => LblState::Idle,
                }
            }
            LblState::UserPush => {
                if let Some(Command::UserPush(entry)) = self.cmd {
                    // External data is pushed verbatim except the S bit,
                    // which the bttmstckbit logic recomputes.
                    let e = LabelStackEntry {
                        bottom: self.dp.stack.is_empty(),
                        ..entry
                    };
                    self.dp.stack.stage_push(e.to_bits());
                }
                LblState::Idle
            }
            LblState::UserPop => {
                self.popped = self.dp.stack.top();
                self.dp.stack.stage_pop();
                LblState::Idle
            }
            LblState::SearchEnable => {
                if !srch_done {
                    LblState::SearchEnable
                } else if item_found {
                    LblState::RemoveTop
                } else {
                    // "The packet is immediately discarded if no
                    // information is found."
                    self.discard_reason = Some(DiscardReason::NoEntryFound);
                    LblState::DiscardPacket
                }
            }
            LblState::RemoveTop => {
                if self.came_from_empty {
                    // Ingress push: the modification register takes its CoS
                    // and TTL from the control path muxes instead of a
                    // removed entry (cosbitssrc/ttlsource, Fig. 12).
                    if let Some(Command::UpdateStack {
                        push_cos, push_ttl, ..
                    }) = self.cmd
                    {
                        let synth = LabelStackEntry::new(
                            Label::IPV4_EXPLICIT_NULL,
                            push_cos,
                            false,
                            push_ttl,
                        );
                        self.dp.mod_reg.set(synth.to_bits() as u64);
                    }
                } else {
                    self.dp.mod_reg.set(self.dp.stack.top_bits() as u64);
                    self.dp.stack.stage_pop();
                }
                LblState::UpdateTtl
            }
            LblState::UpdateTtl => {
                let m = LabelStackEntry::from_bits(self.dp.mod_reg.q() as u32);
                // Control-path TTLs are used verbatim (the IP layer already
                // decremented); stack TTLs are decremented by the counter.
                let loaded = if self.came_from_empty {
                    m.ttl
                } else {
                    m.ttl.wrapping_sub(1)
                };
                self.dp.ttl_ctr.control(CounterCtl::Load(loaded as u64));
                LblState::VerifyInfo
            }
            LblState::VerifyInfo => {
                let op = IbOperation::from_bits(self.dp.op_reg.q());
                let m = LabelStackEntry::from_bits(self.dp.mod_reg.q() as u32);
                let fail = self.verify_info(op, m);
                match fail {
                    Some(reason) => {
                        self.discard_reason = Some(reason);
                        LblState::DiscardPacket
                    }
                    None => match op {
                        IbOperation::Swap => LblState::PushNew,
                        IbOperation::Pop => LblState::UpdateTop,
                        IbOperation::Push => {
                            if self.came_from_empty {
                                LblState::PushNew
                            } else {
                                LblState::PushOld
                            }
                        }
                        // Nop always fails verification.
                        IbOperation::Nop => unreachable!("nop passed verification"),
                    },
                }
            }
            LblState::UpdateTop => {
                // Pop: propagate the decremented TTL into the newly exposed
                // top entry (uniform TTL model). Nothing to do when the pop
                // emptied the stack (egress LER).
                if let Some(top) = self.dp.stack.top() {
                    let updated = LabelStackEntry {
                        ttl: self.dp.ttl_ctr.value() as u8,
                        ..top
                    };
                    self.dp.stack.stage_write_top(updated.to_bits());
                }
                LblState::SaveEntry
            }
            LblState::PushOld => {
                // Push: re-push the removed entry with its decremented TTL
                // before stacking the new label on top of it.
                let m = LabelStackEntry::from_bits(self.dp.mod_reg.q() as u32);
                let old = LabelStackEntry {
                    ttl: self.dp.ttl_ctr.value() as u8,
                    bottom: self.dp.stack.is_empty(),
                    ..m
                };
                self.dp.stack.stage_push(old.to_bits());
                LblState::PushNew
            }
            LblState::PushNew => {
                // Assemble the new/modified entry register: label from the
                // label memory (via label_out), CoS unchanged (or from the
                // control path for a fresh push), TTL from the counter.
                let m = LabelStackEntry::from_bits(self.dp.mod_reg.q() as u32);
                let e = LabelStackEntry::new(
                    Label::from_masked(self.dp.new_label_reg.q() as u32),
                    m.cos,
                    self.dp.stack.is_empty(),
                    self.dp.ttl_ctr.value() as u8,
                );
                self.dp.entry_reg.set(e.to_bits() as u64);
                LblState::SaveEntry
            }
            LblState::SaveEntry => {
                // svstkval: commit the entry register into the stack for
                // the push/swap paths; the pop path already wrote the top.
                match IbOperation::from_bits(self.dp.op_reg.q()) {
                    IbOperation::Push | IbOperation::Swap => {
                        self.dp.stack.stage_push(self.dp.entry_reg.q() as u32);
                    }
                    IbOperation::Pop | IbOperation::Nop => {}
                }
                LblState::Done
            }
            LblState::DiscardPacket => {
                // "The packet is discarded (i.e. the label stack is reset)".
                self.dp.stack.stage_clear();
                self.dp.discard_reg.set(1);
                LblState::Done
            }
            LblState::Done => LblState::Idle,
        }
    }

    /// The `VERIFY INFO` checks: "Inconsistent operation or expired TTL"
    /// discards the packet.
    fn verify_info(&self, op: IbOperation, m: LabelStackEntry) -> Option<DiscardReason> {
        if self.came_from_empty {
            // Only an ingress LER may label an unlabeled packet, and only
            // with a push.
            if self.router_type == RouterType::Lsr || op != IbOperation::Push {
                return Some(DiscardReason::InconsistentOperation);
            }
            if self.dp.ttl_ctr.value() == 0 {
                return Some(DiscardReason::TtlExpired);
            }
            return None;
        }
        // The removed entry's TTL: 0 is malformed, 1 decrements to 0 —
        // "the packet is discarded when the TTL reaches zero".
        if m.ttl <= 1 {
            return Some(DiscardReason::TtlExpired);
        }
        match op {
            IbOperation::Nop => Some(DiscardReason::InconsistentOperation),
            // After REMOVE TOP the stack holds depth-1 entries; push
            // re-adds the old entry plus the new one.
            IbOperation::Push if self.dp.stack.size() + 2 > mpls_packet::EMBEDDED_STACK_DEPTH => {
                Some(DiscardReason::InconsistentOperation)
            }
            _ => None,
        }
    }

    fn step_ib(&mut self, enable: bool, srch_done: bool) -> IbState {
        match self.ib {
            IbState::Idle => {
                if !enable {
                    return IbState::Idle;
                }
                match self.cmd {
                    Some(Command::WritePair { level, .. }) => {
                        // Latch the level lines so the data path muxes (and
                        // the waveform probes) address the right memories.
                        self.active_level = level;
                        IbState::WritePair
                    }
                    Some(Command::Lookup { level, key }) => {
                        self.active_level = level;
                        self.search_key = key;
                        self.came_from_empty = false;
                        self.dp.info_base.level_mut(level).stage_clear_cursor();
                        IbState::SearchEnable
                    }
                    _ => IbState::Idle,
                }
            }
            IbState::WritePair => {
                if let Some(Command::WritePair {
                    level,
                    index,
                    new_label,
                    op,
                }) = self.cmd
                {
                    let lv = self.dp.info_base.level_mut(level);
                    if lv.is_full() {
                        self.write_rejected = true;
                    } else {
                        lv.stage_write_pair(index, new_label.value() as u64, op);
                    }
                }
                IbState::Idle
            }
            IbState::SearchEnable => {
                if srch_done {
                    IbState::Idle
                } else {
                    IbState::SearchEnable
                }
            }
        }
    }

    fn step_search(&mut self, enable: bool) -> SearchState {
        match self.search {
            SearchState::Idle => {
                if !enable {
                    return SearchState::Idle;
                }
                if self.dp.info_base.level(self.active_level).occupancy() == 0 {
                    if let Some(p) = self.perf.as_deref_mut() {
                        p.record_search(0, false);
                    }
                    SearchState::MissWait
                } else {
                    SearchState::Read
                }
            }
            SearchState::Read => {
                self.dp
                    .info_base
                    .level_mut(self.active_level)
                    .stage_read_at_cursor();
                SearchState::WaitInfo
            }
            SearchState::WaitInfo => SearchState::Compare,
            SearchState::Compare => {
                let matched = {
                    let lv = self.dp.info_base.level(self.active_level);
                    let idx_out = lv.index_out();
                    // Level 1 compares 32-bit packet identifiers, levels 2–3
                    // compare 20-bit labels (aeb_32b / aeb_20b).
                    if self.active_level == Level::L1 {
                        self.dp.cmp32.drive(idx_out, self.search_key);
                        self.dp.cmp32.aeb()
                    } else {
                        self.dp.cmp20.drive(idx_out, self.search_key);
                        self.dp.cmp20.aeb()
                    }
                };
                if matched {
                    self.last_search_found = true;
                    let depth = self.dp.info_base.level(self.active_level).read_index() + 1;
                    if let Some(p) = self.perf.as_deref_mut() {
                        p.record_search(depth, true);
                    }
                    SearchState::FoundWait
                } else {
                    let lv = self.dp.info_base.level(self.active_level);
                    let r = lv.read_index();
                    let occ = lv.occupancy() as u64;
                    // aeb_10b: next read address equals the write address —
                    // every stored pair has been examined.
                    self.dp.cmp10.drive(r + 1, occ);
                    let exhausted = r + 1 == occ;
                    self.dp
                        .info_base
                        .level_mut(self.active_level)
                        .stage_advance_cursor();
                    if exhausted {
                        self.last_search_found = false;
                        if let Some(p) = self.perf.as_deref_mut() {
                            p.record_search(occ, false);
                        }
                        SearchState::MissWait
                    } else {
                        SearchState::Read
                    }
                }
            }
            SearchState::FoundWait => {
                // "a delay occurs so the values can appear": register the
                // label/operation memory outputs.
                let lv = self.dp.info_base.level(self.active_level);
                let (label, op) = (lv.label_out(), lv.op_out());
                self.dp.new_label_reg.set(label);
                self.dp.op_reg.set(op.to_bits());
                SearchState::DoneHit
            }
            SearchState::MissWait => {
                self.last_search_found = false;
                self.dp.discard_reg.set(1);
                SearchState::DoneMiss
            }
            SearchState::DoneHit | SearchState::DoneMiss => SearchState::Idle,
        }
    }

    fn sample_trace(&mut self) {
        let Some((trace, p)) = self.trace.as_mut() else {
            return;
        };
        let cmd = self.cmd;
        let busy = self.main != MainState::Idle || cmd.is_some();
        let (save, lookup) = match cmd {
            Some(Command::WritePair { .. }) => (busy, false),
            Some(Command::Lookup { .. } | Command::UpdateStack { .. }) => (false, busy),
            _ => (false, false),
        };
        let (packetid, label_lookup, old_label_in, new_label_in, op_in, level_in) = match cmd {
            Some(Command::WritePair {
                level,
                index,
                new_label,
                op,
            }) => (
                if level == Level::L1 { index } else { 0 },
                0,
                index,
                new_label.value() as u64,
                op.to_bits(),
                level.to_bits(),
            ),
            Some(Command::Lookup { level, key }) => (
                if level == Level::L1 { key } else { 0 },
                if level == Level::L1 { 0 } else { key },
                0,
                0,
                0,
                level.to_bits(),
            ),
            Some(Command::UpdateStack { packet_id, .. }) => (
                packet_id as u64,
                self.search_key,
                0,
                0,
                0,
                self.active_level.to_bits(),
            ),
            _ => (0, 0, 0, 0, 0, self.active_level.to_bits()),
        };
        let lv = self.dp.info_base.level(Level::from_bits(level_in));
        trace.sample(p.level, level_in);
        trace.sample(p.packetid, packetid);
        trace.sample(p.label_lookup, label_lookup);
        trace.sample(p.old_label, old_label_in);
        trace.sample(p.new_label, new_label_in);
        trace.sample(p.operation_in, op_in);
        trace.sample_bool(p.save, save);
        trace.sample_bool(p.lookup, lookup);
        trace.sample(p.w_index, lv.write_index());
        trace.sample(p.r_index, lv.read_index());
        trace.sample(p.label_out, self.dp.new_label_reg.q());
        trace.sample(p.operation_out, self.dp.op_reg.q());
        trace.sample_bool(p.lookup_done, self.search.done());
        trace.sample_bool(p.packetdiscard, self.dp.packet_discard());
        trace.sample(p.stack_items, self.dp.stack.size() as u64);
        trace.commit_cycle();
    }
}
