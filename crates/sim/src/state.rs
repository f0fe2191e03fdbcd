//! The machine state both simulator loops run over.
//!
//! The interpreter ([`crate::machine`]) and the compiled machine
//! ([`crate::turbo`]) are two loops over one machine (paper §5.1):
//! in-order issue with CRAY-1 interlocking, the Table 1 register
//! exception tags and the Table 2 store buffer. [`MachineState`] is that
//! machine's state. It also owns what both loops do the same way: the
//! stall charge of moving the issue cursor forward, and the bookkeeping
//! that ends a run (the halt and abort flushes) or resumes one (the
//! recovery budget). Each loop keeps only its dispatch and timing code,
//! and [`SimSession`](crate::SimSession) reads every accessor from here.

use sentinel_isa::InsnId;
use sentinel_prog::profile::Profile;
use sentinel_trace::StallReason;

use crate::cache::DataCache;
use crate::except::{ExceptionKind, PcHistoryQueue, Trap};
use crate::hash::FastMap;
use crate::memory::Memory;
use crate::regfile::{RegBanks, RegFile};
use crate::sem::boost::ShadowState;
use crate::sem::storebuf::StoreBuffer;
use crate::sem::{self, ArchState};
use crate::stats::Stats;
use crate::{RunOutcome, SimConfig, SimError};

/// Everything a run updates, whichever loop runs it.
pub(crate) struct MachineState {
    pub config: SimConfig,
    pub regs: RegFile,
    pub mem: Memory,
    pub sb: StoreBuffer,
    /// The PC history queue (paper §3.2).
    pub pcq: PcHistoryQueue,
    /// Debug side-table: excepting PC → concrete cause.
    pub kinds: FastMap<InsnId, ExceptionKind>,
    pub stats: Stats,
    pub profile: Profile,
    /// Shadow register file + shadow store buffers (boosting, §2.3).
    pub shadow: ShadowState,
    /// Optional timing-only data cache.
    pub cache: Option<DataCache>,
    /// The cycle now issuing, and the issue and branch slots it has used.
    pub cycle: u64,
    pub slots_used: usize,
    pub branches_used: usize,
    /// Register scoreboard: the cycle each register's value is ready,
    /// indexed by [`RegBanks::slot`].
    pub ready: Vec<u64>,
}

impl MachineState {
    /// A machine at cycle 0 with clear registers, no mapped memory and an
    /// empty store buffer; `banks` sizes the register file and scoreboard.
    pub fn new(banks: RegBanks, config: SimConfig) -> MachineState {
        MachineState {
            regs: banks.file(),
            mem: Memory::new(),
            sb: StoreBuffer::new(config.mdes.store_buffer_size()),
            pcq: PcHistoryQueue::new(config.pc_history_depth),
            kinds: FastMap::default(),
            stats: Stats::default(),
            profile: Profile::new(),
            shadow: ShadowState::default(),
            cache: config.cache.clone().map(DataCache::new),
            cycle: 0,
            slots_used: 0,
            branches_used: 0,
            ready: vec![0; banks.slots()],
            config,
        }
    }

    /// The shared-semantics view over the architectural state.
    pub fn arch(&mut self) -> ArchState<'_> {
        ArchState {
            regs: &mut self.regs,
            mem: &mut self.mem,
            sb: &mut self.sb,
            shadow: &mut self.shadow,
            kinds: &mut self.kinds,
            stats: &mut self.stats,
            cache: &mut self.cache,
            semantics: self.config.semantics,
        }
    }

    /// Advances to cycle `to`, charging every skipped non-issuing cycle
    /// (including the current one, if nothing issued on it) to `reason`.
    /// Returns the first cycle charged and how many were (0 if none).
    pub fn advance_cycle(&mut self, to: u64, reason: StallReason) -> (u64, u64) {
        if to <= self.cycle {
            return (self.cycle, 0);
        }
        let start = self.cycle + u64::from(self.slots_used > 0);
        let stalled = to - start;
        if stalled > 0 {
            self.stats.stalls.add(reason, stalled);
        }
        self.cycle = to;
        self.slots_used = 0;
        self.branches_used = 0;
        (start, stalled)
    }

    /// Ends a run at `halt`: the store buffer drains, and a probationary
    /// entry left in it is an error.
    pub fn halt(&mut self) -> Result<RunOutcome, SimError> {
        let flushed = sem::mem::flush_at_halt(&mut self.sb, &mut self.mem);
        self.sync_sb_stats();
        flushed?;
        self.finalize_cycles();
        Ok(RunOutcome::Halted)
    }

    /// Ends a run at a trap the handler did not resume from.
    pub fn abort(&mut self, trap: Trap) -> RunOutcome {
        self.sb.flush(&mut self.mem);
        self.sync_sb_stats();
        self.finalize_cycles();
        RunOutcome::Trapped(trap)
    }

    /// Counts one recovery resume against [`SimConfig::max_recoveries`].
    pub fn count_recovery(&mut self) -> Result<(), SimError> {
        if self.stats.recoveries >= self.config.max_recoveries {
            return Err(SimError::RecoveryLoop);
        }
        self.stats.recoveries += 1;
        Ok(())
    }

    /// Converts the final cycle index into the run's cycle count and
    /// checks the stall-attribution invariant: every cycle either issued
    /// at least one instruction or is charged to exactly one
    /// [`StallReason`].
    fn finalize_cycles(&mut self) {
        self.stats.cycles = self.cycle + 1;
        debug_assert_eq!(
            self.stats.issuing_cycles + self.stats.stalls.total(),
            self.stats.cycles,
            "stall attribution must cover every non-issuing cycle"
        );
    }

    fn sync_sb_stats(&mut self) {
        let (rel, can, fwd, stall) = self.sb.stats();
        self.stats.sb_releases = rel;
        self.stats.sb_cancels = can;
        self.stats.sb_forwards = fwd;
        self.stats.sb_stall_cycles = stall;
    }
}
