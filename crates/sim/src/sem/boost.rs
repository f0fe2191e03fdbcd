//! Instruction boosting (paper §2.3): shadow register file and shadow
//! store buffer, with commit-on-untaken / squash-on-taken semantics.
//!
//! A boosted instruction's effects are buffered here until the branches
//! it was boosted above resolve. Both engines hold a [`ShadowState`] and
//! route every commit/squash decision through [`commit`] and [`squash`],
//! so the level-decrement, program-order-commit, and first-fault-wins
//! rules are written once.

use sentinel_isa::{InsnId, Reg};

use crate::except::{ExceptionKind, Trap};
use crate::machine::SimError;
use crate::memory::Width;

use super::storebuf::{Entry, EntryState};
use super::ArchState;

/// A buffered effect of a boosted instruction (paper §2.3): held in the
/// shadow register file / shadow store buffer until its branches resolve.
#[derive(Debug, Clone)]
pub(crate) enum ShadowOp {
    /// Shadow register write: destination, data, deferred fault.
    Reg {
        dest: Reg,
        data: u64,
        except: Option<(InsnId, ExceptionKind)>,
    },
    /// Shadow store: address, data, width, deferred fault.
    Store {
        addr: u64,
        data: u64,
        width: Width,
        except: Option<(InsnId, ExceptionKind)>,
    },
}

/// One shadow-buffer entry: the effect and how many more branches must
/// resolve before it commits.
#[derive(Debug, Clone)]
pub(crate) struct ShadowEntry {
    pub(crate) level: u8,
    pub(crate) op: ShadowOp,
}

/// The shadow register file and shadow store buffer of one engine.
///
/// `entries` is in program order by construction: [`push`] appends,
/// [`commit`] removes the level-1 entries in place and decrements the
/// rest, and [`squash`] empties it. `index` counts the entries per
/// destination register and the buffered stores, so a read with no
/// shadow write, or a load with no shadow store, never scans `entries`.
///
/// [`push`]: ShadowState::push
#[derive(Debug, Default)]
pub(crate) struct ShadowState {
    entries: Vec<ShadowEntry>,
    index: Presence,
}

/// What `ShadowState::entries` holds, counted: shadow register writes
/// per register (indexed by [`slot`], growing to the highest register
/// written) and shadow stores.
#[derive(Debug, Default)]
struct Presence {
    writes: Vec<u32>,
    stores: u32,
}

/// A register's index in `Presence::writes`: the two banks interleaved.
fn slot(r: Reg) -> usize {
    (r.index() as usize) << 1 | r.is_fp() as usize
}

impl Presence {
    /// Counts `op` in (`delta` 1) or out (`delta` -1). A count below
    /// zero would mean the index lost track of the list: that panics.
    fn tally(&mut self, op: &ShadowOp, delta: i32) {
        let n = match *op {
            ShadowOp::Reg { dest, .. } => {
                if slot(dest) >= self.writes.len() {
                    self.writes.resize(slot(dest) + 1, 0);
                }
                &mut self.writes[slot(dest)]
            }
            ShadowOp::Store { .. } => &mut self.stores,
        };
        *n = n.strict_add_signed(delta);
    }
}

impl ShadowState {
    /// No buffered boosted effects?
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of buffered boosted effects.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Appends a shadow entry for a boosted instruction.
    pub(crate) fn push(&mut self, level: u8, op: ShadowOp) {
        self.index.tally(&op, 1);
        self.entries.push(ShadowEntry { level, op });
    }

    /// Shadow register overlay: the newest shadow write to `r` (in
    /// program order, across levels), if any. `r0` never overlays.
    pub(crate) fn reg_overlay(&self, r: Reg) -> Option<u64> {
        if self.entries.is_empty()
            || r.is_zero()
            || self.index.writes.get(slot(r)).is_none_or(|&n| n == 0)
        {
            return None;
        }
        self.entries.iter().rev().find_map(|e| match e.op {
            ShadowOp::Reg { dest, data, .. } if dest == r => Some(data),
            _ => None,
        })
    }

    /// Shadow store-buffer forwarding (exact-match, newest first).
    pub(crate) fn store_lookup(&self, addr: u64, width: Width) -> Option<u64> {
        if self.index.stores == 0 {
            return None;
        }
        self.entries.iter().rev().find_map(|e| match &e.op {
            ShadowOp::Store {
                addr: a,
                data,
                width: w,
                except: None,
            } if *a == addr && *w == width => Some(*data),
            _ => None,
        })
    }
}

/// A branch resolved as correctly predicted (untaken): commit all
/// level-1 shadow entries in program order, decrement the rest.
///
/// Returns the first deferred exception encountered (commit stops at the
/// fault; state up to it is committed) and, if any shadow stores entered
/// the store buffer, the latest effective insertion cycle — the caller
/// charges one stall to that point, which is cycle-exact because
/// insertion itself timestamps entries with `issue`, not the machine
/// cycle, and sequential stalls telescope.
pub(crate) fn commit(
    a: &mut ArchState,
    branch: InsnId,
    issue: u64,
) -> Result<(Option<Trap>, Option<u64>), SimError> {
    if a.shadow.entries.is_empty() {
        return Ok((None, None));
    }
    let mut trap = None;
    let mut stall_to = None;
    let mut failed = Ok(());
    let ShadowState { entries, index } = &mut *a.shadow;
    entries.retain_mut(|e| {
        if e.level > 1 {
            e.level -= 1;
            return true;
        }
        index.tally(&e.op, -1);
        if trap.is_some() || failed.is_err() {
            // Abort the remainder of the commit after a signaled
            // exception (machine state up to the fault is committed).
            return false;
        }
        a.stats.shadow_commits += 1;
        let except = match e.op {
            ShadowOp::Reg {
                dest,
                data,
                except: None,
            } => {
                a.regs.write_clean(dest, data);
                None
            }
            ShadowOp::Store {
                addr,
                data,
                width,
                except: None,
            } => {
                let entry = Entry {
                    addr,
                    data,
                    width,
                    state: EntryState::Confirmed { ready: issue },
                    except_pc: None,
                    except_kind: None,
                    inserted_at: issue,
                };
                match a.sb.insert(entry, issue, a.mem) {
                    Ok(eff) => stall_to = Some(stall_to.map_or(eff, |s: u64| s.max(eff))),
                    Err(err) => failed = Err(err),
                }
                None
            }
            ShadowOp::Reg { except, .. } | ShadowOp::Store { except, .. } => except,
        };
        if let Some((pc, kind)) = except {
            trap = Some(Trap {
                excepting_pc: pc,
                reported_by: branch,
                kind: Some(kind),
            });
        }
        false
    });
    failed?;
    Ok((trap, stall_to))
}

/// A branch was "mispredicted" (taken): discard all shadow state.
pub(crate) fn squash(a: &mut ArchState) {
    let ShadowState { entries, index } = &mut *a.shadow;
    a.stats.shadow_squashes += entries.len() as u64;
    for e in entries.drain(..) {
        index.tally(&e.op, -1);
    }
}
