//! The job pipeline: compile a schedule point once, run it on any
//! engine.
//!
//! Every layer evaluates a job the same way — the paper's §5 step of
//! scheduling the superblocks, then running the scheduled code on the
//! execution-driven simulator. [`JobSpec::mdes`],
//! [`JobSpec::sched_options`] and [`JobSpec::sim_config`] derive the
//! machine, the scheduler options and the simulator configuration from
//! a job's knobs; [`Prepared::compile`] is the one compile entry and
//! [`Prepared::session`] the one run entry, used alike by the bench
//! grid, serve, the fuzzer and the throughput bench.

use std::sync::{Arc, OnceLock};

use sentinel_core::{CompileSession, PassLog, SchedOptions, SchedStats, ScheduleError};
use sentinel_isa::MachineDesc;
use sentinel_prog::Function;
use sentinel_sim::{Engine, Memory, SimConfig, SimSession, SimSessionBuilder, TurboProgram};

use crate::{semantics_for, JobSpec};

impl JobSpec {
    /// The machine this job schedules for and runs on: the paper's §5.1
    /// parameters at the job's issue width and store-buffer depth.
    pub fn mdes(&self) -> MachineDesc {
        MachineDesc::builder()
            .issue_width(self.width)
            .store_buffer_size(self.store_buffer)
            .build()
    }

    /// The scheduler options of this job: its model, the §3.7 recovery
    /// constraint, and inter-pass verification.
    pub fn sched_options(&self) -> SchedOptions {
        SchedOptions {
            recovery: self.recovery,
            verify_passes: self.verify_passes,
            ..SchedOptions::new(self.model)
        }
    }

    /// The simulator configuration of this job: [`mdes`](JobSpec::mdes),
    /// the model's speculative-fault semantics, and the data cache.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            semantics: semantics_for(self.model),
            cache: self.cache.clone(),
            ..SimConfig::for_mdes(self.mdes())
        }
    }
}

/// A program compiled for one schedule point, ready to simulate.
///
/// Everything in here depends only on the *schedule* knobs — program,
/// model, width, recovery, store buffer (see
/// [`JobSpec::schedule_hash`]) — never on the execution engine, the
/// timing-only data cache or the memory image. One `Prepared` therefore
/// serves every engine of the same schedule point, which is why the
/// grid and serve share them through a
/// [`ProgramCache`](sentinel_sim::ProgramCache) keyed by that hash.
///
/// The turbo decode is lazy: sessions on other engines never pay for
/// it, and turbo sessions decode once per `Prepared` no matter how many
/// run it ([`OnceLock`] makes that true even across worker threads).
#[derive(Debug)]
pub struct Prepared {
    /// The scheduled function.
    pub func: Function,
    /// Scheduler statistics.
    pub sched: SchedStats,
    /// Per-pass timing, IR deltas, and diagnostics from the compile.
    pub passes: PassLog,
    /// Whether the inter-pass IR verifier ran during the compile.
    pub verified: bool,
    /// The machine the function was scheduled for (and decodes under).
    mdes: MachineDesc,
    /// Lazily decoded turbo program, shared by every turbo session.
    turbo: OnceLock<Arc<TurboProgram>>,
}

impl Prepared {
    /// Schedules `func` for `mdes` under `opts`.
    ///
    /// # Errors
    ///
    /// The scheduler's error if it rejects the function.
    pub fn compile(
        func: &Function,
        mdes: &MachineDesc,
        opts: SchedOptions,
    ) -> Result<Prepared, ScheduleError> {
        let mut session = CompileSession::for_function(func)
            .mdes(mdes)
            .options(opts)
            .build();
        let scheduled = session.run()?;
        Ok(Prepared {
            func: scheduled.func,
            sched: scheduled.stats,
            passes: session.log().clone(),
            verified: session.verifies(),
            mdes: mdes.clone(),
            turbo: OnceLock::new(),
        })
    }

    /// Starts a simulation of the scheduled function on `engine`.
    ///
    /// This is where an engine label becomes a machine: `turbo` runs
    /// the compiled machine on this program's shared decode, `fast` on
    /// a decode private to the session, and `interpreter`, like any
    /// instrumented session (a sink or `collect_trace`), on the
    /// interpreter. `cfg` must carry the machine the function was
    /// compiled for.
    pub fn session(&self, cfg: SimConfig, engine: Engine) -> SimSessionBuilder<'_> {
        debug_assert_eq!(
            cfg.mdes, self.mdes,
            "session machine differs from compile's"
        );
        let builder = SimSession::for_function(&self.func).config(cfg);
        if engine == Engine::Turbo {
            builder.program(self.turbo_program())
        } else {
            builder.engine(engine)
        }
    }

    /// The decoded turbo program, decoding on first use.
    pub fn turbo_program(&self) -> Arc<TurboProgram> {
        self.turbo
            .get_or_init(|| Arc::new(TurboProgram::new(&self.func, &self.mdes)))
            .clone()
    }

    /// Whether the turbo decode has happened yet.
    pub fn turbo_decoded(&self) -> bool {
        self.turbo.get().is_some()
    }
}

/// Maps `regions` (`(start, len)`) into `mem`, then writes `words`
/// (`(addr, bits)`) in order — a job's memory image.
///
/// # Errors
///
/// A message naming the first region that is empty or wraps the
/// address space, or the first word that does not land in mapped,
/// aligned memory.
pub fn apply_image(
    mem: &mut Memory,
    regions: &[(u64, u64)],
    words: &[(u64, u64)],
) -> Result<(), String> {
    for &(start, len) in regions {
        if len == 0 || start.checked_add(len).is_none() {
            let why = if len == 0 {
                "is empty"
            } else {
                "wraps the address space"
            };
            return Err(format!("map region {start:#x}:{len:#x} {why}"));
        }
        mem.map_region(start, len);
    }
    for &(addr, bits) in words {
        mem.write_word(addr, bits)
            .map_err(|e| format!("word {addr:#x}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_core::SchedulingModel;
    use sentinel_prog::asm;

    use crate::ProgramRef;

    const LOOP: &str = "\
func @t {
entry:
    li r1, 0x1000
    li r2, 4
loop:
    ld r3, 0(r1)
    add r3, r3, r2
    st r3, 0(r1)
    addi r2, r2, -1
    bne r2, r0, loop
done:
    halt
}
";

    #[test]
    fn every_engine_runs_one_compile_and_turbo_decodes_once() {
        let spec = JobSpec::simulate(
            ProgramRef::Source(LOOP.into()),
            SchedulingModel::Sentinel,
            4,
        );
        let func = asm::parse(LOOP).unwrap();
        let p = Prepared::compile(&func, &spec.mdes(), spec.sched_options()).unwrap();
        let mut seen = Vec::new();
        for engine in [Engine::Interpreter, Engine::Fast, Engine::Turbo] {
            let mut m = p.session(spec.sim_config(), engine).build();
            apply_image(m.memory_mut(), &[(0x1000, 8)], &[(0x1000, 5)]).unwrap();
            m.run().unwrap();
            assert_eq!(m.engine(), engine);
            seen.push((*m.stats(), m.memory().read_word(0x1000).unwrap()));
            // Only a turbo session fills the shared decode.
            assert_eq!(p.turbo_decoded(), engine == Engine::Turbo);
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "{seen:?}");
        assert_eq!(seen[0].1, 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn an_image_word_outside_the_map_is_named() {
        let mut mem = Memory::new();
        let err = apply_image(&mut mem, &[(0x1000, 8)], &[(0x2000, 1)]).unwrap_err();
        assert!(err.starts_with("word 0x2000:"), "{err}");
    }

    #[test]
    fn an_empty_or_wrapping_region_is_named() {
        let mut mem = Memory::new();
        let err = apply_image(&mut mem, &[(0x1000, 8), (0x2000, 0)], &[]).unwrap_err();
        assert_eq!(err, "map region 0x2000:0x0 is empty");
        let err = apply_image(&mut mem, &[(-64i64 as u64, 64)], &[]).unwrap_err();
        assert_eq!(
            err,
            "map region 0xffffffffffffffc0:0x40 wraps the address space"
        );
    }
}
