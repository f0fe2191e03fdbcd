//! Workload execution: schedule → simulate → measure.
//!
//! The thin bench-side callers of the shared job pipeline
//! ([`sentinel_spec::pipeline`]): [`prepare`] compiles a suite workload,
//! [`simulate_prepared`] runs it and checks the outcome, and [`measure`]
//! does both. Figure and ablation code does not call them in loops —
//! the [`grid`](crate::grid) engine plans, dedups, parallelizes, and
//! memoizes cells, compiling each schedule point once and simulating
//! each distinct cell once.

use sentinel_core::{SchedStats, ScheduleError, SchedulingModel};
use sentinel_isa::MachineDesc;
use sentinel_sim::reference::{RefOutcome, Reference};
use sentinel_sim::verify::{compare_runs, CompareSpec};
use sentinel_sim::{Engine, Memory, RunOutcome, SimConfig, Stats};
use sentinel_spec::{apply_image, model_str, JobSpec, ProgramRef};
use sentinel_workloads::Workload;

pub use sentinel_spec::{semantics_for, Prepared};

/// One measured run of a workload under a model and machine.
///
/// `PartialEq`/`Eq` compare every counter; the concurrency-determinism
/// tests rely on this to assert `--jobs 1` and `--jobs N` produce
/// *identical* measurement sets, not merely identical tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    /// Benchmark name.
    pub bench: String,
    /// Scheduling model.
    pub model: SchedulingModel,
    /// Issue width.
    pub width: usize,
    /// Execution cycles (the paper's metric).
    pub cycles: u64,
    /// Simulator statistics.
    pub stats: Stats,
    /// Scheduler statistics.
    pub sched: SchedStats,
}

impl Measurement {
    /// Percentage of cycles in which at least one instruction issued.
    pub fn issue_pct(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            100.0 * self.stats.issuing_cycles as f64 / self.cycles as f64
        }
    }

    /// Percentage of cycles charged to `reason`.
    pub fn stall_pct(&self, reason: sentinel_trace::StallReason) -> f64 {
        self.stats.stalls.pct_of(reason, self.cycles)
    }
}

/// Configuration knobs for a measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureConfig {
    /// Issue width (1, 2, 4, 8 in the paper).
    pub width: usize,
    /// Scheduling model.
    pub model: SchedulingModel,
    /// Enforce the §3.7 recovery constraints during scheduling.
    pub recovery: bool,
    /// Store-buffer entries (8 on the paper's machine).
    pub store_buffer: usize,
    /// Verify the run against the sequential reference (slower; used by
    /// tests and spot checks).
    pub verify: bool,
    /// Optional timing-only data cache (`None` = the paper's 100%-hit
    /// assumption).
    pub cache: Option<sentinel_sim::cache::CacheConfig>,
    /// Execution engine ([`Engine::Fast`] by default; the interpreter is
    /// the differential-testing oracle).
    pub engine: Engine,
    /// Run the compiler's inter-pass IR verifier even in release builds
    /// (`--verify-passes`). Does not change any measured number — only
    /// how strictly the schedule's construction is checked.
    pub verify_passes: bool,
}

impl MeasureConfig {
    /// The paper's configuration for a model and width. The machine
    /// parameters (store-buffer size included) come from
    /// [`MachineDesc::paper_issue`], not from constants repeated here.
    pub fn paper(model: SchedulingModel, width: usize) -> MeasureConfig {
        let mdes = MachineDesc::paper_issue(width);
        MeasureConfig {
            width,
            model,
            recovery: false,
            store_buffer: mdes.store_buffer_size(),
            verify: false,
            cache: None,
            engine: Engine::default(),
            verify_passes: false,
        }
    }

    /// The simulate job this configuration runs suite benchmark `bench`
    /// as — the same spec a serve `/v1/simulate` request for it derives.
    pub fn spec(&self, bench: &str) -> JobSpec {
        JobSpec {
            engine: self.engine,
            recovery: self.recovery,
            store_buffer: self.store_buffer,
            cache: self.cache.clone(),
            verify_passes: self.verify_passes,
            ..JobSpec::simulate(ProgramRef::Suite(bench.to_string()), self.model, self.width)
        }
    }

    /// The machine description this measurement schedules for and runs
    /// on ([`JobSpec::mdes`]; the benchmark plays no part in it).
    pub fn mdes(&self) -> MachineDesc {
        self.spec("").mdes()
    }

    /// The simulator configuration for this measurement
    /// ([`JobSpec::sim_config`]).
    pub fn sim_config(&self) -> SimConfig {
        self.spec("").sim_config()
    }
}

/// Applies a workload's memory image to a simulator or reference memory.
pub fn apply_memory(w: &Workload, mem: &mut Memory) {
    apply_image(mem, &w.mem_regions, &w.mem_words).expect("image word in mapped region");
}

/// Why a workload could not be measured.
///
/// Every variant is a bug somewhere in the toolchain, not a measurement
/// condition — but the grid engine degrades the affected cell to an
/// error row instead of taking the whole reproduction run down.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureError {
    /// The scheduler rejected or failed on the workload.
    Schedule(ScheduleError),
    /// The simulation did not run to a clean halt.
    Sim(String),
    /// The run diverged from the sequential reference (with
    /// [`MeasureConfig::verify`]).
    Divergence(String),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Schedule(e) => write!(f, "schedule failed: {e}"),
            MeasureError::Sim(msg) => write!(f, "simulation failed: {msg}"),
            MeasureError::Divergence(msg) => write!(f, "reference divergence: {msg}"),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasureError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

/// Schedules a workload for one measurement configuration.
///
/// # Errors
///
/// [`MeasureError::Schedule`] if the scheduler rejects the workload.
pub fn prepare(w: &Workload, cfg: &MeasureConfig) -> Result<Prepared, MeasureError> {
    let spec = cfg.spec(&w.name);
    Prepared::compile(&w.func, &spec.mdes(), spec.sched_options()).map_err(MeasureError::Schedule)
}

/// Executes an already-compiled workload, returning the measurement.
///
/// On [`Engine::Turbo`] the prepared program's decode is reused (and
/// performed at most once, however many sessions run it).
///
/// # Errors
///
/// See [`MeasureError`].
pub fn simulate_prepared(
    w: &Workload,
    cfg: &MeasureConfig,
    prepared: &Prepared,
) -> Result<Measurement, MeasureError> {
    let mut m = prepared.session(cfg.sim_config(), cfg.engine).build();
    apply_memory(w, m.memory_mut());
    let outcome = m.run().map_err(|e| {
        MeasureError::Sim(format!(
            "{} [{} w{}]: {e}",
            w.name,
            model_str(cfg.model),
            cfg.width
        ))
    })?;
    if outcome != RunOutcome::Halted {
        return Err(MeasureError::Sim(format!(
            "{} [{} w{}]: unexpected trap {outcome:?}",
            w.name,
            model_str(cfg.model),
            cfg.width
        )));
    }

    if cfg.verify {
        let mut r = Reference::new(&w.func);
        apply_memory(w, r.memory_mut());
        let ro = r
            .run()
            .map_err(|e| MeasureError::Sim(format!("{}: reference run: {e}", w.name)))?;
        if ro != RefOutcome::Halted {
            return Err(MeasureError::Sim(format!(
                "{}: reference trapped: {ro:?}",
                w.name
            )));
        }
        let divs = compare_runs(
            &m,
            outcome,
            &r,
            ro,
            &CompareSpec::precise(w.live_out.clone()),
        );
        if !divs.is_empty() {
            return Err(MeasureError::Divergence(format!(
                "{} [{} w{}]: {divs:?}",
                w.name,
                model_str(cfg.model),
                cfg.width
            )));
        }
    }

    Ok(Measurement {
        bench: w.name.clone(),
        model: cfg.model,
        width: cfg.width,
        cycles: m.stats().cycles,
        stats: *m.stats(),
        sched: prepared.sched,
    })
}

/// Schedules and executes a workload, returning the measurement.
///
/// Composes [`prepare`] and [`simulate_prepared`]; callers that run the
/// same schedule point more than once (the grid) cache the [`Prepared`]
/// half instead of calling this in a loop.
///
/// # Errors
///
/// See [`MeasureError`].
pub fn measure(w: &Workload, cfg: &MeasureConfig) -> Result<Measurement, MeasureError> {
    simulate_prepared(w, cfg, &prepare(w, cfg)?)
}

/// Cycles of the paper's *base machine*: issue 1, restricted percolation.
pub fn base_cycles(w: &Workload) -> u64 {
    measure(
        w,
        &MeasureConfig::paper(SchedulingModel::RestrictedPercolation, 1),
    )
    .unwrap_or_else(|e| panic!("{}: base machine: {e}", w.name))
    .cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_workloads::{generate, WorkloadSpec};

    fn small() -> Workload {
        let mut s = WorkloadSpec::test_default("small", 7);
        s.iterations = 25;
        generate(&s)
    }

    #[test]
    fn measure_runs_and_verifies() {
        let w = small();
        for model in SchedulingModel::all() {
            // General percolation is excluded from precise verification by
            // design; the others must match the oracle exactly.
            let mut cfg = MeasureConfig::paper(model, 4);
            cfg.verify = model != SchedulingModel::GeneralPercolation;
            let m = measure(&w, &cfg).unwrap();
            assert!(m.cycles > 0);
            assert!(m.stats.dyn_insns > 0);
        }
    }

    #[test]
    fn prepare_reports_pass_log() {
        let w = small();
        let mut cfg = MeasureConfig::paper(SchedulingModel::Sentinel, 4);
        cfg.verify_passes = true;
        let p = prepare(&w, &cfg).unwrap();
        assert!(p.verified);
        assert!(p.passes.report("list-schedule").is_some());
        assert_eq!(
            p.passes.report("depgraph").unwrap().runs as usize,
            p.sched.blocks
        );
    }

    #[test]
    fn schedule_failure_is_an_error_not_a_panic() {
        // A workload whose function is already speculative is invalid
        // scheduler input; measure must degrade, not panic.
        let mut w = small();
        let entry = w.func.entry();
        w.func.block_mut(entry).insns[0].speculative = true;
        let err = measure(&w, &MeasureConfig::paper(SchedulingModel::Sentinel, 4)).unwrap_err();
        assert!(matches!(
            err,
            MeasureError::Schedule(ScheduleError::NotSequentialInput(_))
        ));
        assert!(err.to_string().contains("schedule failed"), "{err}");
    }

    #[test]
    fn wider_machines_are_not_slower() {
        let w = small();
        let c1 = measure(&w, &MeasureConfig::paper(SchedulingModel::Sentinel, 1))
            .unwrap()
            .cycles;
        let c8 = measure(&w, &MeasureConfig::paper(SchedulingModel::Sentinel, 8))
            .unwrap()
            .cycles;
        assert!(c8 <= c1, "issue-8 {c8} vs issue-1 {c1}");
    }

    #[test]
    fn sentinel_not_slower_than_restricted() {
        let w = small();
        let r = measure(
            &w,
            &MeasureConfig::paper(SchedulingModel::RestrictedPercolation, 8),
        )
        .unwrap()
        .cycles;
        let s = measure(&w, &MeasureConfig::paper(SchedulingModel::Sentinel, 8))
            .unwrap()
            .cycles;
        assert!(s <= r, "sentinel {s} vs restricted {r}");
    }

    #[test]
    fn base_machine_is_issue_one_restricted() {
        let w = small();
        let b = base_cycles(&w);
        let direct = measure(
            &w,
            &MeasureConfig::paper(SchedulingModel::RestrictedPercolation, 1),
        )
        .unwrap()
        .cycles;
        assert_eq!(b, direct);
    }
}
