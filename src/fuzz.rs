//! The seeded differential fuzzer: generated programs, both machines,
//! byte-identical observations.
//!
//! A fuzz case is `(seed, model, width, alias_frac, trap_frac)`. The seed
//! fully determines the generated program and its memory image
//! ([`sentinel_workloads::fuzz_spec`]); the case is scheduled under the
//! given model and run twice. The interpreter, the oracle, runs
//! instrumented (a trace sink plus `collect_trace`), so its event and
//! trace paths run too; the compiled machine (`turbo`; the `fast` label
//! runs the same machine) runs uninstrumented, on the loop every
//! measurement uses. Every observable both expose — run outcome,
//! statistics, final registers *with exception tags*, full memory, the
//! execution profile, and the PC history queue — must match exactly.
//! Any divergence is reported with a one-command repro line naming the
//! engine pair.
//!
//! Entry points: [`run_case`] for a single case, [`run_batch`] for a
//! seed sweep (the CLI `sentinel fuzz` and `tests/fuzz_differential.rs`
//! are thin wrappers over these).

use sentinel_bench::runner::apply_memory;
use sentinel_core::SchedulingModel;
use sentinel_isa::{MachineDesc, Reg};
use sentinel_prog::profile::Profile;
use sentinel_serve::api::MAX_WIDTH;
use sentinel_sim::{
    Engine, PcHistoryQueue, RunOutcome, SimConfig, SimError, SimSessionBuilder, Stats,
};
use sentinel_spec::{model_str, JobSpec, Prepared, ProgramRef, SpecKind};
use sentinel_trace::CollectSink;
use sentinel_workloads::{fuzz_spec, generate, Workload, MAX_TRAP_FRAC};

/// One differential fuzz case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzCase {
    /// Program seed (structure, instruction stream, and data).
    pub seed: u64,
    /// Scheduling model the program is compiled under.
    pub model: SchedulingModel,
    /// Issue width of the simulated machine.
    pub width: usize,
    /// Fraction of loads through the may-alias pointer.
    pub alias_frac: f64,
    /// Fraction of loads through the partially mapped trap array.
    pub trap_frac: f64,
}

impl FuzzCase {
    /// The one-command reproduction line printed on any failure.
    pub fn repro_command(&self) -> String {
        format!(
            "sentinel fuzz --seed {} --count 1 --model {} --width {} --alias {} --traps {}",
            self.seed,
            model_str(self.model),
            self.width,
            self.alias_frac,
            self.trap_frac
        )
    }

    /// Checks the knobs against what the generator and the machine
    /// accept: `width` in `1..=`[`MAX_WIDTH`] (serve's bound),
    /// `alias_frac` in `[0, 1]`, and `trap_frac` in
    /// `[0, `[`MAX_TRAP_FRAC`]`]`.
    ///
    /// # Errors
    ///
    /// A message that starts with the offending knob's name as the CLI
    /// spells it (`width`, `alias`, or `traps`).
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_WIDTH).contains(&self.width) {
            return Err(format!(
                "width must lie in [1, {MAX_WIDTH}], got {}",
                self.width
            ));
        }
        if !(0.0..=1.0).contains(&self.alias_frac) {
            return Err(format!("alias must lie in [0, 1], got {}", self.alias_frac));
        }
        if !(0.0..=MAX_TRAP_FRAC).contains(&self.trap_frac) {
            return Err(format!(
                "traps must lie in [0, {MAX_TRAP_FRAC}], got {}",
                self.trap_frac
            ));
        }
        Ok(())
    }

    /// The canonical [`JobSpec`] this case denotes. Seeded specs are
    /// self-describing (the generator seed determines the program), so
    /// the canonical string alone reproduces the case anywhere:
    /// `sentinel fuzz --spec '<canonical>'`.
    pub fn spec(&self) -> JobSpec {
        JobSpec::fuzz(
            self.seed,
            self.model,
            self.width,
            self.alias_frac,
            self.trap_frac,
        )
    }

    /// Reconstructs the case a fuzz [`JobSpec`] denotes.
    ///
    /// # Errors
    ///
    /// The spec is not a fuzz spec, or its program is not seeded.
    pub fn from_spec(spec: &JobSpec) -> Result<FuzzCase, String> {
        if spec.kind != SpecKind::Fuzz {
            return Err(format!("not a fuzz spec (kind '{}')", spec.kind.as_str()));
        }
        match &spec.program {
            ProgramRef::Seeded { seed, alias, traps } => Ok(FuzzCase {
                seed: *seed,
                model: spec.model,
                width: spec.width,
                alias_frac: *alias,
                trap_frac: *traps,
            }),
            _ => Err("fuzz spec has no seeded program".to_string()),
        }
    }

    /// The failure-report lines identifying this case by spec hash and
    /// canonical string (one identifier, reproducible anywhere).
    fn spec_lines(&self) -> String {
        let spec = self.spec();
        format!("  spec: {}\n        {}", spec.hash_hex(), spec.canonical())
    }
}

/// Everything both machines expose after a run.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: Result<RunOutcome, SimError>,
    stats: Stats,
    regs: Vec<(u64, bool)>,
    memory: Vec<(u64, u8)>,
    profile: Profile,
    pc_history: PcHistoryQueue,
}

fn observe(session: SimSessionBuilder<'_>, mdes: &MachineDesc, w: &Workload) -> Observation {
    let mut m = session.build();
    apply_memory(w, m.memory_mut());
    let outcome = m.run();
    let mut regs = Vec::new();
    for i in 0..mdes.int_regs() {
        let v = m.reg(Reg::int(i as u16));
        regs.push((v.data, v.tag));
    }
    for i in 0..mdes.fp_regs() {
        let v = m.reg(Reg::fp(i as u16));
        regs.push((v.data, v.tag));
    }
    Observation {
        outcome,
        stats: *m.stats(),
        regs,
        memory: m.memory().snapshot(),
        profile: m.profile().clone(),
        pc_history: m.pc_history().clone(),
    }
}

/// Names the first observable two engines disagree on. `a`/`b` are the
/// engine names for the report (e.g. `"interpreter"` vs `"turbo"`).
fn describe_divergence(a: &str, lhs: &Observation, b: &str, rhs: &Observation) -> String {
    if lhs.outcome != rhs.outcome {
        return format!(
            "run outcome: {a} {:?} vs {b} {:?}",
            lhs.outcome, rhs.outcome
        );
    }
    if lhs.stats != rhs.stats {
        return format!("statistics: {a} {:?} vs {b} {:?}", lhs.stats, rhs.stats);
    }
    if let Some(i) = (0..lhs.regs.len()).find(|&i| lhs.regs[i] != rhs.regs[i]) {
        return format!(
            "register slot {i}: {a} {:?} vs {b} {:?}",
            lhs.regs[i], rhs.regs[i]
        );
    }
    if lhs.memory != rhs.memory {
        let diff = lhs.memory.iter().zip(&rhs.memory).find(|(x, y)| x != y);
        return format!("memory image: first differing byte {diff:?}");
    }
    if lhs.profile != rhs.profile {
        return format!(
            "execution profile: {a} {:?} vs {b} {:?}",
            lhs.profile, rhs.profile
        );
    }
    if lhs.pc_history != rhs.pc_history {
        return format!(
            "PC history queue: {a} {:?} vs {b} {:?}",
            lhs.pc_history, rhs.pc_history
        );
    }
    "no divergence".to_string()
}

/// Runs one differential case.
///
/// # Errors
///
/// Returns a human-readable report — including the repro command — if
/// the case is invalid ([`FuzzCase::validate`]), scheduling fails, or
/// the engines diverge on any observable.
pub fn run_case(case: &FuzzCase) -> Result<(), String> {
    case.validate()
        .map_err(|e| format!("invalid case: {e}\n  repro: {}", case.repro_command()))?;
    let w = generate(&fuzz_spec(case.seed, case.alias_frac, case.trap_frac));
    let job = case.spec();
    let mdes = job.mdes();
    let prepared = Prepared::compile(&w.func, &mdes, job.sched_options()).map_err(|e| {
        format!(
            "schedule failed: {e}\n{}\n  repro: {}",
            case.spec_lines(),
            case.repro_command()
        )
    })?;
    let cfg = job.sim_config();
    let traced = SimConfig {
        collect_trace: true,
        ..cfg.clone()
    };
    let interp = observe(
        prepared
            .session(traced, Engine::Interpreter)
            .sink(Box::new(CollectSink::default())),
        &mdes,
        &w,
    );
    let turbo = observe(prepared.session(cfg, Engine::Turbo), &mdes, &w);
    if interp != turbo {
        return Err(format!(
            "engines diverged (interpreter vs turbo; seed {}, model {}, width {})\n  first divergence: {}\n{}\n  repro: {}",
            case.seed,
            model_str(case.model),
            case.width,
            describe_divergence("interpreter", &interp, "turbo", &turbo),
            case.spec_lines(),
            case.repro_command()
        ));
    }
    Ok(())
}

/// The (model, width) grid a sweep cycles through when neither is pinned.
pub fn grid(model: Option<SchedulingModel>, width: Option<usize>) -> Vec<(SchedulingModel, usize)> {
    let models: Vec<SchedulingModel> = match model {
        Some(m) => vec![m],
        None => SchedulingModel::all().to_vec(),
    };
    let widths: Vec<usize> = match width {
        Some(w) => vec![w],
        None => vec![1, 2, 4, 8],
    };
    let mut combos = Vec::new();
    for &w in &widths {
        for &m in &models {
            combos.push((m, w));
        }
    }
    combos
}

/// Runs `count` cases starting at `start_seed`, cycling each seed through
/// the (model, width) grid. Stops at the first failure.
///
/// # Errors
///
/// Propagates the first failing case's report (see [`run_case`]).
pub fn run_batch(
    start_seed: u64,
    count: u64,
    alias_frac: f64,
    trap_frac: f64,
    model: Option<SchedulingModel>,
    width: Option<usize>,
) -> Result<u64, String> {
    run_batch_detail(start_seed, count, alias_frac, trap_frac, model, width)
        .map_err(|(_, report)| report)
}

/// [`run_batch`], returning the failing [`FuzzCase`] alongside its
/// report — the CLI records the case's spec to a registry so the
/// failure reproduces from its hash.
///
/// # Errors
///
/// The first failing case and its report.
pub fn run_batch_detail(
    start_seed: u64,
    count: u64,
    alias_frac: f64,
    trap_frac: f64,
    model: Option<SchedulingModel>,
    width: Option<usize>,
) -> Result<u64, (FuzzCase, String)> {
    let combos = grid(model, width);
    for i in 0..count {
        let seed = start_seed + i;
        let (m, w) = combos[(i as usize) % combos.len()];
        let case = FuzzCase {
            seed,
            model: m,
            width: w,
            alias_frac,
            trap_frac,
        };
        run_case(&case).map_err(|report| (case, report))?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_spec::parse_model_name;

    #[test]
    fn model_tags_roundtrip() {
        for m in SchedulingModel::all() {
            assert_eq!(parse_model_name(m.tag()), Ok(m));
        }
        assert!(parse_model_name("x").is_err());
    }

    #[test]
    fn grid_covers_all_models_and_widths() {
        assert_eq!(grid(None, None).len(), 16);
        assert_eq!(grid(Some(SchedulingModel::Sentinel), None).len(), 4);
        assert_eq!(grid(None, Some(4)).len(), 4);
        assert_eq!(grid(Some(SchedulingModel::Sentinel), Some(4)).len(), 1);
    }

    #[test]
    fn repro_command_names_every_knob() {
        let c = FuzzCase {
            seed: 9,
            model: SchedulingModel::SentinelStores,
            width: 2,
            alias_frac: 0.25,
            trap_frac: 0.1,
        };
        let r = c.repro_command();
        for needle in [
            "--seed 9",
            "--model T",
            "--width 2",
            "--alias 0.25",
            "--traps 0.1",
        ] {
            assert!(r.contains(needle), "{r} missing {needle}");
        }
    }

    #[test]
    fn boosting_repro_line_round_trips() {
        let case = FuzzCase {
            seed: 7,
            model: SchedulingModel::Boosting(2),
            width: 4,
            alias_frac: 0.3,
            trap_frac: 0.2,
        };
        let line = case.repro_command();
        let args: Vec<&str> = line
            .strip_prefix("sentinel fuzz ")
            .unwrap()
            .split(' ')
            .collect();
        let flag = |name: &str| {
            let i = args.iter().position(|a| *a == name).unwrap();
            args[i + 1]
        };
        let parsed = FuzzCase {
            seed: flag("--seed").parse().unwrap(),
            model: parse_model_name(flag("--model")).unwrap(),
            width: flag("--width").parse().unwrap(),
            alias_frac: flag("--alias").parse().unwrap(),
            trap_frac: flag("--traps").parse().unwrap(),
        };
        assert_eq!(parsed, case, "{line}");
        assert_eq!(flag("--count"), "1");
    }

    #[test]
    fn case_spec_round_trips() {
        let c = FuzzCase {
            seed: 9,
            model: SchedulingModel::SentinelStores,
            width: 2,
            alias_frac: 0.25,
            trap_frac: 0.1,
        };
        let spec = c.spec();
        // Seeded specs are self-describing: the canonical string alone
        // rebuilds the exact case.
        let parsed = JobSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(FuzzCase::from_spec(&parsed).unwrap(), c);
        let sim = JobSpec::simulate(ProgramRef::Suite("wc".into()), c.model, 2);
        assert!(FuzzCase::from_spec(&sim).is_err());
    }

    #[test]
    fn validate_names_the_bad_knob() {
        let ok = FuzzCase {
            seed: 1,
            model: SchedulingModel::Sentinel,
            width: 4,
            alias_frac: 0.2,
            trap_frac: MAX_TRAP_FRAC,
        };
        assert_eq!(ok.validate(), Ok(()));
        let bad = |width, alias_frac, trap_frac| FuzzCase {
            width,
            alias_frac,
            trap_frac,
            ..ok
        };
        for (bad, knob) in [
            (bad(0, 0.2, 0.1), "width"),
            (bad(MAX_WIDTH + 1, 0.2, 0.1), "width"),
            (bad(4, 1.5, 0.1), "alias"),
            (bad(4, 0.2, 0.4), "traps"),
        ] {
            assert!(bad.validate().unwrap_err().starts_with(knob), "{bad:?}");
            assert!(run_case(&bad).is_err(), "run_case must refuse {bad:?}");
        }
    }

    #[test]
    fn smoke_case_passes() {
        run_case(&FuzzCase {
            seed: 1,
            model: SchedulingModel::Sentinel,
            width: 4,
            alias_frac: 0.2,
            trap_frac: 0.1,
        })
        .unwrap();
    }
}
