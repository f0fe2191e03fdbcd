//! Regeneration of the paper's figures and our ablations.
//!
//! Every figure is expressed as a *plan* of [`Cell`]s handed to a
//! [`GridSession`]: the session dedups cells shared between figures
//! (the base-machine cell appears in every speedup; S×8 appears in
//! Figure 4, Figure 5, and four ablations), measures missing cells in
//! parallel, and memoizes results so `reproduce all` evaluates the
//! whole grid exactly once.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sentinel_core::SchedulingModel;
use sentinel_workloads::{BenchClass, Workload};

use crate::grid::{default_jobs, parallel_map, Cell, GridSession};
use crate::runner::{measure, MeasureConfig, Measurement};

/// The issue rates the paper evaluates (§5.2).
pub const WIDTHS: [usize; 3] = [2, 4, 8];

/// One benchmark's speedups: `speedup[model][width] = base / cycles`.
#[derive(Debug, Clone)]
pub struct BenchSpeedups {
    /// Benchmark name.
    pub bench: String,
    /// Numeric / non-numeric.
    pub class: BenchClass,
    /// Base-machine cycles (issue 1, restricted percolation).
    pub base_cycles: u64,
    /// `(model, width) → speedup`.
    pub speedups: HashMap<(SchedulingModel, usize), f64>,
    /// `(model, width) → raw measurement`.
    pub raw: HashMap<(SchedulingModel, usize), Measurement>,
    /// `(model, width) → error` for cells that failed to measure (a
    /// panicking cell degrades to a reported row instead of aborting
    /// the run). Ordered so degraded reports render deterministically.
    pub failed: BTreeMap<(SchedulingModel, usize), String>,
}

impl BenchSpeedups {
    /// Speedup of a model at a width.
    ///
    /// # Panics
    ///
    /// Panics — naming the benchmark and the missing `(model, width)`
    /// cell — if that combination was not measured, either because it
    /// was never requested or because its cell degraded to an error
    /// row. Callers that must tolerate degraded cells use
    /// [`BenchSpeedups::try_speedup`].
    pub fn speedup(&self, model: SchedulingModel, width: usize) -> f64 {
        *self.speedups.get(&(model, width)).unwrap_or_else(|| {
            panic!(
                "{}: no measurement for ({} x{width}){}",
                self.bench,
                model.tag(),
                match self.failed.get(&(model, width)) {
                    Some(e) => format!(": cell degraded: {e}"),
                    None => String::new(),
                }
            )
        })
    }

    /// Speedup of a model at a width, or `None` for an unmeasured or
    /// degraded cell.
    pub fn try_speedup(&self, model: SchedulingModel, width: usize) -> Option<f64> {
        self.speedups.get(&(model, width)).copied()
    }
}

/// Measures a set of models over the paper's widths for every benchmark
/// in the session's workload set, sharing the session's result cache.
pub fn measure_grid(session: &GridSession, models: &[SchedulingModel]) -> Vec<BenchSpeedups> {
    let benches: Vec<String> = session.workloads().iter().map(|w| w.name.clone()).collect();
    let mut plan: Vec<Cell> = Vec::with_capacity(benches.len() * (1 + models.len() * WIDTHS.len()));
    for bench in &benches {
        plan.push(Cell::base(bench));
        for &model in models {
            for &width in &WIDTHS {
                plan.push(Cell::paper(bench, model, width));
            }
        }
    }
    let outcomes = session.eval(&plan);

    let per_bench = 1 + models.len() * WIDTHS.len();
    benches
        .iter()
        .zip(outcomes.chunks_exact(per_bench))
        .map(|(bench, chunk)| {
            let class = session.workload(bench).expect("planned bench exists").class;
            let (base_outcome, rest) = chunk.split_first().expect("chunk holds the base cell");
            let mut speedups = HashMap::new();
            let mut raw = HashMap::new();
            let mut failed = BTreeMap::new();
            let base_cycles = match base_outcome {
                Ok(m) => m.cycles,
                Err(e) => {
                    // No base machine ⇒ no speedup is computable for
                    // this benchmark; degrade every requested cell.
                    for &model in models {
                        for &width in &WIDTHS {
                            failed.insert((model, width), format!("base machine: {e}"));
                        }
                    }
                    0
                }
            };
            if base_cycles > 0 {
                let mut it = rest.iter();
                for &model in models {
                    for &width in &WIDTHS {
                        match it.next().expect("plan shape") {
                            Ok(m) => {
                                speedups
                                    .insert((model, width), base_cycles as f64 / m.cycles as f64);
                                raw.insert((model, width), m.clone());
                            }
                            Err(e) => {
                                failed.insert((model, width), e.to_string());
                            }
                        }
                    }
                }
            }
            BenchSpeedups {
                bench: bench.clone(),
                class,
                base_cycles,
                speedups,
                raw,
                failed,
            }
        })
        .collect()
}

/// Measures a set of models over the paper's widths for given workloads
/// (one-shot session over an ad-hoc workload set).
pub fn measure_workloads(workloads: &[Workload], models: &[SchedulingModel]) -> Vec<BenchSpeedups> {
    let session = GridSession::new(Arc::new(workloads.to_vec()), default_jobs());
    measure_grid(&session, models)
}

/// **Figure 4**: sentinel scheduling (S) vs restricted percolation (R),
/// issue 2/4/8, all 17 benchmarks, speedup over the base machine.
pub fn figure4(session: &GridSession) -> Vec<BenchSpeedups> {
    measure_grid(
        session,
        &[
            SchedulingModel::RestrictedPercolation,
            SchedulingModel::Sentinel,
        ],
    )
}

/// **Figure 5**: general percolation (G) vs sentinel (S) vs sentinel with
/// speculative stores (T).
pub fn figure5(session: &GridSession) -> Vec<BenchSpeedups> {
    measure_grid(
        session,
        &[
            SchedulingModel::GeneralPercolation,
            SchedulingModel::Sentinel,
            SchedulingModel::SentinelStores,
        ],
    )
}

/// Geometric-mean improvement of `a` over `b` at `width`, for benchmarks
/// of `class` (or all if `None`): matches the paper's "average speedup
/// improvement" statistics. Benchmarks with a degraded cell at either
/// point are skipped. Returns NaN when no benchmark matches.
pub fn mean_improvement(
    rows: &[BenchSpeedups],
    a: SchedulingModel,
    b: SchedulingModel,
    width: usize,
    class: Option<BenchClass>,
) -> f64 {
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|r| class.is_none_or(|c| r.class == c))
        .filter_map(|r| Some(r.try_speedup(a, width)? / r.try_speedup(b, width)?))
        .collect();
    if ratios.is_empty() {
        f64::NAN
    } else {
        geo_mean(&ratios)
    }
}

/// Geometric mean.
pub fn geo_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of nothing");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The base-machine cycles of every session benchmark, via the cache.
fn bases(session: &GridSession) -> Vec<(String, f64)> {
    let cells: Vec<Cell> = session
        .workloads()
        .iter()
        .map(|w| Cell::base(&w.name))
        .collect();
    session
        .eval(&cells)
        .into_iter()
        .zip(session.workloads())
        .map(|(o, w)| {
            let name = w.name.clone();
            let m = o.unwrap_or_else(|e| panic!("{name}: base machine failed: {e}"));
            (name, m.cycles as f64)
        })
        .collect()
}

/// **Ablation A1**: model-T speedup (issue 8) as a function of store
/// buffer size. The paper's N=8 point is shared with Figure 5's grid.
pub fn ablation_store_buffer(
    session: &GridSession,
    sizes: &[usize],
) -> Vec<(String, Vec<(usize, f64)>)> {
    let mut plan = Vec::new();
    for w in session.workloads() {
        for &n in sizes {
            let mut cell = Cell::paper(&w.name, SchedulingModel::SentinelStores, 8);
            cell.store_buffer = n;
            plan.push(cell);
        }
    }
    let outcomes = session.eval(&plan);
    bases(session)
        .into_iter()
        .zip(outcomes.chunks_exact(sizes.len()))
        .map(|((bench, base), chunk)| {
            let series = sizes
                .iter()
                .zip(chunk)
                .map(|(&n, o)| {
                    let m = o.as_ref().unwrap_or_else(|e| panic!("{bench} sb={n}: {e}"));
                    (n, base / m.cycles as f64)
                })
                .collect();
            (bench, series)
        })
        .collect()
}

/// **Ablation A2**: the cost of the §3.7 recovery constraints — sentinel
/// speedup at issue 8 with and without recovery scheduling (the paper's
/// "we are currently quantifying this performance impact"). The plain
/// S×8 point is shared with Figures 4 and 5.
pub fn ablation_recovery(session: &GridSession) -> Vec<(String, f64, f64)> {
    let mut plan = Vec::new();
    for w in session.workloads() {
        plan.push(Cell::paper(&w.name, SchedulingModel::Sentinel, 8));
        let mut rec = Cell::paper(&w.name, SchedulingModel::Sentinel, 8);
        rec.recovery = true;
        plan.push(rec);
    }
    let outcomes = session.eval(&plan);
    bases(session)
        .into_iter()
        .zip(outcomes.chunks_exact(2))
        .map(|((bench, base), pair)| {
            let cycles = |o: &crate::grid::CellOutcome| {
                o.as_ref().unwrap_or_else(|e| panic!("{bench}: {e}")).cycles as f64
            };
            let (plain, rec) = (base / cycles(&pair[0]), base / cycles(&pair[1]));
            (bench, plain, rec)
        })
        .collect()
}

/// **Ablation A5**: instruction boosting (§2.3) vs sentinel scheduling.
/// The paper argues general percolation (and hence sentinel scheduling)
/// reaches boosting's performance without its hardware cost, and that
/// boosting is limited to a small number of branches. Measures speedup at
/// issue 8 for boosting with 1/2/4 shadow levels against R and S (both
/// shared with the figure grids).
pub fn ablation_boosting(session: &GridSession) -> Vec<(String, f64, f64, f64, f64, f64)> {
    let models = [
        SchedulingModel::RestrictedPercolation,
        SchedulingModel::Boosting(1),
        SchedulingModel::Boosting(2),
        SchedulingModel::Boosting(4),
        SchedulingModel::Sentinel,
    ];
    let mut plan = Vec::new();
    for w in session.workloads() {
        for &m in &models {
            plan.push(Cell::paper(&w.name, m, 8));
        }
    }
    let outcomes = session.eval(&plan);
    bases(session)
        .into_iter()
        .zip(outcomes.chunks_exact(models.len()))
        .map(|((bench, base), chunk)| {
            let sp = |i: usize| {
                let m: &Measurement = chunk[i].as_ref().unwrap_or_else(|e| panic!("{bench}: {e}"));
                base / m.cycles as f64
            };
            let (r, b1, b2, b4, s) = (sp(0), sp(1), sp(2), sp(3), sp(4));
            (bench, r, b1, b2, b4, s)
        })
        .collect()
}

/// **Ablation A4**: superblock formation's contribution. Each benchmark is
/// split into basic blocks, profiled, and re-formed; all three variants
/// are sentinel-scheduled at issue 8. Returns
/// `(bench, split_speedup, formed_speedup, original_speedup)` over the
/// original program's base machine. The original point rides the shared
/// grid; the mutated variants are measured directly on worker threads.
pub fn ablation_formation(session: &GridSession) -> Vec<(String, f64, f64, f64)> {
    use sentinel_prog::superblock::{form_superblocks, split_at_branches, SuperblockConfig};
    use sentinel_sim::reference::Reference;

    let originals: Vec<Cell> = session
        .workloads()
        .iter()
        .map(|w| Cell::paper(&w.name, SchedulingModel::Sentinel, 8))
        .collect();
    let original_cycles: Vec<f64> = session
        .eval(&originals)
        .into_iter()
        .map(|o| o.expect("original S x8 measures").cycles as f64)
        .collect();
    let base: Vec<(String, f64)> = bases(session);

    let items: Vec<(&Workload, f64, f64)> = session
        .workloads()
        .iter()
        .zip(base.iter().zip(&original_cycles))
        .map(|(w, ((_, b), &o))| (w, *b, o))
        .collect();
    parallel_map(session.jobs(), &items, |&(w, base, original_cycles)| {
        // Split into basic blocks.
        let mut split_w = w.clone();
        split_at_branches(&mut split_w.func);
        let split = measure(
            &split_w,
            &MeasureConfig::paper(SchedulingModel::Sentinel, 8),
        )
        .expect("split program measures");

        // Profile the split program and form superblocks.
        let mut r = Reference::new(&split_w.func);
        crate::runner::apply_memory(&split_w, r.memory_mut());
        r.run().expect("profiling run");
        let profile = r.profile().clone();
        let mut formed_w = split_w.clone();
        form_superblocks(&mut formed_w.func, &profile, &SuperblockConfig::default());
        let formed = measure(
            &formed_w,
            &MeasureConfig::paper(SchedulingModel::Sentinel, 8),
        )
        .expect("formed program measures");

        (
            w.name.clone(),
            base / split.cycles as f64,
            base / formed.cycles as f64,
            base / original_cycles,
        )
    })
}

/// **Ablation A6**: superblock loop unrolling × scheduling model.
/// Unrolls every benchmark's loop bodies by each factor and measures
/// sentinel speedup at issue 8 (speedups over the *original* base
/// machine, so higher factors show unrolling's contribution on top of
/// speculation). The ×1 point is the shared S×8 grid cell; unrolled
/// variants are measured directly on worker threads.
pub fn ablation_unrolling(
    session: &GridSession,
    factors: &[usize],
) -> Vec<(String, Vec<(usize, f64)>)> {
    use sentinel_prog::superblock::unroll_all_loops;
    let plain: Vec<f64> = session
        .eval(
            &session
                .workloads()
                .iter()
                .map(|w| Cell::paper(&w.name, SchedulingModel::Sentinel, 8))
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .map(|o| o.expect("S x8 measures").cycles as f64)
        .collect();
    let items: Vec<(&Workload, f64, f64)> = session
        .workloads()
        .iter()
        .zip(bases(session).iter().zip(&plain))
        .map(|(w, ((_, b), &p))| (w, *b, p))
        .collect();
    let factors_owned: Vec<usize> = factors.to_vec();
    parallel_map(session.jobs(), &items, move |&(w, base, plain_cycles)| {
        let series = factors_owned
            .iter()
            .map(|&k| {
                if k <= 1 {
                    return (k, base / plain_cycles);
                }
                let mut wu = w.clone();
                unroll_all_loops(&mut wu.func, k);
                let m = measure(&wu, &MeasureConfig::paper(SchedulingModel::Sentinel, 8))
                    .expect("unrolled program measures");
                (k, base / m.cycles as f64)
            })
            .collect();
        (w.name.clone(), series)
    })
}

/// **Ablation A7**: cache-miss sensitivity. The paper assumes 100% hits;
/// this asks how much of a growing miss penalty speculation hides.
/// Returns per benchmark the S-over-R improvement (issue 8) at each miss
/// penalty (0 = the paper's assumption, shared with Figure 4's grid;
/// each run's S and R share the penalty and its own base machine so the
/// ratio isolates the scheduler).
pub fn ablation_cache(session: &GridSession, penalties: &[u32]) -> Vec<(String, Vec<(u32, f64)>)> {
    use sentinel_sim::cache::CacheConfig;
    let mut plan = Vec::new();
    for w in session.workloads() {
        for &p in penalties {
            let cache = (p > 0).then(|| CacheConfig::small_l1(p));
            for model in [
                SchedulingModel::RestrictedPercolation,
                SchedulingModel::Sentinel,
            ] {
                let mut cell = Cell::paper(&w.name, model, 8);
                cell.cache = cache.clone();
                plan.push(cell);
            }
        }
    }
    let outcomes = session.eval(&plan);
    session
        .workloads()
        .iter()
        .zip(outcomes.chunks_exact(2 * penalties.len()))
        .map(|(w, chunk)| {
            let series = penalties
                .iter()
                .zip(chunk.chunks_exact(2))
                .map(|(&p, pair)| {
                    let cycles = |o: &crate::grid::CellOutcome| {
                        o.as_ref()
                            .unwrap_or_else(|e| panic!("{} p={p}: {e}", w.name))
                            .cycles as f64
                    };
                    (p, cycles(&pair[0]) / cycles(&pair[1]))
                })
                .collect();
            (w.name.clone(), series)
        })
        .collect()
}

/// **Ablation A9**: register pressure. The paper notes the §3.7
/// live-range extension "will tend to increase the number of registers
/// used by the register allocator"; this measures the maximum number of
/// simultaneously live registers in sentinel-scheduled code with and
/// without the recovery constraints (which add renaming-introduced
/// virtual registers and restore moves). No simulation: the S×8 and
/// S×8 + recovery programs are the grid's own compiles (ablation A2
/// measures the same two points), read through the session's program
/// cache, and the analysis is parallelized per benchmark.
pub fn ablation_register_pressure(session: &GridSession) -> Vec<(String, usize, usize)> {
    use sentinel_prog::cfg::Cfg;
    use sentinel_prog::liveness::Liveness;

    let max_live = |func: &sentinel_prog::Function| -> usize {
        let cfg = Cfg::build(func);
        let lv = Liveness::compute(func, &cfg);
        let mut max = 0usize;
        for &bid in func.layout() {
            lv.for_each_point(func, bid, |_, live| max = max.max(live.len()));
        }
        max
    };

    parallel_map(session.jobs(), session.workloads(), |w| {
        let pressure = |recovery: bool| {
            let mut cell = Cell::paper(&w.name, SchedulingModel::Sentinel, 8);
            cell.recovery = recovery;
            let prepared = session.prepared(&cell);
            let p = prepared
                .as_ref()
                .as_ref()
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            max_live(&p.func)
        };
        (w.name.clone(), pressure(false), pressure(true))
    })
}

/// Issue-width sweep: sentinel speedup over the base machine at widths
/// 1..=16, showing where each benchmark's ILP saturates. The paper
/// widths 2/4/8 are shared with the figure grids.
pub fn issue_sweep(session: &GridSession, widths: &[usize]) -> Vec<(String, Vec<(usize, f64)>)> {
    let mut plan = Vec::new();
    for w in session.workloads() {
        for &width in widths {
            plan.push(Cell::paper(&w.name, SchedulingModel::Sentinel, width));
        }
    }
    let outcomes = session.eval(&plan);
    bases(session)
        .into_iter()
        .zip(outcomes.chunks_exact(widths.len()))
        .map(|((bench, base), chunk)| {
            let series = widths
                .iter()
                .zip(chunk)
                .map(|(&width, o)| {
                    let m = o
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{bench} w{width}: {e}"));
                    (width, base / m.cycles as f64)
                })
                .collect();
            (bench, series)
        })
        .collect()
}

/// **Ablation A8**: modulo scheduling (software pipelining) on the
/// pipelinable kernels. Returns `(kernel, acyclic_cycles,
/// pipelined_cycles, II, stages)` at issue 8; the acyclic baseline is
/// sentinel-superblock-scheduled, the pipelined version runs as
/// constructed (its overlap *is* its schedule). The kernels are not
/// suite benchmarks, so they are measured directly (in parallel).
pub fn ablation_pipelining(jobs: usize) -> Vec<(String, u64, u64, u64, u64)> {
    use sentinel_core::modulo::{pipeline_all_loops, pipeline_while_loop};
    use sentinel_core::{schedule_function, SchedOptions};
    use sentinel_sim::{RunOutcome, SimConfig, SimSession};
    use sentinel_workloads::kernels;

    let mdes = sentinel_isa::MachineDesc::paper_issue(8);
    let run = |w: &sentinel_workloads::Workload, func: &sentinel_prog::Function| -> u64 {
        let mut m = SimSession::for_function(func)
            .config(SimConfig::for_mdes(mdes.clone()))
            .build();
        crate::runner::apply_memory(w, m.memory_mut());
        assert_eq!(m.run().unwrap(), RunOutcome::Halted);
        m.stats().cycles
    };

    let kernels = [
        kernels::copy_words(200),
        kernels::dot_product(200),
        kernels::chain_scan(200),
    ];
    parallel_map(jobs, &kernels, |w| {
        let acyclic = {
            let s = schedule_function(
                &w.func,
                &mdes,
                &SchedOptions::new(SchedulingModel::Sentinel),
            )
            .unwrap();
            run(w, &s.func)
        };
        let mut wp = w.clone();
        let infos = pipeline_all_loops(&mut wp.func, &mdes);
        let info = if let Some(i) = infos.first() {
            *i
        } else {
            // While-loop kernels need the speculative variant.
            let body = wp.func.block_by_label("loop").unwrap();
            pipeline_while_loop(&mut wp.func, body, &mdes, true).expect("kernel is pipelinable")
        };
        let pipelined = run(w, &wp.func);
        (w.name.clone(), acyclic, pipelined, info.ii, info.stages)
    })
}

/// **Ablation A3**: sentinel-insertion overhead — static sentinels
/// inserted, dynamic sentinel instructions executed, and their share of
/// all dynamic instructions, per benchmark at a given width. Widths 2
/// and 8 are shared with the figure grids.
pub fn sentinel_overhead(session: &GridSession, width: usize) -> Vec<(String, usize, u64, f64)> {
    let plan: Vec<Cell> = session
        .workloads()
        .iter()
        .map(|w| Cell::paper(&w.name, SchedulingModel::Sentinel, width))
        .collect();
    session
        .eval(&plan)
        .into_iter()
        .zip(session.workloads())
        .map(|(o, w)| {
            let m = o.unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let static_sentinels = m.sched.checks_inserted + m.sched.confirms_inserted;
            let dynamic = m.stats.dyn_checks + m.stats.dyn_confirms;
            let share = dynamic as f64 / m.stats.dyn_insns as f64;
            (w.name.clone(), static_sentinels, dynamic, share)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geo_mean(&[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn geo_mean_empty_panics() {
        geo_mean(&[]);
    }

    #[test]
    #[should_panic(expected = "tiny: no measurement for (T x8)")]
    fn speedup_panic_names_the_missing_cell() {
        let row = BenchSpeedups {
            bench: "tiny".into(),
            class: BenchClass::NonNumeric,
            base_cycles: 100,
            speedups: HashMap::new(),
            raw: HashMap::new(),
            failed: BTreeMap::new(),
        };
        row.speedup(SchedulingModel::SentinelStores, 8);
    }

    /// Ablation A9 measures the same S×8 and S×8 + recovery programs
    /// ablation A2 simulates: it must read them from the session's
    /// program cache, not compile them again.
    #[test]
    fn register_pressure_reuses_the_recovery_ablations_compiles() {
        use sentinel_trace::sim::{SIM_PROGRAM_CACHE_HIT, SIM_PROGRAM_CACHE_MISS};
        use sentinel_workloads::{generate, WorkloadSpec};

        let workloads = [("tiny", 3), ("tiny2", 5)]
            .map(|(name, seed)| {
                let mut spec = WorkloadSpec::test_default(name, seed);
                spec.iterations = 10;
                generate(&spec)
            })
            .to_vec();
        let session = GridSession::new(Arc::new(workloads), 2);
        ablation_recovery(&session);
        let before = session.metrics();
        let rows = ablation_register_pressure(&session);
        let after = session.metrics();
        assert_eq!(
            after.counter(SIM_PROGRAM_CACHE_MISS),
            before.counter(SIM_PROGRAM_CACHE_MISS),
            "A9 compiled a schedule point A2 had already compiled"
        );
        assert_eq!(
            after.counter(SIM_PROGRAM_CACHE_HIT),
            before.counter(SIM_PROGRAM_CACHE_HIT) + 4,
            "two programs per benchmark, read through the cache"
        );
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, plain, rec)| *plain > 0 && *rec > 0));
    }

    #[test]
    fn try_speedup_tolerates_missing_cells() {
        let row = BenchSpeedups {
            bench: "tiny".into(),
            class: BenchClass::NonNumeric,
            base_cycles: 100,
            speedups: HashMap::from([((SchedulingModel::Sentinel, 8), 2.0)]),
            raw: HashMap::new(),
            failed: BTreeMap::new(),
        };
        assert_eq!(row.try_speedup(SchedulingModel::Sentinel, 8), Some(2.0));
        assert_eq!(row.try_speedup(SchedulingModel::Sentinel, 2), None);
    }
}
