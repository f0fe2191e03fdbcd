//! The handwritten kernels, scheduled under every model (including
//! boosting) and executed: always equivalent to the sequential reference,
//! and the expected final values are checked against ground truth
//! computed in Rust.

use sentinel::bench::runner::apply_memory;
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::reference::{RefOutcome, Reference};
use sentinel::sim::verify::{compare_runs, CompareSpec};
use sentinel::sim::{RunOutcome, SimConfig, SimSession, SpeculationSemantics};
use sentinel_isa::{MachineDesc, Reg};
use sentinel_workloads::kernels;
use sentinel_workloads::Workload;

fn models() -> Vec<SchedulingModel> {
    vec![
        SchedulingModel::RestrictedPercolation,
        SchedulingModel::GeneralPercolation,
        SchedulingModel::Sentinel,
        SchedulingModel::SentinelStores,
        SchedulingModel::Boosting(2),
    ]
}

fn run_scheduled(
    w: &Workload,
    model: SchedulingModel,
    width: usize,
) -> (SimSession<'_>, RunOutcome) {
    // Leak the scheduled function: test-only convenience for returning the
    // machine alongside it.
    let mdes = MachineDesc::paper_issue(width);
    let sched = schedule_function(&w.func, &mdes, &SchedOptions::new(model))
        .unwrap_or_else(|e| panic!("{} {model}: {e}", w.name));
    let func: &'static _ = Box::leak(Box::new(sched.func));
    let mut cfg = SimConfig::for_mdes(mdes);
    cfg.semantics = match model {
        SchedulingModel::GeneralPercolation => SpeculationSemantics::Silent,
        _ => SpeculationSemantics::SentinelTags,
    };
    let mut m = SimSession::for_function(func).config(cfg).build();
    apply_memory(w, m.memory_mut());
    let out = m
        .run()
        .unwrap_or_else(|e| panic!("{} {model} w{width}: {e}", w.name));
    (m, out)
}

#[test]
fn kernels_match_reference_under_all_models() {
    for w in kernels::all_kernels() {
        let mut r = Reference::new(&w.func);
        apply_memory(&w, r.memory_mut());
        let ro = r.run().unwrap();
        assert_eq!(ro, RefOutcome::Halted, "{}", w.name);
        for model in models() {
            for width in [2, 8] {
                let (m, mo) = run_scheduled(&w, model, width);
                let divs = compare_runs(&m, mo, &r, ro, &CompareSpec::precise(w.live_out.clone()));
                assert!(divs.is_empty(), "{} {model} w{width}: {}", w.name, divs[0]);
            }
        }
    }
}

#[test]
fn copy_words_ground_truth() {
    let w = kernels::copy_words(64);
    let (m, out) = run_scheduled(&w, SchedulingModel::Sentinel, 8);
    assert_eq!(out, RunOutcome::Halted);
    for i in 0..64u64 {
        assert_eq!(
            m.memory().read_word(0x2_0000 + 8 * i).unwrap(),
            i * 3 + 1,
            "word {i}"
        );
    }
}

#[test]
fn scan_ground_truth() {
    let w = kernels::scan_until_zero(100);
    let (m, out) = run_scheduled(&w, SchedulingModel::Sentinel, 8);
    assert_eq!(out, RunOutcome::Halted);
    assert_eq!(m.reg(Reg::int(8)).as_i64(), 100);
}

#[test]
fn binary_search_ground_truth() {
    // Values are 2i+1; needle 77 = index 38.
    let w = kernels::binary_search(128, 77);
    let (m, out) = run_scheduled(&w, SchedulingModel::SentinelStores, 8);
    assert_eq!(out, RunOutcome::Halted);
    assert_eq!(m.reg(Reg::int(8)).as_i64(), 38);
    // Absent needle: even values are never present.
    let w = kernels::binary_search(128, 78);
    let (m, out) = run_scheduled(&w, SchedulingModel::Sentinel, 4);
    assert_eq!(out, RunOutcome::Halted);
    assert_eq!(m.reg(Reg::int(8)).as_i64(), -1);
}

#[test]
fn histogram_ground_truth() {
    let w = kernels::histogram(64);
    let (m, out) = run_scheduled(&w, SchedulingModel::Sentinel, 8);
    assert_eq!(out, RunOutcome::Halted);
    // Recompute in Rust.
    let mut counts = [0u64; 8];
    for i in 0..64u64 {
        let v = i.wrapping_mul(2654435761) >> 7;
        counts[(v & 7) as usize] += 1;
    }
    for (b, &c) in counts.iter().enumerate() {
        assert_eq!(
            m.memory().read_word(0x2_0000 + 8 * b as u64).unwrap(),
            c,
            "bucket {b}"
        );
    }
}

#[test]
fn dot_product_ground_truth() {
    let w = kernels::dot_product(48);
    let (m, out) = run_scheduled(&w, SchedulingModel::Sentinel, 8);
    assert_eq!(out, RunOutcome::Halted);
    let mut expect = 0.0f64;
    for i in 0..48u64 {
        expect += ((i % 7) as f64 * 0.25 + 0.5) * ((i % 5) as f64 * 0.5 + 1.0);
    }
    assert_eq!(m.memory().read_f64(0x3_0000).unwrap(), expect);
}

#[test]
fn scan_shows_speculations_value() {
    // The strlen shape is the paper's motivating case: every branch waits
    // on a load. Sentinel must beat restricted clearly at issue 8.
    let w = kernels::scan_until_zero(100);
    let (mr, _) = run_scheduled(&w, SchedulingModel::RestrictedPercolation, 8);
    let (ms, _) = run_scheduled(&w, SchedulingModel::Sentinel, 8);
    assert!(
        ms.stats().cycles < mr.stats().cycles,
        "sentinel {} vs restricted {}",
        ms.stats().cycles,
        mr.stats().cycles
    );
}
