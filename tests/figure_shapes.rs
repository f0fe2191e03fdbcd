//! Qualitative shape of the paper's §5.2 results, asserted with slack.
//!
//! We do not chase the paper's absolute numbers (our substrate is a
//! synthetic-workload simulator, not the authors' testbed); these tests
//! pin the *shape*: who wins, roughly by how much, and which benchmarks
//! are insensitive. README's headline quotes the numbers themselves,
//! so a test holds it to the golden `reproduce all` report.

use sentinel_bench::figures::{mean_improvement, measure_workloads, BenchSpeedups};
use sentinel_core::SchedulingModel;
use sentinel_workloads::suite::suite_with_iterations;
use sentinel_workloads::BenchClass;

const R: SchedulingModel = SchedulingModel::RestrictedPercolation;
const G: SchedulingModel = SchedulingModel::GeneralPercolation;
const S: SchedulingModel = SchedulingModel::Sentinel;
const T: SchedulingModel = SchedulingModel::SentinelStores;

fn rows() -> Vec<BenchSpeedups> {
    measure_workloads(&suite_with_iterations(60), &[R, G, S, T])
}

fn find<'a>(rows: &'a [BenchSpeedups], name: &str) -> &'a BenchSpeedups {
    rows.iter().find(|r| r.bench == name).unwrap()
}

#[test]
fn recovery_constraints_never_improve_schedules() {
    // Ablation A2's direction is structural: adding constraints can only
    // lengthen (or preserve) schedules.
    use sentinel_bench::runner::{measure, MeasureConfig};
    for w in suite_with_iterations(40) {
        let plain = measure(&w, &MeasureConfig::paper(S, 8)).unwrap().cycles;
        let mut cfg = MeasureConfig::paper(S, 8);
        cfg.recovery = true;
        let rec = measure(&w, &cfg).unwrap().cycles;
        assert!(
            rec >= plain,
            "{}: recovery {} < plain {}",
            w.name,
            rec,
            plain
        );
    }
}

#[test]
fn figure_shapes_hold() {
    let rows = rows();

    // --- Figure 4 shape: S vs R -------------------------------------------
    // Sentinel never loses to restricted percolation at issue 8.
    for r in &rows {
        assert!(
            r.speedup(S, 8) >= r.speedup(R, 8) * 0.98,
            "{}: S {:.2} vs R {:.2}",
            r.bench,
            r.speedup(S, 8),
            r.speedup(R, 8)
        );
    }
    // Paper: issue-8 average improvement ≈ +57% non-numeric, +32% numeric.
    let nn8 = mean_improvement(&rows, S, R, 8, Some(BenchClass::NonNumeric)) - 1.0;
    let nu8 = mean_improvement(&rows, S, R, 8, Some(BenchClass::Numeric)) - 1.0;
    assert!(
        (0.30..=1.10).contains(&nn8),
        "non-numeric S/R at 8: {nn8:.2}"
    );
    assert!((0.10..=0.80).contains(&nu8), "numeric S/R at 8: {nu8:.2}");
    // The improvement grows with issue rate (§5.2: "the importance of
    // sentinel scheduling support also grows for higher issue rate
    // processors").
    let nn2 = mean_improvement(&rows, S, R, 2, Some(BenchClass::NonNumeric)) - 1.0;
    assert!(nn8 > nn2, "S/R improvement must grow with width");
    // Branch-free numeric kernels are insensitive (paper: fpppp,
    // matrix300 "restricted percolation already achieves a high
    // instruction execution rate").
    for b in ["fpppp", "matrix300"] {
        let r = find(&rows, b);
        let ratio = r.speedup(S, 8) / r.speedup(R, 8);
        assert!(
            (0.97..=1.05).contains(&ratio),
            "{b} should be insensitive, got {ratio:.2}"
        );
    }
    // Branchy numeric programs benefit substantially (paper: doduc,
    // tomcatv ≈ +36-38% at issue 4).
    for b in ["doduc", "tomcatv"] {
        let r = find(&rows, b);
        assert!(
            r.speedup(S, 4) / r.speedup(R, 4) > 1.15,
            "{b} should benefit from sentinel scheduling"
        );
    }

    // --- Figure 5 shape: G vs S vs T ---------------------------------------
    // S is almost identical to G (paper: "almost identical… for an issue 8
    // processor, no performance loss is observed").
    for r in &rows {
        let ratio = r.speedup(S, 8) / r.speedup(G, 8);
        assert!(
            (0.93..=1.05).contains(&ratio),
            "{}: S/G at 8 = {ratio:.2}",
            r.bench
        );
    }
    // T adds a modest average gain for non-numeric programs at issue 8
    // (paper: +7.4%) and little for numeric (paper: +2.6%).
    let t_nn = mean_improvement(&rows, T, S, 8, Some(BenchClass::NonNumeric)) - 1.0;
    let t_nu = mean_improvement(&rows, T, S, 8, Some(BenchClass::Numeric)) - 1.0;
    assert!(
        (0.005..=0.20).contains(&t_nn),
        "T/S non-numeric at 8: {t_nn:.3}"
    );
    assert!(
        (-0.02..=0.10).contains(&t_nu),
        "T/S numeric at 8: {t_nu:.3}"
    );
    // cmp and grep are the stand-out winners (paper: >20% at issue 4/8).
    for b in ["cmp", "grep"] {
        let r = find(&rows, b);
        let gain = r.speedup(T, 8) / r.speedup(S, 8);
        assert!(gain > 1.08, "{b}: T/S at 8 = {gain:.2}");
    }
    // eqntott and wc gain nothing (paper: "no performance improvement…
    // due to few store instructions").
    for b in ["eqntott", "wc"] {
        let r = find(&rows, b);
        let gain = r.speedup(T, 8) / r.speedup(S, 8);
        assert!(
            (0.98..=1.03).contains(&gain),
            "{b}: T/S at 8 = {gain:.2} should be ≈1"
        );
    }
}

/// The words of `text` that quote a measurement: a decimal number or a
/// percentage, with an optional sign. Issue widths, ablation names
/// (`A2`) and section numbers (`§3.7`) are not words of this shape.
fn measured_values(text: &str) -> Vec<&str> {
    text.split(|c: char| c.is_whitespace() || "()*,;:/`~≈".contains(c))
        .map(|w| w.trim_end_matches('.'))
        .filter(|w| {
            let body = w.strip_prefix(['+', '-']).unwrap_or(w);
            let number = body.strip_suffix('%').unwrap_or(body);
            (number.len() < body.len() || number.contains('.'))
                && number
                    .split('.')
                    .all(|part| !part.is_empty() && part.bytes().all(|b| b.is_ascii_digit()))
        })
        .collect()
}

#[test]
fn readme_headline_quotes_the_golden_report() {
    let root = env!("CARGO_MANIFEST_DIR");
    let readme = std::fs::read_to_string(format!("{root}/README.md")).unwrap();
    let golden = std::fs::read_to_string(format!("{root}/tests/golden/reproduce_all.txt")).unwrap();
    // From the headline to the next section, without the paper's own
    // values, which README labels "(paper: …)".
    let start = readme
        .find("Headline shape at issue 8")
        .expect("README has its headline");
    let end = readme[start..]
        .find("\n## ")
        .map_or(readme.len(), |e| start + e);
    let mut headline = readme[start..end].to_string();
    while let Some(open) = headline.find("(paper:") {
        let close = open + headline[open..].find(')').expect("a closed aside");
        headline.replace_range(open..=close, "");
    }
    let printed = measured_values(&golden);
    let quoted = measured_values(&headline);
    assert!(quoted.len() >= 10, "{quoted:?}");
    for value in quoted {
        assert!(
            printed.contains(&value),
            "README quotes {value}, which reproduce all does not print"
        );
    }
}
