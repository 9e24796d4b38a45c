//! Threshold-analysis cost: full-grid sweeps, the shared-curve
//! distribution audit the serve `calibrate` verb runs, AUC parity, and
//! per-group Platt and isotonic calibration (fit plus remap).

use fairem_bench::crit::{black_box, BenchmarkId, Criterion};
use fairem_bench::{criterion_group, criterion_main};
use fairem_core::calibrate::{apply_calibrator, distribution_audit};
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::schema::Table;
use fairem_core::sensitive::{GroupId, GroupSpace, GroupVector, SensitiveAttr};
use fairem_core::threshold::{auc_parity, default_grid, sweep};
use fairem_core::workload::{Correspondence, Workload};
use fairem_core::{CalibrationSpec, CancelToken, GroupCalibrator, WorkerPool};
use fairem_csvio::parse_csv_str;

fn setup(n: usize) -> (Workload, GroupSpace, Vec<GroupId>) {
    let t =
        Table::from_csv(parse_csv_str("id,g\na,g0\nb,g1\nc,g2\nd,g3\ne,g4\n").unwrap()).unwrap();
    let space = GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")]);
    let groups: Vec<GroupId> = space.ids().collect();
    let items = (0..n)
        .map(|i| Correspondence {
            a_row: 0,
            b_row: 0,
            score: ((i * 31) % 100) as f64 / 100.0,
            truth: i % 5 == 0,
            left: GroupVector(1 << (i % 5)),
            right: GroupVector(1 << ((i / 5) % 5)),
        })
        .collect();
    (Workload::new(items, 0.5), space, groups)
}

fn bench_threshold(c: &mut Criterion) {
    let mut g = c.benchmark_group("threshold_sweep");
    g.sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3));
    let grid = default_grid();
    for n in [2_000usize, 20_000] {
        let (w, space, groups) = setup(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &w, |bch, w| {
            bch.iter(|| {
                sweep(
                    black_box(w),
                    &space,
                    &groups,
                    FairnessMeasure::TruePositiveRateParity,
                    &grid,
                )
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("distribution_audit");
    g.sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3));
    for n in [2_000usize, 20_000] {
        let (w, space, groups) = setup(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &w, |bch, w| {
            bch.iter(|| {
                distribution_audit(
                    black_box(w),
                    &space,
                    &groups,
                    &FairnessMeasure::PAPER_FIVE,
                    Disparity::Subtraction,
                    &grid,
                )
            })
        });
    }
    g.finish();

    let (w, space, groups) = setup(20_000);
    let mut g = c.benchmark_group("threshold_analysis");
    g.sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("auc_parity", |bch| {
        bch.iter(|| auc_parity(black_box(&w), &space, &groups, Disparity::Subtraction))
    });
    let pool = WorkerPool::new(1);
    for spec in [CalibrationSpec::platt(), CalibrationSpec::isotonic()] {
        g.bench_function(format!("calibrate_{}", spec.kind.name()), |bch| {
            bch.iter(|| {
                let fit = GroupCalibrator::try_fit(
                    spec,
                    black_box(&w),
                    &groups,
                    &pool,
                    &CancelToken::inert(),
                );
                let cal = match fit {
                    Ok(cal) => cal,
                    // fairem: allow(panic) — bench harness uses an inert token that cannot interrupt
                    Err(interrupt) => unreachable!("inert token: {interrupt}"),
                };
                apply_calibrator(&cal, black_box(&w), &groups)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_threshold);
criterion_main!(benches);
