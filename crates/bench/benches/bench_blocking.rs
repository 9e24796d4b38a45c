//! Blocking cost and recall trade-off: token blocking vs
//! sorted-neighborhood on FacultyMatch (DESIGN.md §4 ablation), plus
//! token blocking on Citations titles, the dense-overlap case where
//! candidate emission dominates.

use fairem_bench::crit::{black_box, Criterion};
use fairem_bench::{criterion_group, criterion_main};
use fairem_core::blocking::{blocking_recall, sorted_neighborhood, token_blocking};
use fairem_core::schema::Table;
use fairem_datasets::{citations, faculty_match, CitationsConfig, FacultyConfig};

fn bench_blocking(c: &mut Criterion) {
    let d = faculty_match(&FacultyConfig::default());
    let a = Table::from_csv(d.table_a.clone()).unwrap();
    let b = Table::from_csv(d.table_b.clone()).unwrap();
    let truth: Vec<(usize, usize)> = d
        .matches
        .iter()
        .map(|(ia, ib)| (a.row_of(ia).unwrap(), b.row_of(ib).unwrap()))
        .collect();

    let mut g = c.benchmark_group("blocking");
    g.sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("token_name", |bch| {
        bch.iter(|| token_blocking(black_box(&a), black_box(&b), &["name"], 200))
    });
    g.bench_function("token_name_univ", |bch| {
        bch.iter(|| token_blocking(black_box(&a), black_box(&b), &["name", "university"], 200))
    });
    g.bench_function("sorted_neighborhood_w10", |bch| {
        bch.iter(|| sorted_neighborhood(black_box(&a), black_box(&b), "name", 10))
    });
    // Titles share many words, so most candidates are emitted by
    // several tokens: emission and dedup, not indexing, dominate.
    let c = citations(&CitationsConfig::default());
    let ca = Table::from_csv(c.table_a.clone()).unwrap();
    let cb = Table::from_csv(c.table_b.clone()).unwrap();
    g.bench_function("token_citations_title", |bch| {
        bch.iter(|| token_blocking(black_box(&ca), black_box(&cb), &["title"], 200))
    });
    g.finish();

    // Print the recall trade-off once (captured in EXPERIMENTS.md).
    let tok = token_blocking(&a, &b, &["name"], 200);
    let snm = sorted_neighborhood(&a, &b, "name", 10);
    eprintln!(
        "[blocking recall] token(name): {:.3} with {} candidates; snm(w=10): {:.3} with {} candidates",
        blocking_recall(&tok, &truth),
        tok.len(),
        blocking_recall(&snm, &truth),
        snm.len()
    );
}

criterion_group!(benches, bench_blocking);
criterion_main!(benches);
