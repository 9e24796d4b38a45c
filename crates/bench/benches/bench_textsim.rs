//! Microbenchmarks of the edit-based similarity kernels on the path the
//! feature pipeline runs them: `measure_cells` over `PreparedColumn`s,
//! with one fresh `SimScratch` per pass as each pool chunk starts with.
//! Two cases: short person names (one 64-char bit-vector block) and
//! Citations titles longer than 64 chars (two or more blocks).

use fairem_bench::crit::{black_box, Criterion};
use fairem_bench::{criterion_group, criterion_main};
use fairem_datasets::{citations, CitationsConfig};
use fairem_text::{measure_cells, PreparedColumn, SimScratch, StringMeasure, TokenInterner};

const NAMES: [(&str, &str); 4] = [
    ("li wei", "wong way"),
    ("john a smith", "jon smith"),
    (
        "university of illinois chicago",
        "univ of illinois at chicago",
    ),
    ("maria garcia", "ana garcia lopez"),
];

/// Citations titles longer than 64 chars, each paired with its
/// duplicate in B and with the next one's duplicate (a non-match), as
/// blocking hands both kinds to the feature kernels.
fn citation_titles() -> Vec<(String, String)> {
    let d = citations(&CitationsConfig::default());
    let title = |t: &fairem_csvio::CsvTable, id: &str| -> String {
        let col = t.header.iter().position(|h| h == "title").unwrap();
        let row = t.rows.iter().find(|r| r[0] == id).unwrap();
        row[col].clone()
    };
    let long: Vec<(String, String)> = d
        .matches
        .iter()
        .map(|(ia, ib)| (title(&d.table_a, ia), title(&d.table_b, ib)))
        .filter(|(ta, _)| ta.chars().count() > 64)
        .collect();
    let mut pairs = long.clone();
    for (k, (ta, _)) in long.iter().enumerate() {
        pairs.push((ta.clone(), long[(k + 1) % long.len()].1.clone()));
    }
    pairs
}

fn bench_measures(c: &mut Criterion) {
    let names: Vec<(String, String)> = NAMES
        .iter()
        .map(|&(x, y)| (x.to_owned(), y.to_owned()))
        .collect();
    let titles = citation_titles();
    assert!(!titles.is_empty(), "no Citations title is over 64 chars");
    eprintln!(
        "textsim: {} name pairs, {} title pairs",
        names.len(),
        titles.len()
    );
    let mut g = c.benchmark_group("textsim");
    g.sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2));
    for (case, pairs) in [("names", &names), ("titles", &titles)] {
        let mut interner = TokenInterner::new();
        let ca = PreparedColumn::prepare(pairs.iter().map(|(x, _)| x.as_str()), &mut interner);
        let cb = PreparedColumn::prepare(pairs.iter().map(|(_, y)| y.as_str()), &mut interner);
        for m in [
            StringMeasure::Levenshtein,
            StringMeasure::JaroWinkler,
            StringMeasure::MongeElkan,
        ] {
            g.bench_function(format!("{case}/{}", m.name()), |b| {
                b.iter(|| {
                    let mut scratch = SimScratch::new();
                    let mut acc = 0.0;
                    for i in 0..pairs.len() {
                        acc += measure_cells(m, &ca, i, &cb, black_box(i), &interner, &mut scratch);
                    }
                    acc
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_measures);
criterion_main!(benches);
