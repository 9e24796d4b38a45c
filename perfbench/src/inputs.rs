//! Seeded workload inputs, serialised to CSV bytes at set-up. The
//! program only ever sees these bytes (batch workloads) or the
//! generator seed it is asked to open (serve-mix).

use fairem_csvio::{parse_csv, write_csv, write_csv_stream, CsvTable};
use fairem_datasets::{citations, CitationsConfig, ScaleConfig, ScaleDataset};

/// One batch workload's input: the two tables and the ground-truth
/// matches as CSV bytes, plus the sensitive column to audit.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvInputs {
    /// `tableA.csv` bytes.
    pub table_a: Vec<u8>,
    /// `tableB.csv` bytes.
    pub table_b: Vec<u8>,
    /// `matches.csv` bytes (`id_a,id_b`).
    pub matches: Vec<u8>,
    /// Sensitive column audited.
    pub sensitive: String,
}

impl CsvInputs {
    /// Total CSV bytes.
    pub fn len(&self) -> usize {
        self.table_a.len() + self.table_b.len() + self.matches.len()
    }

    /// True when all three files are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The Citations generator at its default size under `seed`.
pub fn citations_csv(seed: u64) -> Result<CsvInputs, String> {
    let d = citations(&CitationsConfig {
        seed,
        ..CitationsConfig::default()
    });
    let matches = CsvTable {
        header: vec!["id_a".into(), "id_b".into()],
        rows: d
            .matches
            .iter()
            .map(|(a, b)| vec![a.clone(), b.clone()])
            .collect(),
    };
    let sensitive = d
        .sensitive
        .first()
        .cloned()
        .ok_or("citations generator names no sensitive column")?;
    Ok(CsvInputs {
        table_a: to_bytes(&d.table_a)?,
        table_b: to_bytes(&d.table_b)?,
        matches: to_bytes(&matches)?,
        sensitive,
    })
}

/// The streamed `ScaleDataset` with `rows` rows per table and blocks of
/// `block_width` entities, under `seed`.
pub fn scale_csv(seed: u64, rows: usize, block_width: usize) -> Result<CsvInputs, String> {
    let d = ScaleDataset::new(ScaleConfig {
        rows,
        block_width,
        seed,
        ..ScaleConfig::default()
    });
    let stream = |rows: &mut dyn Iterator<Item = Vec<String>>, header: Vec<String>| {
        let mut out = Vec::new();
        write_csv_stream(&mut out, &header, rows).map_err(|e| e.to_string())?;
        Ok::<_, String>(out)
    };
    let sensitive = d
        .sensitive()
        .first()
        .cloned()
        .ok_or("scale generator names no sensitive column")?;
    let (mut rows_a, mut rows_b) = (d.rows_a(), d.rows_b());
    let mut matches = d.matches().map(|(a, b)| vec![a, b]);
    Ok(CsvInputs {
        table_a: stream(&mut rows_a, d.header())?,
        table_b: stream(&mut rows_b, d.header())?,
        matches: stream(&mut matches, vec!["id_a".into(), "id_b".into()])?,
        sensitive,
    })
}

fn to_bytes(t: &CsvTable) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    write_csv(&mut out, t).map_err(|e| e.to_string())?;
    Ok(out)
}

/// Parsed inputs: both tables and the match id pairs.
pub type Parsed = (CsvTable, CsvTable, Vec<(String, String)>);

/// Parse the three CSV files the way `fairem audit` reads them.
pub fn parse(inputs: &CsvInputs) -> Result<Parsed, String> {
    let a = parse_csv(&inputs.table_a[..]).map_err(|e| format!("tableA: {e}"))?;
    let b = parse_csv(&inputs.table_b[..]).map_err(|e| format!("tableB: {e}"))?;
    let m = parse_csv(&inputs.matches[..]).map_err(|e| format!("matches: {e}"))?;
    let ia = m
        .column_index("id_a")
        .ok_or("matches csv needs an id_a column")?;
    let ib = m
        .column_index("id_b")
        .ok_or("matches csv needs an id_b column")?;
    let pairs = m
        .rows
        .iter()
        .map(|r| (r[ia].clone(), r[ib].clone()))
        .collect();
    Ok((a, b, pairs))
}
