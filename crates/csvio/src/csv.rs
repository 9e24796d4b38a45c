//! RFC 4180 CSV parsing and writing.
//!
//! Supports quoted fields, escaped quotes (`""`), embedded commas and
//! newlines inside quotes, and both `\n` and `\r\n` row terminators.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

/// A parsed CSV table: a header row plus data rows, all owned strings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CsvTable {
    /// Column names from the header row.
    pub header: Vec<String>,
    /// Data rows; every row has exactly `header.len()` fields.
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Index of a column by name, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate over `(column_name, value)` pairs of one row.
    pub fn row_named(&self, idx: usize) -> impl Iterator<Item = (&str, &str)> {
        self.header
            .iter()
            .map(String::as_str)
            .zip(self.rows[idx].iter().map(String::as_str))
    }
}

/// Errors produced while parsing CSV input.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A data row had a different field count than the header.
    RaggedRow {
        /// 1-based row number (header is row 1).
        row: usize,
        /// Fields found in the offending row.
        found: usize,
        /// Fields expected (header width).
        expected: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based row number where the open quote started.
        row: usize,
    },
    /// Character data after the closing quote of a field.
    TrailingAfterQuote {
        /// 1-based row number.
        row: usize,
    },
    /// The input contained no header row.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv io error: {e}"),
            CsvError::RaggedRow {
                row,
                found,
                expected,
            } => {
                write!(f, "row {row}: expected {expected} fields, found {found}")
            }
            CsvError::UnterminatedQuote { row } => {
                write!(f, "row {row}: unterminated quoted field")
            }
            CsvError::TrailingAfterQuote { row } => {
                write!(f, "row {row}: data after closing quote")
            }
            CsvError::Empty => write!(f, "csv input is empty"),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Parse CSV from any reader. The first record is the header.
pub fn parse_csv<R: Read>(mut reader: R) -> Result<CsvTable, CsvError> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    parse_csv_str(&buf)
}

/// Parse CSV text. The first record is the header.
///
/// Strict: any ragged row (field count differing from the header) is an
/// error. Use [`parse_csv_str_lenient`] to skip ragged rows instead.
pub fn parse_csv_str(input: &str) -> Result<CsvTable, CsvError> {
    let records = split_records(input)?;
    let mut it = records.into_iter();
    let header = it.next().ok_or(CsvError::Empty)?;
    let expected = header.len();
    let mut rows = Vec::new();
    for (i, r) in it.enumerate() {
        if r.len() != expected {
            return Err(CsvError::RaggedRow {
                row: i + 2,
                found: r.len(),
                expected,
            });
        }
        rows.push(r);
    }
    Ok(CsvTable { header, rows })
}

/// A data row the lenient parser dropped, with its shape mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedRow {
    /// 1-based data-row number (the row after the header is 1).
    pub row: usize,
    /// Fields found.
    pub found: usize,
    /// Fields the header demands.
    pub expected: usize,
}

/// Parse CSV text, skipping ragged data rows instead of failing.
///
/// Structural errors that corrupt row framing (unterminated quotes, data
/// after a closing quote, empty input) are still hard errors — past
/// those, field boundaries can't be trusted. Returns the table of
/// well-shaped rows plus one [`SkippedRow`] per dropped row.
pub fn parse_csv_str_lenient(input: &str) -> Result<(CsvTable, Vec<SkippedRow>), CsvError> {
    let records = split_records(input)?;
    let mut it = records.into_iter();
    let header = it.next().ok_or(CsvError::Empty)?;
    let expected = header.len();
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for (i, r) in it.enumerate() {
        if r.len() != expected {
            skipped.push(SkippedRow {
                row: i + 1,
                found: r.len(),
                expected,
            });
        } else {
            rows.push(r);
        }
    }
    Ok((CsvTable { header, rows }, skipped))
}

/// Split CSV text into raw records (quote-aware, shape-unchecked).
fn split_records(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut chars = input.chars().peekable();
    let mut row_no = 1usize;
    let mut in_quotes = false;
    let mut field_started_quoted = false;
    let mut quote_open_row = 1usize;

    macro_rules! end_field {
        () => {{
            record.push(std::mem::take(&mut field));
            field_started_quoted = false;
        }};
    }
    macro_rules! end_record {
        () => {{
            end_field!();
            records.push(std::mem::take(&mut record));
            row_no += 1;
        }};
    }

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                        // Only separator / newline / EOF may follow.
                        match chars.peek() {
                            None | Some(',') | Some('\n') | Some('\r') => {}
                            Some(_) => return Err(CsvError::TrailingAfterQuote { row: row_no }),
                        }
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                ',' => end_field!(),
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    end_record!();
                }
                '\n' => end_record!(),
                '"' if field.is_empty() && !field_started_quoted => {
                    in_quotes = true;
                    field_started_quoted = true;
                    quote_open_row = row_no;
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote {
            row: quote_open_row,
        });
    }
    // Final record without trailing newline.
    if !field.is_empty() || !record.is_empty() || field_started_quoted {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

fn needs_quoting(s: &str) -> bool {
    s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r')
}

fn write_row<W: Write>(w: &mut W, row: &[String]) -> io::Result<()> {
    for (i, f) in row.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        if needs_quoting(f) {
            let escaped = f.replace('"', "\"\"");
            w.write_all(b"\"")?;
            w.write_all(escaped.as_bytes())?;
            w.write_all(b"\"")?;
        } else {
            w.write_all(f.as_bytes())?;
        }
    }
    w.write_all(b"\n")
}

/// Write a table as RFC 4180 CSV (LF terminators, minimal quoting).
pub fn write_csv<W: Write>(w: &mut W, table: &CsvTable) -> io::Result<()> {
    write_row(w, &table.header)?;
    for row in &table.rows {
        write_row(w, row)?;
    }
    Ok(())
}

/// Stream rows as RFC 4180 CSV without materializing a table: the
/// out-of-core companion to [`write_csv`], for generators that produce
/// rows on demand. Returns the number of data rows written.
pub fn write_csv_stream<W: Write, I>(w: &mut W, header: &[String], rows: I) -> io::Result<u64>
where
    I: IntoIterator<Item = Vec<String>>,
{
    write_row(w, header)?;
    let mut n = 0u64;
    for row in rows {
        write_row(w, &row)?;
        n += 1;
    }
    Ok(n)
}

/// Read and parse a CSV file from disk.
pub fn read_csv_file(path: &Path) -> Result<CsvTable, CsvError> {
    let f = std::fs::File::open(path)?;
    parse_csv(io::BufReader::new(f))
}

/// Write a table to a CSV file on disk.
pub fn write_csv_file(path: &Path, table: &CsvTable) -> Result<(), CsvError> {
    let f = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(f);
    write_csv(&mut w, table)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple() {
        let t = parse_csv_str("a,b,c\n1,2,3\n4,5,6\n").unwrap();
        assert_eq!(t.header, vec!["a", "b", "c"]);
        assert_eq!(t.rows, vec![vec!["1", "2", "3"], vec!["4", "5", "6"]]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn parses_quotes_commas_newlines() {
        let t = parse_csv_str("name,bio\n\"Li, Wei\",\"line1\nline2\"\n").unwrap();
        assert_eq!(t.rows[0][0], "Li, Wei");
        assert_eq!(t.rows[0][1], "line1\nline2");
    }

    #[test]
    fn parses_escaped_quotes() {
        let t = parse_csv_str("q\n\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.rows[0][0], "say \"hi\"");
    }

    #[test]
    fn handles_crlf_and_missing_final_newline() {
        let t = parse_csv_str("a,b\r\n1,2\r\n3,4").unwrap();
        assert_eq!(t.rows, vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn empty_fields_and_trailing_comma() {
        let t = parse_csv_str("a,b,c\n,,\n").unwrap();
        assert_eq!(t.rows[0], vec!["", "", ""]);
    }

    #[test]
    fn quoted_empty_final_field_is_kept() {
        let t = parse_csv_str("a,b\n1,\"\"").unwrap();
        assert_eq!(t.rows[0], vec!["1", ""]);
    }

    #[test]
    fn errors_on_ragged_row() {
        let e = parse_csv_str("a,b\n1,2,3\n").unwrap_err();
        assert!(
            matches!(
                e,
                CsvError::RaggedRow {
                    row: 2,
                    found: 3,
                    expected: 2
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn errors_on_unterminated_quote() {
        let e = parse_csv_str("a\n\"oops\n").unwrap_err();
        assert!(matches!(e, CsvError::UnterminatedQuote { .. }), "{e}");
    }

    #[test]
    fn errors_on_trailing_after_quote() {
        let e = parse_csv_str("a\n\"x\"y\n").unwrap_err();
        assert!(matches!(e, CsvError::TrailingAfterQuote { .. }), "{e}");
    }

    #[test]
    fn errors_on_empty_input() {
        assert!(matches!(parse_csv_str("").unwrap_err(), CsvError::Empty));
    }

    #[test]
    fn roundtrip_with_quoting() {
        let t = CsvTable {
            header: vec!["n".into(), "v".into()],
            rows: vec![
                vec!["Li, Wei".into(), "a\"b".into()],
                vec!["plain".into(), "multi\nline".into()],
            ],
        };
        let mut buf = Vec::new();
        write_csv(&mut buf, &t).unwrap();
        let back = parse_csv_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn column_index_lookup() {
        let t = parse_csv_str("id,name\n1,x\n").unwrap();
        assert_eq!(t.column_index("name"), Some(1));
        assert_eq!(t.column_index("missing"), None);
        let named: Vec<_> = t.row_named(0).collect();
        assert_eq!(named, vec![("id", "1"), ("name", "x")]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fairem_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let t = parse_csv_str("a,b\n1,2\n").unwrap();
        write_csv_file(&path, &t).unwrap();
        let back = read_csv_file(&path).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn lenient_skips_ragged_rows_with_reasons() {
        let (t, skipped) = parse_csv_str_lenient("id,v\na0,1\na1\na2,2,extra\na3,3\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows[0], vec!["a0", "1"]);
        assert_eq!(t.rows[1], vec!["a3", "3"]);
        assert_eq!(
            skipped,
            vec![
                SkippedRow {
                    row: 2,
                    found: 1,
                    expected: 2
                },
                SkippedRow {
                    row: 3,
                    found: 3,
                    expected: 2
                },
            ]
        );
    }

    #[test]
    fn lenient_matches_strict_on_clean_input() {
        let input = "id,v\na0,\"x,y\"\na1,2\n";
        let strict = parse_csv_str(input).unwrap();
        let (lenient, skipped) = parse_csv_str_lenient(input).unwrap();
        assert_eq!(strict, lenient);
        assert!(skipped.is_empty());
    }

    #[test]
    fn lenient_still_rejects_structural_corruption() {
        assert!(matches!(
            parse_csv_str_lenient("id,v\na0,\"open\n"),
            Err(CsvError::UnterminatedQuote { .. })
        ));
        assert!(matches!(parse_csv_str_lenient(""), Err(CsvError::Empty)));
    }
}
