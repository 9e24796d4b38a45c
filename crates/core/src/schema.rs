//! Table and record views over Magellan-format CSV data.
//!
//! A [`Table`] wraps a [`fairem_csvio::CsvTable`] whose first conceptual
//! column is a unique `id`; all other columns are attribute values. The
//! suite never mutates tables — records are borrowed views.

use std::collections::HashMap;

use fairem_csvio::CsvTable;

use crate::quarantine::{QuarantineReport, RowIssue};

/// Errors raised while adopting a CSV table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// No `id` column present.
    MissingId,
    /// Two rows share an id.
    DuplicateId(String),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::MissingId => write!(f, "table has no 'id' column"),
            SchemaError::DuplicateId(id) => write!(f, "duplicate id {id:?}"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// An immutable entity table with an id index.
#[derive(Debug, Clone)]
pub struct Table {
    csv: CsvTable,
    id_col: usize,
    id_index: HashMap<String, usize>,
}

impl Table {
    /// Adopt a CSV table; requires an `id` column with unique values.
    pub fn from_csv(csv: CsvTable) -> Result<Table, SchemaError> {
        let id_col = csv.column_index("id").ok_or(SchemaError::MissingId)?;
        let mut id_index = HashMap::with_capacity(csv.len());
        for (i, row) in csv.rows.iter().enumerate() {
            if id_index.insert(row[id_col].clone(), i).is_some() {
                return Err(SchemaError::DuplicateId(row[id_col].clone()));
            }
        }
        Ok(Table {
            csv,
            id_col,
            id_index,
        })
    }

    /// Adopt a CSV table, quarantining rows with empty or duplicate ids
    /// instead of erroring. The first occurrence of a duplicated id is
    /// kept; later repeats are rejected. A missing `id` column is still a
    /// hard error — nothing can be salvaged without identity.
    ///
    /// Invariant: `kept rows + quarantined rows == input rows`.
    pub fn from_csv_lenient(
        csv: CsvTable,
        table_name: &str,
    ) -> Result<(Table, QuarantineReport), SchemaError> {
        let id_col = csv.column_index("id").ok_or(SchemaError::MissingId)?;
        let mut quarantine = QuarantineReport::default();
        let mut kept = CsvTable {
            header: csv.header.clone(),
            rows: Vec::with_capacity(csv.rows.len()),
        };
        let mut id_index = HashMap::with_capacity(csv.len());
        for (i, row) in csv.rows.into_iter().enumerate() {
            let id = &row[id_col];
            if id.is_empty() {
                quarantine.push(table_name, i + 1, RowIssue::EmptyId);
            } else if id_index.contains_key(id) {
                quarantine.push(table_name, i + 1, RowIssue::DuplicateId { id: id.clone() });
            } else {
                id_index.insert(id.clone(), kept.rows.len());
                kept.rows.push(row);
            }
        }
        Ok((
            Table {
                csv: kept,
                id_col,
                id_index,
            },
            quarantine,
        ))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.csv.len()
    }

    /// True when the table has no records.
    pub fn is_empty(&self) -> bool {
        self.csv.is_empty()
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.csv.header
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.csv.column_index(name)
    }

    /// The id of record `row`.
    pub fn id(&self, row: usize) -> &str {
        &self.csv.rows[row][self.id_col]
    }

    /// Row index of a record by id.
    pub fn row_of(&self, id: &str) -> Option<usize> {
        self.id_index.get(id).copied()
    }

    /// Value of `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> &str {
        &self.csv.rows[row][col]
    }

    /// Render one record as `col=value` pairs (for example-based
    /// explanations).
    pub fn render_record(&self, row: usize) -> String {
        let mut out = String::new();
        for (i, (name, value)) in self.csv.header.iter().zip(&self.csv.rows[row]).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(name);
            out.push('=');
            out.push_str(value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_csvio::parse_csv_str;

    fn t() -> Table {
        Table::from_csv(parse_csv_str("id,name,country\na1,li wei,cn\na2,john smith,us\n").unwrap())
            .unwrap()
    }

    #[test]
    fn adopts_and_indexes() {
        let t = t();
        assert_eq!(t.len(), 2);
        assert_eq!(t.id(0), "a1");
        assert_eq!(t.row_of("a2"), Some(1));
        assert_eq!(t.row_of("zz"), None);
        assert_eq!(
            t.column_index("name").map(|c| t.value(0, c)),
            Some("li wei")
        );
        assert_eq!(t.column_index("nope"), None);
    }

    #[test]
    fn render_record_is_readable() {
        let t = t();
        assert_eq!(t.render_record(0), "id=a1, name=li wei, country=cn");
    }

    #[test]
    fn rejects_missing_id() {
        let e = Table::from_csv(parse_csv_str("name\nx\n").unwrap()).unwrap_err();
        assert_eq!(e, SchemaError::MissingId);
    }

    #[test]
    fn rejects_duplicate_id() {
        let e = Table::from_csv(parse_csv_str("id\na\na\n").unwrap()).unwrap_err();
        assert_eq!(e, SchemaError::DuplicateId("a".into()));
    }

    #[test]
    fn lenient_quarantines_empty_and_duplicate_ids() {
        use crate::quarantine::RowIssue;
        let csv = parse_csv_str("id,v\na1,1\n,2\na1,3\na2,4\n").unwrap();
        let (t, q) = Table::from_csv_lenient(csv, "tableA").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.id(0), "a1");
        assert_eq!(t.id(1), "a2");
        assert_eq!(t.value(0, 1), "1", "first occurrence kept");
        assert_eq!(q.len(), 2);
        assert_eq!(q.rows[0].row, 2);
        assert_eq!(q.rows[0].issue, RowIssue::EmptyId);
        assert_eq!(q.rows[1].row, 3);
        assert_eq!(q.rows[1].issue, RowIssue::DuplicateId { id: "a1".into() });
        // kept + quarantined == input
        assert_eq!(t.len() + q.len(), 4);
    }

    #[test]
    fn lenient_still_requires_id_column() {
        let csv = parse_csv_str("name\nx\n").unwrap();
        let e = Table::from_csv_lenient(csv, "tableA").unwrap_err();
        assert_eq!(e, SchemaError::MissingId);
    }
}
