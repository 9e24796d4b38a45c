//! # fairem-csvio
//!
//! Tabular IO substrate for FairEM360: an RFC 4180 CSV reader/writer (the
//! Magellan and WDC benchmark formats are plain CSV) and a minimal JSON
//! value model + emitter used by the report renderer. Implemented in-repo
//! so the workspace has no serialization dependencies.

pub mod csv;
pub mod json;

pub use csv::{
    parse_csv, parse_csv_str, parse_csv_str_lenient, read_csv_file, write_csv, write_csv_file,
    write_csv_stream, CsvError, CsvTable, SkippedRow,
};
pub use json::{Json, JsonError};
