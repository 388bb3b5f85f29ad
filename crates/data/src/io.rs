//! CSV import/export for real-world property data.
//!
//! Downstream users rarely start from JSON; scraped property instances
//! usually live in delimited files. This module reads/writes the two
//! files a LEAPME run needs, with a small built-in CSV codec (RFC-4180
//! quoting; no external dependency):
//!
//! * **instances**: `source,property,entity,value` rows;
//! * **alignments** (optional): `source,property,reference` rows mapping
//!   source-local properties to reference-ontology names.

use crate::model::{Dataset, Instance, ModelError, PropertyKey, SourceId};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Errors from CSV import.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed row.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// The resulting dataset is inconsistent.
    Model(ModelError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
            CsvError::Model(e) => write!(f, "dataset error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Maximum number of per-line errors kept in an [`ImportReport`].
pub const MAX_REPORTED_ERRORS: usize = 20;

/// Hard cap on one physical CSV line. Longer lines are discarded
/// *without buffering* — a pathological no-newline or multi-gigabyte
/// line costs at most this much memory, never an unbounded allocation.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Hard cap on fields per row. A row with more fields stops parsing at
/// the cap instead of materializing millions of tiny strings.
pub const MAX_FIELDS: usize = 256;

/// Why a row was rejected — the typed half of an [`ImportIssue`], so
/// callers can distinguish structural damage from resource-cap hits
/// without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Structural parse/validation failure (bad quoting, wrong field
    /// count, injected fault).
    Malformed,
    /// The physical line exceeded [`MAX_LINE_BYTES`] and was discarded
    /// unbuffered.
    LineTooLong,
    /// The row had more than [`MAX_FIELDS`] fields.
    TooManyFields,
}

impl std::fmt::Display for SkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipReason::Malformed => write!(f, "malformed"),
            SkipReason::LineTooLong => write!(f, "line too long"),
            SkipReason::TooManyFields => write!(f, "too many fields"),
        }
    }
}

/// One skipped row in an [`ImportReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportIssue {
    /// 1-based line number.
    pub line: usize,
    /// Typed rejection category.
    pub reason: SkipReason,
    /// Human-readable detail.
    pub message: String,
}

/// Outcome summary of a lenient CSV import ([`read_dataset_lenient`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Data rows imported successfully (instances + alignments).
    pub imported: usize,
    /// Malformed rows skipped.
    pub skipped: usize,
    /// The first [`MAX_REPORTED_ERRORS`] skipped rows; later errors are
    /// counted but dropped.
    pub errors: Vec<ImportIssue>,
    /// Whether `errors` overflowed: `skipped` counts every bad row, but
    /// only the first [`MAX_REPORTED_ERRORS`] are kept verbatim.
    pub truncated: bool,
}

impl ImportReport {
    fn record(&mut self, line: usize, reason: SkipReason, message: String) {
        self.skipped += 1;
        if self.errors.len() < MAX_REPORTED_ERRORS {
            self.errors.push(ImportIssue { line, reason, message });
        } else {
            self.truncated = true;
        }
    }

    /// Human-readable multi-line summary of what was skipped.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "imported {} rows, skipped {} malformed",
            self.imported, self.skipped
        );
        for issue in &self.errors {
            out.push_str(&format!(
                "\n  line {}: {} ({})",
                issue.line, issue.message, issue.reason
            ));
        }
        if self.truncated {
            out.push_str(&format!(
                "\n  … and {} more",
                self.skipped - self.errors.len()
            ));
        }
        out
    }
}

/// Write `bytes` to `path` durably: write to a temp sibling, fsync, then
/// atomically rename over the destination (plus a best-effort directory
/// sync), so readers never observe a torn file. The one implementation
/// of this sequence in the workspace: every artifact writer (datasets,
/// graphs, model and checkpoint containers, embedding tables) goes
/// through it.
///
/// The temp sibling is `<name>.<pid>.<seq>.tmp`, unique per call, so
/// concurrent writers to one destination never truncate or rename each
/// other's temp file: the last rename wins and the destination always
/// holds one complete payload. A failed write removes its temp file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "output".into());
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Parse one CSV record (RFC-4180: `"` quoting, `""` escapes).
///
/// Returns the fields, or an error message for unterminated quotes or a
/// row exceeding [`MAX_FIELDS`] fields.
pub fn parse_record(line: &str) -> Result<Vec<String>, String> {
    parse_record_capped(line).map_err(|(reason, message)| {
        let _ = reason;
        message
    })
}

/// [`parse_record`] with the rejection reason kept typed, so lenient
/// importers can report cap hits distinctly from structural damage.
fn parse_record_capped(line: &str) -> Result<Vec<String>, (SkipReason, String)> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        current.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => current.push(other),
            }
        } else {
            match c {
                '"' if current.is_empty() => in_quotes = true,
                ',' => {
                    if fields.len() + 1 >= MAX_FIELDS {
                        return Err((
                            SkipReason::TooManyFields,
                            format!("row exceeds {MAX_FIELDS} fields"),
                        ));
                    }
                    fields.push(std::mem::take(&mut current));
                }
                other => current.push(other),
            }
        }
    }
    if in_quotes {
        return Err((SkipReason::Malformed, "unterminated quoted field".into()));
    }
    fields.push(current);
    Ok(fields)
}

/// One physical line from a bounded read.
enum BoundedLine {
    /// A complete line (terminator stripped) within [`MAX_LINE_BYTES`].
    Line(String),
    /// The line blew the cap; `discarded` bytes were skipped unbuffered.
    TooLong {
        /// Total bytes of the oversized line.
        discarded: usize,
    },
    /// End of the stream.
    Eof,
}

/// Read one `\n`-terminated line without ever buffering more than
/// [`MAX_LINE_BYTES`]. An oversized line is *consumed and discarded* in
/// fixed-size chunks, so a pathological input (no newline at all, or a
/// multi-gigabyte line) costs bounded memory and the stream stays
/// positioned at the next line.
fn read_line_bounded<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> std::io::Result<BoundedLine> {
    buf.clear();
    let mut total = 0usize;
    let mut overflowed = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            // EOF: flush whatever the final unterminated line held.
            return Ok(if overflowed {
                BoundedLine::TooLong { discarded: total }
            } else if buf.is_empty() && total == 0 {
                BoundedLine::Eof
            } else {
                BoundedLine::Line(take_line_string(buf)?)
            });
        }
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(p) => (&available[..p], true),
            None => (available, false),
        };
        total += chunk.len();
        if !overflowed {
            if total > MAX_LINE_BYTES {
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(chunk);
            }
        }
        let consumed = chunk.len() + usize::from(done);
        reader.consume(consumed);
        if done {
            return Ok(if overflowed {
                BoundedLine::TooLong { discarded: total }
            } else {
                BoundedLine::Line(take_line_string(buf)?)
            });
        }
    }
}

/// UTF-8-decode a collected line, stripping a trailing `\r` (CRLF input)
/// — the same shape `BufRead::lines` produces.
fn take_line_string(buf: &mut Vec<u8>) -> std::io::Result<String> {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(std::mem::take(buf))
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "line is not UTF-8"))
}

/// Quote a field if needed and append it to `out`.
fn write_field(out: &mut String, field: &str) {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        out.push('"');
        out.push_str(&field.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Fault hook: pretend the underlying reader failed for this line.
#[cfg(feature = "faults")]
fn injected_line_io() -> Option<std::io::Error> {
    (leapme_faults::fires(leapme_faults::sites::CSV_LINE) == Some(leapme_faults::FaultKind::Io))
        .then(|| std::io::Error::other("injected fault: csv read error"))
}

#[cfg(not(feature = "faults"))]
fn injected_line_io() -> Option<std::io::Error> {
    None
}

/// Fault hook: pretend this row failed structural validation.
#[cfg(feature = "faults")]
fn injected_malformed_row() -> Option<String> {
    (leapme_faults::fires(leapme_faults::sites::CSV_ROW)
        == Some(leapme_faults::FaultKind::Malformed))
    .then(|| "injected fault: malformed row".to_string())
}

#[cfg(not(feature = "faults"))]
fn injected_malformed_row() -> Option<String> {
    None
}

/// Validate one data row: parse, check the field count, apply faults.
fn parse_row(line: &str, expected_fields: usize) -> Result<Vec<String>, (SkipReason, String)> {
    if let Some(message) = injected_malformed_row() {
        return Err((SkipReason::Malformed, message));
    }
    let fields = parse_record_capped(line)?;
    if fields.len() != expected_fields {
        return Err((
            SkipReason::Malformed,
            format!("expected {expected_fields} fields, found {}", fields.len()),
        ));
    }
    Ok(fields)
}

/// Drive `f` over every data row of a CSV stream: skips the header and
/// blank lines, reads lines bounded by [`MAX_LINE_BYTES`], validates the
/// field count, and dispatches bad rows per `lenient`. The workhorse
/// behind both dataset files and the serve-side instance upload.
fn for_each_row<R: BufRead>(
    mut reader: R,
    expected_fields: usize,
    lenient: bool,
    report: &mut ImportReport,
    mut f: impl FnMut(Vec<String>),
) -> Result<(), CsvError> {
    let mut buf = Vec::new();
    let mut lineno = 0usize;
    loop {
        let line = match read_line_bounded(&mut reader, &mut buf)? {
            BoundedLine::Eof => return Ok(()),
            BoundedLine::Line(line) => {
                lineno += 1;
                line
            }
            BoundedLine::TooLong { discarded } => {
                lineno += 1;
                let reason = SkipReason::LineTooLong;
                let message = format!(
                    "line is {discarded} bytes, cap is {MAX_LINE_BYTES}; discarded unbuffered"
                );
                if lenient {
                    report.record(lineno, reason, message);
                    continue;
                }
                return Err(CsvError::Malformed { line: lineno, message });
            }
        };
        // An I/O failure is a property of the stream, not of one row, so
        // it aborts the import even in lenient mode.
        if let Some(e) = injected_line_io() {
            return Err(CsvError::Io(e));
        }
        if lineno == 1 || line.trim().is_empty() {
            continue; // header / blank
        }
        match parse_row(&line, expected_fields) {
            Ok(fields) => {
                f(fields);
                report.imported += 1;
            }
            Err((reason, message)) if lenient => report.record(lineno, reason, message),
            Err((_, message)) => return Err(CsvError::Malformed { line: lineno, message }),
        }
    }
}

/// Assign (or look up) the id for a source name in first-appearance order.
fn source_id(name: &str, sources: &mut Vec<String>) -> SourceId {
    match sources.iter().position(|s| s == name) {
        Some(i) => SourceId(i as u16),
        None => {
            sources.push(name.to_string());
            SourceId((sources.len() - 1) as u16)
        }
    }
}

/// Parse `source,property,entity,value` rows (with header) from any
/// reader, leniently: bad rows land in the report, lines and field
/// counts are capped. Source ids are resolved against (and appended to)
/// `sources` in first-appearance order — pass the existing source list
/// to merge an upload into a resident dataset, or an empty `Vec` for a
/// standalone parse.
pub fn read_instances_lenient<R: BufRead>(
    reader: R,
    sources: &mut Vec<String>,
) -> Result<(Vec<Instance>, ImportReport), CsvError> {
    let mut report = ImportReport::default();
    let mut instances = Vec::new();
    for_each_row(reader, 4, true, &mut report, |fields| {
        let sid = source_id(&fields[0], sources);
        instances.push(Instance {
            source: sid,
            property: fields[1].clone(),
            entity: fields[2].clone(),
            value: fields[3].clone(),
        });
    })?;
    Ok((instances, report))
}

fn read_dataset_inner(
    name: &str,
    instances_path: &Path,
    alignments_path: Option<&Path>,
    lenient: bool,
) -> Result<(Dataset, ImportReport), CsvError> {
    let mut sources: Vec<String> = Vec::new();
    let mut report = ImportReport::default();

    let mut instances = Vec::new();
    let reader = BufReader::new(std::fs::File::open(instances_path)?);
    for_each_row(reader, 4, lenient, &mut report, |fields| {
        let sid = source_id(&fields[0], &mut sources);
        instances.push(Instance {
            source: sid,
            property: fields[1].clone(),
            entity: fields[2].clone(),
            value: fields[3].clone(),
        });
    })?;

    let mut alignment: BTreeMap<PropertyKey, String> = BTreeMap::new();
    if let Some(path) = alignments_path {
        let reader = BufReader::new(std::fs::File::open(path)?);
        for_each_row(reader, 3, lenient, &mut report, |fields| {
            let sid = source_id(&fields[0], &mut sources);
            alignment.insert(PropertyKey::new(sid, fields[1].clone()), fields[2].clone());
        })?;
    }

    let dataset = Dataset::new(name, sources, instances, alignment).map_err(CsvError::Model)?;
    Ok((dataset, report))
}

/// Read `source,property,entity,value` rows (with header) plus an
/// optional `source,property,reference` alignment file into a [`Dataset`].
///
/// Source ids are assigned in first-appearance order across both files.
/// Strict: the first malformed row aborts the import. See
/// [`read_dataset_lenient`] for the fail-soft variant.
pub fn read_dataset(
    name: &str,
    instances_path: &Path,
    alignments_path: Option<&Path>,
) -> Result<Dataset, CsvError> {
    read_dataset_inner(name, instances_path, alignments_path, false).map(|(ds, _)| ds)
}

/// Like [`read_dataset`], but malformed rows are skipped and collected
/// into an [`ImportReport`] (first [`MAX_REPORTED_ERRORS`] kept verbatim)
/// instead of aborting the import. I/O errors still abort.
pub fn read_dataset_lenient(
    name: &str,
    instances_path: &Path,
    alignments_path: Option<&Path>,
) -> Result<(Dataset, ImportReport), CsvError> {
    read_dataset_inner(name, instances_path, alignments_path, true)
}

/// Write a dataset's instances (and alignment, if any) back to CSV files.
pub fn write_dataset(
    dataset: &Dataset,
    instances_path: &Path,
    alignments_path: Option<&Path>,
) -> Result<(), CsvError> {
    let mut out = String::from("source,property,entity,value\n");
    for inst in dataset.instances() {
        let source = &dataset.sources()[inst.source.0 as usize];
        for (i, field) in [source, &inst.property, &inst.entity, &inst.value]
            .into_iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            write_field(&mut out, field);
        }
        out.push('\n');
    }
    atomic_write(instances_path, out.as_bytes())?;

    if let Some(path) = alignments_path {
        let mut out = String::from("source,property,reference\n");
        for key in dataset.properties() {
            if let Some(reference) = dataset.alignment_of(&key) {
                let source = &dataset.sources()[key.source.0 as usize];
                for (i, field) in [source.as_str(), &key.name, reference].into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_field(&mut out, field);
                }
                out.push('\n');
            }
        }
        atomic_write(path, out.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::{generate, Domain};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_data_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn parse_record_basics() {
        assert_eq!(parse_record("a,b,c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(parse_record("").unwrap(), vec![""]);
        assert_eq!(parse_record("a,,c").unwrap(), vec!["a", "", "c"]);
    }

    #[test]
    fn parse_record_quoting() {
        assert_eq!(
            parse_record(r#"shopA,"weight, net",e1,"20.1 ""MP""""#).unwrap(),
            vec!["shopA", "weight, net", "e1", r#"20.1 "MP""#]
        );
        assert!(parse_record(r#""unterminated"#).is_err());
    }

    #[test]
    fn round_trip_through_csv() {
        let original = generate(Domain::Headphones, 8);
        let inst_path = tmp("rt_instances.csv");
        let align_path = tmp("rt_alignments.csv");
        write_dataset(&original, &inst_path, Some(&align_path)).unwrap();
        let back = read_dataset("headphones", &inst_path, Some(&align_path)).unwrap();
        let (a, b) = (original.stats(), back.stats());
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.properties, b.properties);
        assert_eq!(a.aligned_properties, b.aligned_properties);
        assert_eq!(a.matching_pairs, b.matching_pairs);
        std::fs::remove_file(inst_path).ok();
        std::fs::remove_file(align_path).ok();
    }

    #[test]
    fn read_simple_files() {
        let inst = tmp("simple_instances.csv");
        std::fs::write(
            &inst,
            "source,property,entity,value\n\
             shopA,megapixels,e1,20.1 MP\n\
             shopB,resolution,x1,\"20,1 megapixels\"\n",
        )
        .unwrap();
        let align = tmp("simple_alignments.csv");
        std::fs::write(
            &align,
            "source,property,reference\n\
             shopA,megapixels,resolution\n\
             shopB,resolution,resolution\n",
        )
        .unwrap();
        let ds = read_dataset("custom", &inst, Some(&align)).unwrap();
        assert_eq!(ds.sources().len(), 2);
        assert_eq!(ds.stats().matching_pairs, 1);
        let key = PropertyKey::new(SourceId(1), "resolution");
        assert_eq!(ds.instances_of(&key)[0].value, "20,1 megapixels");
        std::fs::remove_file(inst).ok();
        std::fs::remove_file(align).ok();
    }

    #[test]
    fn rejects_malformed_rows() {
        let inst = tmp("bad_instances.csv");
        std::fs::write(&inst, "header\nonly,three,fields\n").unwrap();
        let err = read_dataset("bad", &inst, None).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 2, .. }));
        std::fs::remove_file(inst).ok();
    }

    #[test]
    fn lenient_skips_malformed_rows_and_reports() {
        let inst = tmp("lenient_instances.csv");
        std::fs::write(
            &inst,
            "source,property,entity,value\n\
             shopA,megapixels,e1,20.1 MP\n\
             only,three,fields\n\
             \"unterminated,x,y,z\n\
             shopB,resolution,x1,24 MP\n",
        )
        .unwrap();
        let (ds, report) = read_dataset_lenient("lenient", &inst, None).unwrap();
        assert_eq!(ds.stats().instances, 2);
        assert_eq!(report.imported, 2);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.errors.len(), 2);
        assert_eq!(report.errors[0].line, 3);
        assert_eq!(report.errors[0].reason, SkipReason::Malformed);
        assert_eq!(report.errors[1].line, 4);
        assert!(!report.truncated);
        assert!(report.summary().contains("skipped 2 malformed"));
        assert!(!report.summary().contains("more"));
        std::fs::remove_file(inst).ok();
    }

    #[test]
    fn lenient_report_caps_error_list() {
        let inst = tmp("lenient_cap_instances.csv");
        let mut csv = String::from("source,property,entity,value\n");
        for _ in 0..(MAX_REPORTED_ERRORS + 5) {
            csv.push_str("only,three,fields\n");
        }
        csv.push_str("shopA,p,e,v\n");
        std::fs::write(&inst, &csv).unwrap();
        let (ds, report) = read_dataset_lenient("cap", &inst, None).unwrap();
        assert_eq!(ds.stats().instances, 1);
        assert_eq!(report.skipped, MAX_REPORTED_ERRORS + 5);
        assert_eq!(report.errors.len(), MAX_REPORTED_ERRORS);
        assert!(report.truncated);
        assert!(report.summary().contains("and 5 more"));
        std::fs::remove_file(inst).ok();
    }

    #[test]
    fn lenient_matches_strict_on_clean_input() {
        let original = generate(Domain::Cameras, 5);
        let inst_path = tmp("lenient_clean_instances.csv");
        let align_path = tmp("lenient_clean_alignments.csv");
        write_dataset(&original, &inst_path, Some(&align_path)).unwrap();
        let strict = read_dataset("c", &inst_path, Some(&align_path)).unwrap();
        let (lenient, report) =
            read_dataset_lenient("c", &inst_path, Some(&align_path)).unwrap();
        assert_eq!(strict.stats(), lenient.stats());
        assert_eq!(report.skipped, 0);
        assert!(report.errors.is_empty());
        std::fs::remove_file(inst_path).ok();
        std::fs::remove_file(align_path).ok();
    }

    #[test]
    fn alignment_can_reference_new_sources() {
        // Alignment file mentions a source absent from instances — allowed
        // (a schema-only source), ids assigned consistently.
        let inst = tmp("new_src_instances.csv");
        std::fs::write(&inst, "h\nshopA,p,e,v\n").unwrap();
        let align = tmp("new_src_alignments.csv");
        std::fs::write(&align, "h\nshopB,q,ref\n").unwrap();
        let ds = read_dataset("x", &inst, Some(&align)).unwrap();
        assert_eq!(ds.sources().len(), 2);
        assert_eq!(
            ds.alignment_of(&PropertyKey::new(SourceId(1), "q")),
            Some("ref")
        );
        std::fs::remove_file(inst).ok();
        std::fs::remove_file(align).ok();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let path = tmp("atomic_out.txt");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert_eq!(tmp_siblings(&path), Vec::<String>::new());
        std::fs::remove_file(path).ok();
    }

    /// Names of `<file name>.….tmp` entries next to `path`.
    fn tmp_siblings(path: &Path) -> Vec<String> {
        let prefix = format!("{}.", path.file_name().unwrap().to_string_lossy());
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&prefix) && n.ends_with(".tmp"))
            .collect()
    }

    #[test]
    fn atomic_write_failure_removes_its_temp_file() {
        // Renaming a file over a directory fails after the temp file is
        // fully written.
        let path = tmp("atomic_onto_dir");
        std::fs::create_dir_all(&path).unwrap();
        assert!(atomic_write(&path, b"payload").is_err());
        assert_eq!(tmp_siblings(&path), Vec::<String>::new());
        std::fs::remove_dir_all(path).ok();
    }

    #[test]
    fn concurrent_atomic_writes_to_one_path_all_succeed_whole() {
        const WRITERS: usize = 8;
        const ROUNDS: usize = 25;
        let path = tmp("atomic_concurrent.bin");
        // Distinct payloads of distinct lengths: any interleaving of two
        // writers' bytes, or a truncated write, matches none of them.
        let payloads: Vec<Vec<u8>> = (0..WRITERS)
            .map(|w| vec![w as u8; 4096 + 512 * w])
            .collect();
        // Every thread starts together, so the writes overlap.
        let start = std::sync::Barrier::new(WRITERS + 1);
        std::thread::scope(|s| {
            for payload in &payloads {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..ROUNDS {
                        atomic_write(path, payload).expect("concurrent atomic_write");
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for _ in 0..WRITERS * ROUNDS {
                    if let Ok(bytes) = std::fs::read(&path) {
                        assert!(
                            payloads.contains(&bytes),
                            "torn read: {} bytes",
                            bytes.len()
                        );
                    }
                }
            });
        });
        let last = std::fs::read(&path).unwrap();
        assert!(payloads.contains(&last), "final file is not one payload");
        assert_eq!(tmp_siblings(&path), Vec::<String>::new());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn oversized_line_is_discarded_unbuffered_in_lenient_mode() {
        let inst = tmp("longline_instances.csv");
        let mut csv = String::from("source,property,entity,value\n");
        csv.push_str("shopA,megapixels,e1,20.1 MP\n");
        // One line past the cap: a huge quoted value.
        csv.push_str("shopB,big,e2,\"");
        csv.push_str(&"x".repeat(MAX_LINE_BYTES + 64));
        csv.push_str("\"\n");
        csv.push_str("shopB,resolution,x1,24 MP\n");
        std::fs::write(&inst, &csv).unwrap();
        let (ds, report) = read_dataset_lenient("long", &inst, None).unwrap();
        assert_eq!(ds.stats().instances, 2, "rows around the bomb survive");
        assert_eq!(report.skipped, 1);
        assert_eq!(report.errors[0].line, 3);
        assert_eq!(report.errors[0].reason, SkipReason::LineTooLong);
        assert!(report.errors[0].message.contains("discarded unbuffered"));
        std::fs::remove_file(inst).ok();
    }

    #[test]
    fn oversized_line_is_a_typed_error_in_strict_mode() {
        let inst = tmp("longline_strict_instances.csv");
        let mut csv = String::from("source,property,entity,value\n");
        csv.push_str(&"y".repeat(MAX_LINE_BYTES + 1));
        csv.push('\n');
        std::fs::write(&inst, &csv).unwrap();
        let err = read_dataset("long", &inst, None).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 2, .. }), "{err}");
        std::fs::remove_file(inst).ok();
    }

    #[test]
    fn field_bomb_is_capped_with_a_typed_reason() {
        let inst = tmp("fieldbomb_instances.csv");
        let mut csv = String::from("source,property,entity,value\n");
        // A row of MAX_FIELDS+99 commas would otherwise materialize that
        // many allocations; parsing must stop at the cap.
        csv.push_str(&",".repeat(MAX_FIELDS + 99));
        csv.push('\n');
        csv.push_str("shopA,p,e,v\n");
        std::fs::write(&inst, &csv).unwrap();
        let (ds, report) = read_dataset_lenient("bomb", &inst, None).unwrap();
        assert_eq!(ds.stats().instances, 1);
        assert_eq!(report.errors[0].reason, SkipReason::TooManyFields);
        assert!(report.errors[0].message.contains("exceeds"));
        std::fs::remove_file(inst).ok();
    }

    #[test]
    fn unterminated_final_line_without_newline_still_parses() {
        let inst = tmp("noeol_instances.csv");
        std::fs::write(
            &inst,
            "source,property,entity,value\nshopA,megapixels,e1,20.1 MP",
        )
        .unwrap();
        let ds = read_dataset("noeol", &inst, None).unwrap();
        assert_eq!(ds.stats().instances, 1);
        std::fs::remove_file(inst).ok();
    }

    #[test]
    fn read_instances_lenient_merges_into_existing_sources() {
        let mut sources = vec!["shopA".to_string(), "shopB".to_string()];
        let csv = "source,property,entity,value\n\
                   shopB,resolution,x1,24 MP\n\
                   shopC,pixels,y1,12 MP\n";
        let (instances, report) =
            read_instances_lenient(std::io::Cursor::new(csv), &mut sources).unwrap();
        assert_eq!(report.imported, 2);
        assert_eq!(instances[0].source, SourceId(1), "existing id reused");
        assert_eq!(instances[1].source, SourceId(2), "new source appended");
        assert_eq!(sources.len(), 3);
    }

    #[test]
    fn empty_instances_file_is_ok() {
        let inst = tmp("empty_instances.csv");
        std::fs::write(&inst, "source,property,entity,value\n").unwrap();
        let ds = read_dataset("empty", &inst, None).unwrap();
        assert_eq!(ds.stats().instances, 0);
        std::fs::remove_file(inst).ok();
    }
}
