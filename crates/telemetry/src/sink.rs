//! The pluggable sink API and the two built-in sinks.

use crate::json::Json;
use crate::{Field, Level};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// What a [`Record`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A closed span (has `elapsed_ns`).
    Span,
    /// A one-shot event.
    Event,
    /// A counter snapshot (flushed at shutdown).
    Counter,
    /// A gauge snapshot.
    Gauge,
    /// A histogram snapshot.
    Histogram,
    /// A causal-trace stage of one probe report (carries `trace` and
    /// `stage` fields; see `traffic_cs::service`).
    Trace,
}

impl RecordKind {
    /// The `type` string in the JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Span => "span",
            RecordKind::Event => "event",
            RecordKind::Counter => "counter",
            RecordKind::Gauge => "gauge",
            RecordKind::Histogram => "histogram",
            RecordKind::Trace => "trace",
        }
    }
}

/// One telemetry record, borrowed from the emitting site.
#[derive(Debug)]
pub struct Record<'a> {
    /// Span close, event, or metric snapshot.
    pub kind: RecordKind,
    /// Severity of the record.
    pub level: Level,
    /// Span/event/metric name (dotted, e.g. `als.sweep`).
    pub name: &'a str,
    /// Id of the span (span records only).
    pub span_id: Option<u64>,
    /// Id of the enclosing span on the same thread, if any.
    pub parent_id: Option<u64>,
    /// Wall-clock duration (span records only).
    pub elapsed_ns: Option<u128>,
    /// Structured `key = value` payload.
    pub fields: &'a [Field],
    /// Milliseconds since the Unix epoch.
    pub ts_ms: u64,
}

/// Where records go. Implementations must be cheap and non-blocking in
/// spirit: they run inline at the emitting site.
pub trait Sink: Send + Sync {
    /// Consumes one record.
    fn emit(&self, record: &Record<'_>);

    /// Flushes any buffered output (called by [`crate::shutdown`]).
    fn flush(&self) {}
}

/// Leveled pretty-printer: one aligned line per record to stderr (or any
/// writer), indented by span depth on the emitting thread.
pub struct PrettySink<W: Write + Send = std::io::Stderr> {
    max_level: Level,
    writer: Mutex<W>,
}

impl PrettySink<std::io::Stderr> {
    /// Pretty-printer to stderr showing records at or below `max_level`.
    pub fn to_stderr(max_level: Level) -> Self {
        Self { max_level, writer: Mutex::new(std::io::stderr()) }
    }
}

impl<W: Write + Send> PrettySink<W> {
    /// Pretty-printer to an arbitrary writer (used by tests).
    pub fn to_writer(max_level: Level, writer: W) -> Self {
        Self { max_level, writer: Mutex::new(writer) }
    }
}

impl<W: Write + Send> Sink for PrettySink<W> {
    fn emit(&self, record: &Record<'_>) {
        if record.level > self.max_level {
            return;
        }
        let indent = "  ".repeat(crate::span::current_depth().min(8));
        let mut line = format!("[{:>5}] {}{}", record.level, indent, record.name);
        for (k, v) in record.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        if let Some(ns) = record.elapsed_ns {
            line.push_str(&format!(" ({:.3} ms)", ns as f64 / 1e6));
        }
        let mut w = self.writer.lock().expect("pretty sink poisoned");
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("pretty sink poisoned").flush();
    }
}

/// Machine-readable JSON-lines writer: every record becomes one JSON
/// object per line with top-level keys `type`, `level`, `name`, `ts_ms`,
/// plus `span`, `parent`, `elapsed_us`, and `fields` when present.
pub struct JsonlSink<W: Write + Send = std::io::BufWriter<std::fs::File>> {
    writer: Mutex<W>,
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) the JSONL file at `path`, creating parent
    /// directories as needed — `--metrics-out results/run.jsonl` must
    /// work before anything else has created `results/`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(Self { writer: Mutex::new(std::io::BufWriter::new(file)) })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// JSONL to an arbitrary writer (used by tests).
    pub fn to_writer(writer: W) -> Self {
        Self { writer: Mutex::new(writer) }
    }

    /// Encodes one record as its JSONL object.
    pub fn encode(record: &Record<'_>) -> Json {
        let mut obj = vec![
            ("type".to_string(), Json::Str(record.kind.as_str().to_string())),
            ("level".to_string(), Json::Str(record.level.as_str().to_string())),
            ("name".to_string(), Json::Str(record.name.to_string())),
            ("ts_ms".to_string(), Json::Num(record.ts_ms as f64)),
        ];
        if let Some(id) = record.span_id {
            obj.push(("span".to_string(), Json::Num(id as f64)));
        }
        if let Some(id) = record.parent_id {
            obj.push(("parent".to_string(), Json::Num(id as f64)));
        }
        if let Some(ns) = record.elapsed_ns {
            obj.push(("elapsed_us".to_string(), Json::Num(ns as f64 / 1e3)));
        }
        if !record.fields.is_empty() {
            let fields = record
                .fields
                .iter()
                .map(|(k, v)| {
                    let jv = match v {
                        crate::Value::Bool(b) => Json::Bool(*b),
                        crate::Value::Int(i) => Json::Num(*i as f64),
                        crate::Value::UInt(u) => Json::Num(*u as f64),
                        crate::Value::Float(f) => Json::Num(*f),
                        crate::Value::Str(s) => Json::Str(s.clone()),
                    };
                    (k.to_string(), jv)
                })
                .collect();
            obj.push(("fields".to_string(), Json::Obj(fields)));
        }
        Json::Obj(obj)
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn emit(&self, record: &Record<'_>) {
        let line = Self::encode(record).encode();
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

/// An owned copy of a [`Record`], as captured by [`CaptureSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedRecord {
    /// See [`Record::kind`].
    pub kind: RecordKind,
    /// See [`Record::level`].
    pub level: Level,
    /// See [`Record::name`].
    pub name: String,
    /// See [`Record::span_id`].
    pub span_id: Option<u64>,
    /// See [`Record::parent_id`].
    pub parent_id: Option<u64>,
    /// See [`Record::elapsed_ns`].
    pub elapsed_ns: Option<u128>,
    /// See [`Record::fields`].
    pub fields: Vec<Field>,
    /// See [`Record::ts_ms`].
    pub ts_ms: u64,
}

impl OwnedRecord {
    /// Field value by key.
    pub fn field(&self, key: &str) -> Option<&crate::Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// In-memory sink for tests: clones every record into a vector.
#[derive(Default)]
pub struct CaptureSink {
    records: Mutex<Vec<OwnedRecord>>,
}

impl CaptureSink {
    /// New empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything captured so far.
    pub fn records(&self) -> Vec<OwnedRecord> {
        self.records.lock().expect("capture sink poisoned").clone()
    }

    /// Discards everything captured so far, so one sink can be reused
    /// across phases of a test without re-registering it.
    pub fn clear(&self) {
        self.records.lock().expect("capture sink poisoned").clear();
    }

    /// Number of captured records with the given name — the cheap
    /// assertion helper for "every injected fault emitted its event".
    pub fn count_named(&self, name: &str) -> usize {
        self.records
            .lock()
            .expect("capture sink poisoned")
            .iter()
            .filter(|r| r.name == name)
            .count()
    }
}

impl Sink for CaptureSink {
    fn emit(&self, record: &Record<'_>) {
        self.records.lock().expect("capture sink poisoned").push(OwnedRecord {
            kind: record.kind,
            level: record.level,
            name: record.name.to_string(),
            span_id: record.span_id,
            parent_id: record.parent_id,
            elapsed_ns: record.elapsed_ns,
            fields: record.fields.to_vec(),
            ts_ms: record.ts_ms,
        });
    }
}
