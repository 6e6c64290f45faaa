//! Zero-dependency observability for the cs-traffic workspace.
//!
//! The completion pipeline's hot loops (ALS sweeps, GA generations, CV
//! folds, workpool fan-outs) are instrumented with three primitives:
//!
//! * **spans** — hierarchical wall-clock timings with structured fields,
//!   created by [`span`] and emitted when dropped;
//! * **events** — one-shot structured `key=value` records, emitted by
//!   [`event`] (or the allocation-free guard pattern `if enabled(..)`);
//! * **metrics** — process-global [`counter`]s, [`gauge`]s, and
//!   [`histogram`]s, snapshotted into the sinks by [`shutdown`].
//!
//! Records flow through a pluggable [`Sink`] API; two sinks ship with
//! the crate: a leveled pretty-printer to stderr ([`PrettySink`]) and a
//! machine-readable JSON-lines writer ([`JsonlSink`]). Binaries wire
//! both through [`init`] from `--log-level` / `--metrics-out` flags.
//!
//! Disabled-by-default instrumentation is near-free: [`enabled`] is a
//! single relaxed atomic load, [`span`] returns an inert handle without
//! allocating when the level is filtered out, and `record` on an inert
//! span is a no-op. Anything more expensive than passing an
//! already-computed scalar belongs behind `span.is_enabled()` /
//! `enabled(level)`.
//!
//! Like the rest of the workspace (see `workpool`), the crate is
//! hand-rolled with zero external dependencies — no `tracing`, no `log`,
//! no `serde_json` — so it builds in the vendored/offline environment.

pub mod flight;
pub mod fnv;
pub mod json;
pub mod metrics;
pub mod sink;
mod span;

pub use fnv::Fnv;
pub use metrics::{
    counter, gauge, histogram, registry_epoch, Counter, Gauge, Histogram, MetricSnapshot,
};
pub use sink::{CaptureSink, JsonlSink, PrettySink, Record, RecordKind, Sink};
pub use span::{span, Span};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Verbosity levels, from fully silent to per-item tracing.
///
/// Matches the CLI surface `--log-level <off|error|info|debug|trace>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Level {
    /// No records emitted at all (the default).
    #[default]
    Off = 0,
    /// Unrecoverable or surprising failures only.
    Error = 1,
    /// Pipeline-stage summaries (one record per completion / GA run).
    Info = 2,
    /// Per-iteration records (ALS sweeps, GA generations, CV folds,
    /// workpool fan-outs).
    Debug = 3,
    /// Everything, including per-item detail.
    Trace = 4,
}

impl Level {
    /// Lowercase name as used by the CLI flag and the JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Level::Off),
            "error" => Ok(Level::Error),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!("unknown log level '{other}' (off|error|info|debug|trace)")),
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured field value. Kept deliberately scalar: nested data goes
/// into separate fields or separate records.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counts, indices).
    UInt(u64),
    /// Floating-point measurement.
    Float(f64),
    /// Free-form text (reasons, enum names, compact lists).
    Str(String),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::UInt(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
        }
    }
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $cast:ty),+ $(,)?) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Self {
                Value::$variant(v as $cast)
            }
        }
    )+};
}

value_from!(
    bool => Bool as bool,
    i32 => Int as i64,
    i64 => Int as i64,
    u32 => UInt as u64,
    u64 => UInt as u64,
    usize => UInt as u64,
    f32 => Float as f64,
    f64 => Float as f64,
);

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Field key: `&'static str` in the common case, owned for dynamic names
/// (e.g. per-worker counters).
pub type Key = std::borrow::Cow<'static, str>;

/// One structured `key = value` pair.
pub type Field = (Key, Value);

/// Current maximum level, stored as its `u8` discriminant. `Off` (0)
/// disables everything, which is the default.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

/// Whether process-global metrics are being collected.
static METRICS_ON: AtomicBool = AtomicBool::new(false);

fn sinks() -> &'static RwLock<Vec<Arc<dyn Sink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Sets the process-wide maximum level. Records above it (and all
/// records while `Off`) are dropped before construction.
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Current maximum level.
pub fn level() -> Level {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Info,
        3 => Level::Debug,
        4 => Level::Trace,
        _ => Level::Off,
    }
}

/// Whether a record at `level` would be emitted — one relaxed atomic
/// load, the guard that keeps disabled instrumentation near-free.
#[inline]
pub fn enabled(level: Level) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    level as u8 <= max && level != Level::Off
}

/// Turns metric collection on or off. Off (the default) makes
/// [`metrics_enabled`]-guarded call sites skip their counter updates.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ON.store(on, Ordering::Relaxed);
}

/// Whether metrics are being collected (one relaxed atomic load).
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Registers an additional sink. Every record at or below the global
/// level fans out to all registered sinks.
pub fn add_sink(sink: Arc<dyn Sink>) {
    sinks().write().expect("sink registry poisoned").push(sink);
}

/// Removes all sinks (used by tests and [`shutdown`]).
pub fn clear_sinks() {
    sinks().write().expect("sink registry poisoned").clear();
}

/// Emits a record to every registered sink. Callers are expected to have
/// checked [`enabled`] already; this only does the fan-out.
pub(crate) fn dispatch(record: &Record<'_>) {
    let guard = sinks().read().expect("sink registry poisoned");
    for sink in guard.iter() {
        sink.emit(record);
    }
}

/// Milliseconds since the Unix epoch, the `ts_ms` of every record.
pub(crate) fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Emits a one-shot structured event. The fields vector is only worth
/// building when [`enabled`]`(level)` — use the [`tele_event!`] macro or
/// an explicit guard so disabled telemetry stays free.
pub fn event(level: Level, name: &str, fields: Vec<Field>) {
    if !enabled(level) {
        return;
    }
    dispatch(&Record {
        kind: RecordKind::Event,
        level,
        name,
        span_id: None,
        parent_id: span::current_span_id(),
        elapsed_ns: None,
        fields: &fields,
        ts_ms: unix_ms(),
    });
}

/// Emits a causal-trace record (kind `trace`, level `Trace`) for one
/// probe report stage. Same contract as [`event`]: callers guard with
/// [`enabled`]`(Level::Trace)` before building the fields vector so
/// disabled tracing stays allocation-free.
pub fn trace_event(name: &str, fields: Vec<Field>) {
    if !enabled(Level::Trace) {
        return;
    }
    dispatch(&Record {
        kind: RecordKind::Trace,
        level: Level::Trace,
        name,
        span_id: None,
        parent_id: span::current_span_id(),
        elapsed_ns: None,
        fields: &fields,
        ts_ms: unix_ms(),
    });
}

/// Emits a structured event, constructing its fields only when the level
/// is enabled:
///
/// ```
/// telemetry::tele_event!(telemetry::Level::Debug, "als.sweep", "objective" => 1.5);
/// ```
#[macro_export]
macro_rules! tele_event {
    ($level:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::event(
                $level,
                $name,
                vec![$(($crate::Key::from($k), $crate::Value::from($v))),*],
            );
        }
    };
}

/// Everything [`init`] needs to wire the telemetry layer from CLI flags.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Maximum level for the stderr pretty-printer (`Off` = no sink).
    pub level: Level,
    /// Path for the JSON-lines sink; also turns metric collection on so
    /// [`shutdown`] can append the metric snapshot.
    pub metrics_out: Option<std::path::PathBuf>,
}

/// Installs the built-in sinks per `config`: a [`PrettySink`] on stderr
/// when `level > Off`, and a [`JsonlSink`] (plus metric collection) when
/// `metrics_out` is set. The global level becomes the maximum the
/// installed sinks need.
///
/// # Errors
///
/// Propagates the I/O error when the JSONL file cannot be created.
pub fn init(config: &TelemetryConfig) -> std::io::Result<()> {
    if config.level > Level::Off {
        add_sink(Arc::new(PrettySink::to_stderr(config.level)));
    }
    let mut effective = config.level;
    if let Some(path) = &config.metrics_out {
        add_sink(Arc::new(JsonlSink::create(path)?));
        set_metrics_enabled(true);
        // The JSONL sink records everything the spans produce; give it
        // at least debug-level detail so per-sweep/per-generation spans
        // land in the file even when stderr stays quiet.
        effective = effective.max(Level::Debug);
    }
    set_level(effective);
    install_panic_flush_hook();
    Ok(())
}

/// Chains a panic hook that dumps the flight recorder (if installed) and
/// flushes every sink, so a panicking tick cannot truncate the JSONL
/// output mid-record or lose the flight ring. Installed once per
/// process; the previous hook (the default backtrace printer) still runs
/// first.
pub fn install_panic_flush_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            previous(info);
            flight::dump_on_panic();
            flush_sinks();
        }));
    });
}

/// Flushes every registered sink without snapshotting metrics — the
/// panic-path sibling of [`shutdown`] (a metric snapshot mid-panic would
/// interleave with whatever the process was writing).
pub fn flush_sinks() {
    let guard = sinks().read().expect("sink registry poisoned");
    for sink in guard.iter() {
        sink.flush();
    }
}

/// Flushes the metric registry into the sinks (one record per metric)
/// and flushes the sinks themselves. Call once before process exit.
pub fn shutdown() {
    if metrics_enabled() {
        for snapshot in metrics::snapshot() {
            snapshot.dispatch();
        }
    }
    flush_sinks();
}

/// Resets every piece of global state (level, metrics, sinks, registry).
/// Test-only escape hatch: the globals otherwise accumulate across tests
/// in one process.
pub fn reset_for_tests() {
    set_level(Level::Off);
    set_metrics_enabled(false);
    clear_sinks();
    metrics::clear_registry();
    flight::uninstall();
}
