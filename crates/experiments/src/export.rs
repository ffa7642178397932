//! JSONL export of traces and telemetry, plus the `--trace-out` /
//! `--telemetry-out` / `--timeline` CLI handling shared by `canaryctl`'s
//! run and `chaos` commands.
//!
//! The workspace deliberately carries no JSON dependency, so the writer
//! and the (flat-object) reader here are hand-rolled. Every trace event
//! becomes one line:
//!
//! ```json
//! {"at_us":3000000,"kind":"checkpoint_written","fn":1,"state":2,"bytes":65536,"tier":"ramdisk"}
//! ```
//!
//! One wire table defines the trace format: a row per [`TraceKind`]
//! naming its `"kind"` and its `field: "key"` pairs in wire order. The
//! writer, the reader, [`kind_name`] and the Perfetto track of each event
//! are generated from it as exhaustive matches, so a kind without a row
//! does not compile. Each field's type picks its encoding through the
//! `Wire` trait; the two fields whose type already has another encoding
//! name theirs in the row (`torn` as `0`/`1`, `cost` omitted when zero).
//!
//! A telemetry snapshot becomes one line per phase summary, counter, and
//! database table. [`trace_from_jsonl`] round-trips every [`TraceKind`]
//! variant, which keeps exported traces usable as test fixtures.

use crate::scenario::Observe;
use canary_cluster::{NodeId, StorageTier};
use canary_container::ContainerId;
use canary_platform::{
    FnId, JobId, RecoveryTarget, RunResult, SpanId, TelemetrySnapshot, Trace, TraceEvent, TraceKind,
};
use canary_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Export errors (malformed JSONL on the read path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// A line could not be parsed as a flat JSON object.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::BadLine { line, reason } => {
                write!(f, "bad JSONL at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ExportError {}

/// Perfetto track (`tid`) of cluster-wide events.
const CLUSTER_TRACK: u64 = 0;
/// Perfetto track of job lifecycle events.
const JOBS_TRACK: u64 = 1;
/// Function `f` renders on track `FN_TRACK_BASE + f`.
const FN_TRACK_BASE: u64 = 10;

/// Defines the wire format from one row per [`TraceKind`]: `Variant
/// "kind" { field: "key", ... }`, where a field may name its codec with
/// `as Codec` (default [`Plain`]). Generates [`kind_name`], the writer,
/// the reader and [`perfetto_tid`].
macro_rules! wire_table {
    ($($variant:ident $name:literal { $($field:ident: $key:literal $(as $codec:ident)?),* })*) => {
        /// The JSONL `"kind"` name of an event kind.
        pub fn kind_name(kind: &TraceKind) -> &'static str {
            match kind {
                $(TraceKind::$variant { .. } => $name,)*
            }
        }

        fn write_kind(kind: &TraceKind, out: &mut String) {
            match *kind {
                $(TraceKind::$variant { $($field),* } => {
                    out.push_str(concat!(",\"kind\":\"", $name, "\""));
                    $(<codec!($($codec)?) as Wire<_>>::put($field, $key, out);)*
                })*
            }
        }

        fn read_kind(name: &str, line: &Line) -> Result<TraceKind, String> {
            Ok(match name {
                $($name => TraceKind::$variant {
                    $($field: <codec!($($codec)?) as Wire<_>>::get($key, line)?),*
                },)*
                other => return Err(format!("unknown kind {other:?}")),
            })
        }

        /// Track an event renders on: its function's track when it has a
        /// `fn` field, the jobs track when it has a `job` field, and the
        /// cluster track otherwise.
        fn perfetto_tid(kind: &TraceKind) -> u64 {
            match *kind {
                $(TraceKind::$variant { $($field),* } => {
                    first_track([$(<codec!($($codec)?) as Wire<_>>::track($field)),*])
                })*
            }
        }
    };
}

/// The codec a wire-table field names, [`Plain`] when it names none.
macro_rules! codec {
    () => {
        Plain
    };
    ($codec:ident) => {
        $codec
    };
}

wire_table! {
    JobArrived "job_arrived" { job: "job" }
    JobSubmitted "job_submitted" { job: "job" }
    AttemptStarted "attempt_started" {
        fn_id: "fn", attempt: "attempt", node: "node", warm: "warm"
    }
    AttemptFailed "attempt_failed" { fn_id: "fn", attempt: "attempt", node: "node" }
    FunctionCompleted "function_completed" { fn_id: "fn" }
    WarmPoolSpawned "warm_pool_spawned" { container: "container", node: "node" }
    WarmPoolReady "warm_pool_ready" { container: "container" }
    NodeFailed "node_failed" { node: "node" }
    CheckpointWritten "checkpoint_written" {
        fn_id: "fn", state: "state", bytes: "bytes", tier: "tier", cost: "cost_us" as OmitZero
    }
    CheckpointRestored "checkpoint_restored" {
        fn_id: "fn", state: "state", bytes: "bytes", tier: "tier"
    }
    JobQueued "job_queued" { job: "job" }
    JobDequeued "job_dequeued" { job: "job" }
    JobRejected "job_rejected" { job: "job" }
    ReplicaConsumed "replica_consumed" { container: "container", fn_id: "fn" }
    ReplicaRefreshed "replica_refreshed" { spawned: "spawned", reclaimed: "reclaimed" }
    RecoveryPlanned "recovery_planned" {
        fn_id: "fn", target: "target", detect: "detect_us", restore: "restore_us"
    }
    PartitionStarted "partition_started" { a: "a", b: "b" }
    PartitionHealed "partition_healed" { a: "a", b: "b" }
    NetworkDegraded "network_degraded" { pct: "pct" }
    NetworkRestored "network_restored" {}
    StoreOutage "store_outage" { member: "member" }
    StoreRejoined "store_rejoined" { member: "member" }
    StragglerInjected "straggler_injected" { fn_id: "fn", attempt: "attempt", pct: "pct" }
    CheckpointCorrupted "checkpoint_corrupted" { fn_id: "fn", ckpt_id: "ckpt" }
    CheckpointSkipped "checkpoint_skipped" { fn_id: "fn", state: "state" }
    RestoreFallback "restore_fallback" { fn_id: "fn", state: "state" }
    ControllerCrashed "controller_crashed" {}
    ControllerRecovered "controller_recovered" {
        snapshot: "snapshot", replayed: "replayed", torn: "torn" as Bit
    }
    MigrationPlanned "migration_planned" {
        fn_id: "fn", container: "container", ckpt_id: "ckpt", chunks: "chunks", bytes: "bytes"
    }
    MigrationFallback "migration_fallback" { fn_id: "fn" }
}

fn first_track<const N: usize>(tracks: [Option<u64>; N]) -> u64 {
    tracks.into_iter().flatten().next().unwrap_or(CLUSTER_TRACK)
}

/// How a value of type `T` goes on the wire: written as `,"key":value`
/// and read back from a parsed [`Line`].
trait Wire<T> {
    fn put(v: T, key: &str, out: &mut String);
    fn get(key: &str, line: &Line) -> Result<T, String>;
    /// The Perfetto track this field puts its event on, if any.
    fn track(_v: T) -> Option<u64> {
        None
    }
}

/// The encoding each field type has unless its row names another.
struct Plain;
/// A `bool` as `0` or `1`.
struct Bit;
/// An optional number: omitted when zero, zero when absent.
struct OmitZero;

fn missing(key: &str) -> String {
    format!("missing/invalid field {key:?}")
}

fn put_key(key: &str, out: &mut String) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

fn push_u64(mut v: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

impl Wire<u64> for Plain {
    fn put(v: u64, key: &str, out: &mut String) {
        put_key(key, out);
        push_u64(v, out);
    }
    fn get(key: &str, line: &Line) -> Result<u64, String> {
        line.u64(key).ok_or_else(|| missing(key))
    }
}

impl Wire<u32> for Plain {
    fn put(v: u32, key: &str, out: &mut String) {
        Plain::put(u64::from(v), key, out);
    }
    fn get(key: &str, line: &Line) -> Result<u32, String> {
        let v: u64 = Plain::get(key, line)?;
        u32::try_from(v).map_err(|_| format!("field {key:?} out of range: {v}"))
    }
}

impl Wire<bool> for Plain {
    fn put(v: bool, key: &str, out: &mut String) {
        put_key(key, out);
        out.push_str(if v { "true" } else { "false" });
    }
    fn get(key: &str, line: &Line) -> Result<bool, String> {
        line.bool(key).ok_or_else(|| missing(key))
    }
}

impl Wire<bool> for Bit {
    fn put(v: bool, key: &str, out: &mut String) {
        Plain::put(u64::from(v), key, out);
    }
    fn get(key: &str, line: &Line) -> Result<bool, String> {
        match <Plain as Wire<u64>>::get(key, line)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("field {key:?} must be 0 or 1, got {v}")),
        }
    }
}

/// Identifier newtypes travel as their raw integer.
macro_rules! id_wire {
    ($($id:ident($raw:ty) $(track |$v:ident| $track:expr)?;)*) => {$(
        impl Wire<$id> for Plain {
            fn put(v: $id, key: &str, out: &mut String) {
                Plain::put(v.0, key, out);
            }
            fn get(key: &str, line: &Line) -> Result<$id, String> {
                <Plain as Wire<$raw>>::get(key, line).map($id)
            }
            $(fn track($v: $id) -> Option<u64> {
                Some($track)
            })?
        }
    )*};
}

id_wire! {
    JobId(u32) track |_job| JOBS_TRACK;
    FnId(u64) track |f| FN_TRACK_BASE + f.0;
    NodeId(u32);
    ContainerId(u64);
}

impl Wire<SimDuration> for Plain {
    fn put(v: SimDuration, key: &str, out: &mut String) {
        Plain::put(v.as_micros(), key, out);
    }
    fn get(key: &str, line: &Line) -> Result<SimDuration, String> {
        Plain::get(key, line).map(SimDuration::from_micros)
    }
}

impl Wire<SimDuration> for OmitZero {
    fn put(v: SimDuration, key: &str, out: &mut String) {
        if v > SimDuration::ZERO {
            Plain::put(v, key, out);
        }
    }
    fn get(key: &str, line: &Line) -> Result<SimDuration, String> {
        Ok(SimDuration::from_micros(line.u64(key).unwrap_or(0)))
    }
}

impl Wire<SpanId> for OmitZero {
    fn put(v: SpanId, key: &str, out: &mut String) {
        if v.is_some() {
            Plain::put(v.0, key, out);
        }
    }
    fn get(key: &str, line: &Line) -> Result<SpanId, String> {
        Ok(SpanId(line.u64(key).unwrap_or(0)))
    }
}

fn tier_label(tier: StorageTier) -> &'static str {
    match tier {
        StorageTier::KvStore => "kv_store",
        StorageTier::Ramdisk => "ramdisk",
        StorageTier::Pmem => "pmem",
        StorageTier::Nfs => "nfs",
        StorageTier::ObjectStore => "object_store",
    }
}

impl Wire<StorageTier> for Plain {
    fn put(v: StorageTier, key: &str, out: &mut String) {
        put_key(key, out);
        out.push('"');
        out.push_str(tier_label(v));
        out.push('"');
    }
    fn get(key: &str, line: &Line) -> Result<StorageTier, String> {
        use StorageTier::*;
        let label = line.str(key);
        [KvStore, Ramdisk, Pmem, Nfs, ObjectStore]
            .into_iter()
            .find(|&tier| Some(tier_label(tier)) == label)
            .ok_or_else(|| "missing/unknown tier".to_string())
    }
}

/// `"fresh"`, or `"warm"` followed by the warm replica's `container`.
impl Wire<RecoveryTarget> for Plain {
    fn put(v: RecoveryTarget, key: &str, out: &mut String) {
        put_key(key, out);
        match v {
            RecoveryTarget::FreshContainer => out.push_str("\"fresh\""),
            RecoveryTarget::WarmContainer(c) => {
                out.push_str("\"warm\"");
                Plain::put(c, "container", out);
            }
        }
    }
    fn get(key: &str, line: &Line) -> Result<RecoveryTarget, String> {
        match line.str(key) {
            Some("fresh") => Ok(RecoveryTarget::FreshContainer),
            Some("warm") => Plain::get("container", line).map(RecoveryTarget::WarmContainer),
            _ => Err("missing/unknown target".into()),
        }
    }
}

/// Bytes [`trace_to_jsonl`] reserves per event: above the mean line of a
/// causal trace (124–131 bytes), so a whole trace exports into one
/// allocation instead of a doubling series that leaves its discarded
/// buffers on the heap.
const LINE_BYTES_RESERVED: usize = 160;

fn write_event(e: &TraceEvent, out: &mut String) {
    out.push_str("{\"at_us\":");
    push_u64(e.at.as_micros(), out);
    write_kind(&e.kind, out);
    // Causal links ride at the end of the line and only when present, so
    // traces recorded without `RunConfig::causal` keep their exact
    // pre-causal bytes (the golden-trace guarantee).
    OmitZero::put(e.span, "span", out);
    OmitZero::put(e.parent, "parent", out);
    OmitZero::put(e.cause, "cause", out);
    out.push('}');
}

fn read_event(line: &Line) -> Result<TraceEvent, String> {
    let at = SimTime::from_micros(Plain::get("at_us", line)?);
    let name = line.str("kind").ok_or("missing field \"kind\"")?;
    Ok(TraceEvent {
        at,
        kind: read_kind(name, line)?,
        span: OmitZero::get("span", line)?,
        parent: OmitZero::get("parent", line)?,
        cause: OmitZero::get("cause", line)?,
    })
}

/// Serialize one trace event as a single JSON line (no trailing newline).
pub fn trace_event_to_json(e: &TraceEvent) -> String {
    let mut s = String::new();
    write_event(e, &mut s);
    s
}

/// Serialize a whole trace as JSONL (one event per line).
pub fn trace_to_jsonl(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.events.len() * LINE_BYTES_RESERVED);
    for e in &trace.events {
        write_event(e, &mut out);
        out.push('\n');
    }
    out
}

/// Serialize a telemetry snapshot as JSONL: a `meta` line, then one line
/// per phase summary, counter, and database table.
pub fn telemetry_to_jsonl(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"record\":\"meta\",\"enabled\":{},\"spans_orphaned\":{}}}",
        snap.enabled, snap.spans_orphaned
    );
    for p in &snap.phases {
        let _ = writeln!(
            out,
            "{{\"record\":\"phase\",\"phase\":\"{}\",\"count\":{},\"total_us\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            p.phase.label(),
            p.count,
            p.total.as_micros(),
            p.mean.as_micros(),
            p.p50.as_micros(),
            p.p95.as_micros(),
            p.p99.as_micros(),
            p.max.as_micros(),
        );
    }
    for (label, v) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"record\":\"counter\",\"counter\":\"{label}\",\"value\":{v}}}"
        );
    }
    for t in &snap.tables {
        let _ = writeln!(
            out,
            "{{\"record\":\"table\",\"table\":\"{}\",\"reads\":{},\"writes\":{}}}",
            t.table, t.reads, t.writes
        );
    }
    out
}

/// A flat JSON value (all the exporters emit), borrowed from its line.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val<'a> {
    U64(u64),
    Bool(bool),
    Str(&'a str),
}

/// One parsed flat JSON object: its `key: value` pairs in line order,
/// borrowed from the input. Reused across lines, so reading a trace
/// allocates nothing per line.
#[derive(Default)]
struct Line<'a> {
    fields: Vec<(&'a str, Val<'a>)>,
}

/// The first byte at or after `at` that is not whitespace, whitespace
/// being what `str::trim` removes (`char::is_whitespace`). The writers
/// put none between tokens, so the first test nearly always ends it.
#[inline]
fn skip_space(text: &str, at: usize) -> usize {
    match text.as_bytes().get(at) {
        Some(&b) if b > b' ' && b.is_ascii() => at,
        _ => skip_space_from(text, at),
    }
}

#[inline(never)]
fn skip_space_from(text: &str, mut at: usize) -> usize {
    let bytes = text.as_bytes();
    while let Some(&b) = bytes.get(at) {
        if b == b' ' || (b'\t'..=b'\r').contains(&b) {
            at += 1;
        } else if b.is_ascii() {
            break;
        } else {
            match text[at..].chars().next() {
                Some(c) if c.is_whitespace() => at += c.len_utf8(),
                _ => break,
            }
        }
    }
    at
}

/// The closing quote of a string whose first byte is at `at`, and
/// whether a backslash comes before it.
fn string_end(bytes: &[u8], at: usize) -> Option<(usize, bool)> {
    let mut escaped = false;
    for (i, &b) in bytes[at..].iter().enumerate() {
        match b {
            b'"' => return Some((at + i, escaped)),
            b'\\' => escaped = true,
            _ => {}
        }
    }
    None
}

impl<'a> Line<'a> {
    /// Parse one flat JSON object (string/unsigned-integer/bool values,
    /// no nesting, no escapes — exactly what the writers above produce),
    /// replacing the previous line's fields. One scan of the object's
    /// bytes: keys and strings are borrowed slices and numbers are
    /// accumulated digit by digit.
    fn parse(&mut self, text: &'a str) -> Result<(), String> {
        self.fields.clear();
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .ok_or("not an object")?
            .trim();
        let bytes = body.as_bytes();
        let mut at = 0;
        while at < bytes.len() {
            if bytes[at] != b'"' {
                return Err("expected quoted key".into());
            }
            let start = skip_space(body, at + 1);
            let end = bytes[start..]
                .iter()
                .position(|&b| b == b'"')
                .ok_or("unterminated key")?
                + start;
            let key = &body[start..end];
            at = skip_space(body, end + 1);
            if bytes.get(at) != Some(&b':') {
                return Err("expected ':'".into());
            }
            at = skip_space(body, at + 1);
            let rest = &bytes[at..];
            let val = if rest.first() == Some(&b'"') {
                let (end, escaped) = string_end(bytes, at + 1).ok_or("unterminated string")?;
                if escaped {
                    return Err("escapes unsupported".into());
                }
                let s = &body[at + 1..end];
                at = end + 1;
                Val::Str(s)
            } else if rest.starts_with(b"true") {
                at += 4;
                Val::Bool(true)
            } else if rest.starts_with(b"false") {
                at += 5;
                Val::Bool(false)
            } else {
                let start = at;
                let mut n = Some(0u64);
                while let Some(d) = bytes.get(at).filter(|b| b.is_ascii_digit()) {
                    n = n
                        .and_then(|n| n.checked_mul(10))
                        .and_then(|n| n.checked_add(u64::from(d - b'0')));
                    at += 1;
                }
                if at == start {
                    let rest = &body[start..];
                    return Err(format!("bad value near {rest:.12?}"));
                }
                // Overflow is the only way a run of digits fails; std's
                // parser words the reason.
                let n = n.map_or_else(|| body[start..at].parse(), Ok);
                Val::U64(n.map_err(|e| format!("bad number: {e}"))?)
            };
            self.fields.push((key, val));
            at = skip_space(body, at);
            match bytes.get(at) {
                Some(b',') => at = skip_space(body, at + 1),
                None => break,
                Some(_) => return Err("expected ',' between fields".into()),
            }
        }
        Ok(())
    }

    /// The value of `key`; a repeated key's last value wins.
    fn get(&self, key: &str) -> Option<Val<'a>> {
        self.fields
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    fn u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Val::U64(v) => Some(v),
            _ => None,
        }
    }

    fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Val::Bool(b) => Some(b),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Option<&'a str> {
        match self.get(key)? {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Bytes in the shortest line that can read as an event,
/// `{"at_us":0,"kind":""}` and up: a text of `n` bytes holds at most
/// `n / MIN_EVENT_LINE` events, which bounds what [`trace_from_jsonl`]
/// reserves for a text of blank lines.
const MIN_EVENT_LINE: usize = 21;

/// Parse a JSONL trace written by [`trace_to_jsonl`]. Blank lines are
/// skipped; anything else malformed is an error with its line number.
pub fn trace_from_jsonl(s: &str) -> Result<Trace, ExportError> {
    let mut events = Vec::with_capacity(s.lines().count().min(s.len() / MIN_EVENT_LINE));
    let mut line = Line::default();
    for (i, text) in s.lines().enumerate() {
        if text.trim().is_empty() {
            continue;
        }
        let event = line.parse(text).and_then(|()| read_event(&line));
        events.push(event.map_err(|reason| ExportError::BadLine {
            line: i + 1,
            reason,
        })?);
    }
    Ok(Trace { events })
}

// ---------------------------------------------------------------------
// Standard-tool exporters: Chrome/Perfetto trace_event JSON and a
// span-per-line JSONL.
// ---------------------------------------------------------------------

/// Human-readable event label: the [`TraceEvent`] display line without
/// its timestamp prefix. Contains no characters that need JSON escaping.
fn event_label(e: &TraceEvent) -> String {
    let line = e.to_string();
    match line.split_once("] ") {
        Some((_, body)) => body.trim().to_string(),
        None => line,
    }
}

/// Convert a trace to Chrome/Perfetto `trace_event` JSON (the
/// `{"traceEvents":[...]}` object form; open with `chrome://tracing` or
/// <https://ui.perfetto.dev>).
///
/// Attempts render as `B`/`E` duration slices on their function's track,
/// recovery windows (plan → restart) likewise, and everything else as
/// instant events. When the trace carries causal links
/// ([`canary_platform::RunConfig::causal`]), each `cause` link becomes a
/// flow arrow (`s`/`f` pair) so a chaos fault visibly points at the
/// attempts it killed and the recovery it triggered. Works on linkless
/// traces too — there are simply no arrows.
pub fn trace_to_perfetto(trace: &Trace) -> String {
    // First pass: where each span lands (for flow-arrow sources) and
    // which function tracks exist.
    let mut span_site: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // span -> (ts, tid)
    let mut fn_tracks: BTreeMap<u64, FnId> = BTreeMap::new();
    for e in &trace.events {
        let tid = perfetto_tid(&e.kind);
        if e.span.is_some() {
            span_site.insert(e.span.0, (e.at.as_micros(), tid));
        }
        if tid >= FN_TRACK_BASE {
            fn_tracks.insert(tid, FnId(tid - FN_TRACK_BASE));
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut sep = "";
    // Appends one comma-separated `trace_event` record.
    macro_rules! record {
        ($($fmt:tt)*) => {{
            out.push_str(sep);
            sep = ",\n";
            let _ = write!(out, $($fmt)*);
        }};
    }
    // Track-name metadata.
    for (tid, name) in [(CLUSTER_TRACK, "cluster/faults"), (JOBS_TRACK, "jobs")] {
        record!("{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}");
    }
    for (tid, fn_id) in &fn_tracks {
        record!("{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{fn_id}\"}}}}");
    }
    // Open B slices per function: attempt and recovery windows.
    let mut open_attempt = BTreeSet::new();
    let mut open_recovery = BTreeSet::new();
    let mut last_ts = 0u64;
    for e in &trace.events {
        let ts = e.at.as_micros();
        last_ts = last_ts.max(ts);
        let tid = perfetto_tid(&e.kind);
        match e.kind {
            TraceKind::AttemptStarted { fn_id, attempt, .. } => {
                if open_recovery.remove(&fn_id.0) {
                    record!("{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}");
                }
                record!("{{\"ph\":\"B\",\"name\":\"attempt {attempt}\",\"cat\":\"attempt\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}");
                open_attempt.insert(fn_id.0);
            }
            TraceKind::AttemptFailed { fn_id, .. } | TraceKind::FunctionCompleted { fn_id } => {
                if open_attempt.remove(&fn_id.0) {
                    record!("{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}");
                }
                record!("{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"lifecycle\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\"}}", event_label(e));
            }
            TraceKind::RecoveryPlanned { fn_id, .. } => {
                if open_recovery.remove(&fn_id.0) {
                    record!("{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}");
                }
                record!("{{\"ph\":\"B\",\"name\":\"recovery\",\"cat\":\"recovery\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}");
                open_recovery.insert(fn_id.0);
            }
            _ => {
                let scope = if tid == CLUSTER_TRACK { "g" } else { "t" };
                record!("{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"event\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"s\":\"{scope}\"}}", event_label(e));
            }
        }
        // Cause links become flow arrows, id'd by the target span.
        if e.cause.is_some() {
            if let Some(&(src_ts, src_tid)) = span_site.get(&e.cause.0) {
                let id = e.span.0;
                record!("{{\"ph\":\"s\",\"name\":\"cause\",\"cat\":\"causal\",\"id\":{id},\"pid\":0,\"tid\":{src_tid},\"ts\":{src_ts}}}");
                record!("{{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"cause\",\"cat\":\"causal\",\"id\":{id},\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}");
            }
        }
    }
    // Close anything still open so every B has its E.
    for fn_raw in open_recovery.into_iter().chain(open_attempt) {
        let tid = FN_TRACK_BASE + fn_raw;
        record!("{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{last_ts}}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Serialize a trace as span-per-line JSONL: every event's span identity,
/// links, timestamp, kind, and human-readable label on one line. The
/// natural input for log-pipeline tooling (`jq`-friendly).
pub fn spans_to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for e in &trace.events {
        let _ = write!(
            out,
            "{{\"span\":{},\"parent\":{},\"cause\":{},\"at_us\":{},\"kind\":\"{}\",\"label\":\"{}\"}}",
            e.span.0,
            e.parent.0,
            e.cause.0,
            e.at.as_micros(),
            kind_name(&e.kind),
            event_label(e),
        );
        out.push('\n');
    }
    out
}

/// Observability CLI options shared by `canaryctl`'s run and `chaos`
/// commands. The outputs alone decide what the run records
/// ([`ObsOptions::observe`]).
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Write the run's trace as JSONL here.
    pub trace_out: Option<PathBuf>,
    /// Write the run's telemetry snapshot as JSONL here.
    pub telemetry_out: Option<PathBuf>,
    /// Print the ASCII swimlane, recovery breakdown, and telemetry
    /// summary to stdout.
    pub timeline: bool,
    /// Write the run's trace as Chrome/Perfetto `trace_event` JSON here.
    pub perfetto_out: Option<PathBuf>,
    /// Write the run's trace as span-per-line JSONL here.
    pub spans_out: Option<PathBuf>,
    /// Print the per-job critical-path blame report to stdout.
    pub blame: bool,
    /// Write the Canary metadata db's write-ahead-log image here (the
    /// run writes it, not [`export_result`]).
    pub wal_out: Option<PathBuf>,
}

impl ObsOptions {
    /// Any output [`export_result`] writes requested?
    pub fn any(&self) -> bool {
        self.trace_out.is_some()
            || self.telemetry_out.is_some()
            || self.timeline
            || self.perfetto_out.is_some()
            || self.spans_out.is_some()
            || self.blame
    }

    /// What the observed run records for the requested outputs: always
    /// the trace and telemetry, causal links when an output reads them
    /// (Perfetto flow arrows, span JSONL, blame), never the profiler. So
    /// each output is what its flag writes alone, except that the
    /// `--trace-out` JSONL gains the link fields next to a causal output.
    pub fn observe(&self) -> Observe {
        Observe {
            causal: self.perfetto_out.is_some() || self.spans_out.is_some() || self.blame,
            ..Observe::TRACE
        }
    }
}

/// Write everything [`ObsOptions`] asks for from one run result: each
/// file, and the timeline and blame tables to `out`. The WAL image is the
/// run's to write.
pub fn export_result(
    result: &RunResult,
    opts: &ObsOptions,
    out: &mut impl std::io::Write,
) -> std::io::Result<()> {
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, trace_to_jsonl(&result.trace))?;
        eprintln!(
            "trace: {} events -> {}",
            result.trace.events.len(),
            path.display()
        );
    }
    if let Some(path) = &opts.telemetry_out {
        std::fs::write(path, telemetry_to_jsonl(&result.telemetry))?;
        eprintln!("telemetry -> {}", path.display());
    }
    if let Some(path) = &opts.perfetto_out {
        std::fs::write(path, trace_to_perfetto(&result.trace))?;
        eprintln!("perfetto -> {}", path.display());
    }
    if let Some(path) = &opts.spans_out {
        std::fs::write(path, spans_to_jsonl(&result.trace))?;
        eprintln!("spans -> {}", path.display());
    }
    if opts.timeline {
        write!(
            out,
            "{}\n{}\n{}\n{}",
            canary_metrics::swimlane(&result.trace),
            canary_metrics::recovery_breakdown(&result.trace),
            canary_metrics::counters_summary(&result.counters),
            canary_metrics::telemetry_summary(&result.telemetry)
        )?;
    }
    if opts.blame {
        write!(out, "{}", canary_metrics::blame_report(&result.trace))?;
    }
    Ok(())
}

#[cfg(test)]
#[path = "../../../tests/common/jsonl_fuzz.rs"]
mod jsonl_fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<TraceEvent> {
        let t = |us| SimTime::from_micros(us);
        vec![
            TraceEvent::new(t(0), TraceKind::JobArrived { job: JobId(3) }),
            TraceEvent::new(t(1), TraceKind::JobSubmitted { job: JobId(3) }),
            TraceEvent::new(
                t(2),
                TraceKind::AttemptStarted {
                    fn_id: FnId(7),
                    attempt: 2,
                    node: NodeId(1),
                    warm: true,
                },
            ),
            TraceEvent::new(
                t(3),
                TraceKind::AttemptFailed {
                    fn_id: FnId(7),
                    attempt: 2,
                    node: NodeId(1),
                },
            ),
            TraceEvent::new(t(4), TraceKind::FunctionCompleted { fn_id: FnId(7) }),
            TraceEvent::new(
                t(5),
                TraceKind::WarmPoolSpawned {
                    container: ContainerId(9),
                    node: NodeId(0),
                },
            ),
            TraceEvent::new(
                t(6),
                TraceKind::WarmPoolReady {
                    container: ContainerId(9),
                },
            ),
            TraceEvent::new(t(7), TraceKind::NodeFailed { node: NodeId(4) }),
            TraceEvent::new(
                t(8),
                TraceKind::CheckpointWritten {
                    fn_id: FnId(7),
                    state: 3,
                    bytes: 65_536,
                    tier: StorageTier::Pmem,
                    cost: SimDuration::ZERO,
                },
            ),
            TraceEvent::new(
                t(9),
                TraceKind::CheckpointRestored {
                    fn_id: FnId(7),
                    state: 3,
                    bytes: 65_536,
                    tier: StorageTier::Nfs,
                },
            ),
            TraceEvent::new(t(10), TraceKind::JobQueued { job: JobId(3) }),
            TraceEvent::new(t(11), TraceKind::JobDequeued { job: JobId(3) }),
            TraceEvent::new(t(12), TraceKind::JobRejected { job: JobId(8) }),
            TraceEvent::new(
                t(13),
                TraceKind::ReplicaConsumed {
                    container: ContainerId(9),
                    fn_id: FnId(7),
                },
            ),
            TraceEvent::new(
                t(14),
                TraceKind::ReplicaRefreshed {
                    spawned: 2,
                    reclaimed: 1,
                },
            ),
            TraceEvent::new(
                t(15),
                TraceKind::RecoveryPlanned {
                    fn_id: FnId(7),
                    target: RecoveryTarget::WarmContainer(ContainerId(9)),
                    detect: SimDuration::from_micros(500),
                    restore: SimDuration::from_micros(120),
                },
            ),
            TraceEvent::new(
                t(16),
                TraceKind::RecoveryPlanned {
                    fn_id: FnId(7),
                    target: RecoveryTarget::FreshContainer,
                    detect: SimDuration::from_micros(500),
                    restore: SimDuration::ZERO,
                },
            ),
            TraceEvent::new(
                t(17),
                TraceKind::PartitionStarted {
                    a: NodeId(0),
                    b: NodeId(3),
                },
            ),
            TraceEvent::new(
                t(18),
                TraceKind::PartitionHealed {
                    a: NodeId(0),
                    b: NodeId(3),
                },
            ),
            TraceEvent::new(t(19), TraceKind::NetworkDegraded { pct: 250 }),
            TraceEvent::new(t(20), TraceKind::NetworkRestored),
            TraceEvent::new(t(21), TraceKind::StoreOutage { member: 1 }),
            TraceEvent::new(t(22), TraceKind::StoreRejoined { member: 1 }),
            TraceEvent::new(
                t(23),
                TraceKind::StragglerInjected {
                    fn_id: FnId(7),
                    attempt: 1,
                    pct: 400,
                },
            ),
            TraceEvent::new(
                t(24),
                TraceKind::CheckpointCorrupted {
                    fn_id: FnId(7),
                    ckpt_id: 3,
                },
            ),
            TraceEvent::new(
                t(25),
                TraceKind::CheckpointSkipped {
                    fn_id: FnId(7),
                    state: 5,
                },
            ),
            TraceEvent::new(
                t(26),
                TraceKind::RestoreFallback {
                    fn_id: FnId(7),
                    state: 2,
                },
            ),
            TraceEvent::new(t(27), TraceKind::ControllerCrashed),
            TraceEvent::new(
                t(28),
                TraceKind::ControllerRecovered {
                    snapshot: 12,
                    replayed: 34,
                    torn: true,
                },
            ),
            TraceEvent::new(
                t(29),
                TraceKind::MigrationPlanned {
                    fn_id: FnId(7),
                    container: ContainerId(9),
                    ckpt_id: 4,
                    chunks: 3,
                    bytes: 192,
                },
            ),
            TraceEvent::new(t(30), TraceKind::MigrationFallback { fn_id: FnId(7) }),
        ]
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        let trace = Trace {
            events: all_variants(),
        };
        let jsonl = trace_to_jsonl(&trace);
        assert_eq!(jsonl.lines().count(), trace.events.len());
        let back = trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn jsonl_lines_are_flat_objects_with_kind() {
        for e in all_variants() {
            let line = trace_event_to_json(&e);
            assert!(line.starts_with("{\"at_us\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":\""), "{line}");
            Line::default().parse(&line).unwrap();
        }
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = trace_from_jsonl("\n{\"at_us\":1,\"kind\":\"nope\"}\n").unwrap_err();
        match err {
            ExportError::BadLine { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("nope"));
            }
        }
        assert!(trace_from_jsonl("not json").is_err());
    }

    #[test]
    fn out_of_range_fields_are_bad_lines() {
        for line in [
            r#"{"at_us":1,"kind":"job_arrived","job":4294967296}"#,
            r#"{"at_us":1,"kind":"attempt_failed","fn":7,"attempt":4294967297,"node":4294967298}"#,
            r#"{"at_us":1,"kind":"controller_recovered","snapshot":1,"replayed":2,"torn":7}"#,
        ] {
            let err = trace_from_jsonl(line).unwrap_err();
            assert!(
                matches!(err, ExportError::BadLine { line: 1, .. }),
                "{line}"
            );
        }
        let max = trace_from_jsonl(r#"{"at_us":1,"kind":"job_arrived","job":4294967295}"#);
        assert_eq!(
            max.unwrap().events[0].kind,
            TraceKind::JobArrived {
                job: JobId(u32::MAX)
            }
        );
    }

    #[test]
    fn unknown_keys_are_ignored_and_a_repeated_key_keeps_its_last_value() {
        let line = r#"{"at_us":1,"kind":"job_arrived","job":1,"extra":"x","job":2}"#;
        assert_eq!(
            trace_from_jsonl(line).unwrap().events[0].kind,
            TraceKind::JobArrived { job: JobId(2) }
        );
    }

    #[test]
    fn telemetry_jsonl_has_meta_phase_counter_and_table_lines() {
        use canary_platform::{Counts, Phase, StoreStats, Telemetry};
        let mut tel = Telemetry::new(true);
        tel.observe(Phase::CheckpointWrite, SimDuration::from_micros(250));
        tel.set_store_stats(StoreStats {
            chunks_written: 40,
            chunks_deduped: 10,
        });
        tel.set_table_stats("worker_info", 1, 16);
        let mut counts = Counts::default();
        counts.run.checkpoints_written = 1;
        let jsonl = telemetry_to_jsonl(&tel.snapshot(&counts));
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"record\":\"meta\"") && lines[0].contains("true"));
        assert!(lines[1].contains("\"phase\":\"checkpoint_write\""));
        assert!(lines[1].contains("\"count\":1"));
        assert!(lines[2].contains("\"counter\":\"checkpoints_written\""));
        // The store totals export under their stable labels, in the
        // registry's row order.
        assert!(lines[3].contains("\"counter\":\"chunks_written\"") && lines[3].contains(":40"));
        assert!(lines[4].contains("\"counter\":\"chunks_deduped\"") && lines[4].contains(":10"));
        assert!(lines[5].contains("\"table\":\"worker_info\""));
        for line in lines {
            Line::default().parse(line).unwrap();
        }
    }

    #[test]
    fn obs_options_extract_causal_flags() {
        let opts = ObsOptions {
            perfetto_out: Some("/tmp/p.json".into()),
            spans_out: Some("/tmp/s.jsonl".into()),
            ..ObsOptions::default()
        };
        assert!(opts.any());
        let observe = opts.observe();
        assert!(observe.trace && observe.causal && !observe.profile);
        let opts = ObsOptions {
            blame: true,
            ..ObsOptions::default()
        };
        assert!(opts.any() && opts.observe().causal);
        let opts = ObsOptions {
            timeline: true,
            ..ObsOptions::default()
        };
        assert_eq!(opts.observe(), Observe::TRACE);
    }

    /// A causal trace: every link field and the checkpoint `cost` make
    /// it through the writer and back.
    fn causal_trace() -> Trace {
        let mut events = all_variants();
        for (i, e) in events.iter_mut().enumerate() {
            e.span = SpanId(i as u64 + 1);
            if i > 0 {
                e.parent = SpanId(i as u64); // previous event's span
            }
            if i > 1 {
                e.cause = SpanId(i as u64 - 1);
            }
        }
        Trace { events }
    }

    /// `causal_trace()` with a nonzero checkpoint `cost`, so the linked
    /// events carry every optional key the writer can emit.
    fn linked_variants() -> Vec<TraceEvent> {
        let mut events = causal_trace().events;
        for e in &mut events {
            if let TraceKind::CheckpointWritten { cost, .. } = &mut e.kind {
                *cost = SimDuration::from_micros(1234);
            }
        }
        events
    }

    /// Perfetto track of each `all_variants()` event: jobs on 1, cluster
    /// on 0, function 7 on 10 + 7.
    const PINNED_TRACKS: [u64; 31] = [
        1, 1, 17, 17, 17, 0, 0, 0, 17, 17, 1, 1, 1, 17, 0, 17, 17, 0, 0, 0, 0, 0, 0, 17, 17, 17,
        17, 0, 0, 17, 17,
    ];

    /// The exact wire line of every variant, linkless and with links plus
    /// a nonzero `cost`, and its Perfetto track. No golden contains
    /// `job_rejected`, `migration_fallback`, a link key or `cost_us`, so
    /// this is the only pin on those bytes.
    #[test]
    fn wire_format_is_pinned_for_every_variant() {
        let cases = [
            (
                all_variants(),
                include_str!("../../../tests/fixtures/all_variants.jsonl"),
            ),
            (
                linked_variants(),
                include_str!("../../../tests/fixtures/all_variants_linked.jsonl"),
            ),
        ];
        for (events, pinned) in cases {
            assert_eq!(pinned.lines().count(), events.len());
            for (e, line) in events.iter().zip(pinned.lines()) {
                assert_eq!(trace_event_to_json(e), line);
            }
            assert_eq!(trace_from_jsonl(pinned).unwrap().events, events);
        }
        let tracks: Vec<u64> = all_variants()
            .iter()
            .map(|e| perfetto_tid(&e.kind))
            .collect();
        assert_eq!(tracks, PINNED_TRACKS);
    }

    #[test]
    fn causal_links_roundtrip_through_jsonl() {
        let trace = causal_trace();
        let jsonl = trace_to_jsonl(&trace);
        assert!(jsonl.contains("\"span\":1"));
        assert!(jsonl.contains("\"parent\":1"));
        assert!(jsonl.contains("\"cause\":1"));
        let back = trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn linkless_trace_jsonl_omits_link_fields() {
        // Byte-compatibility with pre-causal goldens: with causal off
        // the writer emits no span/parent/cause/cost_us keys at all.
        let trace = Trace {
            events: all_variants(),
        };
        let jsonl = trace_to_jsonl(&trace);
        for key in ["\"span\"", "\"parent\"", "\"cause\"", "\"cost_us\""] {
            assert!(!jsonl.contains(key), "unexpected {key} in linkless JSONL");
        }
        let back = trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn checkpoint_cost_roundtrips_when_nonzero() {
        let mut e = TraceEvent::new(
            SimTime::from_micros(5),
            TraceKind::CheckpointWritten {
                fn_id: FnId(1),
                state: 2,
                bytes: 64,
                tier: StorageTier::Ramdisk,
                cost: SimDuration::from_micros(1234),
            },
        );
        e.span = SpanId(9);
        let line = trace_event_to_json(&e);
        assert!(line.contains("\"cost_us\":1234"));
        let back = trace_from_jsonl(&format!("{line}\n")).unwrap();
        assert_eq!(back.events[0], e);
    }

    #[test]
    fn perfetto_export_is_balanced_and_arrowed() {
        let out = trace_to_perfetto(&causal_trace());
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(out.trim_end().ends_with("]}"));
        // Every B has a matching E and cause links became s/f arrows.
        let count = |ph: &str| out.matches(&format!("\"ph\":\"{ph}\"")).count();
        assert_eq!(count("B"), count("E"));
        assert!(count("s") > 0);
        assert_eq!(count("s"), count("f"));
        assert!(out.contains("thread_name"));
        // Works on a linkless trace too — just no arrows.
        let plain = trace_to_perfetto(&Trace {
            events: all_variants(),
        });
        assert_eq!(plain.matches("\"ph\":\"s\"").count(), 0);
    }

    #[test]
    fn spans_jsonl_is_one_line_per_event() {
        let trace = causal_trace();
        let out = spans_to_jsonl(&trace);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), trace.events.len());
        assert!(lines[0].starts_with("{\"span\":1,\"parent\":0,\"cause\":0,"));
        for line in lines {
            Line::default().parse(line).unwrap();
        }
    }

    /// The `find`/`trim`/`str::parse` reader the byte scan replaced,
    /// kept as its oracle.
    fn oracle_parse<'a>(fields: &mut Vec<(&'a str, Val<'a>)>, text: &'a str) -> Result<(), String> {
        fields.clear();
        let mut rest = text
            .trim()
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .ok_or("not an object")?
            .trim();
        while !rest.is_empty() {
            rest = rest
                .strip_prefix('"')
                .ok_or("expected quoted key")?
                .trim_start();
            let end = rest.find('"').ok_or("unterminated key")?;
            let key = &rest[..end];
            rest = rest[end + 1..]
                .trim_start()
                .strip_prefix(':')
                .ok_or("expected ':'")?
                .trim_start();
            let (val, tail) = if let Some(r) = rest.strip_prefix('"') {
                let end = r.find('"').ok_or("unterminated string")?;
                if r[..end].contains('\\') {
                    return Err("escapes unsupported".into());
                }
                (Val::Str(&r[..end]), &r[end + 1..])
            } else if let Some(r) = rest.strip_prefix("true") {
                (Val::Bool(true), r)
            } else if let Some(r) = rest.strip_prefix("false") {
                (Val::Bool(false), r)
            } else {
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                if end == 0 {
                    return Err(format!("bad value near {rest:.12?}"));
                }
                let n = rest[..end]
                    .parse()
                    .map_err(|e| format!("bad number: {e}"))?;
                (Val::U64(n), &rest[end..])
            };
            fields.push((key, val));
            rest = tail.trim_start();
            match rest.strip_prefix(',') {
                Some(r) => rest = r.trim_start(),
                None if rest.is_empty() => break,
                None => return Err("expected ',' between fields".into()),
            }
        }
        Ok(())
    }

    /// Parses every line of `input` with both readers and requires the
    /// same result, reason and fields.
    fn assert_parses_as_oracle(input: &str, context: &str) {
        let (mut line, mut oracle) = (Line::default(), Vec::new());
        for text in input.lines() {
            let got = line.parse(text);
            assert_eq!(got, oracle_parse(&mut oracle, text), "{context}: {text:?}");
            assert_eq!(line.fields, oracle, "{context}: {text:?}");
        }
    }

    #[test]
    fn the_byte_scan_parses_every_fuzz_line_as_the_oracle_does() {
        use jsonl_fuzz::{bit_flips, garbage_lines, truncations, FIXTURES};
        let mut cases = 0;
        for fixture in FIXTURES {
            for (cut, prefix) in truncations(fixture) {
                assert_parses_as_oracle(prefix, &format!("cut at byte {cut}"));
                cases += 1;
            }
        }
        for case in bit_flips().into_iter().chain(garbage_lines()) {
            assert_parses_as_oracle(&case.input, &case.context);
            cases += 1;
        }
        assert!(cases > 10_000, "{cases} cases");
    }

    #[test]
    fn the_byte_scan_parses_edge_lines_as_the_oracle_does() {
        let max = u64::MAX;
        let cases = [
            // Leading zeros are digits like any other.
            r#"{"a":007,"b":0}"#.to_string(),
            format!(r#"{{"a":{max}}}"#),
            r#"{"a":18446744073709551616}"#.into(),
            r#"{"a":99999999999999999999999}"#.into(),
            // `str::trim` takes Unicode whitespace between tokens.
            "\u{3000}{\u{a0}\"a\"\u{2003}:\u{85}1\u{2028},\t\"b\" :\x0btrue\u{200a}}\u{205f}"
                .into(),
            "{\"\u{a0}k\u{a0}\":\"\u{a0}v\u{a0}\"}".into(),
            r#"{"a":"x\y"}"#.into(),
            r#"{"a\":1}"#.into(),
            "{}".into(),
            "  {  }  ".into(),
            r#"{"a":1,}"#.into(),
            r#"{"a":1,,}"#.into(),
            r#"{,}"#.into(),
            r#"{"a":truex}"#.into(),
            r#"{"a":fals}"#.into(),
            r#"{"a":-1}"#.into(),
            r#"{"a":1.5}"#.into(),
            r#"{"a":"unterminated}"#.into(),
            r#"{"a" 1}"#.into(),
            r#"{"a":1 "b":2}"#.into(),
            r#"{a:1}"#.into(),
            "{\"a\":\"\u{e9}\u{ff}\"}".into(),
            "[]".into(),
            String::new(),
        ];
        for text in &cases {
            assert_parses_as_oracle(text, "edge case");
        }
        let fields = |text: &'static str| {
            let mut line = Line::default();
            line.parse(text).map(|()| line.fields)
        };
        assert_eq!(
            fields(r#"{"a":007,"b":18446744073709551615}"#),
            Ok(vec![("a", Val::U64(7)), ("b", Val::U64(u64::MAX))])
        );
        assert_eq!(
            fields(r#"{"a":18446744073709551616}"#),
            Err("bad number: number too large to fit in target type".into())
        );
        assert_eq!(fields("{}"), Ok(vec![]));
        assert_eq!(fields(r#"{"a":1,}"#), Ok(vec![("a", Val::U64(1))]));
        assert_eq!(fields(r#"{"a":"x\y"}"#), Err("escapes unsupported".into()));
        assert_eq!(
            fields("{\u{3000}\"a\"\u{a0}:\u{2003}true}"),
            Ok(vec![("a", Val::Bool(true))])
        );
    }
}
