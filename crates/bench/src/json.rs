//! Minimal JSON emission for the `BENCH_*.json` reports.
//!
//! Every `bench_*` binary used to hand-roll its JSON with `format!` and
//! `push_str`, which meant the shared fields — the `pr` number, the
//! description, `available_parallelism`, the honest single-core note —
//! were copy-pasted code paths that could (and did) drift. This module is
//! the one writer they all feed: an **order-preserving** object builder
//! (report fields appear exactly in insertion order, so the emitted files
//! stay diffable run-over-run) with the rendering conventions the existing
//! reports established:
//!
//! * the top-level object and nested objects are pretty-printed at
//!   2-space indentation;
//! * objects *inside arrays* (the per-case `benches` rows) are rendered
//!   on one line each, keeping the row-per-case greppability;
//! * floats carry an explicit decimal count, chosen per field by the
//!   benchmark (nanoseconds at `.1`, ratios at `.2` or `.3`, …).
//!
//! The build environment is offline, so this is deliberately a small
//! emitter — no serde, no parsing, no `Value` zoo beyond what the reports
//! need.

use crate::pool::default_jobs;

/// A JSON value as the bench reports need them.
#[derive(Debug, Clone)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every count the reports emit).
    Int(i128),
    /// A float rendered with a fixed number of decimals.
    Float {
        /// The value itself.
        value: f64,
        /// Decimal places to render (`2.0` at 3 decimals → `2.000`).
        decimals: usize,
    },
    /// A string (escaped on render).
    Str(String),
    /// An array; element objects render on one line each.
    Array(Vec<Value>),
    /// A nested object; renders pretty-printed like the top level.
    Object(Object),
}

impl Value {
    /// A float with a fixed decimal count.
    pub fn float(value: f64, decimals: usize) -> Self {
        Value::Float { value, decimals }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i128)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(i128::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i128::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(i128::from(v))
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Object> for Value {
    fn from(v: Object) -> Self {
        Value::Object(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}

/// An order-preserving JSON object builder.
///
/// # Examples
///
/// ```
/// use adt_bench::json::{Object, Value};
///
/// let report = Object::new()
///     .field("pr", 6usize)
///     .field("speedup", Value::float(2.0, 2))
///     .field("summary", Object::new().field("ok", true));
/// assert_eq!(
///     report.render(),
///     "{\n  \"pr\": 6,\n  \"speedup\": 2.00,\n  \"summary\": {\n    \"ok\": true\n  }\n}\n"
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct Object {
    entries: Vec<(String, Value)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends one field (fields render in insertion order).
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.entries.push((key.to_owned(), value.into()));
        self
    }

    /// Renders the object as a pretty-printed JSON document with a
    /// trailing newline — the exact on-disk shape of the `BENCH_*.json`
    /// files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_pretty(&mut out, &Value::Object(self.clone()), 0);
        out.push('\n');
        out
    }
}

/// Starts a benchmark report with the fields every `BENCH_*.json` shares:
/// the PR number, the human-readable methodology description, the host's
/// `available_parallelism` (single-core CI is the honest default
/// assumption of every speedup claim; see [`parallelism_note`]) and the
/// *intra-query* `kernel_threads` the measurement ran with (1 = the
/// sequential kernel; the two parallelism axes are independent).
pub fn bench_report(pr: u32, description: &str, kernel_threads: usize) -> Object {
    Object::new()
        .field("pr", pr)
        .field("description", description)
        .field("available_parallelism", default_jobs())
        .field("kernel_threads", kernel_threads)
}

/// The honest parallelism note of the multi-worker reports, covering both
/// axes — `workers` engines *across* instances and `kernel_threads`
/// threads *within* each modular query, over its independent modules. On
/// a single-core host every multi-threaded number measures overhead, not
/// speedup — one shared sentence so every report says it the same way.
pub fn parallelism_note(workers: usize, kernel_threads: usize) -> String {
    let cores = default_jobs();
    if cores == 1 {
        format!(
            "Host exposes a single core (available_parallelism = 1); the {workers}-way \
             pool numbers and any {kernel_threads}-thread kernel numbers measure \
             synchronization overhead, not parallel speedup. On an N-core host the \
             embarrassingly parallel suites scale across instances with min(N, suite size) \
             workers, and a modular query additionally fans its independent modules out \
             over up to kernel_threads threads, each with a private manager; the \
             differential tests assert result equality at every worker count and every \
             kernel thread count."
        )
    } else {
        format!(
            "Measured on {cores} available cores with {workers} workers across instances \
             and {kernel_threads} kernel threads within each modular query."
        )
    }
}

fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                push_indent(out, indent + 2);
                // Rows inside arrays stay one-per-line (greppable), so
                // nested objects here render compact.
                write_compact(out, item);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(object) if !object.entries.is_empty() => {
            out.push_str("{\n");
            for (i, (key, field)) in object.entries.iter().enumerate() {
                push_indent(out, indent + 2);
                push_string(out, key);
                out.push_str(": ");
                write_pretty(out, field, indent + 2);
                out.push_str(if i + 1 < object.entries.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            push_indent(out, indent);
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

fn write_compact(out: &mut String, value: &Value) {
    match value {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float { value, decimals } => {
            // JSON has no NaN/Infinity; benches only produce finite
            // ratios, so a non-finite value is a bug worth failing on.
            assert!(value.is_finite(), "non-finite float in a bench report");
            out.push_str(&format!("{value:.decimals$}"));
        }
        Value::Str(s) => push_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(object) => {
            out.push('{');
            for (i, (key, field)) in object.entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_string(out, key);
                out.push_str(": ");
                write_compact(out, field);
            }
            out.push('}');
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push(' ');
    }
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_shape_matches_the_house_style() {
        let report = Object::new()
            .field("pr", 9usize)
            .field(
                "benches",
                vec![
                    Value::from(
                        Object::new()
                            .field("case", "a")
                            .field("ns", Value::float(1.5, 1)),
                    ),
                    Value::from(
                        Object::new()
                            .field("case", "b")
                            .field("ns", Value::float(2.0, 1)),
                    ),
                ],
            )
            .field("summary", Object::new().field("ok", true));
        assert_eq!(
            report.render(),
            concat!(
                "{\n",
                "  \"pr\": 9,\n",
                "  \"benches\": [\n",
                "    {\"case\": \"a\", \"ns\": 1.5},\n",
                "    {\"case\": \"b\", \"ns\": 2.0}\n",
                "  ],\n",
                "  \"summary\": {\n",
                "    \"ok\": true\n",
                "  }\n",
                "}\n",
            )
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_string(&mut out, "a \"quoted\" \\ line\nnext\u{1}");
        assert_eq!(out, "\"a \\\"quoted\\\" \\\\ line\\nnext\\u0001\"");
    }

    #[test]
    fn empty_containers_render_inline() {
        let report = Object::new()
            .field("rows", Vec::<Value>::new())
            .field("nested", Object::new());
        assert_eq!(report.render(), "{\n  \"rows\": [],\n  \"nested\": {}\n}\n");
    }

    #[test]
    fn bench_report_carries_the_shared_fields() {
        let text = bench_report(6, "what was measured", 4).render();
        assert!(text.starts_with("{\n  \"pr\": 6,\n  \"description\": \"what was measured\",\n"));
        assert!(text.contains("\"available_parallelism\": "));
        assert!(text.contains("\"kernel_threads\": 4"));
    }

    #[test]
    fn parallelism_note_is_honest_about_core_counts() {
        let note = parallelism_note(8, 2);
        if default_jobs() == 1 {
            assert!(note.contains("single core"));
            assert!(note.contains("8-way"));
            assert!(note.contains("2-thread kernel"));
        } else {
            assert!(note.contains("8 workers"));
            assert!(note.contains("2 kernel threads"));
        }
    }
}
