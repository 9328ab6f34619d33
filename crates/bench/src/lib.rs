//! Shared rendering/serialization helpers for the benchmark harness.
//!
//! The `figures` binary regenerates every table and figure of the paper on
//! the virtual clock (wall-clock results come from `benchmark/` alone).
//! This library holds what it shares with the examples: text-table
//! rendering, a dependency-free JSON emitter, and — in [`document`] and
//! [`experiment`] — the one description of every figure, table and serving
//! experiment that both render from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod document;
pub mod experiment;

use sevf_obs::json_escape;

/// Renders a fixed-width text table.
pub(crate) fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    line(
        &mut out,
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    );
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// A minimal JSON value for experiment documents.
///
/// The data is plain numbers/strings in arrays of objects; a full
/// serialization framework buys nothing here and the repository builds
/// offline, so this emitter is hand-rolled. Objects keep insertion order
/// and `Json::to_inline` prints it, so the output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (emitted via `f64`; integers print without `.0`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes on one line, objects in insertion order, numbers at full
    /// precision (`30.0` prints as `30`).
    pub(crate) fn to_inline(&self) -> String {
        let list = |items: Vec<String>| items.join(", ");
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => n.to_string(),
            Json::Str(s) => format!("\"{}\"", json_escape(s)),
            Json::Arr(items) => format!("[{}]", list(items.iter().map(Json::to_inline).collect())),
            Json::Obj(pairs) => {
                let cell =
                    |(k, v): &(String, Json)| format!("\"{}\": {}", json_escape(k), v.to_inline());
                format!("{{{}}}", list(pairs.iter().map(cell).collect()))
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// The `--quick` or the paper-scale value of a config.
pub fn pick<T>(quick: bool, small: fn() -> T, paper: fn() -> T) -> T {
    if quick {
        small()
    } else {
        paper()
    }
}

/// Formats a byte count in MiB with one decimal.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(&["a", "long-header"], &[vec!["xxxxxx".into(), "1".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    fn helpers_format() {
        assert_eq!(mib(1024 * 1024 * 3 / 2), "1.5");
    }
}
