//! Shared rendering/serialization helpers for the benchmark harness.
//!
//! The `figures` binary regenerates every table and figure of the paper on
//! the virtual clock (wall-clock results come from `benchmark/` alone).
//! This library holds what it shares with the examples: text-table
//! rendering, a dependency-free JSON emitter whose output EXPERIMENTS.md is
//! built from, and — in [`document`] and [`experiment`] — the one
//! description of every serving experiment that both render from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod document;
pub mod experiment;
pub mod perf;

use std::fmt::Write as _;

use sevf_obs::json_escape;

/// Renders a fixed-width text table.
///
/// # Example
///
/// ```
/// let t = sevf_bench::render_table(
///     &["name", "ms"],
///     &[vec!["boot".to_string(), "40.0".to_string()]],
/// );
/// assert!(t.contains("boot"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
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

/// A minimal JSON value for figure dumps and experiment documents.
///
/// The data is plain numbers/strings in arrays of objects; a full
/// serialization framework buys nothing here and the repository builds
/// offline, so this emitter is hand-rolled. Objects keep insertion order:
/// [`Json::to_inline`] prints it (the `--json` replay documents), while
/// [`Json::to_pretty`] sorts keys (the `data/*.json` files), so both
/// outputs are deterministic.
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
    pub fn to_inline(&self) -> String {
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

    /// Serializes with two-space indentation and sorted object keys
    /// (stable across runs).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                let mut map: Vec<&(String, Json)> = pairs.iter().collect();
                map.sort_by(|a, b| a.0.cmp(&b.0));
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad_in);
                    let _ = write!(out, "\"{}\": ", json_escape(k));
                    v.write(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
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

/// A serialized figure: identifier, caption, and free-form data.
#[derive(Debug)]
pub struct FigureDump {
    /// Figure/table identifier ("fig3", "fig10", "mem", ...).
    pub id: String,
    /// What the paper's version shows.
    pub caption: String,
    /// The data series, shaped per figure.
    pub data: Json,
}

impl FigureDump {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("caption", Json::Str(self.caption.clone())),
            ("data", self.data.clone()),
        ])
    }
}

/// Writes figure dumps as pretty JSON into `dir/<id>.json`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_dumps(dir: &std::path::Path, dumps: &[FigureDump]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for dump in dumps {
        let path = dir.join(format!("{}.json", dump.id));
        std::fs::write(&path, dump.to_json().to_pretty())?;
    }
    Ok(())
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

/// Formats milliseconds with two decimals.
pub fn fmt_ms(ms: f64) -> String {
    format!("{ms:.2}")
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
        assert_eq!(fmt_ms(8.216), "8.22");
    }

    #[test]
    fn json_emits_deterministic_pretty_output() {
        let v = Json::obj([
            ("b", Json::from(2u64)),
            (
                "a",
                Json::Arr(vec![Json::from("x\n"), Json::Null, Json::Bool(true)]),
            ),
            ("c", Json::from(1.5)),
        ]);
        let text = v.to_pretty();
        // Keys are sorted; integral floats print as integers; strings escape.
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
        assert!(text.contains("\"x\\n\""));
        assert!(text.contains("2,") || text.contains("2\n"));
        assert!(text.contains("1.5"));
    }

    #[test]
    fn empty_containers_stay_compact() {
        assert_eq!(Json::Arr(vec![]).to_pretty(), "[]");
        assert_eq!(Json::Obj(Default::default()).to_pretty(), "{}");
    }
}
