//! The one shape every experiment reports in.
//!
//! A [`Document`] is an ordered head of scalars plus named sections of
//! rows, each row a [`Json`] object whose pairs are `(column, value)` in
//! print order. The three outputs an experiment has are all derived from
//! it, so a column is named once:
//!
//! * [`Document::json_text`] — the `--json` text, which `figures --out`
//!   writes and `data/golden/` keeps (insertion order kept, one row per
//!   line, floats at full precision),
//! * [`Document::to_json`] — the same as one [`Json`] value,
//! * [`Document::text`] — head lines plus one `render_table` per
//!   [`View`], a `(header, columns, format)` list over one section.

use crate::{render_table, Json};

/// One row: a [`Json::Obj`] whose pairs are the columns, in print order.
pub type Row = Json;

/// What one experiment run reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    /// Report-level scalars, in print order.
    pub head: Vec<(&'static str, Json)>,
    /// Named row sections, in print order.
    pub sections: Vec<(&'static str, Vec<Row>)>,
}

impl Document {
    /// The rows of section `name`.
    pub fn section(&self, name: &str) -> Option<&[Row]> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, rows)| rows.as_slice())
    }

    /// The `--json` text: head scalars one per line, then each section
    /// with one row per line. Equal documents render byte-identically.
    pub fn json_text(&self) -> String {
        let mut items: Vec<String> = self
            .head
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {}", v.to_inline()))
            .collect();
        for (name, rows) in &self.sections {
            let rows: Vec<String> = rows
                .iter()
                .map(|row| format!("    {}", row.to_inline()))
                .collect();
            items.push(format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n")));
        }
        format!("{{\n{}\n}}", items.join(",\n"))
    }

    /// The same columns and values as one [`Json`] value.
    pub fn to_json(&self) -> Json {
        let sections = self.sections.iter();
        let sections = sections.map(|(name, rows)| (*name, Json::Arr(rows.clone())));
        Json::obj(self.head.iter().cloned().chain(sections))
    }

    /// The text report: one `name: value` line per head scalar, then one
    /// table per view, a blank line between blocks.
    pub fn text(&self, views: &[View]) -> String {
        let head: String = self
            .head
            .iter()
            .map(|(k, v)| format!("{k}: {}\n", cell(v)))
            .collect();
        let tables = views.iter().map(|view| view.render(self));
        let head = (!head.is_empty()).then_some(head);
        let blocks: Vec<String> = head.into_iter().chain(tables).collect();
        blocks.join("\n")
    }
}

/// A value as a table cell: strings bare, everything else as JSON.
fn cell(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        other => other.to_inline(),
    }
}

fn num(value: &Json) -> f64 {
    match value {
        Json::Num(n) => *n,
        other => panic!("a numeric format was applied to {other:?}"),
    }
}

/// How a [`View`] column prints the document columns it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fmt {
    /// The value as is.
    Plain,
    /// A number with this many decimals.
    Fixed(usize),
    /// A fraction as a percentage with this many decimals.
    Percent(usize),
    /// The sum of several columns, with this many decimals.
    Sum(usize),
    /// A byte count in MiB with one decimal.
    Mib,
    /// Several values joined by a separator (`2..8`, `3/1`).
    Join(&'static str),
    /// A flag as `ok` / `MISS`.
    OkMiss,
}

/// Milliseconds with two decimals, as every latency column prints.
pub(crate) const MS: Fmt = Fmt::Fixed(2);

/// One table column: header, the document columns it reads, and how.
type Col = (&'static str, &'static [&'static str], Fmt);

/// One text table over one section of a document.
#[derive(Debug, Clone, Copy)]
pub struct View {
    /// The section the table lists.
    pub section: &'static str,
    /// A blank line separates runs of rows that differ in this column.
    pub group_by: Option<&'static str>,
    /// The table's columns, left to right.
    pub cols: &'static [Col],
}

/// Column `name` of `row`.
///
/// # Panics
///
/// Panics if the row lacks it (`tests/goldens.rs` checks every registered
/// view against its document, so a typo fails there, not in a table).
fn column<'a>(row: &'a Row, name: &str) -> &'a Json {
    let Json::Obj(pairs) = row else {
        panic!("a row is an object, not {row:?}");
    };
    let found = pairs.iter().find(|(k, _)| k == name);
    let (_, value) = found.unwrap_or_else(|| panic!("the row lacks column '{name}'"));
    value
}

impl View {
    /// Renders the table.
    ///
    /// # Panics
    ///
    /// Panics if the view names a section or column the document lacks;
    /// `tests/goldens.rs` checks every registered view against its document.
    pub fn render(&self, doc: &Document) -> String {
        let rows = doc
            .section(self.section)
            .unwrap_or_else(|| panic!("view lists section '{}'", self.section));
        table(rows, self.group_by, self.cols)
    }
}

/// Renders `rows` as a text table under `cols`; a blank line separates
/// runs of rows that differ in column `group_by`.
///
/// # Panics
///
/// Panics if a row lacks a column `cols` or `group_by` reads.
fn table(rows: &[Row], group_by: Option<&str>, cols: &[Col]) -> String {
    let mut cells: Vec<Vec<String>> = Vec::new();
    let mut last = None;
    for row in rows {
        if let Some(by) = group_by {
            let key = column(row, by);
            if last.is_some_and(|l| l != key) {
                cells.push(Vec::new());
            }
            last = Some(key);
        }
        let cell = |(_, from, fmt): &Col| {
            let values: Vec<&Json> = from.iter().map(|c| column(row, c)).collect();
            fmt.apply(&values)
        };
        cells.push(cols.iter().map(cell).collect());
    }
    let headers: Vec<&str> = cols.iter().map(|c| c.0).collect();
    render_table(&headers, &cells)
}

impl Fmt {
    fn apply(self, values: &[&Json]) -> String {
        match self {
            Fmt::Plain => cell(values[0]),
            Fmt::Fixed(decimals) => format!("{:.decimals$}", num(values[0])),
            Fmt::Percent(decimals) => format!("{:.decimals$}%", num(values[0]) * 100.0),
            Fmt::Sum(decimals) => {
                format!("{:.decimals$}", values.iter().map(|v| num(v)).sum::<f64>())
            }
            Fmt::Mib => crate::mib(num(values[0]) as u64),
            Fmt::Join(sep) => {
                let cells: Vec<String> = values.iter().map(|v| cell(v)).collect();
                cells.join(sep)
            }
            Fmt::OkMiss => match values[0] {
                Json::Bool(true) => "ok".into(),
                _ => "MISS".into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        let phases = vec![
            Json::obj([("phase", "VMM".into()), ("ms", 15.014256.into())]),
            Json::obj([("phase", "Linux Boot".into()), ("ms", 71.0.into())]),
        ];
        Document {
            head: vec![("zeta", 30.0.into()), ("alpha", "0x2a".into())],
            sections: vec![(
                "rows",
                vec![
                    Json::obj([
                        ("name", "a\"b\\c\nd".into()),
                        ("rate", 0.1f64.into()),
                        ("n", 3usize.into()),
                        ("ok", true.into()),
                        ("phases", phases.into()),
                    ]),
                    Json::obj([
                        ("name", "b".into()),
                        ("rate", 10244.550607019999.into()),
                        ("n", 4usize.into()),
                        ("ok", false.into()),
                        ("phases", Json::Arr(Vec::new())),
                    ]),
                ],
            )],
        }
    }

    #[test]
    fn json_text_keeps_insertion_order_precision_and_escapes() {
        let text = sample().json_text();
        let expected = "{\n  \"zeta\": 30,\n  \"alpha\": \"0x2a\",\n  \"rows\": [\n    \
            {\"name\": \"a\\\"b\\\\c\\nd\", \"rate\": 0.1, \"n\": 3, \"ok\": true, \
            \"phases\": [{\"phase\": \"VMM\", \"ms\": 15.014256}, \
            {\"phase\": \"Linux Boot\", \"ms\": 71}]},\n    \
            {\"name\": \"b\", \"rate\": 10244.550607019999, \"n\": 4, \"ok\": false, \
            \"phases\": []}\n  ]\n}";
        assert_eq!(text, expected);
    }

    #[test]
    fn head_only_and_multi_section_documents_close_cleanly() {
        let head_only = Document {
            head: vec![("a", 1u64.into()), ("b", true.into())],
            ..Document::default()
        };
        assert_eq!(head_only.json_text(), "{\n  \"a\": 1,\n  \"b\": true\n}");
        let two = Document {
            sections: vec![
                ("x", vec![Json::obj([("k", 1u64.into())])]),
                ("y", vec![Json::obj([("k", 2u64.into())])]),
            ],
            ..Document::default()
        };
        assert_eq!(
            two.json_text(),
            "{\n  \"x\": [\n    {\"k\": 1}\n  ],\n  \"y\": [\n    {\"k\": 2}\n  ]\n}"
        );
    }

    #[test]
    fn dump_carries_the_same_columns_and_values() {
        let doc = sample();
        let dump = doc.to_json();
        assert_eq!(column(&dump, "zeta"), &Json::Num(30.0));
        let Json::Arr(rows) = column(&dump, "rows") else {
            panic!("a section dumps as an array");
        };
        assert_eq!(rows, &doc.sections[0].1);
    }

    #[test]
    fn view_formats_groups_and_rejects_unknown_columns() {
        const COLS: &[Col] = &[
            ("name", &["name"], Fmt::Plain),
            ("rate", &["rate"], Fmt::Fixed(1)),
            ("pct", &["rate"], Fmt::Percent(0)),
            ("sum", &["n", "n"], Fmt::Sum(0)),
            ("size", &["n"], Fmt::Mib),
            ("pair", &["n", "ok"], Fmt::Join("/")),
            ("slo", &["ok"], Fmt::OkMiss),
        ];
        let view = View {
            section: "rows",
            group_by: Some("ok"),
            cols: COLS,
        };
        let mut doc = sample();
        doc.sections[0].1[0] = Json::obj([
            ("name", "a".into()),
            ("rate", 0.1f64.into()),
            ("n", 3usize.into()),
            ("ok", true.into()),
        ]);
        let text = doc.text(&[view]);
        let lines: Vec<&str> = text.lines().map(str::trim_end).collect();
        assert_eq!(lines[0], "zeta: 30");
        assert_eq!(lines[1], "alpha: 0x2a");
        // Head, blank, header, rule, row, blank group break, row.
        assert_eq!(lines.len(), 8);
        assert!(lines[6].is_empty());
        let cells: Vec<&str> = lines[7].split_whitespace().collect();
        assert_eq!(
            cells,
            ["b", "10244.6", "1024455%", "8", "0.0", "4/false", "MISS"]
        );

        let bad = View {
            section: "rows",
            group_by: None,
            cols: &[("x", &["nope"], Fmt::Plain)],
        };
        assert!(std::panic::catch_unwind(|| bad.render(&sample())).is_err());
    }
}
