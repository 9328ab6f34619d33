//! The paper anchors of `reference/paper.json`.

use crate::json::Value;

/// One number the paper reports, to hold the simulation against.
#[derive(Debug, Clone, PartialEq)]
pub struct Anchor {
    /// Stable id (`fig9.reduction_aws_pct`, ...).
    pub id: String,
    /// Figure or section it is read from.
    pub source: String,
    /// Unit.
    pub unit: String,
    /// The paper's value.
    pub paper: f64,
    /// Whether a `cost.rs` constant is derived from it (so agreement is by
    /// construction and says nothing about the model).
    pub tuned: bool,
}

/// Parses the anchors embedded at build time.
///
/// # Errors
///
/// A malformed `reference/paper.json`.
pub fn anchors() -> Result<Vec<Anchor>, String> {
    let doc = Value::parse(include_str!("../reference/paper.json"))?;
    let items = doc
        .get("anchors")
        .ok_or("paper.json has no anchors")?
        .items();
    items
        .iter()
        .map(|a| {
            let text = |key: &str| {
                a.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("anchor without {key}"))
            };
            let tuned = match text("status")?.as_str() {
                "tuned" => true,
                "held_out" => false,
                other => return Err(format!("anchor status '{other}'")),
            };
            Ok(Anchor {
                id: text("id")?,
                source: text("source")?,
                unit: text("unit")?,
                paper: a
                    .get("paper")
                    .and_then(Value::as_f64)
                    .ok_or("anchor without paper value")?,
                tuned,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_parse_and_cover_both_kinds() {
        let all = anchors().unwrap();
        assert!(all.len() >= 8);
        assert!(all.iter().any(|a| a.tuned));
        assert!(all.iter().filter(|a| !a.tuned).count() >= 4);
        assert!(all.iter().all(|a| a.paper > 0.0 && !a.id.is_empty()));
        let mut ids: Vec<&str> = all.iter().map(|a| a.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "anchor ids are unique");
    }
}
