//! The committed baseline: grandfathered findings that do not fail CI.
//!
//! A baseline entry matches findings by `(file, rule, snippet)` — line
//! numbers are deliberately absent so unrelated edits above a grandfathered
//! line do not invalidate it, while any edit *to* the offending line does
//! (the snippet changes, the finding becomes new, and the author must fix
//! or re-justify it). Every entry carries a `note` saying why it is
//! tolerated. Unused entries are reported so the baseline only shrinks.
//! The file is edited by hand: new exceptions go through inline waivers,
//! which carry their reason next to the code.

use std::collections::BTreeMap;

use gcr_json::Json;

use crate::report::{Finding, Status};

/// One grandfathered finding class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative path.
    pub file: String,
    /// Rule id (`D02`…).
    pub rule: String,
    /// Trimmed source line the finding sits on.
    pub snippet: String,
    /// How many findings with this key are waived (≥ 1).
    pub count: u64,
    /// Why this is tolerated.
    pub note: String,
}

/// The whole baseline file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Entries in file order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parse the baseline JSON document.
    ///
    /// # Errors
    /// A message describing the parse or shape problem.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v = Json::parse(text).map_err(|e| format!("baseline: {e}"))?;
        let version = v.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != 1 {
            return Err(format!("baseline: unsupported version {version}"));
        }
        let mut entries = Vec::new();
        let list = v
            .get("findings")
            .and_then(Json::as_arr)
            .ok_or("baseline: missing findings array")?;
        for e in list {
            let field = |k: &str| -> Result<String, String> {
                e.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline: entry missing `{k}`"))
            };
            entries.push(BaselineEntry {
                file: field("file")?,
                rule: field("rule")?,
                snippet: field("snippet")?,
                count: e.get("count").and_then(Json::as_u64).unwrap_or(1).max(1),
                note: field("note")?,
            });
        }
        Ok(Baseline { entries })
    }

    /// Serialize to the committed JSON form (pretty, stable order).
    pub fn dump(&self) -> String {
        let findings = self
            .entries
            .iter()
            .map(|e| {
                Json::obj([
                    ("file", Json::from(e.file.as_str())),
                    ("rule", Json::from(e.rule.as_str())),
                    ("snippet", Json::from(e.snippet.as_str())),
                    ("count", Json::from(e.count)),
                    ("note", Json::from(e.note.as_str())),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("version", Json::from(1u64)),
            ("findings", Json::from(findings)),
        ])
        .pretty()
    }

    /// Mark findings covered by this baseline as [`Status::Baselined`].
    /// Returns human descriptions of entries (or residual counts) that
    /// matched nothing.
    pub fn apply(&self, findings: &mut [Finding]) -> Vec<String> {
        let mut remaining: BTreeMap<(String, String, String), u64> = BTreeMap::new();
        for e in &self.entries {
            *remaining
                .entry((e.file.clone(), e.rule.clone(), e.snippet.clone()))
                .or_insert(0) += e.count;
        }
        for f in findings.iter_mut() {
            let key = (f.file.clone(), f.rule.id().to_string(), f.snippet.clone());
            if let Some(n) = remaining.get_mut(&key) {
                if *n > 0 {
                    *n -= 1;
                    f.status = Status::Baselined;
                }
            }
        }
        remaining
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|((file, rule, snippet), n)| {
                format!("{file}: {rule} `{snippet}` (unmatched ×{n})")
            })
            .collect()
    }
}
