//! Violation records, the aggregated lint report, and its machine-readable
//! renderings (JSON and SARIF 2.1.0).

use std::fmt;

use serde::Value;

/// A secondary source location attached to a finding — e.g. one hop of
/// the call chain a hot-path reachability finding walked, or the callee
/// definition a unit-flow finding inferred its unit from. Rendered as
/// SARIF `relatedLocations`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Related {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What this location contributes to the finding.
    pub message: String,
}

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (e.g. `float-eq`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// True when an `audit:allow` comment covers this site.
    pub waived: bool,
    /// Secondary locations (call chains, inference sources); empty for
    /// purely local findings.
    pub related: Vec<Related>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}]{} {}",
            self.file,
            self.line,
            self.rule,
            if self.waived { " (waived)" } else { "" },
            self.message
        )?;
        for r in &self.related {
            write!(f, "\n    ↳ {}:{}: {}", r.file, r.line, r.message)?;
        }
        Ok(())
    }
}

/// Aggregated result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, waived and unwaived, in file/line order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Records a finding.
    pub fn push(&mut self, v: Violation) {
        self.violations.push(v);
    }

    /// Records a `rule` finding on the 1-based `line` of `ast`, waived when
    /// an `audit:allow(<rule>)` covers the line. Exact duplicates (same
    /// file, line, rule and message) are dropped: one line can repeat a
    /// defect, and tolerant call resolution can reach the same one through
    /// several candidate edges.
    pub(crate) fn flag(
        &mut self,
        ast: &crate::ast::Ast,
        line: usize,
        rule: &'static str,
        message: String,
        related: Vec<Related>,
    ) {
        let dup = self.violations.iter().any(|v| {
            v.file == ast.path && v.line == line && v.rule == rule && v.message == message
        });
        if !dup {
            let waived = ast.waived(line, rule);
            self.push(Violation { file: ast.path.clone(), line, rule, message, waived, related });
        }
    }

    /// Findings not covered by a waiver comment.
    pub fn unwaived(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| !v.waived)
    }

    /// Number of unwaived findings.
    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }

    /// Number of waived findings.
    pub fn waived_count(&self) -> usize {
        self.violations.len() - self.unwaived_count()
    }

    /// True when the run should exit zero.
    pub fn is_clean(&self) -> bool {
        self.unwaived_count() == 0
    }

    /// Stable-sorts findings by `(file, line, rule)` so multi-rule,
    /// multi-pass runs render deterministically.
    pub fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// The report as a JSON value (shape pinned by
    /// `schemas/audit.schema.json`).
    fn json_value(&self) -> Value {
        let violations = self
            .violations
            .iter()
            .map(|v| {
                let related = v
                    .related
                    .iter()
                    .map(|r| {
                        Value::Map(vec![
                            ("file".into(), Value::Str(r.file.clone())),
                            ("line".into(), Value::Int(r.line as i64)),
                            ("message".into(), Value::Str(r.message.clone())),
                        ])
                    })
                    .collect();
                Value::Map(vec![
                    ("file".into(), Value::Str(v.file.clone())),
                    ("line".into(), Value::Int(v.line as i64)),
                    ("rule".into(), Value::Str(v.rule.to_string())),
                    ("message".into(), Value::Str(v.message.clone())),
                    ("waived".into(), Value::Bool(v.waived)),
                    ("related".into(), Value::Seq(related)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("version".into(), Value::Int(2)),
            (
                "summary".into(),
                Value::Map(vec![
                    ("total".into(), Value::Int(self.violations.len() as i64)),
                    ("waived".into(), Value::Int(self.waived_count() as i64)),
                    ("unwaived".into(), Value::Int(self.unwaived_count() as i64)),
                ]),
            ),
            ("violations".into(), Value::Seq(violations)),
        ])
    }

    /// Renders the report as the v2 JSON format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.json_value()).expect("report JSON has no non-finite floats")
    }

    /// Renders the report as a SARIF 2.1.0 log: one run, one result per
    /// finding. Unwaived findings are `error`-level, waived ones `note` —
    /// so GitHub's SARIF ingestion annotates the diff with exactly the
    /// findings that fail the build, while waivers stay visible.
    pub fn to_sarif(&self, rule_ids: &[&str]) -> String {
        let rules = rule_ids
            .iter()
            .map(|id| Value::Map(vec![("id".into(), Value::Str((*id).to_string()))]))
            .collect();
        // The `physicalLocation` field for a (file, line) pair.
        let physical = |file: &str, line: usize| {
            (
                "physicalLocation".to_string(),
                Value::Map(vec![
                    (
                        "artifactLocation".into(),
                        Value::Map(vec![("uri".into(), Value::Str(file.to_string()))]),
                    ),
                    (
                        "region".into(),
                        Value::Map(vec![("startLine".into(), Value::Int(line as i64))]),
                    ),
                ]),
            )
        };
        let results = self
            .violations
            .iter()
            .map(|v| {
                let mut fields = vec![
                    ("ruleId".into(), Value::Str(v.rule.to_string())),
                    (
                        "level".into(),
                        Value::Str(if v.waived { "note" } else { "error" }.into()),
                    ),
                    (
                        "message".into(),
                        Value::Map(vec![("text".into(), Value::Str(v.message.clone()))]),
                    ),
                    (
                        "locations".into(),
                        Value::Seq(vec![Value::Map(vec![physical(&v.file, v.line)])]),
                    ),
                ];
                if !v.related.is_empty() {
                    let related = v
                        .related
                        .iter()
                        .map(|r| {
                            Value::Map(vec![
                                physical(&r.file, r.line),
                                (
                                    "message".into(),
                                    Value::Map(vec![(
                                        "text".into(),
                                        Value::Str(r.message.clone()),
                                    )]),
                                ),
                            ])
                        })
                        .collect();
                    fields.push(("relatedLocations".into(), Value::Seq(related)));
                }
                Value::Map(fields)
            })
            .collect();
        let sarif = Value::Map(vec![
            (
                "$schema".into(),
                Value::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
            ),
            ("version".into(), Value::Str("2.1.0".into())),
            (
                "runs".into(),
                Value::Seq(vec![Value::Map(vec![
                    (
                        "tool".into(),
                        Value::Map(vec![(
                            "driver".into(),
                            Value::Map(vec![
                                ("name".into(), Value::Str("coca-audit".into())),
                                ("rules".into(), Value::Seq(rules)),
                            ]),
                        )]),
                    ),
                    ("results".into(), Value::Seq(results)),
                ])]),
            ),
        ]);
        serde_json::to_string(&sarif).expect("SARIF value has no non-finite floats")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        write!(
            f,
            "audit: {} violation(s), {} waived, {} unwaived",
            self.violations.len(),
            self.waived_count(),
            self.unwaived_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_cleanliness() {
        let mut r = Report::default();
        assert!(r.is_clean());
        r.push(Violation {
            file: "a.rs".into(),
            line: 3,
            rule: "float-eq",
            message: "raw float equality".into(),
            waived: false,
            related: Vec::new(),
        });
        r.push(Violation {
            file: "a.rs".into(),
            line: 9,
            rule: "nan-guard",
            message: "unguarded ln".into(),
            waived: true,
            related: Vec::new(),
        });
        assert_eq!(r.unwaived_count(), 1);
        assert_eq!(r.waived_count(), 1);
        assert!(!r.is_clean());
        let text = r.to_string();
        assert!(text.contains("a.rs:3: [float-eq] raw float equality"));
        assert!(text.contains("(waived)"));
        assert!(text.contains("2 violation(s), 1 waived, 1 unwaived"));
    }

    fn sample() -> Report {
        let mut r = Report::default();
        r.push(Violation {
            file: "b.rs".into(),
            line: 9,
            rule: "unit-mix",
            message: "mixes".into(),
            waived: true,
            related: Vec::new(),
        });
        r.push(Violation {
            file: "a.rs".into(),
            line: 3,
            rule: "float-eq",
            message: "raw float equality".into(),
            waived: false,
            related: vec![Related {
                file: "c.rs".into(),
                line: 7,
                message: "called from here".into(),
            }],
        });
        r.sort();
        r
    }

    #[test]
    fn sort_orders_by_file_line_rule() {
        let r = sample();
        assert_eq!(r.violations[0].file, "a.rs");
        assert_eq!(r.violations[1].file, "b.rs");
    }

    #[test]
    fn json_rendering_round_trips_and_counts() {
        let r = sample();
        let v: serde::Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(v.get_field("version"), Some(&Value::Int(2)));
        let summary = v.get_field("summary").unwrap();
        assert_eq!(summary.get_field("total"), Some(&Value::Int(2)));
        assert_eq!(summary.get_field("waived"), Some(&Value::Int(1)));
        assert_eq!(summary.get_field("unwaived"), Some(&Value::Int(1)));
        let violations = v.get_field("violations").unwrap().as_seq().unwrap();
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].get_field("rule"), Some(&Value::Str("float-eq".into())));
        assert_eq!(violations[0].get_field("waived"), Some(&Value::Bool(false)));
        let related = violations[0].get_field("related").unwrap().as_seq().unwrap();
        assert_eq!(related.len(), 1);
        assert_eq!(related[0].get_field("file"), Some(&Value::Str("c.rs".into())));
        assert_eq!(related[0].get_field("line"), Some(&Value::Int(7)));
        assert!(violations[1].get_field("related").unwrap().as_seq().unwrap().is_empty());
    }

    #[test]
    fn sarif_rendering_levels_and_locations() {
        let r = sample();
        let v: serde::Value = serde_json::from_str(&r.to_sarif(&["float-eq", "unit-mix"])).unwrap();
        assert_eq!(v.get_field("version"), Some(&Value::Str("2.1.0".into())));
        let runs = v.get_field("runs").unwrap().as_seq().unwrap();
        let results = runs[0].get_field("results").unwrap().as_seq().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get_field("level"), Some(&Value::Str("error".into())));
        assert_eq!(results[1].get_field("level"), Some(&Value::Str("note".into())));
        let loc = results[0].get_field("locations").unwrap().as_seq().unwrap()[0]
            .get_field("physicalLocation")
            .unwrap();
        assert_eq!(
            loc.get_field("artifactLocation").unwrap().get_field("uri"),
            Some(&Value::Str("a.rs".into()))
        );
        assert_eq!(
            loc.get_field("region").unwrap().get_field("startLine"),
            Some(&Value::Int(3))
        );
        // The float-eq finding carries one related location; the waived
        // unit-mix one carries none (field omitted entirely).
        let rel = results[0].get_field("relatedLocations").unwrap().as_seq().unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(
            rel[0]
                .get_field("physicalLocation")
                .unwrap()
                .get_field("artifactLocation")
                .unwrap()
                .get_field("uri"),
            Some(&Value::Str("c.rs".into()))
        );
        assert_eq!(
            rel[0].get_field("message").unwrap().get_field("text"),
            Some(&Value::Str("called from here".into()))
        );
        assert!(results[1].get_field("relatedLocations").is_none());
    }
}
