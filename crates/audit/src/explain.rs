//! `coca-audit explain <rule-id>` — the contract, the annotation syntax,
//! and a minimal example for every rule the pass can emit.
//!
//! The lint messages say *what* fired; this module says *why the rule
//! exists* and exactly how to satisfy or waive it, so a finding never
//! sends anyone digging through the analysis source. Every id in
//! [`crate::ALL_RULES`] has an entry (a test pins this), and the text for
//! unknown ids is `None` so the CLI can exit non-zero.

/// One rule's explanation: the invariant it defends, how findings are
/// waived, and a minimal triggering example.
struct Entry {
    rule: &'static str,
    contract: &'static str,
    waiver: &'static str,
    example: &'static str,
}

const ENTRIES: &[Entry] = &[
    Entry {
        rule: "float-eq",
        contract: "Continuous quantities never compare with raw `==`/`!=`; use a \
                   tolerance. Exact sentinel comparisons (0.0/1.0 flags, \
                   `fract() == 0.0`) are the waivable exceptions.",
        waiver: "// audit:allow(float-eq) with a note saying why exact equality is \
                 correct at this site.",
        example: "if cost == target { … } // fires: compare |cost - target| < tol",
    },
    Entry {
        rule: "nan-guard",
        contract: "`ln`, `sqrt`, and identifier division in hot paths need a nearby \
                   guard on the operand — NaN produced deep in a solve poisons \
                   every downstream aggregate silently.",
        waiver: "// audit:allow(nan-guard) when the operand is provably in-domain.",
        example: "let y = x.ln(); // fires unless a `x > 0.0` guard is nearby",
    },
    Entry {
        rule: "must-use",
        contract: "Solver result types carry `#[must_use]` so a dropped result (a \
                   forgotten `?`, an ignored decision) is a compile-time warning.",
        waiver: "// audit:allow(must-use) on the type's line or the line above, \
                 for a type deliberately left unannotated; prefer adding the \
                 attribute.",
        example: "pub struct SolveOutcome { … } // fires: add #[must_use]",
    },
    Entry {
        rule: "slot-loop",
        contract: "No hand-rolled `for t in 0..num_slots` loops outside the \
                   streaming engine: slots flow through `SimEngine`/`SlotSource` so \
                   lockstep, resume, and service modes stay equivalent.",
        waiver: "// audit:allow(slot-loop) for planners that legitimately scan a \
                 horizon (e.g. offline optimal).",
        example: "for t in 0..num_slots { step(t); } // fires",
    },
    Entry {
        rule: "atomic-ordering",
        contract: "Every atomic operation states its ordering contract in an \
                   `// audit:atomic(<contract>)` annotation; CAS failure ordering \
                   must not exceed success ordering; CAS results are not dropped.",
        waiver: "The annotation *is* the resolution — there is no separate waiver. \
                 `// audit:atomic(SeqCst; why this ordering is sufficient)`.",
        example: "count.fetch_add(1, Ordering::SeqCst); // fires until annotated",
    },
    Entry {
        rule: "unit-flow",
        contract: "Terms tagged kWh / kW / USD (identifier suffixes, \
                   `// audit:unit(<tag>)` annotations) must not meet across `+`, \
                   `-`, compound assignment, or comparisons. Tags propagate through \
                   parameters and returns, so a mis-unitted operand or argument is \
                   caught any number of calls from the annotation that tagged it. \
                   An `audit:unit` tag other than kwh, kw, usd or dimensionless \
                   fires too.",
        waiver: "// audit:allow(unit-flow) at the flagged operator or call site for \
                 deliberate conversions; prefer naming the conversion factor so the \
                 units genuinely match, or declaring the parameter's tag.",
        example: "let total = energy_kwh + power_kw; // fires\nfn price(e_kwh: f64) {}\nprice(power_kw); // fires at this call",
    },
    Entry {
        rule: "hot-path-reach",
        contract: "No allocation (`Vec::new`, `format!`, `to_string`, `clone`, …), \
                   lock acquisition (`.lock()`, `.read()`, `.write()`) or IO \
                   (`File::open`, `fs::…`, `flush`) on an `audit:hot-path` line or \
                   reachable from a call on one: per-slot allocation dominates \
                   small-scale runs, and a lock or IO call stalls the decision loop. \
                   A direct sink is flagged where it is written (0 calls deep); a \
                   reached one at the hot-line call, with the call chain attached as \
                   related locations.",
        waiver: "// audit:allow(hot-path-reach) at the flagged line, for a sink proven \
                 out of the per-slot loop (setup, error paths).",
        example: "// audit:hot-path: begin\nfn decide(&self) {\n    let names = Vec::new(); // fires here\n    helper(); // fires here: helper formats\n}\n// audit:hot-path: end\nfn helper() { let s = format!(\"…\"); }",
    },
    Entry {
        rule: "snapshot-complete",
        contract: "Every type with a snapshot/restore pair (`snapshot`, \
                   `snapshot_state`, `checkpoint` / `restore`, `restore_state`) \
                   must account for each declared field: a field neither side \
                   mentions is silently lost across crash-resume, and a field the \
                   snapshot captures but the restore never writes leaves a restored \
                   instance with stale state (flagged at the restore definition).",
        waiver: "// audit:transient(<reason>) on the field (or the line above) for \
                 state that is genuinely not checkpoint-carried — construction \
                 config, caches, diagnostics, injected callbacks. The reason must \
                 be non-empty. `// audit:allow(snapshot-complete)` also works for \
                 the restore-side asymmetry finding.",
        example: "struct C { gain: f64, scratch: Vec<f64> }\nimpl C {\n    fn snapshot(&self) -> V { v(self.gain) }\n    fn restore(&mut self, s: &V) { self.gain = g(s); }\n}\n// fires on `scratch`: neither side mentions it",
    },
    Entry {
        rule: "nondet-reach",
        contract: "Walks the call graph from state-affecting roots (engine \
                   step/run paths, snapshot serializers, wire encoders, run-ID \
                   hashing, batch orchestration, trace ingestion) and flags \
                   reachable nondeterminism: iteration over std HashMap/HashSet \
                   without a restoring sort, `Instant::now`/`SystemTime::now`, and \
                   channel receives. Collecting into a `BTreeMap`/`BTreeSet`, \
                   sorting in the same statement, or sorting the collected binding \
                   later in the block suppresses the finding; `Fx`-hashed maps are \
                   exempt.",
        waiver: "// audit:ordered(<contract>) on the sink line (or the line above) \
                 stating why order cannot reach replayed or serialized state — the \
                 contract must be non-empty. `// audit:allow(nondet-reach)` also \
                 works.",
        example: "fn to_json(&self) -> String {\n    for (k, v) in &self.index { … } // fires: hash order reaches output\n}\n// fix: let mut kv: Vec<_> = self.index.iter().collect(); kv.sort();",
    },
    Entry {
        rule: "stale-waiver",
        contract: "Waivers and annotations are load-bearing documentation: an \
                   `audit:allow` that suppresses nothing, an `audit:atomic` beside \
                   no atomic, an `audit:transient`/`audit:ordered` with no \
                   finding of its rule on its line or the line below, or an \
                   `audit:allow` naming an unknown rule id — all are lies waiting \
                   to mislead and must be deleted.",
        waiver: "// audit:allow(stale-waiver) on a waiver kept deliberately (e.g. \
                 platform-dependent findings).",
        example: "// audit:allow(float-eq) leftover after the comparison was removed\nlet v = compute(); // fires on the waiver line above",
    },
];

/// The explanation text for one rule id, or `None` for an unknown id.
#[must_use]
pub fn explain(rule: &str) -> Option<String> {
    ENTRIES.iter().find(|e| e.rule == rule).map(|e| {
        format!(
            "{}\n\ncontract:\n  {}\n\nwaiver / annotation:\n  {}\n\nexample:\n{}\n",
            e.rule,
            e.contract,
            e.waiver,
            e.example
                .lines()
                .map(|l| format!("  {l}"))
                .collect::<Vec<_>>()
                .join("\n"),
        )
    })
}

/// All rule ids with a one-line teaser, for bare `coca-audit explain`.
#[must_use]
pub fn listing() -> String {
    let mut out = String::from("rules (run `coca-audit explain <rule-id>` for details):\n");
    for e in ENTRIES {
        let first = e.contract.split(". ").next().unwrap_or(e.contract);
        out.push_str(&format!("  {:18} {}\n", e.rule, first.trim_end_matches('.')));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_id_has_a_nonempty_explanation() {
        for rule in crate::ALL_RULES {
            let text = explain(rule)
                .unwrap_or_else(|| panic!("rule `{rule}` has no explain entry"));
            assert!(!text.trim().is_empty(), "empty explanation for `{rule}`");
            assert!(text.contains("contract:"), "`{rule}` lacks a contract section");
            assert!(text.contains("example:"), "`{rule}` lacks an example section");
        }
    }

    #[test]
    fn explain_entries_and_all_rules_agree_exactly() {
        // No orphan entries either: explain must not describe rules the
        // pass cannot emit.
        assert_eq!(ENTRIES.len(), crate::ALL_RULES.len());
        for e in ENTRIES {
            assert!(crate::ALL_RULES.contains(&e.rule), "orphan explain entry `{}`", e.rule);
        }
    }

    #[test]
    fn must_use_names_its_in_place_waiver() {
        // fixtures/must_use.rs line 26 is reported waived by the rule.
        let text = explain("must-use").expect("entry");
        assert!(text.contains("// audit:allow(must-use)"), "{text}");
    }

    #[test]
    fn unknown_rule_is_none() {
        assert!(explain("not-a-rule").is_none());
        assert!(explain("").is_none());
        // Folded into `hot-path-reach` and `unit-flow`.
        assert!(explain("hot-alloc").is_none());
        assert!(explain("unit-mix").is_none());
    }

    #[test]
    fn listing_names_every_rule() {
        let l = listing();
        for rule in crate::ALL_RULES {
            assert!(l.contains(rule), "listing misses `{rule}`");
        }
    }
}
