//! Atomic-ordering audit: every `Ordering::` use must match a declared
//! per-atomic policy.
//!
//! The workspace default is `Relaxed` — nearly every atomic here is a
//! statistics counter where only the eventual total matters. An atomic
//! that needs anything stronger (a stop flag published with
//! `Release`/`Acquire`, a queue-depth gauge on `SeqCst`) must say so in
//! the file that owns it:
//!
//! ```text
//! // atomic-policy(<name>): <orderings> — <why the default is not enough>
//! ```
//!
//! e.g. a stop flag would declare Release/Acquire (on one line with the
//! marker) because the shutdown hand-off must happen-before the accept
//! loop's next check. (This doc deliberately keeps marker and ordering
//! names apart — a literal example would register as a stale policy for
//! this very file.)
//!
//! Any ordering used outside the declared (or default) policy is a
//! finding, as is a policy comment naming an atomic with no operations
//! left in the file — stale declarations rot into misdocumentation.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::FileIndex;
use crate::report::Diagnostic;

/// Runs the audit over the indexed workspace.
pub fn check(files: &[FileIndex]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in files.iter().filter(|f| f.crate_name != "tests") {
        // Group operation sites by atomic identity within the file.
        let mut by_atomic: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, site) in f.atomics.iter().enumerate() {
            if !site.in_test {
                by_atomic.entry(site.atomic.as_str()).or_default().push(i);
            }
        }
        for (name, sites) in &by_atomic {
            let declared = f.policies.get(*name).map(|(set, _)| set);
            let used: BTreeSet<&str> = sites
                .iter()
                .flat_map(|&i| f.atomics[i].orderings.iter().map(String::as_str))
                .collect();
            match declared {
                Some(policy) => {
                    for &i in sites {
                        let site = &f.atomics[i];
                        for o in &site.orderings {
                            if !policy.contains(o) {
                                let allowed = policy.iter().cloned().collect::<Vec<_>>().join(", ");
                                diags.push(Diagnostic {
                                    rule: "atomic-ordering",
                                    path: f.rel.clone(),
                                    line: site.line,
                                    col: site.col,
                                    message: format!(
                                        "atomic `{name}` uses Ordering::{o} in `{}` but its \
                                         declared policy is [{allowed}] — update the \
                                         atomic-policy({name}) comment or the call site",
                                        site.op
                                    ),
                                });
                            }
                        }
                    }
                }
                None => {
                    // Default policy: Relaxed-only counters need no
                    // declaration; anything stronger does.
                    for &i in sites {
                        let site = &f.atomics[i];
                        for o in &site.orderings {
                            if o != "Relaxed" {
                                let all = used.iter().copied().collect::<Vec<_>>().join(", ");
                                diags.push(Diagnostic {
                                    rule: "atomic-ordering",
                                    path: f.rel.clone(),
                                    line: site.line,
                                    col: site.col,
                                    message: format!(
                                        "atomic `{name}` uses Ordering::{o} in `{}` with no \
                                         declared policy (workspace default is Relaxed for \
                                         counters) — add `// atomic-policy({name}): {all} — \
                                         <why>` next to the atomic",
                                        site.op
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        // Stale policies: a declaration with no surviving operations.
        for (name, (_, line)) in &f.policies {
            if !by_atomic.contains_key(name.as_str()) {
                diags.push(Diagnostic {
                    rule: "atomic-ordering",
                    path: f.rel.clone(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "atomic-policy({name}) declared but no atomic operation on \
                         `{name}` exists in this file — delete or move the stale policy"
                    ),
                });
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;

    #[test]
    fn all_relaxed_counters_need_no_policy() {
        let f = index_file(
            "crates/telemetry/src/a.rs",
            "fn f(s: &S) {\n    s.hits.fetch_add(1, Ordering::Relaxed);\n    s.hits.load(Ordering::Relaxed);\n}\n",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn undeclared_non_relaxed_ordering_is_reported() {
        let f = index_file(
            "crates/exec/src/a.rs",
            "fn f(s: &S) {\n    s.depth.fetch_add(1, Ordering::SeqCst);\n}\n",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("SeqCst"), "{diags:?}");
        assert!(
            diags[0].message.contains("atomic-policy(depth)"),
            "{diags:?}"
        );
    }

    #[test]
    fn declared_policy_silences_matching_orderings() {
        let f = index_file(
            "crates/live/src/a.rs",
            "// atomic-policy(stop): Release, Acquire — shutdown hand-off\nfn f(s: &S) {\n    s.stop.store(true, Ordering::Release);\n    s.stop.load(Ordering::Acquire);\n}\n",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn ordering_outside_declared_policy_is_reported() {
        let f = index_file(
            "crates/live/src/a.rs",
            "// atomic-policy(stop): Release — publish only\nfn f(s: &S) {\n    s.stop.load(Ordering::SeqCst);\n}\n",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("declared policy"), "{diags:?}");
    }

    #[test]
    fn stale_policy_is_reported_at_its_declaration() {
        let f = index_file(
            "crates/serve/src/a.rs",
            "// atomic-policy(gone): SeqCst — no longer exists\nfn f() {}\n",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("stale"), "{diags:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = index_file(
            "crates/serve/src/a.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(s: &S) {\n        s.x.store(1, Ordering::SeqCst);\n    }\n}\n",
        );
        assert!(check(&[f]).is_empty());
    }
}
