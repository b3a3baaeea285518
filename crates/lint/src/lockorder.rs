//! Lock-order analysis: the acquired-while-held graph must be acyclic,
//! and nothing may block on I/O or a channel while holding a guard.
//!
//! Scope: the non-test code of every crate. A mutex's identity is
//! `<crate>:<receiver field>` — instances sharing a field name collapse
//! into one node, which over-approximates (two types' `state` mutexes
//! become one node) but can only *add* edges, never hide one. Edges come from lexical nesting inside a guard's held
//! region, plus one level of call expansion: if `f` locks `a` and calls
//! `g`, and `g` locks `b`, then `a → b`. Cycles and re-entrant
//! acquisitions are reported; so is any blocking call from the I/O list
//! of [`crate::items`] made while held.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::FileIndex;
use crate::report::Diagnostic;

/// One directed edge `outer → inner` with its first witness site.
#[derive(Debug, Clone)]
struct Edge {
    inner: String,
    path: String,
    line: u32,
    col: u32,
}

/// Runs the analysis over the indexed workspace.
pub fn check(files: &[FileIndex]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Per-crate map: fn name (bare and qualified) → mutexes it locks
    // directly, for one-level call expansion.
    let mut fn_locks: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    for f in files {
        for r in f.regions.iter().filter(|r| !r.is_root && !r.in_test) {
            if r.locks.is_empty() {
                continue;
            }
            let keys = std::iter::once(r.name.clone()).chain(r.qual_name.clone());
            for key in keys {
                fn_locks
                    .entry((f.crate_name.clone(), key))
                    .or_default()
                    .extend(r.locks.iter().cloned());
            }
        }
    }

    // Build the edge set. BTreeMap keeps edge iteration deterministic.
    let mut edges: BTreeMap<String, Vec<Edge>> = BTreeMap::new();
    let mut add_edge = |outer: &str, inner: &str, path: &str, line: u32, col: u32| {
        let list = edges.entry(outer.to_string()).or_default();
        if !list.iter().any(|e| e.inner == inner) {
            list.push(Edge {
                inner: inner.to_string(),
                path: path.to_string(),
                line,
                col,
            });
        }
    };

    for f in files {
        for acq in f.locks.iter().filter(|a| !a.in_test) {
            let outer = format!("{}:{}", f.crate_name, acq.mutex);

            // Direct lexical nesting. A same-name inner acquisition is
            // a re-entrant lock: `std::sync::Mutex` is not recursive,
            // so this deadlocks on the spot.
            for (inner_mutex, line, col) in &acq.inner {
                let inner = format!("{}:{}", f.crate_name, inner_mutex);
                if inner == outer {
                    diags.push(Diagnostic {
                        rule: "lock-order",
                        path: f.rel.clone(),
                        line: *line,
                        col: *col,
                        message: format!(
                            "`{inner_mutex}` locked at line {line} while the guard from \
                             line {} is still held — a re-entrant `Mutex::lock` deadlocks",
                            acq.line
                        ),
                    });
                } else {
                    add_edge(&outer, &inner, &f.rel, *line, *col);
                }
            }

            // One-level call expansion: callee's direct locks become
            // edges from the held mutex. Same-name self edges from
            // expansion are skipped — bare-name resolution is too
            // coarse to call them deadlocks.
            for callee in &acq.calls {
                let bare = callee.rsplit(':').next().unwrap_or(callee);
                for key in [callee.as_str(), bare] {
                    if let Some(locks) = fn_locks.get(&(f.crate_name.clone(), key.to_string())) {
                        for m in locks {
                            let inner = format!("{}:{}", f.crate_name, m);
                            if inner != outer {
                                add_edge(&outer, &inner, &f.rel, acq.line, acq.col);
                            }
                        }
                    }
                    if key == bare {
                        break;
                    }
                }
            }

            // Blocking I/O or channel ops while held.
            for (io, line, col) in &acq.io {
                diags.push(Diagnostic {
                    rule: "lock-order",
                    path: f.rel.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "`.{io}(...)` called while holding `{outer}` (locked at line {}) — \
                         blocking I/O under a lock stalls every contender; copy the data \
                         out, drop the guard, then do the I/O",
                        acq.line
                    ),
                });
            }
        }
    }

    // Cycle detection: iterative DFS with a coloring, visiting nodes in
    // sorted order so the reported cycle set is deterministic.
    let nodes: BTreeSet<String> = edges
        .iter()
        .flat_map(|(k, v)| std::iter::once(k.clone()).chain(v.iter().map(|e| e.inner.clone())))
        .collect();
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color: BTreeMap<&str, u8> = nodes.iter().map(|n| (n.as_str(), 0u8)).collect();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    const NO_EDGES: &[Edge] = &[];
    for start in &nodes {
        if color.get(start.as_str()).copied() != Some(0) {
            continue;
        }
        // Stack of (node, next edge index); `path` mirrors the stack.
        let mut stack: Vec<(&str, usize)> = vec![(start.as_str(), 0)];
        let mut path: Vec<&str> = vec![start.as_str()];
        if let Some(c) = color.get_mut(start.as_str()) {
            *c = 1;
        }
        while let Some(&(node, next)) = stack.last() {
            let node_edges = edges.get(node).map(Vec::as_slice).unwrap_or(NO_EDGES);
            let Some(edge) = node_edges.get(next) else {
                if let Some(c) = color.get_mut(node) {
                    *c = 2;
                }
                stack.pop();
                path.pop();
                continue;
            };
            if let Some(top) = stack.last_mut() {
                top.1 += 1;
            }
            match color.get(edge.inner.as_str()).copied().unwrap_or(2) {
                0 => {
                    if let Some(c) = color.get_mut(edge.inner.as_str()) {
                        *c = 1;
                    }
                    stack.push((edge.inner.as_str(), 0));
                    path.push(edge.inner.as_str());
                }
                1 => {
                    // Back edge: the cycle is the path suffix from the
                    // first occurrence of the target, rotated to its
                    // smallest node for deduplication.
                    let from = path.iter().position(|n| *n == edge.inner).unwrap_or(0);
                    let mut cycle: Vec<&str> = path[from..].to_vec();
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, n)| **n)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    let head = cycle.first().copied().unwrap_or("");
                    let key = cycle.join(" -> ");
                    if reported.insert(key.clone()) {
                        diags.push(Diagnostic {
                            rule: "lock-order",
                            path: edge.path.clone(),
                            line: edge.line,
                            col: edge.col,
                            message: format!(
                                "lock cycle: {key} -> {head} — two threads taking these \
                                 in opposite order deadlock; impose one acquisition order"
                            ),
                        });
                    }
                }
                _ => {}
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
    fn opposite_order_acquisitions_report_one_cycle() {
        let a = index_file(
            "crates/serve/src/a.rs",
            r#"
fn f(s: &S) {
    let g = s.first.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = s.second.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = (g, h);
}
fn g(s: &S) {
    let h = s.second.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let g = s.first.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = (g, h);
}
"#,
        );
        let diags = check(&[a]);
        let cycles: Vec<_> = diags
            .iter()
            .filter(|d| d.message.contains("lock cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "{diags:?}");
        assert!(cycles[0].message.contains("serve:first"), "{cycles:?}");
        assert!(cycles[0].message.contains("serve:second"), "{cycles:?}");
    }

    #[test]
    fn nested_order_without_reversal_is_clean() {
        let a = index_file(
            "crates/serve/src/a.rs",
            r#"
fn f(s: &S) {
    let g = s.first.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = s.second.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = (g, h);
}
"#,
        );
        assert!(check(&[a]).is_empty());
    }

    #[test]
    fn io_under_lock_is_reported() {
        let a = index_file(
            "crates/live/src/a.rs",
            r#"
fn f(s: &S, out: &mut W) {
    let g = s.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    out.write_all(b"x").ok();
    let _ = g;
}
"#,
        );
        let diags = check(&[a]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("write_all"), "{diags:?}");
        assert!(diags[0].message.contains("live:state"), "{diags:?}");
    }

    #[test]
    fn call_expansion_adds_edges_across_functions() {
        let a = index_file(
            "crates/telemetry/src/a.rs",
            r#"
fn outer(s: &S) {
    let g = s.first.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    helper(s);
    let _ = g;
}
fn helper(s: &S) {
    s.second.lock().unwrap_or_else(std::sync::PoisonError::into_inner).touch();
}
fn reversed(s: &S) {
    let g = s.second.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = s.first.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = (g, h);
}
"#,
        );
        let diags = check(&[a]);
        assert!(
            diags.iter().any(|d| d.message.contains("lock cycle")),
            "{diags:?}"
        );
    }

    #[test]
    fn reentrant_lock_is_a_finding() {
        let a = index_file(
            "crates/exec/src/a.rs",
            r#"
fn f(s: &S) {
    let g = s.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = s.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = (g, h);
}
"#,
        );
        let diags = check(&[a]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("re-entrant"), "{diags:?}");
    }

    #[test]
    fn flush_under_a_guard_is_a_finding_in_every_crate() {
        let a = index_file(
            "crates/core/src/a.rs",
            r#"
fn f(s: &S) {
    let mut g = s.journal.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    g.record(1);
    let _ = g.flush();
}
"#,
        );
        let diags = check(&[a]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("flush"), "{diags:?}");
        assert!(diags[0].message.contains("core:journal"), "{diags:?}");
    }

    #[test]
    fn test_code_is_ignored() {
        let b = index_file(
            "crates/serve/src/b.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(s: &S, out: &mut W) {\n        let g = s.state.lock().unwrap();\n        out.write_all(b\"x\").ok();\n        let _ = g;\n    }\n}\n",
        );
        assert!(check(&[b]).is_empty());
    }
}
