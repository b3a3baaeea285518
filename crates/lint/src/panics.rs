//! Panic-reachability: a panic on a worker or accept thread kills the
//! thread (or poisons the pool) instead of failing one request, so
//! every `unwrap`/`expect`/slice-index reachable from a spawn root must
//! sit under `catch_unwind` or carry a justified
//! `lint:allow(panic-reachability)`.
//!
//! Roots are the argument regions of `thread::spawn(...)` /
//! `Builder::spawn(...)` and `ServicePool::{new,with_worker_ids}(...)`
//! calls in the serving crates (`live`, `serve`, `exec`). From each
//! root, reachability follows call edges by name *within the same
//! crate*: qualified calls (`Type::fn`) resolve exactly, bare and
//! method calls resolve to any same-crate function of that name — an
//! over-approximation that can add edges but never hide one.
//! Cross-crate calls are not followed; each crate's own spawn sites
//! root its own analysis.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::FileIndex;
use crate::report::Diagnostic;

/// Crates whose spawn sites root the traversal.
const ROOT_CRATES: [&str; 3] = ["live", "serve", "exec"];

/// Runs the analysis over the indexed workspace.
pub fn check(files: &[FileIndex]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for krate in ROOT_CRATES {
        // Name-resolution maps for this crate: (file idx, region idx).
        let mut bare: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        let mut qual: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        let mut roots: Vec<(usize, usize)> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            if f.crate_name != krate {
                continue;
            }
            for (ri, r) in f.regions.iter().enumerate() {
                if r.in_test {
                    continue;
                }
                if r.is_root {
                    roots.push((fi, ri));
                } else {
                    bare.entry(r.name.as_str()).or_default().push((fi, ri));
                    if let Some(q) = &r.qual_name {
                        qual.entry(q.as_str()).or_default().push((fi, ri));
                    }
                }
            }
        }

        // BFS from every root; remember which root first reached each
        // region so findings can name their thread.
        let mut reached: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
        let mut queue: VecDeque<((usize, usize), (usize, usize))> = VecDeque::new();
        for &root in &roots {
            queue.push_back((root, root));
        }
        while let Some((at, via_root)) = queue.pop_front() {
            if reached.contains_key(&at) {
                continue;
            }
            reached.insert(at, via_root);
            let region = &files[at.0].regions[at.1];
            for call in &region.calls {
                // Qualified calls resolve exactly; bare names resolve
                // to every same-crate fn of that name.
                let targets = if call.contains(':') {
                    qual.get(call.as_str())
                } else {
                    bare.get(call.as_str())
                };
                for &next in targets.into_iter().flatten() {
                    if !reached.contains_key(&next) {
                        queue.push_back((next, via_root));
                    }
                }
            }
        }

        let mut seen: BTreeSet<(String, u32, u32)> = BTreeSet::new();
        for (&(fi, ri), &(root_fi, root_ri)) in &reached {
            let f = &files[fi];
            let region = &f.regions[ri];
            let root = &files[root_fi].regions[root_ri];
            let root_path = &files[root_fi].rel;
            for p in &region.panics {
                if p.masked {
                    continue;
                }
                if !seen.insert((f.rel.clone(), p.line, p.col)) {
                    continue;
                }
                let where_ = if region.is_root {
                    "directly on the thread".to_string()
                } else {
                    format!(
                        "via `{}`",
                        region.qual_name.as_deref().unwrap_or(&region.name)
                    )
                };
                diags.push(Diagnostic {
                    rule: "panic-reachability",
                    path: f.rel.clone(),
                    line: p.line,
                    col: p.col,
                    message: format!(
                        "{} reachable {where_} from {} ({root_path}) without catch_unwind \
                         — a panic here kills the thread, not the request; return a typed \
                         error or justify with lint:allow(panic-reachability)",
                        p.what, root.name
                    ),
                });
            }
        }
    }
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;

    #[test]
    fn panic_in_spawned_closure_is_reported() {
        let f = index_file(
            "crates/serve/src/a.rs",
            r#"
fn start() {
    std::thread::spawn(move || {
        let v: Option<u32> = None;
        let _ = v.unwrap();
    });
}
"#,
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("directly on the thread"),
            "{diags:?}"
        );
    }

    #[test]
    fn panic_reached_through_a_call_chain_is_reported() {
        let f = index_file(
            "crates/live/src/a.rs",
            r#"
fn inner(x: Option<u32>) -> u32 { x.expect("set") }
fn outer(x: Option<u32>) -> u32 { inner(x) }
fn start() {
    std::thread::spawn(move || {
        outer(None);
    });
}
"#,
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("via `inner`"), "{diags:?}");
    }

    #[test]
    fn catch_unwind_masks_the_panic() {
        let f = index_file(
            "crates/exec/src/a.rs",
            r#"
fn start() {
    std::thread::spawn(move || {
        let r = std::panic::catch_unwind(|| {
            let v: Option<u32> = None;
            v.unwrap()
        });
        let _ = r;
    });
}
"#,
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn unreachable_panics_and_other_crates_are_quiet() {
        let f = index_file(
            "crates/serve/src/a.rs",
            "fn never_spawned(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let g = index_file(
            "crates/linreg/src/a.rs",
            "fn start() {\n    std::thread::spawn(move || { None::<u32>.unwrap(); });\n}\n",
        );
        assert!(check(&[f, g]).is_empty());
    }

    #[test]
    fn worker_pool_handlers_are_roots() {
        let f = index_file(
            "crates/serve/src/a.rs",
            r#"
fn start() {
    let pool = ServicePool::with_worker_ids("serve", 4, 64, move |_w, item| {
        handle(item);
    });
}
fn handle(item: Option<u32>) { item.expect("item"); }
"#,
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("worker-pool"), "{diags:?}");
    }
}
