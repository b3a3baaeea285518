//! The item-level index: one pass over a file's token stream that
//! extracts everything the five semantic rules need.
//!
//! This is deliberately *not* an AST. The analyses ask questions a
//! token stream can answer with brace/paren bookkeeping — "which
//! mutexes are acquired while this guard is held", "which `Ordering::`
//! values does this atomic use", "which functions does this spawn
//! closure call" — so the parser extracts flat, owned site lists
//! ([`FileIndex`]) and the rule modules never touch tokens again.
//! Borrowed-token lifetimes stay inside [`index_tokens`]; everything it
//! returns is owned, which keeps the workspace-wide analyses (cycle
//! detection, call-graph reachability, format registry) simple.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::rules::inline_allows;

/// A panic-capable site inside a function body or root region.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What the site is: `unwrap`, `expect`, `panic!`, `slice-index`.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// True when the site sits lexically inside a `catch_unwind(...)`
    /// argument — a contained panic costs one request, not a thread.
    pub masked: bool,
}

/// A function body or a thread/worker root region (the argument region
/// of a `spawn(...)` call), reduced to what
/// reachability needs.
#[derive(Debug, Clone)]
pub struct Region {
    /// Function name (`offer`, qualified `TraceRing::offer`) or a
    /// synthesized root label (`spawn@142`).
    pub name: String,
    /// Qualified `Type::name` when the fn sits in an impl block.
    pub qual_name: Option<String>,
    /// True for spawn argument regions — the reachability roots.
    pub is_root: bool,
    /// True inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Callee names invoked from this region, excluding calls inside
    /// `catch_unwind(...)` arguments. Path calls are recorded as
    /// `Type::name`, bare and method calls as `name`.
    pub calls: Vec<String>,
    /// Panic-capable sites in this region.
    pub panics: Vec<PanicSite>,
    /// Mutex names `.lock()`ed directly in this region (for one-level
    /// call expansion of the lock-order graph).
    pub locks: Vec<String>,
}

/// One `.lock()` acquisition and everything that happens while the
/// guard is held.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// The mutex identity: the receiver identifier before `.lock()`.
    pub mutex: String,
    /// 1-based source line of the acquisition.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// True inside test code.
    pub in_test: bool,
    /// Mutexes acquired while this guard is held: `(name, line, col)`.
    pub inner: Vec<(String, u32, u32)>,
    /// Function calls made while held (for one-level expansion).
    pub calls: Vec<String>,
    /// Blocking I/O or channel operations while held: `(name, line, col)`.
    pub io: Vec<(String, u32, u32)>,
}

/// One atomic memory operation with the `Ordering::` values it names.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// The atomic identity: the receiver identifier before the op.
    pub atomic: String,
    /// The operation (`load`, `fetch_add`, `compare_exchange`, ...).
    pub op: String,
    /// Every `Ordering::X` named in the call's arguments.
    pub orderings: Vec<String>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// True inside test code.
    pub in_test: bool,
}

/// A string-literal site mentioning one or more `ppm-* vN` wire-format
/// version strings.
#[derive(Debug, Clone)]
pub struct StrSite {
    /// The version strings found inside the literal.
    pub formats: Vec<String>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// True inside test code (or anywhere under `tests/`).
    pub in_test: bool,
    /// True when neighboring tokens look like a parse/validation
    /// context (`==`, `!=`, `=>`, `strip_prefix`, `starts_with`, ...).
    pub parse_ctx: bool,
}

/// A SCREAMING_CASE identifier occurrence, used to track wire-format
/// constants (`TRACEZ_SCHEMA`) across files, including `{NAME}`
/// interpolations inside format strings.
#[derive(Debug, Clone)]
pub struct CapsSite {
    /// The identifier text.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// True inside test code.
    pub in_test: bool,
    /// True in a parse/validation context (see [`StrSite::parse_ctx`]).
    pub parse_ctx: bool,
}

/// Everything the analyses need from one source file, fully owned.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Short crate name (`serve`, `telemetry`), `cli` for `src/`,
    /// `tests` for integration tests.
    pub crate_name: String,
    /// Source lines, for allowlist substring matching.
    pub lines: Vec<String>,
    /// Inline `lint:allow(<rule>)` markers: `(rule, line)` pairs.
    pub allows: BTreeSet<(String, u32)>,
    /// Function bodies and spawn-root regions.
    pub regions: Vec<Region>,
    /// Lock acquisitions with their held-region contents.
    pub locks: Vec<LockAcq>,
    /// Atomic operations with orderings.
    pub atomics: Vec<AtomicSite>,
    /// Declared per-atomic ordering policies from
    /// `atomic-policy(<name>): <Orderings>` comments:
    /// name → (allowed orderings, declaration line).
    pub policies: BTreeMap<String, (BTreeSet<String>, u32)>,
    /// Wire-format string sites.
    pub strings: Vec<StrSite>,
    /// `const NAME: &str = "ppm-x vN"` bindings: name → format.
    pub consts: BTreeMap<String, String>,
    /// SCREAMING_CASE identifier occurrences (wire-format const uses).
    pub caps: Vec<CapsSite>,
}

/// Maps a workspace-relative path to its short crate name.
fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else if rel.starts_with("tests/") {
        "tests".to_string()
    } else {
        "cli".to_string()
    }
}

const ATOMIC_OPS: [&str; 15] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

const MEMORY_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Blocking I/O and channel operations that must not run under a lock.
/// `try_send` is deliberately absent: it never blocks.
const IO_CALLS: [&str; 14] = [
    "write",
    "write_all",
    "write_fmt",
    "flush",
    "read",
    "read_line",
    "read_exact",
    "read_to_string",
    "read_to_end",
    "send",
    "recv",
    "recv_timeout",
    "accept",
    "connect",
];

/// Identifiers never treated as call edges: control keywords, bindings,
/// and enum constructors whose "call" cannot panic by itself.
const NOT_CALLEES: [&str; 24] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "fn", "let",
    "in", "as", "move", "where", "impl", "use", "mod", "pub", "Some", "None", "Ok", "Err", "self",
];

/// True for `UPPER_SNAKE` identifiers of the kind wire-format schema
/// constants use.
fn is_caps_ident(s: &str) -> bool {
    s.len() > 3
        && s.bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// Extracts every `ppm-<name> v<digits>` substring from a literal's
/// raw text (quotes and escapes included — the pattern cannot span an
/// escape). A name is lowercase words joined by single hyphens
/// (`ppm-loadtest-ab v1`).
pub fn formats_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(at) = text[i..].find("ppm-") {
        let start = i + at;
        let mut j = start + 4;
        while j < bytes.len()
            && (bytes[j].is_ascii_lowercase()
                || (bytes[j] == b'-'
                    && bytes[j - 1].is_ascii_lowercase()
                    && bytes.get(j + 1).is_some_and(u8::is_ascii_lowercase)))
        {
            j += 1;
        }
        // Require `<name> v<digits>`: a space, a 'v', then digits.
        if j > start + 4 && bytes.get(j) == Some(&b' ') && bytes.get(j + 1) == Some(&b'v') {
            let mut k = j + 2;
            while k < bytes.len() && bytes[k].is_ascii_digit() {
                k += 1;
            }
            if k > j + 2 {
                out.push(text[start..k].to_string());
                i = k;
                continue;
            }
        }
        i = start + 4;
    }
    out
}

/// Lexes and indexes one source (for the rule modules' unit tests).
#[cfg(test)]
pub(crate) fn index_file(rel: &str, source: &str) -> FileIndex {
    let tokens = crate::lexer::lex(source);
    index_tokens(rel, source, &tokens, &crate::lexer::test_regions(&tokens))
}

/// The single indexing pass over `source`'s already-lexed `tokens`
/// (`test_regions` is [`crate::lexer::test_regions`] of them): extracts
/// every site list in [`FileIndex`]. `rel` must be workspace-relative
/// with `/` separators.
pub fn index_tokens(
    rel: &str,
    source: &str,
    tokens: &[Token<'_>],
    test_regions: &[bool],
) -> FileIndex {
    let whole_file_is_test = rel.starts_with("tests/");

    // Code view: indices of non-comment tokens.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let tok = |ci: usize| -> Option<&Token<'_>> { code.get(ci).map(|&i| &tokens[i]) };
    let in_test = |ci: usize| -> bool {
        whole_file_is_test || code.get(ci).is_some_and(|&i| test_regions[i])
    };
    let is_punct = |ci: usize, c: char| tok(ci).is_some_and(|t| t.kind == TokenKind::Punct(c));
    let is_ident =
        |ci: usize, s: &str| tok(ci).is_some_and(|t| t.kind == TokenKind::Ident && t.text == s);

    // Brace depth *before* each code token (the depth the token sits at).
    let mut depth_at = Vec::with_capacity(code.len());
    let mut depth: i32 = 0;
    for &i in &code {
        match tokens[i].kind {
            TokenKind::Punct('{') => {
                depth_at.push(depth);
                depth += 1;
            }
            TokenKind::Punct('}') => {
                depth -= 1;
                depth_at.push(depth);
            }
            _ => depth_at.push(depth),
        }
    }

    // Matching close for every open bracket, by kind.
    let close_of = |open_ci: usize, open: char, close: char| -> usize {
        let mut d = 0i32;
        for ci in open_ci..code.len() {
            if is_punct(ci, open) {
                d += 1;
            } else if is_punct(ci, close) {
                d -= 1;
                if d == 0 {
                    return ci;
                }
            }
        }
        code.len().saturating_sub(1)
    };

    // `catch_unwind(...)` argument regions mask panic sites and call
    // edges: a panic in there costs one request, not the thread.
    let mut masked = vec![false; code.len()];
    for ci in 0..code.len() {
        if is_ident(ci, "catch_unwind") && is_punct(ci + 1, '(') {
            let end = close_of(ci + 1, '(', ')');
            for m in masked.iter_mut().take(end + 1).skip(ci + 1) {
                *m = true;
            }
        }
    }

    // The receiver identifier of a `.method(` call at `ci` (pointing at
    // the method ident): the ident two tokens back (`x.method`), or
    // None for computed receivers (`f().method`).
    let receiver = |ci: usize| -> Option<String> {
        if ci >= 2 && is_punct(ci - 1, '.') {
            let r = tok(ci - 2)?;
            if r.kind == TokenKind::Ident && r.text != "self" {
                return Some(r.text.to_string());
            }
            // `self.field.method(...)`: take the field.
            if r.kind == TokenKind::Ident {
                return Some(r.text.to_string());
            }
        }
        None
    };

    // ---- panic sites, calls, locks: collected globally, then carved
    // into regions. `site_kind[ci]` tags interesting tokens.
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Panic,
        Call,
        Lock,
    }
    let mut kinds: Vec<Option<(Kind, &'static str)>> = vec![None; code.len()];
    let mut panic_what: BTreeMap<usize, String> = BTreeMap::new();
    let mut call_name: BTreeMap<usize, String> = BTreeMap::new();

    #[allow(clippy::needless_range_loop)] // neighbor lookups via tok(ci±n)
    for ci in 0..code.len() {
        let Some(t) = tok(ci) else { continue };
        if t.kind != TokenKind::Ident {
            // Slice indexing `x[i]` in expression position, ident index.
            if t.kind == TokenKind::Punct('[')
                && ci > 0
                && tok(ci - 1).is_some_and(|p| {
                    p.kind == TokenKind::Ident
                        || matches!(p.kind, TokenKind::Punct(']') | TokenKind::Punct(')'))
                })
                && !is_punct(ci.wrapping_sub(2), '#')
                && tok(ci + 1).is_some_and(|n| n.kind == TokenKind::Ident)
                && !NOT_CALLEES.contains(&tok(ci + 1).map_or("", |n| n.text))
            {
                // Exclude ranges (`x[1..]`, `x[..n]`): scan to `]`.
                let end = close_of(ci, '[', ']');
                let has_range = (ci + 1..end).any(|k| is_punct(k, '.') && is_punct(k + 1, '.'));
                if !has_range {
                    kinds[ci] = Some((Kind::Panic, "slice-index"));
                    panic_what.insert(ci, "slice index".to_string());
                }
            }
            continue;
        }
        let followed_by_paren = is_punct(ci + 1, '(');
        match t.text {
            "unwrap" | "expect" if ci > 0 && is_punct(ci - 1, '.') && followed_by_paren => {
                kinds[ci] = Some((Kind::Panic, "unwrap"));
                panic_what.insert(ci, format!(".{}(...)", t.text));
            }
            "panic" | "todo" | "unimplemented" if is_punct(ci + 1, '!') => {
                kinds[ci] = Some((Kind::Panic, "macro"));
                panic_what.insert(ci, format!("{}!", t.text));
            }
            "lock" if ci > 0 && is_punct(ci - 1, '.') && followed_by_paren => {
                kinds[ci] = Some((Kind::Lock, "lock"));
            }
            name if followed_by_paren && !NOT_CALLEES.contains(&name) && !is_punct(ci + 1, '!') => {
                // A call edge. Qualify path calls `Type::name(`.
                let qual = if ci >= 2
                    && is_punct(ci - 1, ':')
                    && is_punct(ci - 2, ':')
                    && tok(ci.wrapping_sub(3)).is_some_and(|q| q.kind == TokenKind::Ident)
                {
                    Some(format!("{}::{}", tok(ci - 3).map_or("", |q| q.text), name))
                } else {
                    None
                };
                kinds[ci] = Some((Kind::Call, "call"));
                call_name.insert(ci, qual.unwrap_or_else(|| name.to_string()));
            }
            _ => {}
        }
    }

    // ---- regions: fn bodies (with impl-block qualification) and
    // spawn-root argument regions.
    let mut regions = Vec::new();
    // Impl-block type names by code-token range.
    let mut impl_ranges: Vec<(usize, usize, String)> = Vec::new();
    for ci in 0..code.len() {
        if !is_ident(ci, "impl") {
            continue;
        }
        // Find the block open and the self type: skip generics, honor
        // `impl Trait for Type`.
        let mut j = ci + 1;
        let mut angle = 0i32;
        let mut last_ident = String::new();
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while j < code.len() && !(angle == 0 && is_punct(j, '{')) && !is_punct(j, ';') {
            match tok(j).map(|t| (t.kind, t.text)) {
                Some((TokenKind::Punct('<'), _)) => angle += 1,
                Some((TokenKind::Punct('>'), _)) => angle -= 1,
                Some((TokenKind::Ident, "for")) if angle == 0 => saw_for = true,
                Some((TokenKind::Ident, name)) if angle == 0 => {
                    if saw_for && after_for.is_none() {
                        after_for = Some(name.to_string());
                    }
                    if last_ident.is_empty() || !saw_for {
                        last_ident = name.to_string();
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j < code.len() && is_punct(j, '{') {
            let end = close_of(j, '{', '}');
            let ty = after_for.unwrap_or(last_ident);
            if !ty.is_empty() {
                impl_ranges.push((j, end, ty));
            }
        }
    }
    let impl_type_at = |ci: usize| -> Option<&str> {
        impl_ranges
            .iter()
            .filter(|(s, e, _)| *s <= ci && ci <= *e)
            .map(|(_, _, ty)| ty.as_str())
            .next_back()
    };

    // Collect the sites inside a code-token range into a Region.
    let fill_region = |name: String,
                       qual_name: Option<String>,
                       is_root: bool,
                       start: usize,
                       end: usize,
                       region_in_test: bool|
     -> Region {
        let mut calls = Vec::new();
        let mut panics = Vec::new();
        let mut locks = Vec::new();
        for ci in start..=end.min(code.len().saturating_sub(1)) {
            match kinds[ci] {
                Some((Kind::Call, _)) if !masked[ci] => {
                    if let Some(n) = call_name.get(&ci) {
                        calls.push(n.clone());
                    }
                }
                Some((Kind::Panic, _)) => {
                    if let (Some(t), Some(what)) = (tok(ci), panic_what.get(&ci)) {
                        panics.push(PanicSite {
                            what: what.clone(),
                            line: t.line,
                            col: t.col,
                            masked: masked[ci],
                        });
                    }
                }
                Some((Kind::Lock, _)) => {
                    if let Some(m) = receiver(ci) {
                        locks.push(m);
                    }
                }
                _ => {}
            }
        }
        Region {
            name,
            qual_name,
            is_root,
            in_test: region_in_test,
            calls,
            panics,
            locks,
        }
    };

    for ci in 0..code.len() {
        if is_ident(ci, "fn") && tok(ci + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
            let name = tok(ci + 1).map_or(String::new(), |t| t.text.to_string());
            // Scan to the body open brace; a `;` first means no body.
            let mut j = ci + 2;
            let mut d = 0i32; // parens/angles may nest before the body
            let mut open = None;
            while j < code.len() {
                match tok(j).map(|t| t.kind) {
                    Some(TokenKind::Punct('(')) | Some(TokenKind::Punct('<')) => d += 1,
                    Some(TokenKind::Punct(')')) | Some(TokenKind::Punct('>')) => d -= 1,
                    Some(TokenKind::Punct('{')) if d <= 0 => {
                        open = Some(j);
                        break;
                    }
                    Some(TokenKind::Punct(';')) if d <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = open {
                let end = close_of(open, '{', '}');
                let qual = impl_type_at(ci).map(|ty| format!("{ty}::{name}"));
                regions.push(fill_region(name, qual, false, open, end, in_test(ci)));
            }
        }
        // Spawn roots: the whole argument region of `spawn(...)`.
        if is_ident(ci, "spawn") && is_punct(ci + 1, '(') {
            let end = close_of(ci + 1, '(', ')');
            let line = tok(ci).map_or(0, |t| t.line);
            regions.push(fill_region(
                format!("spawn@{line}"),
                None,
                true,
                ci + 1,
                end,
                in_test(ci),
            ));
        }
    }

    // ---- lock acquisitions with held regions.
    let mut locks = Vec::new();
    for ci in 0..code.len() {
        if kinds[ci] != Some((Kind::Lock, "lock")) {
            continue;
        }
        let Some(mutex) = receiver(ci) else { continue };
        let t = tokens[code[ci]];
        // Statement start: walk back to the nearest `;`, `{`, or `}`.
        let mut s = ci;
        while s > 0 {
            if matches!(
                tok(s - 1).map(|p| p.kind),
                Some(TokenKind::Punct(';'))
                    | Some(TokenKind::Punct('{'))
                    | Some(TokenKind::Punct('}'))
            ) {
                break;
            }
            s -= 1;
        }
        let stmt_depth = depth_at[ci];
        let is_let = is_ident(s, "let");
        // The let-bound guard name (`let g = ...` / `let mut g = ...`),
        // for `drop(g)` truncation.
        let guard = if is_let {
            let mut g = s + 1;
            if is_ident(g, "mut") {
                g += 1;
            }
            tok(g)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.to_string())
        } else {
            None
        };
        // Held-region end: a bare temporary dies at the statement's
        // `;`; a let-bound guard lives to the end of the enclosing
        // block (or an explicit `drop(guard)`).
        let mut end = code.len().saturating_sub(1);
        #[allow(clippy::needless_range_loop)] // neighbor lookups via is_punct(j±1)
        for j in ci + 1..code.len() {
            if !is_let && is_punct(j, ';') && depth_at[j] <= stmt_depth {
                end = j;
                break;
            }
            if is_punct(j, '}') && depth_at[j] < stmt_depth {
                end = j;
                break;
            }
            if let Some(g) = &guard {
                if is_ident(j, "drop") && is_punct(j + 1, '(') && is_ident(j + 2, g.as_str()) {
                    end = j;
                    break;
                }
            }
        }
        let mut inner = Vec::new();
        let mut calls = Vec::new();
        let mut io = Vec::new();
        #[allow(clippy::needless_range_loop)] // mixes kinds[j] with tok(j±1) lookups
        for j in ci + 1..=end.min(code.len().saturating_sub(1)) {
            match kinds[j] {
                Some((Kind::Lock, _)) => {
                    if let (Some(m), Some(jt)) = (receiver(j), tok(j)) {
                        inner.push((m, jt.line, jt.col));
                    }
                }
                Some((Kind::Call, _)) => {
                    if let (Some(n), Some(jt)) = (call_name.get(&j), tok(j)) {
                        let bare = n.rsplit(':').next().unwrap_or(n);
                        if IO_CALLS.contains(&bare) && is_punct(j - 1, '.') {
                            io.push((bare.to_string(), jt.line, jt.col));
                        }
                        calls.push(n.clone());
                    }
                }
                _ => {}
            }
        }
        locks.push(LockAcq {
            mutex,
            line: t.line,
            col: t.col,
            in_test: in_test(ci),
            inner,
            calls,
            io,
        });
    }

    // ---- atomic operations with orderings.
    let mut atomics = Vec::new();
    for ci in 0..code.len() {
        let Some(t) = tok(ci) else { continue };
        if t.kind != TokenKind::Ident
            || !ATOMIC_OPS.contains(&t.text)
            || !is_punct(ci + 1, '(')
            || ci == 0
            || !is_punct(ci - 1, '.')
        {
            continue;
        }
        let end = close_of(ci + 1, '(', ')');
        let mut orderings = Vec::new();
        for j in ci + 2..end {
            if is_ident(j, "Ordering")
                && is_punct(j + 1, ':')
                && is_punct(j + 2, ':')
                && tok(j + 3).is_some_and(|o| MEMORY_ORDERINGS.contains(&o.text))
            {
                orderings.push(tok(j + 3).map_or(String::new(), |o| o.text.to_string()));
            }
        }
        // A method named like an atomic op but taking no Ordering is
        // not an atomic call (e.g. a local `load()` helper).
        if orderings.is_empty() {
            continue;
        }
        let Some(atomic) = receiver(ci) else { continue };
        atomics.push(AtomicSite {
            atomic,
            op: t.text.to_string(),
            orderings,
            line: t.line,
            col: t.col,
            in_test: in_test(ci),
        });
    }

    // ---- comments: inline allows and atomic-policy declarations.
    let allows = inline_allows(tokens);
    let mut policies: BTreeMap<String, (BTreeSet<String>, u32)> = BTreeMap::new();
    for tokref in tokens.iter().filter(|t| t.is_comment()) {
        let mut rest = tokref.text;
        while let Some(at) = rest.find("atomic-policy(") {
            // Line of the declaration within a (possibly multi-line
            // doc/block) comment token.
            let decl_line = tokref.line
                + tokref.text[..tokref.text.len() - rest.len() + at]
                    .matches('\n')
                    .count() as u32;
            rest = &rest[at + "atomic-policy(".len()..];
            let Some(close) = rest.find(')') else { break };
            let name = rest[..close].trim().to_string();
            let line = rest[close..].lines().next().unwrap_or("");
            let set: BTreeSet<String> = MEMORY_ORDERINGS
                .iter()
                .filter(|o| line.contains(*o))
                .map(|o| (*o).to_string())
                .collect();
            if !name.is_empty() && !set.is_empty() {
                policies
                    .entry(name)
                    .or_insert_with(|| (BTreeSet::new(), decl_line))
                    .0
                    .extend(set);
            }
            rest = &rest[close + 1..];
        }
    }

    // ---- wire-format strings, consts, and caps identifiers.
    // A parse context: `==`/`!=`/`=>` or a parse-ish call within a
    // small neighborhood of the site.
    let parse_ctx_at = |ci: usize| -> bool {
        let lo = ci.saturating_sub(5);
        let hi = (ci + 4).min(code.len().saturating_sub(1));
        for j in lo..=hi {
            if j == ci {
                continue;
            }
            match tok(j).map(|t| (t.kind, t.text)) {
                Some((TokenKind::Punct('='), _))
                    if is_punct(j + 1, '=')
                        || is_punct(j + 1, '>')
                        || is_punct(j.wrapping_sub(1), '!') =>
                {
                    return true;
                }
                Some((
                    TokenKind::Ident,
                    "strip_prefix" | "starts_with" | "contains" | "find" | "eq" | "matches",
                )) => {
                    return true;
                }
                _ => {}
            }
        }
        false
    };
    let mut strings = Vec::new();
    let mut consts = BTreeMap::new();
    let mut caps = Vec::new();
    for ci in 0..code.len() {
        let Some(t) = tok(ci) else { continue };
        match t.kind {
            TokenKind::Str | TokenKind::RawStr => {
                let fmts = formats_in(t.text);
                if !fmts.is_empty() {
                    // `const NAME: &str = "ppm-x vN"` binds the format
                    // to the constant for cross-file tracking.
                    if fmts.len() == 1 {
                        let mut b = ci;
                        while b > 0 && !is_ident(b, "const") && ci - b < 8 {
                            b -= 1;
                        }
                        if is_ident(b, "const") {
                            if let Some(n) = tok(b + 1).filter(|n| n.kind == TokenKind::Ident) {
                                consts.insert(n.text.to_string(), fmts[0].clone());
                            }
                        }
                    }
                    strings.push(StrSite {
                        formats: fmts,
                        line: t.line,
                        col: t.col,
                        in_test: in_test(ci),
                        parse_ctx: parse_ctx_at(ci),
                    });
                }
                // `{SCHEMA_CONST}` interpolations inside format strings.
                let mut rest = t.text;
                while let Some(at) = rest.find('{') {
                    rest = &rest[at + 1..];
                    let end = rest.find(['}', ':']).unwrap_or(0);
                    let name = &rest[..end];
                    if is_caps_ident(name) {
                        caps.push(CapsSite {
                            name: name.to_string(),
                            line: t.line,
                            col: t.col,
                            in_test: in_test(ci),
                            parse_ctx: parse_ctx_at(ci),
                        });
                    }
                }
            }
            TokenKind::Ident if is_caps_ident(t.text) => {
                caps.push(CapsSite {
                    name: t.text.to_string(),
                    line: t.line,
                    col: t.col,
                    in_test: in_test(ci),
                    parse_ctx: parse_ctx_at(ci),
                });
            }
            _ => {}
        }
    }

    FileIndex {
        rel: rel.to_string(),
        crate_name: crate_of(rel),
        lines: source.lines().map(str::to_string).collect(),
        allows,
        regions,
        locks,
        atomics,
        policies,
        strings,
        consts,
        caps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_in_extracts_version_strings() {
        assert_eq!(formats_in("\"ppm-bench v1\""), vec!["ppm-bench v1"]);
        assert_eq!(
            formats_in(r#"{"a":"ppm-ledger v0","b":"ppm-ledger v1"}"#),
            vec!["ppm-ledger v0", "ppm-ledger v1"]
        );
        assert!(formats_in("ppm-bench").is_empty());
        assert!(formats_in("ppm- v1").is_empty());
        assert_eq!(
            formats_in("\"ppm-loadtest-ab v1\""),
            vec!["ppm-loadtest-ab v1"]
        );
        assert!(formats_in("ppm-loadtest- v1").is_empty());
        assert!(formats_in("ppm-a--b v1").is_empty());
    }

    #[test]
    fn lock_held_regions_record_inner_locks_and_io() {
        let src = r#"
fn f(a: &M, b: &M, s: &S) {
    let g = a.field_a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = b.field_b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    s.stream.write_all(&[1]).ok();
    drop(g);
    let _ = h;
}
"#;
        let idx = index_file("crates/serve/src/x.rs", src);
        assert_eq!(idx.locks.len(), 2);
        let a = &idx.locks[0];
        assert_eq!(a.mutex, "field_a");
        assert_eq!(a.inner.len(), 1, "{a:?}");
        assert_eq!(a.inner[0].0, "field_b");
        assert_eq!(a.io.len(), 1, "{a:?}");
        assert_eq!(a.io[0].0, "write_all");
        let b = &idx.locks[1];
        assert_eq!(b.mutex, "field_b");
        assert!(b.inner.is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_the_statement() {
        let src = r#"
fn f(a: &M, b: &M) {
    a.first.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(1);
    b.second.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(2);
}
"#;
        let idx = index_file("crates/serve/src/x.rs", src);
        assert_eq!(idx.locks.len(), 2);
        assert!(idx.locks[0].inner.is_empty(), "{:?}", idx.locks[0]);
    }

    #[test]
    fn atomics_carry_orderings_and_receiver() {
        let src = r#"
fn f(s: &S) {
    s.depth.fetch_add(1, Ordering::SeqCst);
    s.sec.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed).ok();
}
"#;
        let idx = index_file("crates/exec/src/x.rs", src);
        assert_eq!(idx.atomics.len(), 2);
        assert_eq!(idx.atomics[0].atomic, "depth");
        assert_eq!(idx.atomics[0].orderings, vec!["SeqCst"]);
        assert_eq!(idx.atomics[1].orderings, vec!["AcqRel", "Relaxed"]);
    }

    #[test]
    fn policies_parse_from_comments() {
        let src = "// atomic-policy(depth): SeqCst — pairs the gauge with submits\nfn f() {}\n";
        let idx = index_file("crates/exec/src/x.rs", src);
        assert_eq!(
            idx.policies.get("depth"),
            Some(&(BTreeSet::from(["SeqCst".to_string()]), 1))
        );
    }

    #[test]
    fn spawn_roots_and_fn_regions_carry_calls_and_panics() {
        let src = r#"
fn helper(x: Option<u32>) -> u32 { x.unwrap() }
fn main_loop() {
    std::thread::spawn(move || {
        helper(None);
    });
}
"#;
        let idx = index_file("crates/serve/src/x.rs", src);
        let root = idx.regions.iter().find(|r| r.is_root).expect("spawn root");
        assert!(root.calls.contains(&"helper".to_string()), "{root:?}");
        let helper = idx
            .regions
            .iter()
            .find(|r| r.name == "helper")
            .expect("helper fn");
        assert_eq!(helper.panics.len(), 1);
        assert!(!helper.panics[0].masked);
    }

    #[test]
    fn catch_unwind_masks_panics_and_calls() {
        let src = r#"
fn worker() {
    let r = std::panic::catch_unwind(|| risky().unwrap());
    let _ = r;
}
"#;
        let idx = index_file("crates/exec/src/x.rs", src);
        let worker = idx
            .regions
            .iter()
            .find(|r| r.name == "worker")
            .expect("worker fn");
        assert!(worker.panics.iter().all(|p| p.masked), "{worker:?}");
        assert!(
            !worker.calls.contains(&"risky".to_string()),
            "masked calls must not become edges: {worker:?}"
        );
    }

    #[test]
    fn impl_blocks_qualify_fn_names() {
        let src = "struct T;\nimpl T {\n    fn m(&self) {}\n}\nimpl Drop for T {\n    fn drop(&mut self) {}\n}\n";
        let idx = index_file("crates/serve/src/x.rs", src);
        let m = idx.regions.iter().find(|r| r.name == "m").expect("m");
        assert_eq!(m.qual_name.as_deref(), Some("T::m"));
        let d = idx.regions.iter().find(|r| r.name == "drop").expect("drop");
        assert_eq!(d.qual_name.as_deref(), Some("T::drop"));
    }

    #[test]
    fn wire_format_consts_and_interpolations_are_tracked() {
        let src = r#"
pub const TRACEZ_SCHEMA: &str = "ppm-tracez v1";
fn render() -> String {
    format!("{{\"schema\":\"{TRACEZ_SCHEMA}\"}}")
}
"#;
        let idx = index_file("crates/serve/src/x.rs", src);
        assert_eq!(
            idx.consts.get("TRACEZ_SCHEMA"),
            Some(&"ppm-tracez v1".to_string())
        );
        assert!(idx
            .caps
            .iter()
            .any(|c| c.name == "TRACEZ_SCHEMA" && !c.in_test));
    }

    #[test]
    fn tests_directory_is_all_test_code() {
        let src = "fn t() { None::<u32>.unwrap(); }\n";
        let idx = index_file("tests/it.rs", src);
        let t = idx.regions.iter().find(|r| r.name == "t").expect("t");
        assert!(t.in_test);
        assert_eq!(idx.crate_name, "tests");
    }
}
