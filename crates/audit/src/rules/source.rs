//! Token-level source rules.
//!
//! All rules operate on the *code view* of a file: the lexer's token
//! stream with comments and `#[cfg(test)]`-masked tokens removed. That
//! makes them immune to the classic regex-lint false positives — a
//! `.unwrap()` inside a raw string, a `panic!` in a doc comment, a `'a'`
//! char literal derailing quote tracking — while staying fast enough to
//! scan the whole workspace in milliseconds.
//!
//! Each hit is reported as `(line, rule-name)`; the engine attaches file
//! paths, severities, and source text. A rule fires at most once per
//! (rule, line) pair, which keeps findings stable under mechanical
//! reformatting and matches the granularity of the suppression syntax.

use crate::itemtree::MASK_TEST;
use crate::lexer::{TokKind, Token};

/// Identifier fragments marking a quantity whose overflow corrupts
/// scheduling decisions rather than merely panicking.
const OVERFLOW_NOUNS: [&str; 9] = [
    "now", "time", "deadline", "arrival", "slice", "expire", "window", "lbn", "sector",
];

/// Identifier fragments marking a line as deliberately overflow-aware.
const OVERFLOW_GUARDS: [&str; 5] = ["checked_", "saturating_", "wrapping_", "abs_diff", "u128"];

/// Narrowing cast targets banned in hot paths (`as usize`/`as u64` are not
/// narrowing on the supported targets).
const NARROW_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// A view of one file's tokens with comments and test-masked tokens
/// stripped: what the rules treat as "code".
struct CodeView<'s> {
    src: &'s str,
    /// Indices into the original token slice, in order.
    idx: Vec<usize>,
    toks: &'s [Token],
}

impl<'s> CodeView<'s> {
    fn new(src: &'s str, toks: &'s [Token], mask: &[u8]) -> CodeView<'s> {
        let idx = toks
            .iter()
            .enumerate()
            .filter(|(i, t)| !t.is_comment() && mask[*i] & MASK_TEST == 0)
            .map(|(i, _)| i)
            .collect();
        CodeView { src, idx, toks }
    }

    fn len(&self) -> usize {
        self.idx.len()
    }

    fn tok(&self, i: usize) -> &Token {
        &self.toks[self.idx[i]]
    }

    /// Is code token `i` the identifier `text`?
    fn is_ident(&self, i: usize, text: &str) -> bool {
        i < self.len() && {
            let t = self.tok(i);
            t.kind == TokKind::Ident && t.text(self.src) == text
        }
    }

    /// Is code token `i` the punctuation `c`?
    fn is_punct(&self, i: usize, c: char) -> bool {
        i < self.len() && self.tok(i).punct(self.src) == Some(c)
    }

    /// Does the path separator `::` start at code token `i`?
    fn is_path_sep(&self, i: usize) -> bool {
        self.is_punct(i, ':') && self.is_punct(i + 1, ':')
    }

    /// Does the ident sequence `a::b::…` start at code token `i`?
    fn is_path(&self, i: usize, segs: &[&str]) -> bool {
        let mut j = i;
        for (n, seg) in segs.iter().enumerate() {
            if n > 0 {
                if !self.is_path_sep(j) {
                    return false;
                }
                j += 2;
            }
            if !self.is_ident(j, seg) {
                return false;
            }
            j += 1;
        }
        true
    }
}

/// Can a `+` / `*` with this token on its left be a binary operator?
/// (An ident, literal, or closing delimiter ends an operand; after
/// anything else — including statement keywords like `if` or `return` —
/// the `+`/`*` is unary, a deref, or part of `::*`.)
fn ends_operand(src: &str, t: &Token) -> bool {
    match t.kind {
        TokKind::Ident => !matches!(
            t.text(src),
            "if" | "else"
                | "match"
                | "return"
                | "while"
                | "in"
                | "let"
                | "mut"
                | "ref"
                | "move"
                | "break"
                | "continue"
                | "loop"
                | "unsafe"
                | "yield"
        ),
        TokKind::Num | TokKind::Char | TokKind::Str | TokKind::RawStr => true,
        TokKind::Punct => matches!(t.punct(src), Some(')') | Some(']') | Some('}')),
        _ => false,
    }
}

/// Scan one file's tokens and report `(line, rule)` hits.
///
/// `hot` enables the hot-path-only rules (narrowing-cast). Findings are
/// deduplicated per (rule, line) and returned in source order.
pub fn scan_tokens(src: &str, toks: &[Token], mask: &[u8], hot: bool) -> Vec<(u32, &'static str)> {
    let code = CodeView::new(src, toks, mask);
    let mut hits: Vec<(u32, &'static str)> = Vec::new();
    let hit = |line: u32, rule: &'static str, hits: &mut Vec<(u32, &'static str)>| {
        if !hits.contains(&(line, rule)) {
            hits.push((line, rule));
        }
    };

    for i in 0..code.len() {
        let t = code.tok(i);
        let line = t.line;
        match t.kind {
            TokKind::Punct if code.is_punct(i, '.') => {
                // `.unwrap(` — expect()/propagation is required in library code.
                if code.is_ident(i + 1, "unwrap") && code.is_punct(i + 2, '(') {
                    hit(code.tok(i + 1).line, "unwrap", &mut hits);
                }
                // `.sum::<f32|f64>(` / `.product::<f32|f64>(` — order-sensitive
                // float accumulation.
                if (code.is_ident(i + 1, "sum") || code.is_ident(i + 1, "product"))
                    && code.is_path_sep(i + 2)
                    && code.is_punct(i + 4, '<')
                    && (code.is_ident(i + 5, "f32") || code.is_ident(i + 5, "f64"))
                {
                    hit(code.tok(i + 1).line, "float-accum", &mut hits);
                }
            }
            TokKind::Ident => {
                let text = t.text(src);
                match text {
                    "panic" if code.is_punct(i + 1, '!') && code.is_punct(i + 2, '(') => {
                        hit(line, "panic", &mut hits);
                    }
                    "std" if code.is_path(i, &["std", "sync", "Mutex"]) => {
                        hit(line, "std-mutex", &mut hits);
                    }
                    "std" if code.is_path(i, &["std", "collections"])
                        // `std::collections::HashMap` (or a `{...}` use-group
                        // containing HashMap/HashSet). VecDeque/BTreeMap are
                        // fine — only the RandomState-seeded types are banned.
                        && code.is_path_sep(i + 4) => {
                            let j = i + 6;
                            if code.is_ident(j, "HashMap") || code.is_ident(j, "HashSet") {
                                hit(code.tok(j).line, "std-hash", &mut hits);
                            } else if code.is_punct(j, '{') {
                                let mut k = j + 1;
                                let mut depth = 1u32;
                                while k < code.len() && depth > 0 {
                                    if code.is_punct(k, '{') {
                                        depth += 1;
                                    } else if code.is_punct(k, '}') {
                                        depth -= 1;
                                    } else if code.is_ident(k, "HashMap")
                                        || code.is_ident(k, "HashSet")
                                    {
                                        hit(code.tok(k).line, "std-hash", &mut hits);
                                    }
                                    k += 1;
                                }
                            }
                        }
                    "Instant" | "SystemTime"
                        if code.is_path_sep(i + 1) && code.is_ident(i + 3, "now") =>
                    {
                        hit(line, "wall-clock", &mut hits);
                    }
                    "thread" if code.is_path_sep(i + 1) && code.is_ident(i + 3, "current") => {
                        hit(line, "thread-id", &mut hits);
                    }
                    // Raw concurrency construction: worker threads and the
                    // channels between them live in simcore::pool
                    // (allow-listed), so every other crate inherits its
                    // determinism argument instead of hand-rolling its own.
                    "thread"
                        if code.is_path_sep(i + 1)
                            && (code.is_ident(i + 3, "spawn") || code.is_ident(i + 3, "scope")) =>
                    {
                        hit(line, "raw-thread", &mut hits);
                    }
                    "mpsc"
                        if code.is_path_sep(i + 1)
                            && (code.is_ident(i + 3, "channel")
                                || code.is_ident(i + 3, "sync_channel")) =>
                    {
                        hit(line, "raw-thread", &mut hits);
                    }
                    "env"
                        if code.is_path_sep(i + 1)
                            && (code.is_ident(i + 3, "var")
                                || code.is_ident(i + 3, "var_os")
                                || code.is_ident(i + 3, "vars")) =>
                    {
                        hit(line, "env-read", &mut hits);
                    }
                    "as" if hot
                        && NARROW_TARGETS.iter().any(|n| code.is_ident(i + 1, n)) => {
                            hit(line, "narrowing-cast", &mut hits);
                        }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    overflow_arith(&code, &mut hits);
    hits.sort_by_key(|&(line, rule)| (line, rule));
    hits
}

/// The overflow-arith rule: per line, a binary `+`/`*` (including `+=` /
/// `*=`) on a line that names an overflow-sensitive quantity and carries
/// no guard (`checked_*`, `saturating_*`, `wrapping_*`, `abs_diff`,
/// widening through `u128`).
fn overflow_arith(code: &CodeView<'_>, hits: &mut Vec<(u32, &'static str)>) {
    let mut i = 0;
    while i < code.len() {
        let line = code.tok(i).line;
        // The extent of this source line in the code view.
        let mut end = i;
        while end < code.len() && code.tok(end).line == line {
            end += 1;
        }
        let mut has_op = false;
        for j in i..end {
            let t = code.tok(j);
            if matches!(t.punct(code.src), Some('+') | Some('*'))
                && j > 0
                && ends_operand(code.src, code.tok(j - 1))
            {
                // `x + y`, `x += y`, `x * y`, `x *= y` — but not `x++`-less
                // unary forms, derefs, or glob imports (those never follow
                // an operand-ending token).
                has_op = true;
                break;
            }
        }
        if has_op {
            let mut noun = false;
            let mut guard = false;
            for j in i..end {
                let t = code.tok(j);
                if t.kind == TokKind::Ident {
                    let text = t.text(code.src);
                    noun |= OVERFLOW_NOUNS.iter().any(|n| text.contains(n));
                    guard |= OVERFLOW_GUARDS.iter().any(|g| text.contains(g));
                }
            }
            if noun && !guard && !hits.contains(&(line, "overflow-arith")) {
                hits.push((line, "overflow-arith"));
            }
        }
        i = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemtree::cfg_mask;
    use crate::lexer::lex;

    fn scan(src: &str, hot: bool) -> Vec<&'static str> {
        let toks = lex(src);
        let mask = cfg_mask(src, &toks);
        scan_tokens(src, &toks, &mask, hot)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    #[test]
    fn flags_unwrap_and_panic_in_library_code() {
        let src = "fn f() {\n    let x = opt.unwrap();\n    panic!(\"boom\");\n}\n";
        assert_eq!(scan(src, false), vec!["unwrap", "panic"]);
    }

    #[test]
    fn skips_cfg_test_comments_and_strings() {
        let src = "fn f() {}\n\
                   // opt.unwrap() in a comment is fine\n\
                   /* panic!(\"nested\") in /* block */ comments too */\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { opt.unwrap(); panic!(\"ok in tests\"); }\n\
                   }\n";
        assert!(scan(src, false).is_empty());
        let src = "fn f() { let s = \".unwrap() panic!( std::sync::Mutex\"; use_(s); }\n";
        assert!(scan(src, false).is_empty());
        let src = "fn f() { let s = r#\"x.unwrap() 'a' Instant::now()\"#; use_(s); }\n";
        assert!(scan(src, false).is_empty());
    }

    #[test]
    fn char_literals_do_not_derail_the_scan() {
        let src = "fn f(c: char) { match c { '\"' => opt.unwrap(), _ => {} } }\n";
        assert_eq!(scan(src, false), vec!["unwrap"]);
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.trim().unwrap() }\n";
        assert_eq!(scan(src, false), vec!["unwrap"]);
    }

    #[test]
    fn std_mutex_and_std_hash_paths() {
        assert_eq!(
            scan("use std::sync::Mutex;\n", false),
            vec!["std-mutex"]
        );
        assert_eq!(
            scan("use std::collections::HashMap;\n", false),
            vec!["std-hash"]
        );
        assert_eq!(
            scan("fn f() -> std::collections::HashSet<u32> { todo_() }\n", false),
            vec!["std-hash"]
        );
        // Grouped imports: each banned type inside the braces is one hit
        // (dedup per line collapses them).
        assert_eq!(
            scan("use std::collections::{BTreeMap, HashMap, HashSet};\n", false),
            vec!["std-hash"]
        );
        // Deterministic collections pass.
        assert!(scan("use std::collections::{BTreeMap, VecDeque};\n", false).is_empty());
        // FxHash types pass.
        assert!(scan("use dualpar_sim::hash::{FxHashMap, FxHashSet};\n", false).is_empty());
    }

    #[test]
    fn determinism_hazards() {
        assert_eq!(
            scan("fn f() { let t0 = std::time::Instant::now(); use_(t0); }\n", false),
            vec!["wall-clock"]
        );
        assert_eq!(
            scan("fn f() { let t = SystemTime::now(); use_(t); }\n", false),
            vec!["wall-clock"]
        );
        assert_eq!(
            scan("fn f() { let id = std::thread::current().id(); use_(id); }\n", false),
            vec!["thread-id"]
        );
        assert_eq!(
            scan("fn f() { let v = std::env::var(\"HOME\"); use_(v); }\n", false),
            vec!["env-read"]
        );
        // `Instant::elapsed`, `env::args` style calls that are not on the
        // ban list pass.
        assert!(scan("fn f() { let t = t0.elapsed(); use_(t); }\n", false).is_empty());
        assert!(scan("fn f() { let a = std::env::args(); use_(a); }\n", false).is_empty());
    }

    #[test]
    fn raw_thread_construction_is_flagged() {
        assert_eq!(
            scan("fn f() { std::thread::spawn(|| {}); }\n", false),
            vec!["raw-thread"]
        );
        assert_eq!(
            scan("fn f() { std::thread::scope(|s| {}); }\n", false),
            vec!["raw-thread"]
        );
        assert_eq!(
            scan("fn f() { let (tx, rx) = mpsc::channel::<u64>(); use_(tx, rx); }\n", false),
            vec!["raw-thread"]
        );
        assert_eq!(
            scan("fn f() { let p = std::sync::mpsc::sync_channel(4); use_(p); }\n", false),
            vec!["raw-thread"]
        );
        // Using channel halves or joining threads is fine — only
        // *construction* is fenced into the two runtime modules.
        assert!(scan("fn f(rx: &mpsc::Receiver<u64>) { rx.recv().ok(); }\n", false).is_empty());
        assert!(scan("fn f() { std::thread::sleep(d); }\n", false).is_empty());
    }

    #[test]
    fn float_accum_is_flagged_for_f32_and_f64_only() {
        assert_eq!(
            scan("fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n", false),
            vec!["float-accum"]
        );
        assert_eq!(
            scan("fn f(v: &[f32]) -> f32 { v.iter().product::<f32>() }\n", false),
            vec!["float-accum"]
        );
        assert!(scan("fn f(v: &[u64]) -> u64 { v.iter().sum::<u64>() }\n", false).is_empty());
    }

    #[test]
    fn narrowing_casts_only_in_hot_paths() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(scan(src, true), vec!["narrowing-cast"]);
        assert!(scan(src, false).is_empty());
        assert!(scan("fn f(x: u32) -> usize { x as usize }\n", true).is_empty());
        assert!(scan("fn f(x: u32) -> u64 { x as u64 }\n", true).is_empty());
    }

    #[test]
    fn overflow_arith_fires_without_spaces_and_respects_guards() {
        // The old regex rule needed rustfmt spacing; tokens do not.
        assert_eq!(
            scan("fn f() { let deadline = req.arrival+expire; use_(deadline); }\n", false),
            vec!["overflow-arith"]
        );
        assert_eq!(
            scan("fn f() { let b = req.sectors * bytes_each; use_(b); }\n", false),
            vec!["overflow-arith"]
        );
        assert!(scan("fn f() { let d = now.saturating_add(slice); }\n", false).is_empty());
        assert!(scan("fn f() { let d = arrival.checked_add(expire); }\n", false).is_empty());
        assert!(scan("fn f() { let d = a.lbn.abs_diff(b.lbn); }\n", false).is_empty());
        assert!(
            scan("fn f() { let ns = (now as u128) * (scale as u128); use_(ns); }\n", false)
                .is_empty()
        );
        // Arithmetic on overflow-neutral quantities passes.
        assert!(scan("fn f(i: usize) { let j = i + 1; use_(j); }\n", false).is_empty());
        // Unary and deref uses of + / * are not binary operators.
        assert!(scan("fn f(p: *const u64) { let now = unsafe { *p }; use_(now); }\n", false)
            .is_empty());
        assert!(scan("use sched::*; fn f(now: u64) { use_(now); }\n", false).is_empty());
        // Deref after a statement keyword (`if *times == 0`) is not a multiply.
        assert!(scan("fn f(times: &u64) { if *times == 0 { done(); } }\n", false).is_empty());
    }

    #[test]
    fn one_finding_per_rule_per_line() {
        let src = "fn f() { a.unwrap(); b.unwrap(); }\n";
        assert_eq!(scan(src, false), vec!["unwrap"]);
    }
}
