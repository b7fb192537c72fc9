//! L10/L11 — the concurrency-protocol pass.
//!
//! The hot path shares state across threads in a few places: Relaxed
//! telemetry counters everywhere, a chunk-claiming thread pool in
//! `shims/rayon`, and `Mutex`es around the pool registry in
//! `pipeline::executor`, the metric registry and the span ring in
//! `obs::trace`. Ordering bugs there cannot be exercised reliably by
//! tests on a small machine, so DESIGN.md §Concurrency protocol keeps the
//! protocol too simple to get wrong, and this pass enforces it over the
//! same token stream the other rules use:
//!
//! - **L10 atomics discipline**: production code names no ordering but
//!   `Relaxed` — an atomic call with `Acquire`, `Release`, `AcqRel` or
//!   `SeqCst` in *any* ordering argument (a `compare_exchange` failure
//!   ordering too) is a finding, and so is every `fence`/`compiler_fence`
//!   call. A `fetch_*` read-modify-write whose *result is consumed* must
//!   carry an audited `allow(sync, …)` proof that it is a pure counter or
//!   ticket. Test code — `#[cfg(test)]` items and the files of a crate's
//!   `tests/` and `benches/` targets — may build its own handshakes.
//! - **L11 lock discipline**: no guard returned by `lock()`/`try_lock()`
//!   may stay live across a `par_*`/`pool.install`/blocking-IO call; the
//!   workspace lock-acquisition-order graph must be acyclic (each cycle
//!   is reported once, with every hop's site); and `lock()` results must
//!   use the `PoisonError::into_inner` recovery idiom instead of
//!   `unwrap`/`expect`. L11 scans test targets too: a deadlock there
//!   wedges CI.
//!
//! Like the other passes this is deliberately approximate in documented
//! ways: an atomic call is a `load`/`store`/read-modify-write method call
//! whose own arguments name an `Ordering` variant, receivers are the
//! single identifier before the field, and guard liveness runs to the
//! closing brace of the binding's enclosing block (an `if let` guard is
//! over-approximated to that same block). The approximations all err
//! toward reporting; every finding can be audited away with
//! `lint: allow(sync, "<proof>")`.

use crate::lex::{in_ranges, Lexed, Tok};
use crate::parse::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};

/// One file as the sync pass sees it — borrowed from the linter's
/// per-file `Prepared` state.
pub(crate) struct SyncInput<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Token stream.
    pub lexed: &'a Lexed,
    /// `#[cfg(test)]` line ranges — exempt from both rules.
    pub tests: &'a [(u32, u32)],
    /// Parsed items (fn bodies drive the per-function analyses).
    pub parsed: &'a ParsedFile,
}

/// Which of the two concurrency rules a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncRule {
    /// L10 — atomics discipline.
    Atomics,
    /// L11 — lock discipline.
    Locks,
}

/// One L10/L11 finding, to be mapped onto [`crate::findings::Finding`].
#[derive(Debug)]
pub(crate) struct SyncFinding {
    pub rel: String,
    pub line: u32,
    pub rule: SyncRule,
    pub message: String,
}

/// The `std::sync::atomic::Ordering` variants; every one but `Relaxed` is
/// a strong ordering production code may not name.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Read-modify-write methods on the atomic types.
const RMW_METHODS: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "fetch_or",
    "fetch_sub",
    "fetch_update",
    "fetch_xor",
    "swap",
];

/// Calls a `MutexGuard` must never be live across: fan-out into the
/// thread pool (a worker contending on the same lock deadlocks the pool)
/// and blocking filesystem IO (the guard pins every other thread for the
/// duration of the syscall).
const FAN_OUT_CALLS: &[&str] = &[
    "install",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_iter",
    "par_iter_mut",
    "read_dir",
    "read_to_string",
    "run_claimed",
    "sync_all",
    "write_all",
];

/// Run the whole L10/L11 pass over one batch of files.
pub(crate) fn check_sync(inputs: &[SyncInput]) -> Vec<SyncFinding> {
    let mut out = Vec::new();
    for inp in inputs.iter().filter(|inp| !in_test_target(inp.rel)) {
        check_atomics(inp, &mut out);
    }
    check_lock_discipline(inputs, &mut out);
    out
}

/// `true` for the files of a crate's `tests/` and `benches/` targets
/// (`crates/obs/tests/stress.rs`), which L10 leaves alone.
fn in_test_target(rel: &str) -> bool {
    let dirs = rel.rsplit_once('/').map_or("", |(d, _)| d);
    dirs.split('/').take_while(|c| *c != "src").any(|c| c == "tests" || c == "benches")
}

// --- token utilities ----------------------------------------------------

/// Index of the closer matching the opener at `open` (`(`/`[`/`{`).
fn match_fwd(lexed: &Lexed, open: usize) -> usize {
    let (o, c) = match lexed.tokens[open].tok {
        Tok::Punct('(') => ('(', ')'),
        Tok::Punct('[') => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0i32;
    for j in open..lexed.tokens.len() {
        if lexed.is_punct(j, o) {
            depth += 1;
        } else if lexed.is_punct(j, c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    lexed.tokens.len().saturating_sub(1)
}

/// Index of the opener matching the closer at `close` (`)`/`]`/`}`).
fn match_back(lexed: &Lexed, close: usize) -> usize {
    let (o, c) = match lexed.tokens[close].tok {
        Tok::Punct(')') => ('(', ')'),
        Tok::Punct(']') => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0i32;
    for j in (0..=close).rev() {
        if lexed.is_punct(j, c) {
            depth += 1;
        } else if lexed.is_punct(j, o) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    0
}

/// Walk a `a.b(..).c` receiver chain leftward from `idx` to its first
/// token — used to decide statement position and to find the binding.
fn chain_start(lexed: &Lexed, idx: usize) -> usize {
    let mut k = idx;
    while k >= 2 && lexed.is_punct(k - 1, '.') {
        match lexed.tokens[k - 2].tok {
            Tok::Ident(_) => k -= 2,
            Tok::Punct(')') | Tok::Punct(']') => {
                let open = match_back(lexed, k - 2);
                if open >= 1 && matches!(lexed.tokens[open - 1].tok, Tok::Ident(_)) {
                    k = open - 1;
                } else {
                    k = open;
                    break;
                }
            }
            _ => break,
        }
    }
    k
}

/// The single identifier receiver before `name_idx . method`, walking
/// back over one `[...]`/`(...)` group (`buckets[i].fetch_add`).
fn field_before_dot(lexed: &Lexed, dot: usize) -> Option<(usize, String)> {
    if dot == 0 {
        return None;
    }
    let mut j = dot - 1;
    if matches!(lexed.tokens[j].tok, Tok::Punct(')') | Tok::Punct(']')) {
        let open = match_back(lexed, j);
        if open == 0 {
            return None;
        }
        j = open - 1;
    }
    lexed.ident(j).map(|n| (j, n.to_owned()))
}

// --- L10: atomics discipline --------------------------------------------

/// Flag every strong ordering, fence and unaudited consumed Relaxed RMW in
/// one file's production code.
fn check_atomics(inp: &SyncInput, out: &mut Vec<SyncFinding>) {
    let lexed = inp.lexed;
    for i in 1..lexed.tokens.len() {
        let Some(m) = lexed.ident(i) else { continue };
        let line = lexed.tokens[i].line;
        if !lexed.is_punct(i + 1, '(') || in_ranges(inp.tests, line) {
            continue;
        }
        let mut flag = |message: String| {
            out.push(SyncFinding {
                rel: inp.rel.to_owned(),
                line,
                rule: SyncRule::Atomics,
                message,
            })
        };
        let method_call = lexed.is_punct(i - 1, '.');
        if m == "fence" || m == "compiler_fence" {
            if !method_call && lexed.ident(i - 1) != Some("fn") {
                flag(format!(
                    "`{m}(…)` orders memory by hand — production code holds no fence; \
                     put state that must be read as a consistent whole behind a `Mutex`, \
                     or state the protocol's proof with `lint: allow(sync, \"<proof>\")`"
                ));
            }
            continue;
        }
        let rmw = RMW_METHODS.contains(&m);
        if !method_call || !(rmw || m == "load" || m == "store") {
            continue;
        }
        // Only calls that pass a memory ordering are atomic accesses —
        // this is what separates `cell.store(v, Ordering::Relaxed)` from
        // an unrelated method that happens to be called `store`. Every
        // ordering argument counts: `compare_exchange`'s failure ordering
        // and both of `fetch_update`'s, not just the first.
        let close = match_fwd(lexed, i + 1);
        let orderings = call_orderings(lexed, i + 1, close);
        if orderings.is_empty() {
            continue;
        }
        let site = format!("{}.{m}", receiver(lexed, i - 1));
        let strong: Vec<&str> = orderings.into_iter().filter(|o| *o != "Relaxed").collect();
        if !strong.is_empty() {
            flag(format!(
                "`{site}(…)` names `{}` — production atomics are `Relaxed` counters \
                 (DESIGN.md §Concurrency protocol); put state that must be read as a \
                 consistent whole behind a `Mutex`, or state the protocol's proof with \
                 `lint: allow(sync, \"<proof>\")`",
                strong.join("`, `")
            ));
            continue;
        }
        let cs = chain_start(lexed, i);
        let stmt_start = cs == 0
            || matches!(
                lexed.tokens[cs - 1].tok,
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}')
            );
        if rmw && !(stmt_start && lexed.is_punct(close + 1, ';')) {
            flag(format!(
                "the result of `{site}(…, Relaxed)` is consumed — a read-modify-write \
                 whose value is observed may carry a protocol; prove it is a pure counter \
                 or ticket with `lint: allow(sync, \"<proof>\")`, or move the state \
                 behind a `Mutex`"
            ));
        }
    }
}

/// The `Ordering` variants among a call's own arguments — tokens directly
/// inside its parentheses, not inside a nested call or closure body.
fn call_orderings(lexed: &Lexed, open: usize, close: usize) -> Vec<&str> {
    let mut depth = 0i32;
    let mut found = Vec::new();
    for j in (open + 1)..close {
        match &lexed.tokens[j].tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => depth -= 1,
            Tok::Ident(w) if depth == 0 && ORDERINGS.contains(&w.as_str()) => {
                found.push(w.as_str())
            }
            _ => {}
        }
    }
    found
}

/// `recv.name` (or just `name`) for the atomic before the method's dot.
fn receiver(lexed: &Lexed, dot: usize) -> String {
    let Some((j, name)) = field_before_dot(lexed, dot) else { return "…".to_owned() };
    match (j >= 2 && lexed.is_punct(j - 1, '.')).then(|| lexed.ident(j - 2)).flatten() {
        Some(recv) => format!("{recv}.{name}"),
        None => name,
    }
}

// --- L11: lock discipline -----------------------------------------------

/// One `…lock()`/`…try_lock()` call site.
struct LockAcq {
    tok: usize,
    end: usize,
    line: u32,
    lock: String,
    method: String,
}

fn check_lock_discipline(inputs: &[SyncInput], out: &mut Vec<SyncFinding>) {
    // Acquisition-order edges: lock A held while lock B is taken.
    let mut edges: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for (fi, inp) in inputs.iter().enumerate() {
        let lexed = inp.lexed;
        for f in &inp.parsed.fns {
            if f.is_test || in_ranges(inp.tests, f.line) {
                continue;
            }
            let Some((bs, be)) = f.body else { continue };
            let acqs = collect_lock_acqs(lexed, bs, be);
            for a in &acqs {
                check_poison_parity(inp, lexed, a, out);
            }
            for a in &acqs {
                let Some((guard, stmt_end)) = guard_binding(lexed, a, bs) else { continue };
                let live_end = liveness_end(lexed, &guard, stmt_end, be);
                // Fan-out calls while the guard is live.
                for c in (stmt_end + 1)..live_end {
                    let Some(callee) = lexed.ident(c) else { continue };
                    if !FAN_OUT_CALLS.contains(&callee) || !lexed.is_punct(c + 1, '(') {
                        continue;
                    }
                    out.push(SyncFinding {
                        rel: inp.rel.to_owned(),
                        line: lexed.tokens[c].line,
                        rule: SyncRule::Locks,
                        message: format!(
                            "`{guard}` (the `{}` guard acquired on line {}) is still live \
                             across `{callee}(…)` — a pool worker contending on the same \
                             lock deadlocks the fan-out, and blocking IO pins every other \
                             thread for the syscall; `drop({guard})` first",
                            a.lock, a.line
                        ),
                    });
                }
                // Nested acquisitions while the guard is live -> order edges.
                for b in &acqs {
                    if b.tok > stmt_end && b.tok < live_end && b.lock != a.lock {
                        edges.entry((a.lock.clone(), b.lock.clone())).or_insert((fi, b.line));
                    }
                }
            }
        }
    }
    report_lock_cycles(inputs, &edges, out);
}

fn collect_lock_acqs(lexed: &Lexed, bs: usize, be: usize) -> Vec<LockAcq> {
    let mut acqs = Vec::new();
    for i in bs..be {
        let Some(m) = lexed.ident(i) else { continue };
        if (m != "lock" && m != "try_lock") || !lexed.is_punct(i + 1, '(') {
            continue;
        }
        if i < 2 || !lexed.is_punct(i - 1, '.') {
            continue;
        }
        let Some((_, lock)) = field_before_dot(lexed, i - 1) else { continue };
        let end = match_fwd(lexed, i + 1);
        acqs.push(LockAcq { tok: i, end, line: lexed.tokens[i].line, lock, method: m.to_owned() });
    }
    acqs
}

/// The guard variable a lock call binds to, plus the index of the `;`
/// ending the binding statement. `None` for unbound temporaries (their
/// guard dies at the end of the statement).
fn guard_binding(lexed: &Lexed, a: &LockAcq, bs: usize) -> Option<(String, usize)> {
    // Walk back from the receiver chain to the statement start, looking
    // for `let`.
    let cs = chain_start(lexed, a.tok);
    let mut k = cs;
    let mut let_idx = None;
    while k > bs {
        k -= 1;
        match &lexed.tokens[k].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            Tok::Ident(w) if w == "let" => {
                let_idx = Some(k);
                break;
            }
            _ => {}
        }
    }
    let li = let_idx?;
    let mut j = li + 1;
    if lexed.ident(j) == Some("mut") {
        j += 1;
    }
    let mut name = lexed.ident(j)?;
    // `let Ok(mut g) = …` / `let Some(g) = …` patterns.
    if (name == "Ok" || name == "Some") && lexed.is_punct(j + 1, '(') {
        j += 2;
        if lexed.ident(j) == Some("mut") {
            j += 1;
        }
        name = lexed.ident(j)?;
    }
    // End of the binding statement: the `;` after the call (skipping any
    // trailing `.unwrap_or_else(…)` chain and let-else block).
    let mut e = a.end + 1;
    let mut depth = 0i32;
    while e < lexed.tokens.len() {
        match lexed.tokens[e].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct(';') if depth <= 0 => break,
            _ => {}
        }
        e += 1;
    }
    Some((name.to_owned(), e))
}

/// Where the guard stops being live: `drop(guard)`, or the closing brace
/// of the binding's enclosing block.
fn liveness_end(lexed: &Lexed, guard: &str, stmt_end: usize, be: usize) -> usize {
    let mut depth = 0i32;
    let mut j = stmt_end + 1;
    while j < be {
        match &lexed.tokens[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            Tok::Ident(w)
                if w == "drop"
                    && lexed.is_punct(j + 1, '(')
                    && lexed.ident(j + 2) == Some(guard)
                    && lexed.is_punct(j + 3, ')') =>
            {
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    be
}

fn check_poison_parity(inp: &SyncInput, lexed: &Lexed, a: &LockAcq, out: &mut Vec<SyncFinding>) {
    if !lexed.is_punct(a.end + 1, '.') {
        return;
    }
    let Some(next) = lexed.ident(a.end + 2) else { return };
    if next != "unwrap" && next != "expect" {
        return;
    }
    let message = if a.method == "lock" {
        format!(
            "`.lock().{next}()` panics if the lock was poisoned by a panicking holder; \
             recover the guard with `.unwrap_or_else(std::sync::PoisonError::into_inner)` \
             — the protected state is only ever mutated under the lock, so it is \
             consistent even after a poison — or handle the `Err` explicitly"
        )
    } else {
        format!(
            "`.try_lock().{next}()` panics on plain contention (`WouldBlock`), which is \
             not an error; match on the result (`let Ok(g) = … else`) and treat a \
             contended lock as a skip"
        )
    };
    out.push(SyncFinding { rel: inp.rel.to_owned(), line: a.line, rule: SyncRule::Locks, message });
}

fn report_lock_cycles(
    inputs: &[SyncInput],
    edges: &BTreeMap<(String, String), (usize, u32)>,
    out: &mut Vec<SyncFinding>,
) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    // DFS from every node; cycles are canonicalized (rotated to start at
    // their smallest name) so each is reported exactly once.
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys() {
        let mut path: Vec<&str> = vec![start];
        dfs_cycles(&adj, &mut path, &mut seen_cycles);
    }
    for cycle in &seen_cycles {
        let mut hops = Vec::new();
        let mut anchor: Option<(usize, u32)> = None;
        for (i, held) in cycle.iter().enumerate() {
            let next = &cycle[(i + 1) % cycle.len()];
            if let Some(&(fi, line)) = edges.get(&(held.clone(), next.clone())) {
                if anchor.is_none() {
                    anchor = Some((fi, line));
                }
                hops.push(format!(
                    "`{next}.lock()` while holding `{held}` ({}:{line})",
                    inputs[fi].rel
                ));
            }
        }
        let Some((fi, line)) = anchor else { continue };
        let ring: Vec<&str> = cycle.iter().map(String::as_str).chain([cycle[0].as_str()]).collect();
        out.push(SyncFinding {
            rel: inputs[fi].rel.to_owned(),
            line,
            rule: SyncRule::Locks,
            message: format!(
                "lock-order cycle `{}`: {} — two threads entering the ring at different \
                 points deadlock; impose a single acquisition order or drop the first \
                 guard before taking the second",
                ring.join("` -> `"),
                hops.join("; ")
            ),
        });
    }
}

fn dfs_cycles<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    cycles: &mut BTreeSet<Vec<String>>,
) {
    let here = *path.last().unwrap();
    for &next in adj.get(here).into_iter().flatten() {
        if let Some(pos) = path.iter().position(|&n| n == next) {
            let cycle = &path[pos..];
            // Rotate so the smallest name leads.
            let min = cycle.iter().enumerate().min_by_key(|(_, n)| **n).map(|(i, _)| i).unwrap();
            let canon: Vec<String> =
                (0..cycle.len()).map(|i| cycle[(min + i) % cycle.len()].to_owned()).collect();
            cycles.insert(canon);
            continue;
        }
        if path.len() <= adj.len() {
            path.push(next);
            dfs_cycles(adj, path, cycles);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex, test_line_ranges};
    use crate::parse::parse_file;

    fn run(srcs: &[(&str, &str)]) -> Vec<SyncFinding> {
        let owned: Vec<(String, Lexed)> =
            srcs.iter().map(|(rel, text)| ((*rel).to_owned(), lex(text))).collect();
        let staged: Vec<(Vec<(u32, u32)>, ParsedFile)> = owned
            .iter()
            .map(|(_, lexed)| {
                let tests = test_line_ranges(lexed);
                let parsed = parse_file(lexed, &tests);
                (tests, parsed)
            })
            .collect();
        let inputs: Vec<SyncInput> = owned
            .iter()
            .zip(&staged)
            .map(|((rel, lexed), (tests, parsed))| SyncInput { rel, lexed, tests, parsed })
            .collect();
        check_sync(&inputs)
    }

    fn one(src: &str) -> Vec<SyncFinding> {
        run(&[("crates/obs/src/x.rs", src)])
    }

    #[test]
    fn consumed_relaxed_rmw_is_flagged_but_discarded_is_not() {
        let got = one(r#"
            struct S { head: AtomicU64 }
            impl S {
                fn claim(&self) -> u64 {
                    let n = self.head.fetch_add(1, Ordering::Relaxed);
                    n
                }
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("result of `self.head.fetch_add"));
        assert!(got[0].message.contains("allow(sync"));
    }

    #[test]
    fn strong_orderings_are_flagged_and_relaxed_counters_are_quiet() {
        let got = one(r#"
            struct S { ready: AtomicU64, hits: AtomicU64 }
            impl S {
                fn set(&self) { self.ready.store(1, Ordering::Release); }
                fn get(&self) -> u64 { self.ready.load(Ordering::Acquire) }
                fn claim(&self) { self.ready.fetch_add(1, Ordering::AcqRel); }
                fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }
                fn hits(&self) -> u64 { self.hits.load(Ordering::Relaxed) }
            }
        "#);
        let lines: Vec<u32> = got.iter().map(|f| f.line).collect();
        assert_eq!(lines, [4, 5, 6], "{got:?}");
        assert!(got.iter().all(|f| f.rule == SyncRule::Atomics), "{got:?}");
        assert!(got[0].message.contains("`self.ready.store(…)` names `Release`"), "{got:?}");
        assert!(got[1].message.contains("names `Acquire`"), "{got:?}");
        assert!(got[2].message.contains("names `AcqRel`"), "{got:?}");
    }

    #[test]
    fn every_ordering_argument_is_read_not_just_the_first() {
        let got = one(r#"
            struct S { state: AtomicU64 }
            impl S {
                fn try_claim(&self) -> bool {
                    self.state.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Acquire).is_ok()
                }
                fn bump(&self) {
                    let _ = self.state.fetch_update(Relaxed, SeqCst, |v| Some(v + 1));
                }
                fn quiet(&self) {
                    self.state.compare_exchange_weak(0, 1, Relaxed, Relaxed);
                }
            }
        "#);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got[0].message.contains("compare_exchange(…)` names `Acquire`"), "{got:?}");
        assert!(got[1].message.contains("fetch_update(…)` names `SeqCst`"), "{got:?}");
    }

    #[test]
    fn an_ordering_belongs_to_the_call_that_takes_it() {
        // The inner Acquire load is one finding; the Relaxed store that
        // consumes its value is not a second one.
        let got = one(r#"
            fn copy(a: &AtomicU64, b: &AtomicU64) {
                b.store(a.load(Ordering::Acquire), Ordering::Relaxed);
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`a.load(…)` names `Acquire`"), "{got:?}");
    }

    #[test]
    fn fence_calls_are_flagged_but_a_fence_method_or_definition_is_not() {
        let got = one(r#"
            use std::sync::atomic::{fence, Ordering};
            fn publish() {
                fence(Ordering::Release);
                std::sync::atomic::fence(Ordering::SeqCst);
            }
            fn fence(x: u64) -> u64 { x }
            fn other(g: &Gate) { g.fence(1); }
        "#);
        let lines: Vec<u32> = got.iter().map(|f| f.line).collect();
        assert_eq!(lines, [4, 5], "{got:?}");
        assert!(got[0].message.contains("`fence(…)`"), "{got:?}");
    }

    #[test]
    fn compiler_fence_is_flagged() {
        let got = one(r#"
            fn order() {
                std::sync::atomic::compiler_fence(Ordering::Acquire);
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`compiler_fence(…)`"), "{got:?}");
    }

    #[test]
    fn a_static_atomic_without_a_receiver_is_flagged() {
        let got = one(r#"
            static STARTED: AtomicBool = AtomicBool::new(false);
            fn start() { STARTED.store(true, Ordering::Release); }
            fn count() { CALLS.fetch_add(1, Ordering::Relaxed); }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 3);
        assert!(got[0].message.contains("`STARTED.store(…)` names `Release`"), "{got:?}");
    }

    #[test]
    fn a_bare_imported_seqcst_is_flagged() {
        let got = one(r#"
            use std::sync::atomic::Ordering::SeqCst;
            struct S { seq: AtomicU64 }
            impl S {
                fn read(&self) -> u64 { self.seq.load(SeqCst) }
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 5);
        assert!(got[0].message.contains("names `SeqCst`"), "{got:?}");
    }

    #[test]
    fn guard_live_across_fan_out_is_flagged_and_drop_silences_it() {
        let bad = one(r#"
            struct S { registry: Mutex<Vec<u64>> }
            fn fan_out(s: &S, data: &[u64]) {
                let reg = s.registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                run_claimed(data, 4, |c| c.len());
            }
        "#);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("still live across `run_claimed"));
        assert!(bad[0].message.contains("drop(reg)"));

        let good = one(r#"
            struct S { registry: Mutex<Vec<u64>> }
            fn fan_out(s: &S, data: &[u64]) {
                let reg = s.registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(reg);
                run_claimed(data, 4, |c| c.len());
            }
        "#);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn lock_order_cycle_is_reported_once_with_both_hops() {
        let got = one(r#"
            struct S { a: Mutex<u64>, b: Mutex<u64> }
            fn forward(s: &S) {
                let ga = s.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let gb = s.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            fn backward(s: &S) {
                let gb = s.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let ga = s.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, SyncRule::Locks);
        assert!(got[0].message.contains("lock-order cycle `a` -> `b` -> `a`"));
        assert!(got[0].message.contains("while holding `a`"));
        assert!(got[0].message.contains("while holding `b`"));
    }

    #[test]
    fn dropping_the_first_guard_breaks_the_cycle() {
        // The acceptance-criteria mutation, inverted: with the release
        // edge present (drop before the second acquisition) the graph is
        // acyclic; removing the `drop` re-introduces the L11 diagnostic.
        let got = one(r#"
            struct S { a: Mutex<u64>, b: Mutex<u64> }
            fn forward(s: &S) {
                let ga = s.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let gb = s.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            fn backward(s: &S) {
                let gb = s.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(gb);
                let ga = s.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        "#);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn a_ring_behind_one_mutex_is_quiet() {
        // The span ring's shape: one lock per record, a clone under the
        // lock and the parallel work after the guard's block ends.
        let got = one(r#"
            struct Ring { events: Vec<u64>, head: u64 }
            struct Tracer { capacity: usize, ring: Mutex<Ring> }
            impl Tracer {
                fn record(&self, v: u64) {
                    let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
                    let slot = (ring.head % self.capacity as u64) as usize;
                    match ring.events.get_mut(slot) {
                        Some(old) => *old = v,
                        None => ring.events.push(v),
                    }
                    ring.head += 1;
                }
                fn snapshot(&self) -> Vec<u64> {
                    let mut events = {
                        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
                        ring.events.clone()
                    };
                    events.par_iter_mut().for_each(|e| *e += 1);
                    events
                }
            }
        "#);
        assert!(got.is_empty(), "unexpected findings: {got:?}");
    }

    #[test]
    fn a_guard_block_that_reaches_the_fan_out_is_flagged() {
        // Twin of the quiet ring above: the fan-out moved inside the
        // guard's block is exactly what L11 exists to catch.
        let got = one(r#"
            struct Tracer { ring: Mutex<Vec<u64>> }
            impl Tracer {
                fn snapshot(&self) -> Vec<u64> {
                    let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
                    let mut events = ring.clone();
                    events.par_iter_mut().for_each(|e| *e += 1);
                    events
                }
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, SyncRule::Locks);
    }

    #[test]
    fn lock_unwrap_is_flagged_and_into_inner_is_the_idiom() {
        let got = one(r#"
            struct S { state: Mutex<u64> }
            impl S {
                fn bump(&self) {
                    let mut g = self.state.lock().unwrap();
                    *g += 1;
                }
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("PoisonError::into_inner"));
    }

    #[test]
    fn try_lock_let_else_is_quiet_but_try_lock_unwrap_is_not() {
        let quiet = one(r#"
            struct S { state: Mutex<u64> }
            impl S {
                fn tick(&self) -> Option<u64> {
                    let Ok(mut g) = self.state.try_lock() else { return None };
                    *g += 1;
                    Some(*g)
                }
            }
        "#);
        assert!(quiet.is_empty(), "{quiet:?}");

        let noisy = one(r#"
            struct S { state: Mutex<u64> }
            impl S {
                fn tick(&self) {
                    let mut g = self.state.try_lock().unwrap();
                    *g += 1;
                }
            }
        "#);
        assert_eq!(noisy.len(), 1, "{noisy:?}");
        assert!(noisy[0].message.contains("WouldBlock"));
    }

    #[test]
    fn test_code_is_exempt() {
        let got = one(r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let s = S { head: AtomicU64::new(0) };
                    let n = s.head.fetch_add(1, Ordering::Relaxed);
                    let g = s.state.lock().unwrap();
                }
            }
        "#);
        assert!(got.is_empty(), "{got:?}");
    }
}
