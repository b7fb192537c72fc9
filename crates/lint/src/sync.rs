//! L10/L11 — the concurrency-protocol pass.
//!
//! The hot path shares state across threads in a few places: Relaxed
//! telemetry counters everywhere, a chunk-claiming thread pool in
//! `shims/rayon`, and `Mutex`es around the pool registry in
//! `pipeline::executor`, the metric registry and the span ring in
//! `obs::trace`. Ordering bugs there cannot be exercised reliably by
//! tests on a small machine — a missing Release/Acquire edge only shows
//! on hardware weak enough (and loaded enough) to reorder the stores. So
//! the invariants are checked structurally, over the same token stream
//! the other rules use:
//!
//! - **L10 atomics discipline**: every atomic field/static/local is
//!   inventoried; a Release-strength publish must have an
//!   Acquire-strength consumer on the same atomic somewhere in the
//!   workspace (and vice versa); a `Relaxed` store on an atomic that is
//!   consumed with Acquire elsewhere is flagged; a `fetch_*`
//!   read-modify-write whose *result is consumed* under `Relaxed` must
//!   carry an audited `allow(sync, …)` proof that it is a pure counter;
//!   and a branch guarded by a Relaxed load must not read non-atomic
//!   shared fields.
//! - **L11 lock discipline**: no guard returned by `lock()`/`try_lock()`
//!   may stay live across a `par_*`/`pool.install`/blocking-IO call; the
//!   workspace lock-acquisition-order graph must be acyclic (each cycle
//!   is reported once, with every hop's site); and `lock()` results must
//!   use the `PoisonError::into_inner` recovery idiom instead of
//!   `unwrap`/`expect`.
//!
//! Like the other passes this is deliberately approximate in documented
//! ways: atomics are identified by *name* workspace-wide (a `seq` field
//! in one crate pairs with a `seq` field in another), receivers are the
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
    /// `#[cfg(test)]` line ranges — test code is exempt.
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

/// Atomic integer/bool types from `std::sync::atomic`.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicI8",
    "AtomicIsize",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicU8",
    "AtomicUsize",
];

/// Blocking lock types whose guards L11 tracks.
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock"];

/// Other synchronization-bearing type heads — never "plain shared data".
const SYNC_TYPES: &[&str] = &["Condvar", "LazyLock", "OnceCell", "OnceLock", "PhantomData"];

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
    "run_chunked",
    "sync_all",
    "write_all",
];

/// A memory ordering as written at a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ordn {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl Ordn {
    fn parse(s: &str) -> Option<Ordn> {
        Some(match s {
            "Relaxed" => Ordn::Relaxed,
            "Acquire" => Ordn::Acquire,
            "Release" => Ordn::Release,
            "AcqRel" => Ordn::AcqRel,
            "SeqCst" => Ordn::SeqCst,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Ordn::Relaxed => "Relaxed",
            Ordn::Acquire => "Acquire",
            Ordn::Release => "Release",
            Ordn::AcqRel => "AcqRel",
            Ordn::SeqCst => "SeqCst",
        }
    }
}

/// What an atomic access does to its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Load,
    Store,
    Rmw,
}

/// One atomic access site: `recv.name.method(…, Ordering::X)`.
#[derive(Debug)]
struct Access {
    file: usize,
    line: u32,
    /// Index of the method-name token.
    tok: usize,
    /// The single identifier before the field, if any (`slot`, `self`).
    recv: Option<String>,
    /// The atomic's field/static/local name.
    name: String,
    method: String,
    op: Op,
    ordering: Ordn,
    /// `true` when the call's result is observed (let-bound or used in a
    /// larger expression) rather than discarded in statement position.
    consumed: bool,
    in_test: bool,
}

/// Where an atomic or lock was declared.
#[derive(Debug)]
struct Decl {
    file: usize,
    line: u32,
    kind: &'static str,
    ty: String,
}

/// Workspace-wide name inventory: atomics, locks, and the plain
/// (non-synchronized) struct fields the taint check protects.
#[derive(Default)]
struct Inventory {
    atomics: BTreeMap<String, Vec<Decl>>,
    locks: BTreeMap<String, Vec<Decl>>,
    plain_fields: BTreeSet<String>,
}

/// Run the whole L10/L11 pass over one batch of files.
pub(crate) fn check_sync(inputs: &[SyncInput]) -> Vec<SyncFinding> {
    let inv = build_inventory(inputs);
    let accesses: Vec<Vec<Access>> =
        inputs.iter().enumerate().map(|(fi, inp)| collect_accesses(fi, inp)).collect();

    let mut out = Vec::new();
    check_pairing(inputs, &accesses, &mut out);
    check_consumed_relaxed_rmw(inputs, &accesses, &mut out);
    check_relaxed_guard_taint(inputs, &accesses, &inv, &mut out);
    check_lock_discipline(inputs, &mut out);
    out
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

/// First `Ordering` variant identifier strictly inside a call's argument
/// list — for `compare_exchange` this is the success ordering.
fn first_ordering(lexed: &Lexed, open: usize, close: usize) -> Option<Ordn> {
    ((open + 1)..close).find_map(|j| lexed.ident(j).and_then(Ordn::parse))
}

// --- access collection --------------------------------------------------

fn collect_accesses(fi: usize, inp: &SyncInput) -> Vec<Access> {
    let lexed = inp.lexed;
    let mut accs = Vec::new();
    for i in 0..lexed.tokens.len() {
        let Some(m) = lexed.ident(i) else { continue };
        if !lexed.is_punct(i + 1, '(') {
            continue;
        }
        let close = match_fwd(lexed, i + 1);
        let op = match m {
            "load" => Op::Load,
            "store" => Op::Store,
            m if RMW_METHODS.contains(&m) => Op::Rmw,
            _ => continue,
        };
        if i < 2 || !lexed.is_punct(i - 1, '.') {
            continue;
        }
        // Only calls that pass a memory ordering are atomic accesses —
        // this is what separates `cell.store(v, Ordering::Release)` from
        // an unrelated method that happens to be called `store`.
        let Some(ordering) = first_ordering(lexed, i + 1, close) else { continue };
        let Some((name_idx, name)) = field_before_dot(lexed, i - 1) else { continue };
        let recv = if name_idx >= 2 && lexed.is_punct(name_idx - 1, '.') {
            lexed.ident(name_idx - 2).map(str::to_owned)
        } else {
            None
        };
        let cs = chain_start(lexed, name_idx);
        let stmt_start = cs == 0
            || matches!(
                lexed.tokens[cs - 1].tok,
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}')
            );
        let consumed = !(stmt_start && lexed.is_punct(close + 1, ';'));
        let line = lexed.tokens[i].line;
        accs.push(Access {
            file: fi,
            line,
            tok: i,
            recv,
            name,
            method: m.to_owned(),
            op,
            ordering,
            consumed,
            in_test: in_ranges(inp.tests, line),
        });
    }
    accs
}

// --- inventory ----------------------------------------------------------

fn build_inventory(inputs: &[SyncInput]) -> Inventory {
    let mut inv = Inventory::default();
    for (fi, inp) in inputs.iter().enumerate() {
        scan_struct_fields(fi, inp, &mut inv);
        scan_statics_and_locals(fi, inp, &mut inv);
    }
    let taken: BTreeSet<String> = inv.atomics.keys().chain(inv.locks.keys()).cloned().collect();
    inv.plain_fields.retain(|n| !taken.contains(n));
    inv
}

/// Classify one type region by the identifiers it contains. Returns the
/// matched sync type, or `None` for plain data.
fn classify_type(lexed: &Lexed, from: usize, to: usize) -> Option<(&'static str, String)> {
    for j in from..to {
        if let Some(w) = lexed.ident(j) {
            if let Some(t) = ATOMIC_TYPES.iter().find(|t| **t == w) {
                return Some(("atomic", (*t).to_owned()));
            }
            if let Some(t) = LOCK_TYPES.iter().find(|t| **t == w) {
                return Some(("lock", (*t).to_owned()));
            }
            if SYNC_TYPES.contains(&w) {
                return Some(("sync", w.to_owned()));
            }
        }
    }
    None
}

fn record_decl(inv: &mut Inventory, class: Option<(&'static str, String)>, name: &str, d: Decl) {
    match class {
        Some(("atomic", ty)) => {
            inv.atomics.entry(name.to_owned()).or_default().push(Decl { ty, ..d })
        }
        Some(("lock", ty)) => inv.locks.entry(name.to_owned()).or_default().push(Decl { ty, ..d }),
        Some(_) => {}
        None => {
            if d.kind == "field" {
                inv.plain_fields.insert(name.to_owned());
            }
        }
    }
}

fn scan_struct_fields(fi: usize, inp: &SyncInput, inv: &mut Inventory) {
    let lexed = inp.lexed;
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if lexed.ident(i) != Some("struct") || lexed.ident(i + 1).is_none() {
            i += 1;
            continue;
        }
        if in_ranges(inp.tests, toks[i].line) {
            i += 1;
            continue;
        }
        // Find the `{` of a braced struct; tuple structs and unit structs
        // hit `(` or `;` first and are skipped.
        let mut j = i + 2;
        let mut angle = 0i32;
        loop {
            match toks.get(j).map(|t| &t.tok) {
                Some(Tok::Punct('<')) => angle += 1,
                Some(Tok::Punct('>')) => angle -= 1,
                Some(Tok::Punct('{')) if angle <= 0 => break,
                Some(Tok::Punct('(')) | Some(Tok::Punct(';')) | None => {
                    j = usize::MAX;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if j == usize::MAX {
            i += 1;
            continue;
        }
        let close = match_fwd(lexed, j);
        let mut k = j + 1;
        while k < close {
            // A field is `name :` at struct-body depth, preceded by `{`,
            // `,` or a visibility modifier.
            let is_field = lexed.ident(k).is_some()
                && lexed.is_punct(k + 1, ':')
                && !lexed.is_punct(k + 2, ':')
                && (lexed.is_punct(k - 1, '{')
                    || lexed.is_punct(k - 1, ',')
                    || lexed.is_punct(k - 1, ')')
                    || lexed.ident(k - 1) == Some("pub"));
            if !is_field {
                k += 1;
                continue;
            }
            let name = lexed.ident(k).unwrap().to_owned();
            // Type region: to the `,` at field depth or the struct close.
            let mut end = k + 2;
            let mut depth = 0i32;
            while end < close {
                match toks[end].tok {
                    Tok::Punct('<') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct('>') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Punct(',') if depth <= 0 => break,
                    _ => {}
                }
                end += 1;
            }
            let class = classify_type(lexed, k + 2, end);
            let d = Decl { file: fi, line: toks[k].line, kind: "field", ty: String::new() };
            record_decl(inv, class, &name, d);
            k = end + 1;
        }
        i = close + 1;
    }
}

fn scan_statics_and_locals(fi: usize, inp: &SyncInput, inv: &mut Inventory) {
    let lexed = inp.lexed;
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if in_ranges(inp.tests, toks[i].line) {
            continue;
        }
        match lexed.ident(i) {
            Some("static") => {
                let mut j = i + 1;
                if lexed.ident(j) == Some("mut") {
                    j += 1;
                }
                let Some(name) = lexed.ident(j) else { continue };
                if !lexed.is_punct(j + 1, ':') {
                    continue;
                }
                let mut end = j + 2;
                while end < toks.len() && !lexed.is_punct(end, '=') && !lexed.is_punct(end, ';') {
                    end += 1;
                }
                let class = classify_type(lexed, j + 2, end);
                let d = Decl { file: fi, line: toks[i].line, kind: "static", ty: String::new() };
                record_decl(inv, class, name, d);
            }
            Some("let") => {
                let mut j = i + 1;
                if lexed.ident(j) == Some("mut") {
                    j += 1;
                }
                let Some(name) = lexed.ident(j) else { continue };
                if !lexed.is_punct(j + 1, '=') {
                    continue;
                }
                let mut end = j + 2;
                let mut depth = 0i32;
                while end < toks.len() {
                    match toks[end].tok {
                        Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                        Tok::Punct(';') if depth <= 0 => break,
                        _ => {}
                    }
                    end += 1;
                }
                let class = classify_type(lexed, j + 2, end);
                if class.is_some() {
                    let d = Decl { file: fi, line: toks[i].line, kind: "local", ty: String::new() };
                    record_decl(inv, class, name, d);
                }
            }
            _ => {}
        }
    }
}

// --- L10: Release/Acquire pairing ---------------------------------------

fn site(recv: &Option<String>, name: &str) -> String {
    match recv {
        Some(r) => format!("{r}.{name}"),
        None => name.to_owned(),
    }
}

fn is_release_write(a: &Access) -> bool {
    match a.op {
        Op::Store => matches!(a.ordering, Ordn::Release | Ordn::SeqCst),
        Op::Rmw => matches!(a.ordering, Ordn::Release | Ordn::AcqRel | Ordn::SeqCst),
        Op::Load => false,
    }
}

fn is_acquire_read(a: &Access) -> bool {
    match a.op {
        Op::Load => matches!(a.ordering, Ordn::Acquire | Ordn::SeqCst),
        Op::Rmw => matches!(a.ordering, Ordn::Acquire | Ordn::AcqRel | Ordn::SeqCst),
        Op::Store => false,
    }
}

fn check_pairing(inputs: &[SyncInput], accesses: &[Vec<Access>], out: &mut Vec<SyncFinding>) {
    let mut by_name: BTreeMap<&str, Vec<&Access>> = BTreeMap::new();
    for accs in accesses {
        for a in accs {
            if !a.in_test {
                by_name.entry(a.name.as_str()).or_default().push(a);
            }
        }
    }
    for (name, accs) in &by_name {
        let releases: Vec<&&Access> = accs.iter().filter(|a| is_release_write(a)).collect();
        let acquires: Vec<&&Access> = accs.iter().filter(|a| is_acquire_read(a)).collect();
        let relaxed_writes: Vec<&&Access> =
            accs.iter().filter(|a| a.op != Op::Load && a.ordering == Ordn::Relaxed).collect();

        if !acquires.is_empty() {
            // The field participates in a publish protocol: every Relaxed
            // write is a hole in it. (A consumed Relaxed RMW is reported
            // by the dedicated RMW check instead.)
            for w in &relaxed_writes {
                if w.op == Op::Rmw && w.consumed {
                    continue;
                }
                out.push(SyncFinding {
                    rel: inputs[w.file].rel.to_owned(),
                    line: w.line,
                    rule: SyncRule::Atomics,
                    message: format!(
                        "`{}.{}(…, Relaxed)` publishes `{name}`, which is consumed with \
                         Acquire elsewhere ({}:{}) — a reader can observe the new value \
                         without the writes that preceded it; use Release ordering",
                        site(&w.recv, &w.name),
                        w.method,
                        inputs[acquires[0].file].rel,
                        acquires[0].line
                    ),
                });
            }
            if releases.is_empty() && relaxed_writes.is_empty() {
                for a in &acquires {
                    out.push(SyncFinding {
                        rel: inputs[a.file].rel.to_owned(),
                        line: a.line,
                        rule: SyncRule::Atomics,
                        message: format!(
                            "`{}.{}(Acquire)` has no Release-strength publish on `{name}` \
                             anywhere in the workspace — the acquire synchronizes with \
                             nothing; pair it with `store(Release)` or drop to Relaxed \
                             with an `allow(sync, …)` proof",
                            site(&a.recv, &a.name),
                            a.method
                        ),
                    });
                }
            }
        }
        if !releases.is_empty() && acquires.is_empty() {
            for r in &releases {
                out.push(SyncFinding {
                    rel: inputs[r.file].rel.to_owned(),
                    line: r.line,
                    rule: SyncRule::Atomics,
                    message: format!(
                        "`{}.{}(…, Release)` publishes `{name}` but no Acquire-strength \
                         load reads it anywhere in the workspace — the release pairs with \
                         nothing; add the `load(Acquire)` consumer or downgrade \
                         deliberately with an `allow(sync, …)` proof",
                        site(&r.recv, &r.name),
                        r.method
                    ),
                });
            }
        }
    }
}

// --- L10: consumed Relaxed RMW ------------------------------------------

fn check_consumed_relaxed_rmw(
    inputs: &[SyncInput],
    accesses: &[Vec<Access>],
    out: &mut Vec<SyncFinding>,
) {
    for accs in accesses {
        for a in accs {
            if a.in_test || a.op != Op::Rmw || a.ordering != Ordn::Relaxed || !a.consumed {
                continue;
            }
            out.push(SyncFinding {
                rel: inputs[a.file].rel.to_owned(),
                line: a.line,
                rule: SyncRule::Atomics,
                message: format!(
                    "the result of `{}.{}(…, Relaxed)` is consumed — a read-modify-write \
                     whose value is observed participates in a protocol; pair the ordering \
                     (`AcqRel`, or `Release` + an Acquire load) or prove it is a pure \
                     counter with `lint: allow(sync, \"<proof>\")`",
                    site(&a.recv, &a.name),
                    a.method
                ),
            });
        }
    }
}

// --- L10: Relaxed-guard taint -------------------------------------------

fn check_relaxed_guard_taint(
    inputs: &[SyncInput],
    accesses: &[Vec<Access>],
    inv: &Inventory,
    out: &mut Vec<SyncFinding>,
) {
    for (fi, inp) in inputs.iter().enumerate() {
        let lexed = inp.lexed;
        let relaxed_reads: Vec<&Access> = accesses[fi]
            .iter()
            .filter(|a| !a.in_test && a.ordering == Ordn::Relaxed && a.op != Op::Store)
            .collect();
        if relaxed_reads.is_empty() {
            continue;
        }
        for f in &inp.parsed.fns {
            if f.is_test {
                continue;
            }
            let Some((bs, be)) = f.body else { continue };
            // Variables let-bound from a Relaxed load/RMW in this body.
            let mut tainted: BTreeSet<&str> = BTreeSet::new();
            let mut i = bs;
            while i < be {
                if lexed.ident(i) == Some("let") {
                    let mut j = i + 1;
                    if lexed.ident(j) == Some("mut") {
                        j += 1;
                    }
                    if let Some(v) = lexed.ident(j) {
                        if lexed.is_punct(j + 1, '=') {
                            let mut end = j + 2;
                            let mut depth = 0i32;
                            while end < be {
                                match lexed.tokens[end].tok {
                                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => {
                                        depth += 1
                                    }
                                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                                        depth -= 1
                                    }
                                    Tok::Punct(';') if depth <= 0 => break,
                                    _ => {}
                                }
                                end += 1;
                            }
                            if relaxed_reads.iter().any(|a| a.tok > j && a.tok < end) {
                                tainted.insert(v);
                            }
                            i = end;
                        }
                    }
                }
                i += 1;
            }
            // Branch conditions that observe a Relaxed value, and the
            // plain-field reads inside the blocks they guard.
            let mut i = bs;
            while i < be {
                let kw = lexed.ident(i);
                if kw != Some("if") && kw != Some("while") {
                    i += 1;
                    continue;
                }
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < be {
                    match lexed.tokens[j].tok {
                        Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                        Tok::Punct('{') if depth <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j >= be {
                    break;
                }
                let cond_tainted = relaxed_reads.iter().any(|a| a.tok > i && a.tok < j)
                    || ((i + 1)..j).any(|t| lexed.ident(t).is_some_and(|w| tainted.contains(w)));
                if !cond_tainted {
                    i = j + 1;
                    continue;
                }
                let block_end = match_fwd(lexed, j);
                let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
                for q in (j + 1)..block_end {
                    let Some(field) = lexed.ident(q) else { continue };
                    if !inv.plain_fields.contains(field)
                        || !lexed.is_punct(q - 1, '.')
                        || lexed.ident(q.wrapping_sub(2)).is_none()
                        || lexed.is_punct(q + 1, '(')
                    {
                        continue;
                    }
                    let line = lexed.tokens[q].line;
                    if !seen.insert((line, field.to_owned())) {
                        continue;
                    }
                    out.push(SyncFinding {
                        rel: inp.rel.to_owned(),
                        line,
                        rule: SyncRule::Atomics,
                        message: format!(
                            "this branch is guarded by a Relaxed atomic read but reads the \
                             non-atomic field `{field}` — Relaxed creates no happens-before \
                             edge, so the field may be stale or torn; load the guard with \
                             Acquire (paired with a Release publish) or prove independence \
                             with `lint: allow(sync, \"<proof>\")`"
                        ),
                    });
                }
                i = j + 1;
            }
        }
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

// --- the --sync-report artifact -----------------------------------------

/// The `--sync-report` JSON artifact: the atomic inventory with every
/// non-test access, the lock inventory, and the lock-acquisition-order
/// edges. Hand-rolled and sorted like every other report in this crate,
/// so equal workspaces produce byte-identical artifacts.
pub(crate) fn report_json(inputs: &[SyncInput]) -> String {
    use crate::findings::json_str;

    let inv = build_inventory(inputs);
    let accesses: Vec<Vec<Access>> =
        inputs.iter().enumerate().map(|(fi, inp)| collect_accesses(fi, inp)).collect();
    // Group non-test accesses under the inventory names; accesses on
    // locals that never reached the inventory get their own entries.
    let mut by_name: BTreeMap<String, Vec<&Access>> = BTreeMap::new();
    for accs in &accesses {
        for a in accs {
            if !a.in_test {
                by_name.entry(a.name.clone()).or_default().push(a);
            }
        }
    }
    let mut edges: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    {
        let mut scratch = Vec::new();
        collect_edges_only(inputs, &mut edges, &mut scratch);
    }

    let mut out = String::from("{\n  \"version\": 1,\n  \"atomics\": [");
    let names: Vec<&String> = inv
        .atomics
        .keys()
        .chain(by_name.keys().filter(|n| !inv.atomics.contains_key(*n)))
        .collect();
    let mut first = true;
    for name in names {
        let decls = inv.atomics.get(name);
        let accs = by_name.get(name);
        if decls.is_none() && accs.is_none() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {{\"name\": {}, \"declared\": [", json_str(name)));
        for (i, d) in decls.into_iter().flatten().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"file\": {}, \"line\": {}, \"kind\": {}, \"type\": {}}}",
                json_str(inputs[d.file].rel),
                d.line,
                json_str(d.kind),
                json_str(&d.ty)
            ));
        }
        out.push_str("], \"accesses\": [");
        let mut sorted: Vec<&&Access> = accs.into_iter().flatten().collect();
        sorted.sort_by_key(|a| (inputs[a.file].rel, a.line, a.tok));
        for (i, a) in sorted.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"file\": {}, \"line\": {}, \"method\": {}, \"ordering\": {}}}",
                json_str(inputs[a.file].rel),
                a.line,
                json_str(&a.method),
                json_str(a.ordering.name())
            ));
        }
        out.push_str("]}");
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"locks\": [");
    for (i, (name, decls)) in inv.locks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {{\"name\": {}, \"declared\": [", json_str(name)));
        for (j, d) in decls.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"file\": {}, \"line\": {}, \"kind\": {}, \"type\": {}}}",
                json_str(inputs[d.file].rel),
                d.line,
                json_str(d.kind),
                json_str(&d.ty)
            ));
        }
        out.push_str("]}");
    }
    if !inv.locks.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"lock_order_edges\": [");
    for (i, ((from, to), (fi, line))) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}}}",
            json_str(from),
            json_str(to),
            json_str(inputs[*fi].rel),
            line
        ));
    }
    if !edges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Edge collection shared with the report: same walk as
/// [`check_lock_discipline`], without emitting findings.
fn collect_edges_only(
    inputs: &[SyncInput],
    edges: &mut BTreeMap<(String, String), (usize, u32)>,
    _scratch: &mut Vec<SyncFinding>,
) {
    for (fi, inp) in inputs.iter().enumerate() {
        let lexed = inp.lexed;
        for f in &inp.parsed.fns {
            if f.is_test {
                continue;
            }
            let Some((bs, be)) = f.body else { continue };
            let acqs = collect_lock_acqs(lexed, bs, be);
            for a in &acqs {
                let Some((guard, stmt_end)) = guard_binding(lexed, a, bs) else { continue };
                let live_end = liveness_end(lexed, &guard, stmt_end, be);
                for b in &acqs {
                    if b.tok > stmt_end && b.tok < live_end && b.lock != a.lock {
                        edges.entry((a.lock.clone(), b.lock.clone())).or_insert((fi, b.line));
                    }
                }
            }
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
    fn release_store_without_acquire_consumer_is_flagged() {
        let got = one(r#"
            struct S { published: AtomicU64 }
            impl S {
                fn set(&self, v: u64) { self.published.store(v, Ordering::Release); }
                fn peek(&self) -> u64 { self.published.load(Ordering::Relaxed) }
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("no Acquire-strength load"));
    }

    #[test]
    fn relaxed_store_on_acquire_consumed_field_is_flagged() {
        let got = one(r#"
            struct S { flag: AtomicU64 }
            impl S {
                fn set(&self) { self.flag.store(1, Ordering::Relaxed); }
                fn wait(&self) -> u64 { self.flag.load(Ordering::Acquire) }
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("use Release ordering"));
    }

    #[test]
    fn paired_release_acquire_is_quiet_and_so_are_pure_relaxed_counters() {
        let got = one(r#"
            struct S { ready: AtomicU64, hits: AtomicU64 }
            impl S {
                fn set(&self) { self.ready.store(1, Ordering::Release); }
                fn get(&self) -> u64 { self.ready.load(Ordering::Acquire) }
                fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }
                fn hits(&self) -> u64 { self.hits.load(Ordering::Relaxed) }
            }
        "#);
        assert!(got.is_empty(), "{got:?}");
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
    fn relaxed_guard_over_plain_field_read_is_tainted() {
        let got = one(r#"
            struct S { ready: AtomicU64, data: Vec<u64> }
            impl S {
                fn read(&self) -> u64 {
                    let ok = self.ready.load(Ordering::Relaxed);
                    if ok > 0 {
                        return self.data.len() as u64;
                    }
                    0
                }
            }
        "#);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("non-atomic field `data`"));
    }

    #[test]
    fn relaxed_guard_over_early_return_is_quiet() {
        // A Relaxed-floor fast path: the Relaxed load only gates an
        // early return; the shared state behind it is lock-protected.
        let got = one(r#"
            struct S { floor: AtomicU64, top: Mutex<Vec<u64>> }
            impl S {
                fn offer(&self, v: u64) {
                    let full_floor = self.floor.load(Ordering::Relaxed);
                    if v <= full_floor && full_floor > 0 {
                        return;
                    }
                    let mut top = self.top.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    top.push(v);
                }
            }
        "#);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn guard_live_across_fan_out_is_flagged_and_drop_silences_it() {
        let bad = one(r#"
            struct S { registry: Mutex<Vec<u64>> }
            fn fan_out(s: &S, data: &[u64]) {
                let reg = s.registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                run_chunked(data, 4, |c| c.len());
            }
        "#);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("still live across `run_chunked"));
        assert!(bad[0].message.contains("drop(reg)"));

        let good = one(r#"
            struct S { registry: Mutex<Vec<u64>> }
            fn fan_out(s: &S, data: &[u64]) {
                let reg = s.registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(reg);
                run_chunked(data, 4, |c| c.len());
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

    #[test]
    fn pairing_matches_names_across_files() {
        let got = run(&[
            (
                "crates/obs/src/w.rs",
                r#"
                struct W { ready: AtomicU64 }
                impl W { fn set(&self) { self.ready.store(1, Ordering::Release); } }
                "#,
            ),
            (
                "crates/pipeline/src/r.rs",
                r#"
                struct R { ready: AtomicU64 }
                impl R { fn get(&self) -> u64 { self.ready.load(Ordering::Acquire) } }
                "#,
            ),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn sync_report_is_stable_and_lists_the_inventory() {
        let srcs = [(
            "crates/obs/src/x.rs",
            r#"
            struct S { ready: AtomicU64, state: Mutex<u64> }
            impl S {
                fn set(&self) { self.ready.store(1, Ordering::Release); }
                fn get(&self) -> u64 { self.ready.load(Ordering::Acquire) }
            }
            "#,
        )];
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
        let a = report_json(&inputs);
        let b = report_json(&inputs);
        assert_eq!(a, b);
        assert!(a.contains("\"name\": \"ready\""));
        assert!(a.contains("\"ordering\": \"Release\""));
        assert!(a.contains("\"name\": \"state\""));
        assert!(a.contains("\"lock_order_edges\": []"));
    }
}
