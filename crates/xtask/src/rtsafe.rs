//! Real-time-safety lints (`cargo run -p xtask -- rtsafe`).
//!
//! The engine lives or dies by per-tick deadlines: a missed device
//! buffer refill is an audible underrun (paper §6). PR 1 proved the
//! steady-state tick allocation-free *dynamically*, on one route shape;
//! these passes prove the property *statically*, for every reachable
//! path, in the PR 2/PR 7 analyzer lineage (DESIGN.md §16):
//!
//! - **rt-entries** — the declared RT entry-point table
//!   ([`RT_ENTRIES`]) is cross-checked against the sources: an entry
//!   whose function no longer exists is a rotted table, and fails.
//! - **rt-alloc / rt-block / rt-unbounded** — a text-level call graph
//!   is extracted over `crates/core`, `crates/dsp` and `crates/hw`;
//!   reachability is computed from each entry, carrying that entry's
//!   *sink-class mask* (the tick must not allocate, block, or loop
//!   unboundedly; the fast path and the outbound drain allocate by
//!   design — replies and frames — but must never block or spin).
//!   Every line of every reachable function is then scanned for
//!   classified sinks: allocation (`Box::new`, `with_capacity`,
//!   `vec![`, `.collect(..)`, `format!`, `.to_string()`, `.to_vec()`,
//!   `.to_owned()`, `.push(..)`, `.clone()`), blocking (`.lock()`,
//!   `.read()`, `.write()`, channel `.send(..)`/`.recv(..)`,
//!   `thread::sleep`, `std::fs`, console printing), and unbounded work
//!   (the `loop` keyword — `for`/`while` over engine state are bounded
//!   by that state's size and the per-tick command budget).
//! - **rt-marker** — the justification grammar. A flagged line may
//!   carry `// rt-ok: <reason>`; a function whose whole body is
//!   justified (the plan rebuilder, command installation) may carry
//!   `// rt-ok(fn): <reason>` on or immediately above its header.
//!   Markers are checked *bidirectionally*: a marker on a line (or
//!   function) the passes would not flag is stale and fails, as does
//!   an empty reason. Every accepted `rt-ok` in the engine pairs with
//!   an `AllocRelax` scope so the debug-build sentinel
//!   (`da_server::rt`) enforces the same boundary at runtime.
//!
//! Same conventions as `lint` and `races`: text-level scanning so the
//! self-tests can lint deliberately broken fixture strings, and an
//! allowlist (`crates/xtask/rtsafe-allow.txt`) that is empty at merge.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::io;
use std::path::Path;

use crate::{
    apply_allowlist, brace_delta, finding, has_word, parse_allowlist, strip_comment, Finding,
    Sources,
};

/// Sink class: heap allocation.
pub const ALLOC: u8 = 1;
/// Sink class: blocking (locks, channels, I/O, sleeps).
pub const BLOCK: u8 = 2;
/// Sink class: unbounded work.
pub const UNBOUNDED: u8 = 4;

/// One declared real-time entry point.
pub struct RtEntry {
    /// Path suffix of the file declaring the function.
    pub file: &'static str,
    /// The function's name.
    pub func: &'static str,
    /// Which sink classes are forbidden on paths from this entry.
    pub classes: u8,
}

/// The RT entry-point table (DESIGN.md §16). Masks differ by contract:
/// the engine tick must be allocation-free in steady state, while the
/// fast path and the outbound drain allocate by design (replies,
/// resources, wire frames) but run under the read lock / on the I/O
/// worker loop and must never block or spin.
pub const RT_ENTRIES: &[RtEntry] = &[
    RtEntry {
        file: "core/src/engine.rs",
        func: "tick",
        classes: ALLOC | BLOCK | UNBOUNDED,
    },
    RtEntry { file: "core/src/fastpath.rs", func: "exec_shard", classes: BLOCK | UNBOUNDED },
    RtEntry { file: "core/src/connplane.rs", func: "drain_outbound", classes: BLOCK | UNBOUNDED },
];

/// Allocation sinks, matched as substrings of comment-stripped code.
const ALLOC_SINKS: &[&str] = &[
    "Box::new(",
    "with_capacity(",
    "vec![",
    ".to_vec()",
    ".collect(",
    ".collect::<",
    "format!(",
    ".to_string()",
    ".to_owned()",
    ".push(",
    ".clone()",
];

/// Blocking sinks. `.lock()`/`.read()`/`.write()` are the literal
/// zero-argument lock acquisitions (an argumentful `.write(buf)` is
/// I/O-trait plumbing, not a lock); `.send(`/`.recv(` deliberately do
/// *not* match their non-blocking `.try_send(`/`.try_recv(` cousins.
const BLOCK_SINKS: &[&str] = &[
    ".lock()",
    ".read()",
    ".write()",
    ".send(",
    ".recv(",
    "thread::sleep",
    "std::fs::",
    "println!(",
    "eprintln!(",
];

const PASS_ENTRIES: &str = "rt-entries";
const PASS_ALLOC: &str = "rt-alloc";
const PASS_BLOCK: &str = "rt-block";
const PASS_UNBOUNDED: &str = "rt-unbounded";
const PASS_MARKER: &str = "rt-marker";

/// One function extracted from a scanned file.
struct FnRec {
    /// Index into the scanned file list.
    file: usize,
    name: String,
    /// The `impl` type the function sits in, if any.
    owner: Option<String>,
    /// Body lines as `(1-based line number, raw text)`, header included.
    lines: Vec<(usize, String)>,
    /// `// rt-ok(fn): <reason>` attached to the header, if any.
    fn_marker: Option<(usize, String)>,
}

/// The `impl` target type of an `impl ...` header line, if it is one.
fn impl_type(code: &str) -> Option<String> {
    let t = code.trim_start();
    let t = t.strip_prefix("unsafe ").unwrap_or(t);
    let mut rest = t.strip_prefix("impl")?;
    if rest.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
        return None; // an identifier like `implementation`
    }
    // Skip the generic parameter list, if any.
    if let Some(r) = rest.trim_start().strip_prefix('<') {
        let mut depth = 1i32;
        let mut end = None;
        for (i, c) in r.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &r[end?..];
    }
    let rest = match rest.find(" for ") {
        Some(i) => &rest[i + 5..],
        None => rest,
    };
    // Last path segment of the type, up to its own generics.
    let head = rest.trim_start().split('{').next().unwrap_or("").trim();
    let head = head.split('<').next().unwrap_or("").trim();
    let name = head.rsplit("::").next().unwrap_or("").trim();
    let ident: String =
        name.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// The declared function's name, if `code` is a `fn` header line.
fn fn_header_name(code: &str) -> Option<String> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(i) = code[start..].find("fn") {
        let at = start + i;
        start = at + 2;
        let before_ok = !code[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !code[at + 2..].chars().next().is_some_and(is_ident);
        if !(before_ok && after_ok) {
            continue;
        }
        let rest = code[at + 2..].trim_start();
        let name: String = rest.chars().take_while(|c| is_ident(*c)).collect();
        if name.is_empty() {
            continue; // `fn(u32) -> u32` function-pointer type
        }
        let after = rest[name.len()..].trim_start();
        if after.starts_with('(') || after.starts_with('<') {
            return Some(name);
        }
    }
    None
}

/// A call site: how the callee was named decides how it resolves.
enum Callee {
    /// `helper(..)` — a free function.
    Free(String),
    /// `x.method(..)` — a method of any scanned type.
    Method(String),
    /// `Type::method(..)` — a method of exactly that type.
    Qualified(String, String),
    /// `Self::method(..)` — a method of the caller's own impl type.
    SelfQual(String),
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "fn", "let", "else",
    "await", "ref", "mut", "dyn", "impl", "where", "unsafe", "pub", "use", "crate", "super",
];

/// Extracts every call site on one comment-stripped line.
fn calls_on_line(code: &str, out: &mut Vec<Callee>) {
    let b = code.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    for (i, &c) in b.iter().enumerate() {
        if c != b'(' {
            continue;
        }
        let mut s = i;
        while s > 0 && ident(b[s - 1]) {
            s -= 1;
        }
        if s == i || b[s].is_ascii_digit() {
            continue;
        }
        let name = &code[s..i];
        if KEYWORDS.contains(&name) {
            continue;
        }
        if name.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue; // tuple-struct / enum-variant constructor
        }
        if code[..s].ends_with("fn ") {
            continue; // a declaration, not a call
        }
        if s > 0 && b[s - 1] == b'.' {
            out.push(Callee::Method(name.to_string()));
        } else if s >= 2 && b[s - 1] == b':' && b[s - 2] == b':' {
            let mut q = s - 2;
            while q > 0 && ident(b[q - 1]) {
                q -= 1;
            }
            let qual = &code[q..s - 2];
            if qual == "Self" {
                out.push(Callee::SelfQual(name.to_string()));
            } else if qual.starts_with(|c: char| c.is_ascii_uppercase()) {
                out.push(Callee::Qualified(qual.to_string(), name.to_string()));
            } else {
                // A module path (`dtmf::dial_string`) — resolve by
                // name alone, as either a free fn or a method.
                out.push(Callee::Free(name.to_string()));
                out.push(Callee::Method(name.to_string()));
            }
        } else {
            out.push(Callee::Free(name.to_string()));
        }
    }
}

/// `// rt-ok(fn): <reason>` on the header line or in the contiguous
/// comment/attribute run immediately above it.
fn find_fn_marker(lines: &[&str], header_idx: usize) -> Option<(usize, String)> {
    let grab = |idx: usize| -> Option<(usize, String)> {
        let at = lines[idx].find("rt-ok(fn):")?;
        Some((idx + 1, lines[idx][at + "rt-ok(fn):".len()..].trim().to_string()))
    };
    if let Some(m) = grab(header_idx) {
        return Some(m);
    }
    let mut i = header_idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if !(t.starts_with("//") || t.starts_with("#[") || t.is_empty()) {
            break;
        }
        if let Some(m) = grab(i) {
            return Some(m);
        }
    }
    None
}

/// Parses `files` into function records plus, per file, the number of
/// leading lines that are real (non-`#[cfg(test)]`) code.
fn extract_fns(files: &[(String, String)]) -> (Vec<FnRec>, Vec<usize>) {
    let mut fns = Vec::new();
    let mut cutoffs = Vec::with_capacity(files.len());
    for (fi, (_, text)) in files.iter().enumerate() {
        let lines: Vec<&str> = text.lines().collect();
        let mut cutoff = lines.len();
        let mut depth = 0i32;
        let mut impls: Vec<(String, i32)> = Vec::new();
        let mut cur: Option<FnRec> = None;
        let mut cur_floor = 0i32;
        let mut cur_open = false;
        let mut pending_cfg_test = false;
        for (idx, raw) in lines.iter().enumerate() {
            let t = raw.trim_start();
            if t.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if pending_cfg_test {
                if t.starts_with("mod ") || t.starts_with("pub mod ") {
                    // Everything below is the test module.
                    cutoff = idx;
                    break;
                }
                if !t.starts_with("#[") {
                    pending_cfg_test = false;
                }
            }
            let code = strip_comment(raw);
            let before = depth;
            if cur.is_none() || !cur_open {
                if let Some(name) = fn_header_name(code) {
                    cur = Some(FnRec {
                        file: fi,
                        name,
                        owner: impls.last().map(|(t, _)| t.clone()),
                        lines: Vec::new(),
                        fn_marker: find_fn_marker(&lines, idx),
                    });
                    cur_floor = before;
                    cur_open = false;
                }
            }
            if cur.is_none() {
                if let Some(ty) = impl_type(code) {
                    impls.push((ty, before));
                }
            }
            if let Some(f) = cur.as_mut() {
                f.lines.push((idx + 1, (*raw).to_string()));
            }
            depth += brace_delta(raw);
            if cur.is_some() {
                if !cur_open && code.contains('{') {
                    cur_open = true;
                }
                if cur_open {
                    if depth <= cur_floor {
                        fns.extend(cur.take());
                    }
                } else if code.contains(';') && depth <= cur_floor {
                    cur = None; // bodyless declaration (trait signature)
                }
            }
            impls.retain(|(_, d)| depth > *d);
        }
        if cur_open {
            fns.extend(cur.take());
        }
        cutoffs.push(cutoff);
    }
    (fns, cutoffs)
}

/// Runs the reachability passes over `files` with the given entry
/// table. Public so the self-tests can drive small fixture graphs.
pub fn run_rtsafe_files(files: &[(String, String)], entries: &[RtEntry]) -> Vec<Finding> {
    let mut out = Vec::new();
    let (fns, cutoffs) = extract_fns(files);

    // Name-resolution indexes.
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut frees: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if f.owner.is_some() {
            methods.entry(&f.name).or_default().push(i);
        } else {
            frees.entry(&f.name).or_default().push(i);
        }
    }
    // Per-file identifier vocabulary, used to narrow ambiguous
    // dot-call resolution: a `.start()` in a file that never names
    // (or embeds, as in `TypedQueue`) the type `ConnPlane` is not
    // calling `ConnPlane::start`.
    let vocab: Vec<BTreeSet<String>> = files
        .iter()
        .map(|(_, text)| {
            let mut words = BTreeSet::new();
            let mut cur = String::new();
            for ch in text.chars() {
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    cur.push(ch);
                } else if !cur.is_empty() {
                    words.insert(std::mem::take(&mut cur));
                }
            }
            if !cur.is_empty() {
                words.insert(cur);
            }
            words
        })
        .collect();
    let mentions = |file: usize, owner: &str| vocab[file].iter().any(|w| w.contains(owner));

    let resolve =
        |c: &Callee, from_file: usize, from_owner: Option<&str>, into: &mut BTreeSet<usize>| {
            match c {
                Callee::Free(n) => {
                    // An unqualified call binds to the caller's own
                    // module first; only fan out across files when the
                    // name has no local definition.
                    let all: Vec<usize> =
                        frees.get(n.as_str()).into_iter().flatten().copied().collect();
                    let local: Vec<usize> =
                        all.iter().copied().filter(|&i| fns[i].file == from_file).collect();
                    into.extend(if local.is_empty() { all } else { local });
                }
                Callee::Method(n) => {
                    let all: Vec<usize> =
                        methods.get(n.as_str()).into_iter().flatten().copied().collect();
                    let owners: BTreeSet<&str> =
                        all.iter().filter_map(|&i| fns[i].owner.as_deref()).collect();
                    if owners.len() >= 2 {
                        // Ambiguous method name: keep only the impls
                        // whose owner type the calling file mentions,
                        // named outright or embedded (as `Queue` is in
                        // `TypedQueue`). A file that never names the
                        // type `Resampler` is not calling a
                        // `Resampler` method through `.finish()` —
                        // those edges are dropped, and the debug
                        // allocation sentinel backstops anything the
                        // text analysis misses. Unique names resolve
                        // unconditionally: receivers of inferred,
                        // never-written types must keep their edges.
                        into.extend(all.iter().copied().filter(|&i| {
                            fns[i].owner.as_deref().is_some_and(|o| mentions(from_file, o))
                        }));
                    } else {
                        into.extend(all);
                    }
                }
                Callee::Qualified(q, n) => {
                    for &i in methods.get(n.as_str()).into_iter().flatten() {
                        if fns[i].owner.as_deref() == Some(q.as_str()) {
                            into.insert(i);
                        }
                    }
                }
                Callee::SelfQual(n) => {
                    for &i in methods.get(n.as_str()).into_iter().flatten() {
                        if fns[i].owner.as_deref() == from_owner
                            && fns[i].file == from_file
                        {
                            into.insert(i);
                        }
                    }
                }
            }
        };

    // Per-function callee sets.
    let mut callees: Vec<BTreeSet<usize>> = Vec::with_capacity(fns.len());
    let mut scratch = Vec::new();
    for f in &fns {
        let mut set = BTreeSet::new();
        for (_, raw) in &f.lines {
            scratch.clear();
            calls_on_line(strip_comment(raw), &mut scratch);
            for c in &scratch {
                resolve(c, f.file, f.owner.as_deref(), &mut set);
            }
        }
        callees.push(set);
    }

    // Seed reachability from the entry table, carrying class masks.
    let mut reach: Vec<u8> = vec![0; fns.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for e in entries {
        let seeds: Vec<usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| files[f.file].0.ends_with(e.file) && f.name == e.func)
            .map(|(i, _)| i)
            .collect();
        if seeds.is_empty() {
            out.push(finding(
                PASS_ENTRIES,
                e.file,
                format!(
                    "RT entry `{}` not found in source — the entry table has rotted",
                    e.func
                ),
            ));
        }
        for i in seeds {
            if reach[i] | e.classes != reach[i] {
                reach[i] |= e.classes;
                queue.push_back(i);
            }
        }
    }
    let mut pred: Vec<Option<usize>> = vec![None; fns.len()];
    while let Some(i) = queue.pop_front() {
        let mask = reach[i];
        for &j in &callees[i] {
            if reach[j] | mask != reach[j] {
                if reach[j] == 0 {
                    pred[j] = Some(i);
                }
                reach[j] |= mask;
                queue.push_back(j);
            }
        }
    }
    if std::env::var("RTSAFE_DEBUG").is_ok() {
        for (i, f) in fns.iter().enumerate() {
            if reach[i] == 0 {
                continue;
            }
            let mut chain = format!("{}::{}", files[f.file].0, f.name);
            let mut at = i;
            while let Some(p) = pred[at] {
                chain = format!("{}::{} -> {chain}", files[fns[p].file].0, fns[p].name);
                at = p;
            }
            eprintln!("reach[{:03b}] {chain}", reach[i]);
        }
    }

    // Sink scan over every reachable function, collecting raw hits
    // first so markers can be verified bidirectionally.
    let mut flagged_lines: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut claimed_fn_markers: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (i, f) in fns.iter().enumerate() {
        let mask = reach[i];
        if mask == 0 {
            continue;
        }
        let path = &files[f.file].0;
        let mut fn_hits = 0usize;
        for (n, raw) in &f.lines {
            let code = strip_comment(raw);
            let mut hits: Vec<(&'static str, &str)> = Vec::new();
            if mask & ALLOC != 0 {
                for p in ALLOC_SINKS {
                    if code.contains(p) {
                        hits.push((PASS_ALLOC, p));
                    }
                }
            }
            if mask & BLOCK != 0 {
                for p in BLOCK_SINKS {
                    if code.contains(p) {
                        hits.push((PASS_BLOCK, p));
                    }
                }
            }
            if mask & UNBOUNDED != 0 && has_word(code, "loop") {
                hits.push((PASS_UNBOUNDED, "loop"));
            }
            if hits.is_empty() {
                continue;
            }
            fn_hits += hits.len();
            flagged_lines.insert((f.file, *n));
            if f.fn_marker.is_some() {
                continue; // whole function justified
            }
            if let Some(at) = raw.find("rt-ok:") {
                if raw[at + "rt-ok:".len()..].trim().is_empty() {
                    out.push(finding(
                        PASS_MARKER,
                        path,
                        format!("line {n}: rt-ok marker with an empty reason"),
                    ));
                }
                continue; // justified in place
            }
            for (pass, pat) in hits {
                let what = match pass {
                    PASS_ALLOC => "allocates",
                    PASS_BLOCK => "may block",
                    _ => "unbounded work",
                };
                out.push(finding(
                    pass,
                    path,
                    format!(
                        "line {n}: `{pat}` {what} in `{}`, reachable from an RT entry \
                         — fix it or justify with `// rt-ok: <reason>`",
                        f.name,
                    ),
                ));
            }
        }
        if let Some((mline, reason)) = &f.fn_marker {
            claimed_fn_markers.insert((f.file, *mline));
            if reason.is_empty() {
                out.push(finding(
                    PASS_MARKER,
                    path,
                    format!("line {mline}: rt-ok(fn) marker with an empty reason"),
                ));
            }
            if fn_hits == 0 {
                out.push(finding(
                    PASS_MARKER,
                    path,
                    format!(
                        "line {mline}: stale rt-ok(fn) marker — `{}` has no flagged \
                         sinks; remove the marker",
                        f.name,
                    ),
                ));
            }
        }
    }

    // Unreachable functions may still carry fn markers: find and
    // reject them, plus every marker not sitting on a flagged line.
    for (i, f) in fns.iter().enumerate() {
        if reach[i] != 0 {
            continue;
        }
        if let Some((mline, _)) = &f.fn_marker {
            claimed_fn_markers.insert((f.file, *mline));
            out.push(finding(
                PASS_MARKER,
                &files[f.file].0,
                format!(
                    "line {mline}: rt-ok(fn) marker on `{}`, which is not reachable \
                     from any RT entry — remove the marker",
                    f.name,
                ),
            ));
        }
    }
    for (fi, (path, text)) in files.iter().enumerate() {
        for (idx, raw) in text.lines().enumerate().take(cutoffs[fi]) {
            let n = idx + 1;
            if raw.contains("rt-ok(fn):") {
                if !claimed_fn_markers.contains(&(fi, n)) {
                    out.push(finding(
                        PASS_MARKER,
                        path,
                        format!(
                            "line {n}: rt-ok(fn) marker not attached to any function \
                             header — move it onto (or directly above) the `fn` line",
                        ),
                    ));
                }
            } else if raw.contains("rt-ok:") && !flagged_lines.contains(&(fi, n)) {
                out.push(finding(
                    PASS_MARKER,
                    path,
                    format!(
                        "line {n}: stale rt-ok marker — no RT pass flags this line; \
                         remove the marker",
                    ),
                ));
            }
        }
    }
    out
}

/// Runs every real-time-safety pass over `s` with the real entry table.
pub fn run_rtsafe(s: &Sources) -> Vec<Finding> {
    let mut files: Vec<(String, String)> = s.server_files.clone();
    files.extend(s.dsp_files.iter().cloned());
    run_rtsafe_files(&files, RT_ENTRIES)
}

/// Lints the workspace at `root`, applying the rtsafe allowlist
/// (`crates/xtask/rtsafe-allow.txt` — empty at merge; every future
/// entry must be commented).
pub fn run_workspace_rtsafe(root: &Path) -> io::Result<Vec<Finding>> {
    let sources = Sources::load(root)?;
    let allow = match fs::read_to_string(root.join("crates/xtask/rtsafe-allow.txt")) {
        Ok(text) => parse_allowlist(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    Ok(apply_allowlist(run_rtsafe(&sources), &allow))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-entry table: `tick` in `engine.rs`, all classes forbidden.
    const TICK_ALL: &[RtEntry] =
        &[RtEntry { file: "engine.rs", func: "tick", classes: ALLOC | BLOCK | UNBOUNDED }];

    fn engine(text: &str) -> Vec<(String, String)> {
        vec![("crates/core/src/engine.rs".to_string(), text.to_string())]
    }

    #[test]
    fn alloc_sink_caught_in_entry() {
        let src = "pub fn tick(core: &mut Core) {\n    let label = core.name.to_string();\n}\n";
        let findings = run_rtsafe_files(&engine(src), TICK_ALL);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].pass, "rt-alloc");
        assert!(findings[0].message.contains("line 2"));
        assert!(findings[0].message.contains(".to_string()"));
    }

    #[test]
    fn reachability_descends_and_stops() {
        // tick → helper → leaf: the leaf's format! is flagged; the
        // unreachable fn's identical sink is not.
        let src = "pub fn tick(core: &mut Core) {\n    helper(core);\n}\n\
                   fn helper(core: &mut Core) {\n    leaf(core);\n}\n\
                   fn leaf(core: &mut Core) {\n    let s = format!(\"x{}\", core.t);\n}\n\
                   fn unreachable_fn(core: &mut Core) {\n    let s = format!(\"y{}\", core.t);\n}\n";
        let findings = run_rtsafe_files(&engine(src), TICK_ALL);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("line 8"));
        assert!(findings[0].message.contains("`leaf`"));
    }

    #[test]
    fn a_method_header_does_not_call_a_free_fn_of_its_name() {
        // `root_of` the method is reached from tick; `root_of` the free
        // fn, in another file, is not — its header line names it, but
        // declaring a fn is not calling one.
        let src = "pub fn tick(v: &View) {\n    v.root_of(1);\n}\n\
                   impl View {\n    fn root_of(&self, id: u32) -> u32 {\n        id\n    }\n}\n";
        let other = "fn root_of(core: &Core, id: u32) -> u32 {\n    loop {}\n}\n";
        let mut files = engine(src);
        files.push(("crates/core/src/validate.rs".to_string(), other.to_string()));
        assert_eq!(run_rtsafe_files(&files, TICK_ALL), Vec::new());
    }

    #[test]
    fn method_and_qualified_calls_resolve() {
        let src = "pub fn tick(core: &mut Core) {\n    core.step();\n    Pool::refill(core);\n}\n\
                   impl Core {\n    fn step(&mut self) {\n        let v = self.buf.to_vec();\n    }\n}\n\
                   impl Pool {\n    fn refill(core: &mut Core) {\n        core.items.push(1);\n    }\n}\n";
        let findings = run_rtsafe_files(&engine(src), TICK_ALL);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("`step`")));
        assert!(findings.iter().any(|f| f.message.contains("`refill`")));
    }

    #[test]
    fn block_and_unbounded_sinks_caught() {
        let src = "pub fn tick(core: &mut Core) {\n    let g = core.mu.lock();\n    loop {\n        break;\n    }\n}\n";
        let findings = run_rtsafe_files(&engine(src), TICK_ALL);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.pass == "rt-block" && f.message.contains(".lock()")));
        assert!(findings.iter().any(|f| f.pass == "rt-unbounded" && f.message.contains("loop")));
    }

    #[test]
    fn entry_class_mask_limits_the_passes() {
        // A BLOCK|UNBOUNDED entry (the exec_shard/drain contract):
        // allocation is by design, blocking still fails.
        let entries: &[RtEntry] =
            &[RtEntry { file: "engine.rs", func: "tick", classes: BLOCK | UNBOUNDED }];
        let src = "pub fn tick(core: &mut Core) {\n    let v = core.buf.to_vec();\n    let g = core.mu.lock();\n}\n";
        let findings = run_rtsafe_files(&engine(src), entries);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].pass, "rt-block");
    }

    #[test]
    fn try_send_is_not_a_blocking_sink() {
        let src =
            "pub fn tick(core: &mut Core) {\n    let _ = core.tx.try_send(1);\n    let _ = core.rx.try_recv();\n}\n";
        assert_eq!(run_rtsafe_files(&engine(src), TICK_ALL), Vec::new());
    }

    #[test]
    fn line_marker_suppresses_and_stale_marker_fails() {
        let ok = "pub fn tick(core: &mut Core) {\n    let id = core.name.clone(); // rt-ok: event fan-out, bounded by subscriber count\n}\n";
        assert_eq!(run_rtsafe_files(&engine(ok), TICK_ALL), Vec::new());
        // The same marker on a clean line is stale and fails.
        let stale = "pub fn tick(core: &mut Core) {\n    core.t += 1; // rt-ok: nothing here\n}\n";
        let findings = run_rtsafe_files(&engine(stale), TICK_ALL);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].pass, "rt-marker");
        assert!(findings[0].message.contains("stale"));
        // An empty reason fails even on a genuinely flagged line.
        let empty = "pub fn tick(core: &mut Core) {\n    let id = core.name.clone(); // rt-ok:\n}\n";
        let findings = run_rtsafe_files(&engine(empty), TICK_ALL);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("empty reason"));
    }

    #[test]
    fn fn_marker_covers_the_body_and_goes_stale() {
        let ok = "pub fn tick(core: &mut Core) {\n    rebuild(core);\n}\n\
                  // rt-ok(fn): plan rebuild, runs only on topology changes\n\
                  fn rebuild(core: &mut Core) {\n    let v = core.buf.to_vec();\n    core.plan.push(v);\n}\n";
        assert_eq!(run_rtsafe_files(&engine(ok), TICK_ALL), Vec::new());
        // Same marker on a sink-free fn is stale.
        let stale = "pub fn tick(core: &mut Core) {\n    rebuild(core);\n}\n\
                     // rt-ok(fn): plan rebuild, runs only on topology changes\n\
                     fn rebuild(core: &mut Core) {\n    core.t += 1;\n}\n";
        let findings = run_rtsafe_files(&engine(stale), TICK_ALL);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("stale rt-ok(fn)"));
        // On an unreachable fn it must also fail.
        let unreachable = "pub fn tick(core: &mut Core) {\n    core.t += 1;\n}\n\
                           // rt-ok(fn): who calls this?\n\
                           fn orphan(core: &mut Core) {\n    let v = core.buf.to_vec();\n}\n";
        let findings = run_rtsafe_files(&engine(unreachable), TICK_ALL);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("not reachable"));
        // Floating in space, attached to nothing, it fails too.
        let floating =
            "// rt-ok(fn): attached to nothing\n\nstatic X: u32 = 0;\n\npub fn tick(core: &mut Core) {\n    core.t += 1;\n}\n";
        let findings = run_rtsafe_files(&engine(floating), TICK_ALL);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("not attached"));
    }

    #[test]
    fn rotted_entry_table_fails() {
        let entries: &[RtEntry] =
            &[RtEntry { file: "engine.rs", func: "tick_quantum", classes: ALLOC }];
        let src = "pub fn tick(core: &mut Core) {\n    core.t += 1;\n}\n";
        let findings = run_rtsafe_files(&engine(src), entries);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].pass, "rt-entries");
        assert!(findings[0].message.contains("tick_quantum"));
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "pub fn tick(core: &mut Core) {\n    core.t += 1;\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn tick(core: &mut Core) {\n        let v = core.buf.to_vec(); // rt-ok: not scanned\n    }\n}\n";
        assert_eq!(run_rtsafe_files(&engine(src), TICK_ALL), Vec::new());
    }

    /// The real tree must lint clean with an *empty* allowlist — the
    /// acceptance bar for the RT-safety pass.
    #[test]
    fn workspace_is_rtsafe_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let allow_path = root.join("crates/xtask/rtsafe-allow.txt");
        if allow_path.exists() {
            let allow = fs::read_to_string(&allow_path).expect("read rtsafe-allow.txt");
            assert_eq!(
                parse_allowlist(&allow),
                Vec::new(),
                "rtsafe-allow.txt must stay empty: fix the code, not the lint"
            );
        }
        let findings = run_workspace_rtsafe(root).expect("workspace sources load");
        assert_eq!(findings, Vec::new(), "rtsafe lint must pass on the real tree");
    }
}
