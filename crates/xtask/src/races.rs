//! Concurrency soundness lints (`cargo run -p xtask -- races`).
//!
//! PR 6 introduced the repo's first real `unsafe` concurrency: the
//! `UnsafeCell`-backed `ShardedMap` whose soundness rests on the
//! documented read-lock + stripe protocol, and a fast dispatch path
//! whose own-shard whitelist is hand-maintained against the full opcode
//! table. These passes turn that prose protocol into machine-checked
//! rules (DESIGN.md §14):
//!
//! - **safety-comment** — every `unsafe` keyword in the server crates
//!   must carry a `// SAFETY:` comment (or sit under a `# Safety` doc
//!   section) justifying it.
//! - **shard-guard** — every `ShardedMap::view_mut` / `ShardView::new`
//!   call site must live in an `unsafe fn`, which forwards the
//!   obligation to *its* callers via `# Safety`. The callers reach the
//!   maps through `ShardView::striped` (a core read guard; it locks the
//!   stripe itself) or `ShardView::exclusive` (`&mut Core`), so the
//!   types prove the lock and this pass only keeps the raw entries
//!   behind them. Raw `UnsafeCell` storage is confined to `shard.rs`.
//! - **fastpath-whitelist** — the `eligible()` whitelist, the
//!   `exec_shard` match arms, `dispatch::execute`'s own arms, and the
//!   per-opcode [`Footprint`] touches table must agree exactly: every
//!   whitelisted opcode is proven single-shard (`Own`/`Global`) by the
//!   table and has its one handler in `exec_shard`, every `Cross`
//!   opcode punts to its arm in `execute`, and every `Request` variant
//!   has a row.
//! - plus the mode-aware **lock-order** pass shared with `xtask lint`
//!   (read→write upgrade hazards, stripes under the core write lock).
//!
//! Same conventions as the `lint` passes: text-level scanning so the
//! self-tests can lint deliberately broken fixture strings, and an
//! allowlist (`crates/xtask/races-allow.txt`) that is empty at merge.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::{
    apply_allowlist, block_after, brace_delta, delim_block_after, enum_variants, finding,
    has_word, lint_lock_order, parse_allowlist, qualified_idents, server_file, strip_comment,
    Finding, Sources,
};

/// Pass `safety-comment`: every `unsafe` block, fn, or impl must be
/// justified in place. The justification is a `SAFETY:` marker on the
/// same line, in the comment/attribute run immediately above, or a
/// `# Safety` section in the doc comment (for `unsafe fn`, whose
/// contract is caller-facing). Test modules are scanned too — a wrong
/// safety argument is no less wrong under `#[cfg(test)]`.
pub fn lint_safety_comments(server_files: &[(String, String)]) -> Vec<Finding> {
    const PASS: &str = "safety-comment";
    let mut out = Vec::new();
    for (path, text) in server_files {
        let lines: Vec<&str> = text.lines().collect();
        for (n, raw) in lines.iter().enumerate() {
            let code = strip_comment(raw);
            if !has_word(code, "unsafe") {
                continue;
            }
            // A trailing comment on the same line may carry it.
            if raw.contains("SAFETY:") {
                continue;
            }
            // Walk upward through the contiguous run of comments, doc
            // comments, attributes, and blank lines.
            let mut justified = false;
            let mut i = n;
            while i > 0 {
                i -= 1;
                let t = lines[i].trim_start();
                let is_context = t.starts_with("//") || t.starts_with("#[") || t.is_empty();
                if t.contains("SAFETY:") || t.contains("# Safety") {
                    justified = true;
                    break;
                }
                if !is_context {
                    break;
                }
            }
            if !justified {
                out.push(finding(
                    PASS,
                    path,
                    format!(
                        "line {}: `unsafe` without a SAFETY: comment (or `# Safety` \
                         doc section) justifying it",
                        n + 1,
                    ),
                ));
            }
        }
    }
    out
}

/// The raw entry points into the aliased-shard world, whose lock only
/// their `unsafe fn` callers' types prove.
const SHARD_ENTRIES: [&str; 2] = ["view_mut(", "ShardView::new("];

/// Pass `shard-guard`: call sites of [`SHARD_ENTRIES`] must sit inside
/// an `unsafe fn` (the obligation is forwarded to its callers, whose
/// `unsafe` blocks the `safety-comment` pass checks in turn), and
/// `UnsafeCell` storage outside `shard.rs` is flagged unconditionally:
/// there must be exactly one raw-pointer substrate. `#[cfg(test)]`
/// modules are exempt — tests exercise the maps single-threaded,
/// including deliberate misuse the sanitizer tests *rely* on.
pub fn lint_shard_guard(server_files: &[(String, String)]) -> Vec<Finding> {
    const PASS: &str = "shard-guard";
    let mut out = Vec::new();
    for (path, text) in server_files {
        let in_shard_rs = path.ends_with("shard.rs");
        let mut depth = 0i32;
        // Body depth floor of the enclosing `unsafe fn`, if any.
        let mut unsafe_fn: Option<i32> = None;
        let mut pending_cfg_test = false;
        for (n, line) in text.lines().enumerate() {
            let t = line.trim_start();
            if t.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if pending_cfg_test {
                if t.starts_with("mod ") || t.starts_with("pub mod ") {
                    // Everything below is the test module; done with
                    // this file.
                    break;
                }
                if !t.starts_with("#[") {
                    pending_cfg_test = false;
                }
            }
            let code = strip_comment(line);
            if !in_shard_rs && code.contains("UnsafeCell") {
                out.push(finding(
                    PASS,
                    path,
                    format!(
                        "line {}: UnsafeCell outside shard.rs — the raw-pointer \
                         substrate must stay confined to the audited ShardedMap",
                        n + 1,
                    ),
                ));
            }
            if has_word(code, "fn") && code.contains('(') {
                unsafe_fn = has_word(code, "unsafe").then_some(depth);
            } else if let Some(entry) = SHARD_ENTRIES.iter().find(|e| code.contains(*e)) {
                if unsafe_fn.is_none() {
                    out.push(finding(
                        PASS,
                        path,
                        format!(
                            "line {}: `{entry}..)` outside an `unsafe fn` — build the \
                             view with ShardView::striped (core read guard) or \
                             ShardView::exclusive (&mut Core)",
                            n + 1,
                        ),
                    ));
                }
            }
            depth += brace_delta(line);
            if unsafe_fn.is_some_and(|floor| depth <= floor) {
                unsafe_fn = None;
            }
        }
    }
    out
}

/// Rows of the `OPCODE_TOUCHES` table: `(variant name, footprint)`.
/// Duplicate variants are preserved so the caller can flag them.
fn parse_touches(fastpath_src: &str) -> Vec<(String, String)> {
    let Some(at) = fastpath_src.find("OPCODE_TOUCHES") else {
        return Vec::new();
    };
    let Some(block) = delim_block_after(&fastpath_src[at..], "=", '[', ']') else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in block.lines() {
        let code = strip_comment(line);
        let Some(open) = code.find('"') else { continue };
        let Some(close) = code[open + 1..].find('"') else { continue };
        let name = code[open + 1..open + 1 + close].to_string();
        let Some(fp_at) = code.find("Footprint::") else { continue };
        let fp: String = code[fp_at + "Footprint::".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        out.push((name, fp));
    }
    out
}

/// Pass `fastpath-whitelist`: the single-shard proof obligation. Every
/// `Request` variant must have exactly one `OPCODE_TOUCHES` row; the
/// `eligible()` whitelist must be exactly the `Own` ∪ `Global` rows;
/// and `exec_shard` must have an arm for exactly the whitelisted
/// variants (anything else silently hits the `_` catch-all, or is dead
/// code).
pub fn lint_fastpath_whitelist(request_src: &str, fastpath_src: &str) -> Vec<Finding> {
    const PASS: &str = "fastpath-whitelist";
    const FILE: &str = "crates/core/src/fastpath.rs";
    let mut out = Vec::new();
    let variants: BTreeSet<String> = enum_variants(request_src, "Request").into_iter().collect();
    if variants.is_empty() {
        out.push(finding(PASS, FILE, "could not parse the Request enum".into()));
        return out;
    }
    let Some(elig) = block_after(fastpath_src, "fn eligible") else {
        out.push(finding(PASS, FILE, "no `fn eligible` found".into()));
        return out;
    };
    let whitelist = qualified_idents(elig, "Request");
    let Some(exec) = block_after(fastpath_src, "fn exec_shard") else {
        out.push(finding(PASS, FILE, "no `fn exec_shard` found".into()));
        return out;
    };
    let arms = qualified_idents(exec, "Request");
    let rows = parse_touches(fastpath_src);
    if rows.is_empty() {
        out.push(finding(PASS, FILE, "no OPCODE_TOUCHES table found".into()));
        return out;
    }
    let mut table: BTreeMap<String, String> = BTreeMap::new();
    for (name, fp) in rows {
        if !variants.contains(&name) {
            out.push(finding(
                PASS,
                FILE,
                format!("OPCODE_TOUCHES row `{name}` names no Request variant"),
            ));
            continue;
        }
        if table.insert(name.clone(), fp).is_some() {
            out.push(finding(PASS, FILE, format!("duplicate OPCODE_TOUCHES row `{name}`")));
        }
    }
    for v in &variants {
        match table.get(v).map(String::as_str) {
            None => out.push(finding(
                PASS,
                FILE,
                format!("Request::{v} has no OPCODE_TOUCHES row — classify its footprint"),
            )),
            Some(fp @ ("Own" | "Global")) => {
                if !whitelist.contains(v) {
                    out.push(finding(
                        PASS,
                        FILE,
                        format!(
                            "Request::{v} is classified Footprint::{fp} but missing from \
                             the eligible() whitelist (fast path left on the table, or \
                             the classification is wrong)"
                        ),
                    ));
                }
            }
            Some(fp) => {
                if whitelist.contains(v) {
                    out.push(finding(
                        PASS,
                        FILE,
                        format!(
                            "Request::{v} is whitelisted in eligible() but classified \
                             Footprint::{fp} — cross-shard work under the read lock \
                             is unsound"
                        ),
                    ));
                }
            }
        }
    }
    for v in &whitelist {
        if !arms.contains(v) {
            out.push(finding(
                PASS,
                FILE,
                format!(
                    "Request::{v} is whitelisted but exec_shard has no arm for it \
                     (silent drift into the `_` catch-all)"
                ),
            ));
        }
    }
    for v in &arms {
        if !whitelist.contains(v) {
            out.push(finding(
                PASS,
                FILE,
                format!("exec_shard handles Request::{v} but eligible() never admits it"),
            ));
        }
    }
    out
}

/// The other half of pass `fastpath-whitelist`: `dispatch::execute`
/// has its own arm for exactly the `Cross` rows. A `Cross` opcode with
/// no arm would fall through to the shard handler, and an arm for an
/// `Own`/`Global` opcode would be its second handler.
pub fn lint_cross_arms(fastpath_src: &str, dispatch_src: &str) -> Vec<Finding> {
    const PASS: &str = "fastpath-whitelist";
    const FILE: &str = "crates/core/src/dispatch.rs";
    let Some(exec) = block_after(dispatch_src, "fn execute") else {
        return vec![finding(PASS, FILE, "no `fn execute` found".into())];
    };
    let arms = qualified_idents(exec, "Request");
    let cross: BTreeSet<String> = parse_touches(fastpath_src)
        .into_iter()
        .filter(|(_, fp)| fp == "Cross")
        .map(|(name, _)| name)
        .collect();
    let mut out = Vec::new();
    for v in cross.difference(&arms) {
        out.push(finding(
            PASS,
            FILE,
            format!("Request::{v} is classified Footprint::Cross but execute has no arm for it"),
        ));
    }
    for v in arms.difference(&cross) {
        out.push(finding(
            PASS,
            FILE,
            format!(
                "execute has an arm for Request::{v}, which is not a Cross row — \
                 its handler belongs in exec_shard, once"
            ),
        ));
    }
    out
}

/// Runs every concurrency soundness pass over `s`, including the
/// mode-aware lock-order pass shared with `xtask lint`.
pub fn run_races(s: &Sources) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(lint_safety_comments(&s.server_files));
    out.extend(lint_shard_guard(&s.server_files));
    out.extend(lint_lock_order(&s.server_files));
    let fastpath = server_file(s, "fastpath.rs");
    out.extend(lint_fastpath_whitelist(&s.request, fastpath));
    out.extend(lint_cross_arms(fastpath, &s.dispatch));
    out
}

/// Lints the workspace at `root`, applying the races allowlist
/// (`crates/xtask/races-allow.txt` — empty at merge; every future entry
/// must be commented).
pub fn run_workspace_races(root: &Path) -> io::Result<Vec<Finding>> {
    let sources = Sources::load(root)?;
    let allow = match fs::read_to_string(root.join("crates/xtask/races-allow.txt")) {
        Ok(text) => parse_allowlist(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    Ok(apply_allowlist(run_races(&sources), &allow))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(text: &str) -> Vec<(String, String)> {
        vec![("crates/core/src/fixture.rs".to_string(), text.to_string())]
    }

    #[test]
    fn safety_comment_required_on_unsafe() {
        let bare = "fn f(m: &ShardedMap<u32, u32>) {\n    let v = unsafe { m.view_mut(Some(0)) };\n    drop(v);\n}\n";
        let findings = lint_safety_comments(&files(bare));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("line 2"));
        assert!(findings[0].message.contains("SAFETY"));
        // A SAFETY: comment above (with attributes in between) passes.
        let above = "fn f(m: &M) {\n    // SAFETY: stripe 0 held by caller.\n    #[allow(unused)]\n    let v = unsafe { m.view_mut(Some(0)) };\n}\n";
        assert_eq!(lint_safety_comments(&files(above)), Vec::new());
        // A trailing comment on the same line passes.
        let trailing = "unsafe impl Send for M {} // SAFETY: plain data.\n";
        assert_eq!(lint_safety_comments(&files(trailing)), Vec::new());
        // A `# Safety` doc section covers an `unsafe fn` header.
        let doc = "/// # Safety\n///\n/// Caller holds the stripe.\npub unsafe fn view_mut(&self) {}\n";
        assert_eq!(lint_safety_comments(&files(doc)), Vec::new());
        // The lookback stops at real code: a SAFETY comment for an
        // *earlier* statement does not leak downward.
        let stale = "// SAFETY: for the call below only.\nlet a = unsafe { one() };\nlet b = unsafe { two() };\n";
        let findings = lint_safety_comments(&files(stale));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("line 3"));
    }

    #[test]
    fn shard_guard_requires_protocol_or_unsafe_fn() {
        // Broken fixture: a raw entry with no guards in sight.
        let bare = "fn f(core: &RwLock<Core>) {\n    let c = core.read();\n    let v = unsafe { c.louds.view_mut(Some(0)) };\n}\n";
        let findings = lint_shard_guard(&files(bare));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("view_mut"));
        assert!(findings[0].message.contains("outside an `unsafe fn`"));
        // Taking the locks by hand is no longer the protocol: the stripe
        // is `ShardView::striped`'s to take.
        let by_hand = "fn f(core: &RwLock<Core>) {\n    let c = core.read();\n    let _stripe = c.stripes.stripe(0).lock();\n    let v = unsafe { ShardView::new(&c, Some(0)) };\n}\n";
        assert_eq!(lint_shard_guard(&files(by_hand)).len(), 1);
        // The protocol is the constructor: an unsafe fn forwards the
        // obligation to its callers.
        let forwarded = "pub unsafe fn striped(core: &Guard, shard: usize) -> Self {\n    let _stripe = core.stripes.stripe(shard).lock();\n    Self { louds: core.louds.view_mut(Some(shard)) }\n}\n";
        assert_eq!(lint_shard_guard(&files(forwarded)), Vec::new());
        // An unsafe fn does not leak into the next one.
        let two_fns = "unsafe fn a(c: &Core) {\n    let v = c.louds.view_mut(None);\n}\nfn b(c: &Core) {\n    let v = unsafe { c.louds.view_mut(Some(0)) };\n}\n";
        let findings = lint_shard_guard(&files(two_fns));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("line 5"));
    }

    #[test]
    fn shard_guard_accepts_exclusive_view_and_flags_missing_stripe() {
        // The two constructors prove their own lock, so their call sites
        // need no lock acquisitions in sight.
        for site in ["ShardView::exclusive(core)", "ShardView::striped(&c, 0)"] {
            let ok = format!("fn f(core: &mut Core) {{\n    let v = unsafe {{ {site} }};\n}}\n");
            assert_eq!(lint_shard_guard(&files(&ok)), Vec::new(), "{site}");
        }
        // A single-shard view under the read lock but without the stripe
        // is flagged, whichever raw entry point builds it.
        for site in ["ShardView::new(&c, Some(0))", "c.louds.view_mut(Some(0))"] {
            let no_stripe = format!(
                "fn f(core: &RwLock<Core>) {{\n    let c = core.read();\n    let v = unsafe {{ {site} }};\n}}\n"
            );
            let findings = lint_shard_guard(&files(&no_stripe));
            assert_eq!(findings.len(), 1, "{site}: {findings:?}");
            assert!(findings[0].message.contains("ShardView::striped"));
        }
    }

    #[test]
    fn shard_guard_confines_unsafecell_and_skips_tests() {
        let cell = "struct Sneaky {\n    inner: UnsafeCell<u32>,\n}\n";
        let findings = lint_shard_guard(&files(cell));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("UnsafeCell"));
        // ...but shard.rs is the audited home for it.
        let home = vec![("crates/core/src/shard.rs".to_string(), cell.to_string())];
        assert_eq!(lint_shard_guard(&home), Vec::new());
        // Test modules are exempt: single-threaded, deliberate misuse.
        let test_mod = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn f(m: &M) {\n        let v = unsafe { m.view_mut(Some(0)) };\n    }\n}\n";
        assert_eq!(lint_shard_guard(&files(test_mod)), Vec::new());
    }

    const REQUEST_FIXTURE: &str = "pub enum Request {\n    Ping { id: u32 },\n    QueryThing { id: u32 },\n    DestroyAll { id: u32 },\n}\n";

    const FASTPATH_FIXTURE: &str = r#"
pub const OPCODE_TOUCHES: &[(&str, Footprint, &str)] = &[
    ("Ping", Footprint::Global, "no state touched"),
    ("QueryThing", Footprint::Own, "own-shard read"),
    ("DestroyAll", Footprint::Cross, "sweeps every shard"),
];

fn eligible(client: ClientId, request: &Request) -> bool {
    match request {
        Request::Ping { .. } => true,
        Request::QueryThing { id } => owns_id(client, *id),
        _ => false,
    }
}

fn exec_shard(view: &mut ShardView, request: &Request) -> Result<Handled, ProtoError> {
    match request {
        Request::Ping { .. } => Ok(Done(None)),
        Request::QueryThing { id } => Ok(Done(Some(Reply::Thing { id: *id }))),
        _ => Err(unimplemented()),
    }
}
"#;

    const DISPATCH_FIXTURE: &str = r#"
fn execute(core: &mut Core, request: &Request) -> DispatchResult {
    match request {
        Request::DestroyAll { .. } => Ok(None),
        _ => run_shard_handler(core, request),
    }
}
"#;

    #[test]
    fn fastpath_whitelist_clean_fixture_passes() {
        assert_eq!(lint_fastpath_whitelist(REQUEST_FIXTURE, FASTPATH_FIXTURE), Vec::new());
    }

    #[test]
    fn fastpath_whitelist_catches_each_mismatch() {
        // A variant with no touches row.
        let missing_row = FASTPATH_FIXTURE
            .replace("    (\"QueryThing\", Footprint::Own, \"own-shard read\"),\n", "");
        let findings = lint_fastpath_whitelist(REQUEST_FIXTURE, &missing_row);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("QueryThing has no OPCODE_TOUCHES row"));
        // Whitelisted but classified Cross: the unsound direction.
        let cross = FASTPATH_FIXTURE.replace(
            "(\"QueryThing\", Footprint::Own",
            "(\"QueryThing\", Footprint::Cross",
        );
        let findings = lint_fastpath_whitelist(REQUEST_FIXTURE, &cross);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("cross-shard work under the read lock"));
        // Classified Own but never whitelisted: fast path on the table.
        let own = FASTPATH_FIXTURE.replace(
            "(\"DestroyAll\", Footprint::Cross",
            "(\"DestroyAll\", Footprint::Own",
        );
        let findings = lint_fastpath_whitelist(REQUEST_FIXTURE, &own);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("missing from the eligible() whitelist"));
        // Whitelisted without an exec_shard arm: silent catch-all drift.
        let drift = FASTPATH_FIXTURE.replace(
            "        Request::QueryThing { id } => Ok(Done(Some(Reply::Thing { id: *id }))),\n",
            "",
        );
        let findings = lint_fastpath_whitelist(REQUEST_FIXTURE, &drift);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("silent drift into the `_` catch-all"));
        // A row naming a ghost variant, and a duplicate row.
        let ghost = FASTPATH_FIXTURE.replace(
            "    (\"Ping\", Footprint::Global, \"no state touched\"),\n",
            "    (\"Ping\", Footprint::Global, \"no state touched\"),\n    (\"Ping\", Footprint::Global, \"again\"),\n    (\"Ghost\", Footprint::Own, \"not real\"),\n",
        );
        let findings = lint_fastpath_whitelist(REQUEST_FIXTURE, &ghost);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("duplicate")));
        assert!(findings.iter().any(|f| f.message.contains("Ghost")));
    }

    #[test]
    fn cross_arms_must_be_exactly_the_cross_rows() {
        assert_eq!(lint_cross_arms(FASTPATH_FIXTURE, DISPATCH_FIXTURE), Vec::new());
        // A Cross opcode with no arm would fall into the shard handler.
        let missing = DISPATCH_FIXTURE.replace("        Request::DestroyAll { .. } => Ok(None),\n", "");
        let findings = lint_cross_arms(FASTPATH_FIXTURE, &missing);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("DestroyAll"));
        // A second handler for an Own opcode.
        let twice = DISPATCH_FIXTURE.replace(
            "        _ =>",
            "        Request::QueryThing { id } => Ok(None),\n        _ =>",
        );
        let findings = lint_cross_arms(FASTPATH_FIXTURE, &twice);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("belongs in exec_shard, once"));
    }

    /// The real tree must lint clean with an *empty* allowlist — the
    /// acceptance bar for the soundness pass.
    #[test]
    fn workspace_is_races_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let allow_path = root.join("crates/xtask/races-allow.txt");
        if allow_path.exists() {
            let allow = fs::read_to_string(&allow_path).expect("read races-allow.txt");
            assert_eq!(
                parse_allowlist(&allow),
                Vec::new(),
                "races-allow.txt must stay empty: fix the code, not the lint"
            );
        }
        let findings = run_workspace_races(root).expect("workspace sources load");
        assert_eq!(findings, Vec::new(), "races lint must pass on the real tree");
    }
}
