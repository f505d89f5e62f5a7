//! Workspace consistency lints (`cargo run -p xtask -- lint`).
//!
//! The protocol is defined three times over: the `proto` crate's opcode
//! and event tables, the server's dispatch match, and the documentation.
//! The compiler keeps each definition internally consistent but says
//! nothing about drift *between* them — a request handler deleted from
//! `dispatch.rs` behind a catch-all, an event variant nothing emits, an
//! error code `Display` forgot. These passes parse the sources as text
//! and cross-check the tables.
//!
//! Text, not syn: the workspace vendors its dependencies and carries no
//! parser crate, and text-level passes have a virtue of their own — the
//! self-tests lint deliberately broken *fixture strings*, which would be
//! unrepresentable as compiled code precisely because they are wrong.
//!
//! Every pass returns [`Finding`]s; `main` prints them and exits
//! non-zero if any survive the allowlist (`crates/xtask/lint-allow.txt`,
//! intentional gaps only, each entry commented).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

pub mod races;
pub mod rtsafe;

/// One consistency problem found by a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which pass produced it (`opcode-table`, `event-emission`, ...).
    pub pass: &'static str,
    /// The file the problem lives in (workspace-relative).
    pub file: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.pass, self.file, self.message)
    }
}

pub(crate) fn finding(pass: &'static str, file: &str, message: String) -> Finding {
    Finding { pass, file: file.to_string(), message }
}

/// The source text the passes cross-check. Collected from the workspace
/// by [`Sources::load`]; unit tests build them from fixture strings.
#[derive(Debug, Default)]
pub struct Sources {
    /// `crates/proto/src/request.rs`.
    pub request: String,
    /// `crates/proto/src/event.rs`.
    pub event: String,
    /// `crates/proto/src/error.rs`.
    pub error: String,
    /// `crates/alib/src/error.rs`.
    pub alib_error: String,
    /// `crates/core/src/dispatch.rs`.
    pub dispatch: String,
    /// All server-side sources: `(path, text)` for `core/src/*.rs` and
    /// `hw/src/*.rs`.
    pub server_files: Vec<(String, String)>,
    /// All codec sources: `(path, text)` for `proto/src/*.rs` (the
    /// `casts` pass scans these plus the request handlers).
    pub proto_files: Vec<(String, String)>,
    /// All client-library sources: `(path, text)` for `alib/src/*.rs`
    /// (the `unwrap` pass scans these — a panic in Alib kills the
    /// application just as surely as one in the server).
    pub alib_files: Vec<(String, String)>,
    /// All DSP sources: `(path, text)` for `dsp/src/*.rs` (the `rtsafe`
    /// passes scan these — the engine's hot leaves live here).
    pub dsp_files: Vec<(String, String)>,
    /// `DESIGN.md`.
    pub design: String,
}

impl Sources {
    /// Reads the real workspace rooted at `root`.
    pub fn load(root: &Path) -> io::Result<Sources> {
        let read = |rel: &str| fs::read_to_string(root.join(rel));
        let read_dir_sources = |dir: &str| -> io::Result<Vec<(String, String)>> {
            let mut entries: Vec<_> = fs::read_dir(root.join(dir))?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "rs"))
                .collect();
            entries.sort();
            let mut out = Vec::new();
            for p in entries {
                let rel = format!(
                    "{dir}/{}",
                    p.file_name().map(|n| n.to_string_lossy()).unwrap_or_default()
                );
                out.push((rel, fs::read_to_string(&p)?));
            }
            Ok(out)
        };
        let mut server_files = read_dir_sources("crates/core/src")?;
        server_files.extend(read_dir_sources("crates/hw/src")?);
        let proto_files = read_dir_sources("crates/proto/src")?;
        let alib_files = read_dir_sources("crates/alib/src")?;
        let dsp_files = read_dir_sources("crates/dsp/src")?;
        Ok(Sources {
            request: read("crates/proto/src/request.rs")?,
            event: read("crates/proto/src/event.rs")?,
            error: read("crates/proto/src/error.rs")?,
            alib_error: read("crates/alib/src/error.rs")?,
            dispatch: read("crates/core/src/dispatch.rs")?,
            server_files,
            proto_files,
            alib_files,
            dsp_files,
            design: read("DESIGN.md")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Text helpers
// ---------------------------------------------------------------------------

/// True when `word` occurs in `code` as a whole identifier (not as a
/// substring of a longer one).
pub(crate) fn has_word(code: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(i) = code[start..].find(word) {
        let at = start + i;
        let before_ok = !code[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !code[at + word.len()..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Cuts a line at its `//` comment, if any. Naive about `//` inside
/// string literals, which is fine for these sources.
pub(crate) fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

pub(crate) fn brace_delta(line: &str) -> i32 {
    let code = strip_comment(line);
    code.chars().fold(0, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    })
}

/// The brace-matched block starting at the first `{` after `header`.
pub(crate) fn block_after<'a>(src: &'a str, header: &str) -> Option<&'a str> {
    delim_block_after(src, header, '{', '}')
}

pub(crate) fn delim_block_after<'a>(src: &'a str, header: &str, open_c: char, close_c: char) -> Option<&'a str> {
    let at = src.find(header)?;
    let open = at + src[at..].find(open_c)?;
    let mut depth = 0i32;
    for (i, c) in src[open..].char_indices() {
        if c == open_c {
            depth += 1;
        } else if c == close_c {
            depth -= 1;
            if depth == 0 {
                return Some(&src[open..open + i + c.len_utf8()]);
            }
        }
    }
    None
}

/// The variant names of `pub enum <name>`, in declaration order.
pub fn enum_variants(src: &str, name: &str) -> Vec<String> {
    let Some(body) = block_after(src, &format!("enum {name}")) else {
        return Vec::new();
    };
    let mut depth = 0i32;
    let mut out = Vec::new();
    for line in body.lines() {
        let before = depth;
        depth += brace_delta(line);
        if before != 1 {
            continue;
        }
        let t = strip_comment(line).trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let ident: String =
            t.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            out.push(ident);
        }
    }
    out
}

/// All `<prefix>::Ident` occurrences in `src`, comments stripped.
pub fn qualified_idents(src: &str, prefix: &str) -> BTreeSet<String> {
    let needle = format!("{prefix}::");
    let mut out = BTreeSet::new();
    for line in src.lines() {
        let code = strip_comment(line);
        let mut rest = code;
        while let Some(i) = rest.find(&needle) {
            rest = &rest[i + needle.len()..];
            let ident: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                out.insert(ident);
            }
        }
    }
    out
}

/// `(variant, opcode)` pairs from the `impl WireWrite for Request`
/// block: each match arm names its variant and immediately writes its
/// opcode with `w.u8(N)`.
pub fn write_opcodes(request_src: &str) -> Vec<(String, u32)> {
    let Some(block) = block_after(request_src, "impl WireWrite for Request") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut chunks = block.split("Request::");
    chunks.next(); // text before the first arm
    for chunk in chunks {
        let variant: String =
            chunk.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        let Some(i) = chunk.find("w.u8(") else { continue };
        let digits: String =
            chunk[i + 5..].chars().take_while(|c| c.is_ascii_digit()).collect();
        if let (false, Ok(op)) = (variant.is_empty(), digits.parse()) {
            out.push((variant, op));
        }
    }
    out
}

/// `(opcode, variant)` pairs from the `impl WireRead for Request`
/// block's `N => Request::V` arms.
pub fn read_opcodes(request_src: &str) -> Vec<(u32, String)> {
    let Some(block) = block_after(request_src, "impl WireRead for Request") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    // An arm is either `N => Request::V ...` on one line or `N => {`
    // with the `Request::V` expression on a following line; `pending`
    // carries the opcode across in the second shape.
    let mut pending: Option<u32> = None;
    for line in block.lines() {
        let t = strip_comment(line).trim();
        let rhs = match t.find("=>") {
            Some(arrow) => {
                let lhs = t[..arrow].trim();
                match lhs.parse::<u32>() {
                    Ok(op) => {
                        pending = Some(op);
                        t[arrow + 2..].trim()
                    }
                    Err(_) => continue,
                }
            }
            None => t,
        };
        let (Some(op), Some(variant)) = (pending, rhs.strip_prefix("Request::")) else {
            continue;
        };
        let ident: String =
            variant.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if !ident.is_empty() {
            out.push((op, ident));
            pending = None;
        }
    }
    out
}

/// The variants listed in `Request::has_reply`.
pub fn reply_variants(request_src: &str) -> BTreeSet<String> {
    match block_after(request_src, "fn has_reply") {
        Some(block) => qualified_idents(block, "Request"),
        None => BTreeSet::new(),
    }
}

/// Splits the dispatch `match` into `(variant, arm body)` pairs. Arms
/// are recognised as lines whose code starts with `Request::` at the
/// match's own brace depth; each arm's text runs until the next arm or
/// the end of the match.
pub fn dispatch_arms(dispatch_src: &str) -> Vec<(String, String)> {
    let mut arms: Vec<(String, String)> = Vec::new();
    let mut current: Option<(String, String)> = None;
    let mut match_depth: Option<i32> = None;
    let mut depth = 0i32;
    for line in dispatch_src.lines() {
        let before = depth;
        depth += brace_delta(line);
        if let Some(md) = match_depth {
            if before < md {
                // The match block ended.
                if let Some(a) = current.take() {
                    arms.push(a);
                }
                match_depth = None;
            }
        }
        let t = strip_comment(line).trim();
        if let Some(rest) = t.strip_prefix("Request::") {
            if match_depth.is_none() {
                match_depth = Some(before);
            }
            if match_depth == Some(before) {
                if let Some(a) = current.take() {
                    arms.push(a);
                }
                let ident: String =
                    rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                current = Some((ident, String::new()));
            }
        }
        if let Some((_, body)) = &mut current {
            body.push_str(line);
            body.push('\n');
        }
    }
    if let Some(a) = current.take() {
        arms.push(a);
    }
    arms
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

const REQUEST_RS: &str = "crates/proto/src/request.rs";
const EVENT_RS: &str = "crates/proto/src/event.rs";
const ERROR_RS: &str = "crates/proto/src/error.rs";
const ALIB_ERROR_RS: &str = "crates/alib/src/error.rs";
const DISPATCH_RS: &str = "crates/core/src/dispatch.rs";
const FASTPATH_RS: &str = "crates/core/src/fastpath.rs";
const REPLY_RS: &str = "crates/proto/src/reply.rs";
const DESIGN_MD: &str = "DESIGN.md";

/// Opcode tables: every `Request` variant has a write opcode, the read
/// table decodes exactly the same pairs, and opcodes are unique and
/// dense (0..n with no gaps — a gap means a retired opcode that old
/// clients could still send).
pub fn lint_opcode_tables(request_src: &str) -> Vec<Finding> {
    const PASS: &str = "opcode-table";
    let mut out = Vec::new();
    let variants = enum_variants(request_src, "Request");
    if variants.is_empty() {
        out.push(finding(PASS, REQUEST_RS, "could not parse the Request enum".into()));
        return out;
    }
    let write: BTreeMap<String, u32> = write_opcodes(request_src).into_iter().collect();
    let read: BTreeMap<String, u32> =
        read_opcodes(request_src).into_iter().map(|(o, v)| (v, o)).collect();
    for v in &variants {
        if !write.contains_key(v) {
            out.push(finding(PASS, REQUEST_RS, format!("variant {v} has no write opcode")));
        }
        if !read.contains_key(v) {
            out.push(finding(PASS, REQUEST_RS, format!("variant {v} has no read arm")));
        }
    }
    for (v, op) in &write {
        if read.get(v).is_some_and(|r| r != op) {
            out.push(finding(
                PASS,
                REQUEST_RS,
                format!("variant {v} writes opcode {op} but reads {}", read[v]),
            ));
        }
    }
    let mut ops: Vec<u32> = write.values().copied().collect();
    ops.sort_unstable();
    ops.dedup();
    if ops.len() != write.len() {
        out.push(finding(PASS, REQUEST_RS, "duplicate write opcodes".into()));
    }
    for (i, op) in ops.iter().enumerate() {
        if *op != i as u32 {
            out.push(finding(
                PASS,
                REQUEST_RS,
                format!("opcode table has a gap: expected {i}, found {op}"),
            ));
            break;
        }
    }
    out
}

/// Dispatch exhaustiveness: every `Request` variant appears as a match
/// arm in the request handlers (`handler_sources`). The compiler
/// cannot enforce this across the two handler matches, which end in
/// catch-alls; the lint does.
pub fn lint_dispatch_exhaustive(request_src: &str, dispatch_src: &str) -> Vec<Finding> {
    const PASS: &str = "dispatch-exhaustive";
    let mut out = Vec::new();
    let handled: BTreeSet<String> =
        dispatch_arms(dispatch_src).into_iter().map(|(v, _)| v).collect();
    for v in enum_variants(request_src, "Request") {
        if !handled.contains(&v) {
            out.push(finding(
                PASS,
                DISPATCH_RS,
                format!("request {v} has no dispatch arm"),
            ));
        }
    }
    out
}

/// Reply coverage: a request is marked `has_reply` iff its dispatch arm
/// can produce a reply: `Ok(Some(reply))`, or `Done(Some(reply))` in a
/// shard handler. Drift in either direction deadlocks or desynchronises
/// clients, which block on replies by sequence number.
pub fn lint_reply_coverage(request_src: &str, dispatch_src: &str) -> Vec<Finding> {
    const PASS: &str = "reply-coverage";
    let mut out = Vec::new();
    let declared = reply_variants(request_src);
    for (variant, body) in dispatch_arms(dispatch_src) {
        let produces = body.contains("Ok(Some(") || body.contains("Done(Some(");
        if declared.contains(&variant) && !produces {
            out.push(finding(
                PASS,
                DISPATCH_RS,
                format!("{variant} is declared has_reply but its arm never replies"),
            ));
        }
        if !declared.contains(&variant) && produces {
            out.push(finding(
                PASS,
                DISPATCH_RS,
                format!("{variant} replies but is not declared has_reply"),
            ));
        }
    }
    out
}

/// Event emission: every `Event` variant is constructed somewhere in the
/// server. An unemitted event is dead protocol surface — clients can
/// select for it but it never arrives.
pub fn lint_event_emission(event_src: &str, server_files: &[(String, String)]) -> Vec<Finding> {
    const PASS: &str = "event-emission";
    let mut out = Vec::new();
    let mut emitted = BTreeSet::new();
    for (_, text) in server_files {
        emitted.extend(qualified_idents(text, "Event"));
    }
    for v in enum_variants(event_src, "Event") {
        if !emitted.contains(&v) {
            out.push(finding(
                PASS,
                EVENT_RS,
                format!("event {v} is never emitted by the server"),
            ));
        }
    }
    out
}

/// Error-code coverage: the `ErrorCode` enum, its `ALL` table and its
/// `Display` impl list the same codes; every code is actually raised by
/// the server; and the client library's classification
/// (`alib::error`) mentions every code.
pub fn lint_error_codes(
    error_src: &str,
    server_files: &[(String, String)],
    alib_error_src: &str,
) -> Vec<Finding> {
    const PASS: &str = "error-coverage";
    let mut out = Vec::new();
    let variants: BTreeSet<String> =
        enum_variants(error_src, "ErrorCode").into_iter().collect();
    if variants.is_empty() {
        out.push(finding(PASS, ERROR_RS, "could not parse the ErrorCode enum".into()));
        return out;
    }
    // Skip the `[ErrorCode; N]` type annotation: extract from the `=`.
    let all: BTreeSet<String> = error_src
        .find("const ALL")
        .and_then(|at| delim_block_after(&error_src[at..], "=", '[', ']'))
        .map(|b| qualified_idents(b, "ErrorCode"))
        .unwrap_or_default();
    let display: BTreeSet<String> = block_after(error_src, "Display for ErrorCode")
        .map(|b| qualified_idents(b, "ErrorCode"))
        .unwrap_or_default();
    let mut raised = BTreeSet::new();
    for (_, text) in server_files {
        raised.extend(qualified_idents(text, "ErrorCode"));
    }
    for v in &variants {
        if !all.contains(v) {
            out.push(finding(PASS, ERROR_RS, format!("{v} missing from ErrorCode::ALL")));
        }
        if !display.contains(v) {
            out.push(finding(PASS, ERROR_RS, format!("{v} missing from Display")));
        }
        if !raised.contains(v) {
            out.push(finding(PASS, ERROR_RS, format!("{v} is never raised by the server")));
        }
        if !alib_error_src.contains(v.as_str()) {
            out.push(finding(
                PASS,
                ALIB_ERROR_RS,
                format!("{v} is not classified by alib::error"),
            ));
        }
    }
    for v in all.difference(&variants) {
        out.push(finding(PASS, ERROR_RS, format!("ALL lists unknown code {v}")));
    }
    out
}

/// Documentation rows: every request opcode has a row in DESIGN.md's
/// opcode table with the right opcode number and reply flag.
pub fn lint_doc_rows(request_src: &str, design: &str) -> Vec<Finding> {
    const PASS: &str = "doc-rows";
    let mut out = Vec::new();
    // Parse `| N | `Variant` | yes/– | ... |` rows anywhere in the doc.
    let mut rows: BTreeMap<String, (u32, bool)> = BTreeMap::new();
    for line in design.lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 3 {
            continue;
        }
        let Ok(op) = cells[0].parse::<u32>() else { continue };
        let name = cells[1].trim_matches('`').to_string();
        rows.insert(name, (op, cells[2].eq_ignore_ascii_case("yes")));
    }
    let declared = reply_variants(request_src);
    for (variant, op) in write_opcodes(request_src) {
        match rows.get(&variant) {
            None => out.push(finding(
                PASS,
                DESIGN_MD,
                format!("request {variant} (opcode {op}) has no doc row"),
            )),
            Some(&(doc_op, doc_reply)) => {
                if doc_op != op {
                    out.push(finding(
                        PASS,
                        DESIGN_MD,
                        format!("{variant} documented as opcode {doc_op}, actual {op}"),
                    ));
                }
                if doc_reply != declared.contains(&variant) {
                    out.push(finding(
                        PASS,
                        DESIGN_MD,
                        format!("{variant} reply flag documented wrongly"),
                    ));
                }
            }
        }
    }
    out
}

/// `(name, file, line)` for every `counter!`/`gauge!`/`histogram!`
/// registration in the server sources. Names are string literals by
/// construction — the macros take a literal — so a text scan sees them
/// all.
pub fn metric_registrations(server_files: &[(String, String)]) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for (path, text) in server_files {
        for (n, line) in text.lines().enumerate() {
            let code = strip_comment(line);
            for needle in ["counter!(", "gauge!(", "histogram!("] {
                let mut rest = code;
                while let Some(i) = rest.find(needle) {
                    rest = &rest[i + needle.len()..];
                    let Some(q) = rest.find('"') else { break };
                    let after = &rest[q + 1..];
                    let Some(e) = after.find('"') else { break };
                    out.push((after[..e].to_string(), path.clone(), n + 1));
                    rest = &after[e + 1..];
                }
            }
        }
    }
    out
}

/// The lines of the DESIGN.md section whose `## ` heading contains
/// `title`, up to the next `## ` heading. `None` when no such heading
/// exists.
fn design_section_lines<'a>(design: &'a str, title: &str) -> Option<Vec<&'a str>> {
    let mut in_section = false;
    let mut out = Vec::new();
    for line in design.lines() {
        if line.starts_with("## ") {
            if in_section {
                break;
            }
            in_section = line.contains(title);
            continue;
        }
        if in_section {
            out.push(line);
        }
    }
    in_section.then_some(out)
}

/// Metric-name coverage: every registered metric name is snake_case,
/// registered exactly once, and listed in DESIGN.md's Observability
/// catalog; and every catalog row names a metric that is actually
/// registered. Telemetry without a catalog is write-only — nobody knows
/// a metric exists to look at it.
pub fn lint_metrics_names(server_files: &[(String, String)], design: &str) -> Vec<Finding> {
    const PASS: &str = "metrics-names";
    let mut out = Vec::new();
    let regs = metric_registrations(server_files);
    let is_snake = |s: &str| {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut by_name: BTreeMap<&str, Vec<&(String, String, usize)>> = BTreeMap::new();
    for r in &regs {
        by_name.entry(r.0.as_str()).or_default().push(r);
    }
    let section = design_section_lines(design, "Observability");
    if section.is_none() && !regs.is_empty() {
        out.push(finding(
            PASS,
            DESIGN_MD,
            "metrics are registered but DESIGN.md has no Observability section".into(),
        ));
    }
    for (name, sites) in &by_name {
        let (_, file, line) = sites[0];
        if !is_snake(name) {
            out.push(finding(PASS, file, format!("line {line}: metric name \"{name}\" is not snake_case")));
        }
        if sites.len() > 1 {
            let places: Vec<String> =
                sites.iter().map(|(_, f, l)| format!("{f}:{l}")).collect();
            out.push(finding(
                PASS,
                file,
                format!("metric \"{name}\" registered {} times ({})", sites.len(), places.join(", ")),
            ));
        }
        if let Some(lines) = &section {
            let tagged = format!("`{name}`");
            if !lines.iter().any(|l| l.contains(&tagged)) {
                out.push(finding(
                    PASS,
                    DESIGN_MD,
                    format!("metric \"{name}\" is not listed in the Observability catalog"),
                ));
            }
        }
    }
    // Catalog rows must correspond to registered metrics.
    for line in section.as_deref().unwrap_or(&[]) {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let Some(first) = t.trim_matches('|').split('|').next() else { continue };
        let cell = first.trim();
        let Some(name) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
            continue;
        };
        if is_snake(name) && name.contains('_') && !by_name.contains_key(name) {
            out.push(finding(
                PASS,
                DESIGN_MD,
                format!("Observability catalog lists \"{name}\" but nothing registers it"),
            ));
        }
    }
    out
}

/// Trace-stage coverage: the `TraceStage::NAMES` taxonomy
/// (`proto/src/reply.rs`), the server's `trace_stage_<name>_us`
/// histogram registrations, and DESIGN.md's "Causal tracing" section
/// must agree in all directions. A stage without a histogram is
/// unattributable latency; a histogram without a stage is a dead metric
/// name; a stage DESIGN.md never mentions is undocumented taxonomy.
pub fn lint_trace_stages(
    proto_files: &[(String, String)],
    server_files: &[(String, String)],
    design: &str,
) -> Vec<Finding> {
    const PASS: &str = "trace-stages";
    let mut out = Vec::new();
    let regs = metric_registrations(server_files);
    let stage_regs: Vec<&(String, String, usize)> = regs
        .iter()
        .filter(|(name, _, _)| name.starts_with("trace_stage_") && name.ends_with("_us"))
        .collect();
    let reply_src = proto_files
        .iter()
        .find(|(path, _)| path.ends_with("reply.rs"))
        .map(|(_, text)| text.as_str())
        .unwrap_or("");
    let names_block = block_containing_names(reply_src);
    let names: Vec<String> = names_block
        .map(|b| {
            b.split('"')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    if names.is_empty() {
        if !stage_regs.is_empty() {
            out.push(finding(
                PASS,
                REPLY_RS,
                "trace_stage_* histograms are registered but TraceStage::NAMES was not found"
                    .into(),
            ));
        }
        return out;
    }
    let section = design_section_lines(design, "Causal tracing");
    if section.is_none() {
        out.push(finding(
            PASS,
            DESIGN_MD,
            "TraceStage exists but DESIGN.md has no Causal tracing section".into(),
        ));
    }
    for name in &names {
        let metric = format!("trace_stage_{name}_us");
        if !stage_regs.iter().any(|(n, _, _)| *n == metric) {
            out.push(finding(
                PASS,
                REPLY_RS,
                format!("stage \"{name}\" has no \"{metric}\" histogram registration"),
            ));
        }
        if let Some(lines) = &section {
            let tagged = format!("`{name}`");
            if !lines.iter().any(|l| l.contains(&tagged)) {
                out.push(finding(
                    PASS,
                    DESIGN_MD,
                    format!("stage \"{name}\" is not documented in the Causal tracing section"),
                ));
            }
        }
    }
    for (metric, file, line) in stage_regs {
        let stage = &metric["trace_stage_".len()..metric.len() - "_us".len()];
        if !names.iter().any(|n| n == stage) {
            out.push(finding(
                PASS,
                file,
                format!(
                    "line {line}: histogram \"{metric}\" names stage \"{stage}\" which is not in TraceStage::NAMES"
                ),
            ));
        }
    }
    out
}

/// The bracket-delimited initializer of `TraceStage::NAMES`, if present.
fn block_containing_names(reply_src: &str) -> Option<&str> {
    let at = reply_src.find("const NAMES")?;
    delim_block_after(&reply_src[at..], "=", '[', ']')
}

/// `unwrap` lint: no bare `.unwrap()` in server code. A panic in the
/// server kills every client's session; recoverable paths must handle
/// the error and justified infallible cases use `.expect("why")` or a
/// `// lint: allow-unwrap` marker.
pub fn lint_unwrap(server_files: &[(String, String)]) -> Vec<Finding> {
    const PASS: &str = "unwrap-in-server";
    let mut out = Vec::new();
    for (path, text) in server_files {
        let mut pending_cfg_test = false;
        for (n, line) in text.lines().enumerate() {
            let t = line.trim();
            if t.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
                continue;
            }
            if pending_cfg_test {
                if t.starts_with("mod ") || t.starts_with("pub mod ") {
                    // Test module: everything below is test code.
                    break;
                }
                if !t.starts_with("#[") {
                    pending_cfg_test = false;
                }
            }
            let code = strip_comment(line);
            if code.contains(".unwrap()") && !line.contains("lint: allow-unwrap") {
                out.push(finding(
                    PASS,
                    path,
                    format!("bare .unwrap() at line {}", n + 1),
                ));
            }
        }
    }
    out
}

/// The canonical lock acquisition order for the server's locks: the
/// core `RwLock` (read or write) first, then at most one shard stripe.
/// An acquisition against this order (or re-acquiring a held lock) can
/// deadlock under the right interleaving.
pub const LOCK_ORDER: [&str; 2] = ["core", "stripe"];

/// Zero-argument acquisition methods the lock-order lint understands:
/// `.lock()` (mutexes, stripes) and the `RwLock` pair `.read()` /
/// `.write()`. Argument-taking methods like `reply.write(&mut w)` never
/// match because the scan requires the literal `()` call.
const LOCK_CALLS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// How a lock was acquired. The lint models `RwLock` modes explicitly:
/// a read guard and a write guard on the same receiver are different
/// hazards (upgrade deadlock vs. plain re-entrancy), and a stripe taken
/// under the core *write* lock is aliasing-suspect in a way a stripe
/// under the read lock is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// `.read()` — shared `RwLock` guard.
    Read,
    /// `.write()` — exclusive `RwLock` guard.
    Write,
    /// `.lock()` — plain mutex (stripes).
    Mutex,
}

fn lock_mode(call: &str) -> LockMode {
    match call {
        ".read()" => LockMode::Read,
        ".write()" => LockMode::Write,
        _ => LockMode::Mutex,
    }
}

/// Lock-order lint: within any scope, locks must be taken in
/// [`LOCK_ORDER`] and never re-entrantly, with acquisition *modes*
/// modeled. Flags, beyond plain order inversions: a read→write upgrade
/// on the same receiver (parking_lot `RwLock`s are not upgradable — the
/// write blocks behind the thread's own read guard), and a stripe
/// acquired under the core write lock (the write lock already grants
/// exclusive access to every shard; stripes pair with the read-mode
/// fast path only). Guards are tracked by brace scope; receivers not in
/// the table are ignored.
pub fn lint_lock_order(server_files: &[(String, String)]) -> Vec<Finding> {
    const PASS: &str = "lock-order";
    let mut out = Vec::new();
    let rank = |recv: &str| LOCK_ORDER.iter().position(|&n| n == recv);
    for (path, text) in server_files {
        // Held guards: (rank, mode, depth the binding lives at).
        let mut held: Vec<(usize, LockMode, i32)> = Vec::new();
        let mut depth = 0i32;
        for (n, line) in text.lines().enumerate() {
            let code = strip_comment(line);
            let is_binding = code.trim_start().starts_with("let ");
            let mut rest = code;
            while let Some((i, call)) = LOCK_CALLS
                .iter()
                .filter_map(|c| rest.find(c).map(|i| (i, *c)))
                .min_by_key(|&(i, _)| i)
            {
                // The receiver is the path segment right before the call.
                let recv: String = rest[..i]
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                rest = &rest[i + call.len()..];
                let Some(r) = rank(&recv) else { continue };
                let mode = lock_mode(call);
                if let Some(&(_, held_mode, _)) = held.iter().find(|&&(hr, _, _)| hr == r) {
                    if held_mode == LockMode::Read && mode == LockMode::Write {
                        out.push(finding(
                            PASS,
                            path,
                            format!(
                                "line {}: read->write upgrade hazard: {recv}.write() while a \
                                 {recv} read guard is held (RwLocks are not upgradable; the \
                                 write blocks behind this thread's own read guard)",
                                n + 1,
                            ),
                        ));
                    } else {
                        out.push(finding(
                            PASS,
                            path,
                            format!(
                                "line {}: {recv} acquired while {recv} is already held \
                                 (re-entrant acquisition deadlocks)",
                                n + 1,
                            ),
                        ));
                    }
                } else {
                    if let Some(&(top, _, _)) = held.last() {
                        if r <= top {
                            out.push(finding(
                                PASS,
                                path,
                                format!(
                                    "line {}: {recv} acquired while {} is held (canonical \
                                     order: {})",
                                    n + 1,
                                    LOCK_ORDER[top],
                                    LOCK_ORDER.join(" -> "),
                                ),
                            ));
                        }
                    }
                    if LOCK_ORDER[r] == "stripe"
                        && held.iter().any(|&(hr, m, _)| {
                            LOCK_ORDER[hr] == "core" && m == LockMode::Write
                        })
                    {
                        out.push(finding(
                            PASS,
                            path,
                            format!(
                                "line {}: stripe acquired under the core write lock — the \
                                 write lock already grants exclusive shard access; stripes \
                                 pair with the read-mode fast path only",
                                n + 1,
                            ),
                        ));
                    }
                }
                if is_binding {
                    // Guard lives to the end of the enclosing block;
                    // temporaries die within the statement.
                    held.push((r, mode, depth + brace_delta(line)));
                }
            }
            depth += brace_delta(line);
            held.retain(|&(_, _, d)| d <= depth);
        }
    }
    out
}

/// Narrowing casts the `casts` pass flags: `value as <ty>` can silently
/// truncate, and in wire paths a wrapped length or tag desynchronises the
/// codec on the other end.
const NARROWING_CASTS: [&str; 6] = [" as u8", " as u16", " as u32", " as i8", " as i16", " as i32"];

/// Cast lint: no unchecked `as` integer narrowing in the wire paths
/// (`crates/proto/src/*.rs` and the request handlers in
/// `crates/core/src/{dispatch,fastpath}.rs`).
///
/// Lossless conversions should use `From`; fallible ones `TryFrom` with
/// an explicit policy. Justified casts (fieldless-enum discriminants,
/// values bounded by construction) carry a `// cast-ok: <reason>` marker
/// on the same line. Test modules are skipped.
pub fn lint_casts(wire_files: &[(String, String)]) -> Vec<Finding> {
    const PASS: &str = "casts";
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for (path, text) in wire_files {
        let mut pending_cfg_test = false;
        for (n, line) in text.lines().enumerate() {
            let t = line.trim();
            if t.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
                continue;
            }
            if pending_cfg_test {
                if t.starts_with("mod ") || t.starts_with("pub mod ") {
                    // Test module: everything below is test code.
                    break;
                }
                if !t.starts_with("#[") {
                    pending_cfg_test = false;
                }
            }
            if line.contains("cast-ok:") {
                continue;
            }
            let code = strip_comment(line);
            for pat in NARROWING_CASTS {
                for (i, _) in code.match_indices(pat) {
                    // Require a token boundary after the type name so
                    // ` as u32` does not also match ` as u32x4` etc.
                    let end = i + pat.len();
                    if code[end..].chars().next().is_some_and(is_ident) {
                        continue;
                    }
                    out.push(finding(
                        PASS,
                        path,
                        format!(
                            "line {}: unchecked narrowing `{}` — use From/TryFrom or \
                             annotate `// cast-ok: <reason>`",
                            n + 1,
                            pat.trim_start(),
                        ),
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// The text of one server source file, by path suffix (empty if absent).
pub(crate) fn server_file<'a>(s: &'a Sources, suffix: &str) -> &'a str {
    let file = s.server_files.iter().find(|(p, _)| p.ends_with(suffix));
    file.map(|(_, t)| t.as_str()).unwrap_or_default()
}

/// The request handlers: `dispatch.rs`, with the `Cross` arms, followed
/// by `fastpath::exec_shard`, with the one arm of every other opcode.
fn handler_sources(s: &Sources) -> String {
    let shard = block_after(server_file(s, "fastpath.rs"), "fn exec_shard").unwrap_or_default();
    format!("{}\n{shard}\n", s.dispatch)
}

/// Runs every pass over the given sources.
pub fn run_all(s: &Sources) -> Vec<Finding> {
    let mut out = Vec::new();
    let handlers = handler_sources(s);
    out.extend(lint_opcode_tables(&s.request));
    out.extend(lint_dispatch_exhaustive(&s.request, &handlers));
    out.extend(lint_reply_coverage(&s.request, &handlers));
    out.extend(lint_event_emission(&s.event, &s.server_files));
    out.extend(lint_error_codes(&s.error, &s.server_files, &s.alib_error));
    out.extend(lint_doc_rows(&s.request, &s.design));
    out.extend(lint_metrics_names(&s.server_files, &s.design));
    out.extend(lint_trace_stages(&s.proto_files, &s.server_files, &s.design));
    out.extend(lint_unwrap(&s.server_files));
    out.extend(lint_unwrap(&s.alib_files));
    out.extend(lint_lock_order(&s.server_files));
    let mut wire_files = s.proto_files.clone();
    wire_files.push((DISPATCH_RS.to_string(), s.dispatch.clone()));
    wire_files.push((FASTPATH_RS.to_string(), server_file(s, "fastpath.rs").to_string()));
    out.extend(lint_casts(&wire_files));
    out
}

/// Parses the allowlist: one `pass-name: message-substring` entry per
/// line, `#` comments. A finding is suppressed when its pass matches and
/// its message contains the substring.
pub fn parse_allowlist(text: &str) -> Vec<(String, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (pass, rest) = l.split_once(':')?;
            Some((pass.trim().to_string(), rest.trim().to_string()))
        })
        .collect()
}

/// Drops findings matched by the allowlist.
pub fn apply_allowlist(findings: Vec<Finding>, allow: &[(String, String)]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            !allow
                .iter()
                .any(|(pass, sub)| f.pass == pass && f.message.contains(sub.as_str()))
        })
        .collect()
}

/// Lints the workspace at `root`, applying its allowlist.
pub fn run_workspace_lint(root: &Path) -> io::Result<Vec<Finding>> {
    let sources = Sources::load(root)?;
    let allow = match fs::read_to_string(root.join("crates/xtask/lint-allow.txt")) {
        Ok(text) => parse_allowlist(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    Ok(apply_allowlist(run_all(&sources), &allow))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature, self-consistent protocol: two requests, one reply,
    /// one event, one error code. Tests break one table at a time and
    /// assert the right pass notices.
    const REQUEST_OK: &str = r#"
pub enum Request {
    Ping { id: u32 },
    QueryThing { id: u32 },
}

impl Request {
    pub fn has_reply(&self) -> bool {
        matches!(self, Request::QueryThing { .. })
    }
}

impl WireWrite for Request {
    fn write(&self, w: &mut WireWriter) {
        match self {
            Request::Ping { id } => {
                w.u8(0);
                w.u32(*id);
            }
            Request::QueryThing { id } => {
                w.u8(1);
                w.u32(*id);
            }
        }
    }
}

impl WireRead for Request {
    fn read(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Request::Ping { id: r.u32()? },
            1 => {
                Request::QueryThing { id: r.u32()? }
            }
            n => return Err(CodecError::BadOpcode(n)),
        })
    }
}
"#;

    const DISPATCH_OK: &str = r#"
fn execute(core: &mut Core, request: &Request) -> DispatchResult {
    match request {
        Request::Ping { id } => {
            core.ping(*id);
            Ok(None)
        }
        Request::QueryThing { id } => {
            Ok(Some(Reply::Thing { id: *id }))
        }
    }
}
"#;

    const EVENT_OK: &str = r#"
pub enum Event {
    Pong { id: u32 },
    ThingChanged { id: u32 },
}
"#;

    const ERROR_OK: &str = r#"
pub enum ErrorCode {
    BadThing,
    ThingBusy,
}

impl ErrorCode {
    const ALL: [ErrorCode; 2] = [ErrorCode::BadThing, ErrorCode::ThingBusy];
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadThing => "bad thing",
            ErrorCode::ThingBusy => "thing busy",
        };
        f.write_str(s)
    }
}
"#;

    fn server_emitting_everything() -> Vec<(String, String)> {
        vec![(
            "crates/core/src/engine.rs".into(),
            "fn go(core: &mut Core) {\n    core.send(Event::Pong { id: 1 });\n    core.send(Event::ThingChanged { id: 2 });\n    core.fail(ErrorCode::BadThing);\n    core.fail(ErrorCode::ThingBusy);\n}\n"
                .into(),
        )]
    }

    #[test]
    fn consistent_fixture_is_clean() {
        assert_eq!(lint_opcode_tables(REQUEST_OK), Vec::new());
        assert_eq!(lint_dispatch_exhaustive(REQUEST_OK, DISPATCH_OK), Vec::new());
        assert_eq!(lint_reply_coverage(REQUEST_OK, DISPATCH_OK), Vec::new());
        assert_eq!(lint_event_emission(EVENT_OK, &server_emitting_everything()), Vec::new());
        assert_eq!(
            lint_error_codes(ERROR_OK, &server_emitting_everything(), "BadThing ThingBusy"),
            Vec::new()
        );
    }

    #[test]
    fn removed_dispatch_arm_is_found() {
        // The acceptance case: an opcode removed from core::dispatch.
        let broken = DISPATCH_OK.replace("Request::QueryThing { id } => {", "_ => {");
        let findings = lint_dispatch_exhaustive(REQUEST_OK, &broken);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("QueryThing"));
    }

    #[test]
    fn unemitted_event_is_found() {
        let files = vec![(
            "crates/core/src/engine.rs".into(),
            "fn go(core: &mut Core) { core.send(Event::Pong { id: 1 }); }".into(),
        )];
        let findings = lint_event_emission(EVENT_OK, &files);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("ThingChanged"));
    }

    #[test]
    fn commented_out_emission_does_not_count() {
        let files = vec![(
            "crates/core/src/engine.rs".into(),
            "fn go(core: &mut Core) {\n    core.send(Event::Pong { id: 1 });\n    // core.send(Event::ThingChanged { id: 2 });\n}"
                .into(),
        )];
        assert_eq!(lint_event_emission(EVENT_OK, &files).len(), 1);
    }

    #[test]
    fn opcode_gaps_and_mismatches_are_found() {
        // Write table skips opcode 1 (retired opcode shape).
        let gap = REQUEST_OK.replace("w.u8(1);", "w.u8(2);");
        assert!(lint_opcode_tables(&gap)
            .iter()
            .any(|f| f.message.contains("gap") || f.message.contains("reads")));
        // Read table decodes QueryThing under the wrong opcode.
        let skew = REQUEST_OK.replace("1 => {", "3 => {");
        assert!(!lint_opcode_tables(&skew).is_empty());
        // A variant dropped from the write table entirely.
        let missing = REQUEST_OK.replace("w.u8(1);", "");
        assert!(lint_opcode_tables(&missing)
            .iter()
            .any(|f| f.message.contains("QueryThing")));
    }

    #[test]
    fn reply_drift_is_found_both_ways() {
        // Arm stops replying but stays declared.
        let silent = DISPATCH_OK.replace("Ok(Some(Reply::Thing { id: *id }))", "Ok(None)");
        let findings = lint_reply_coverage(REQUEST_OK, &silent);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("never replies"));
        // Arm replies without being declared.
        let undeclared =
            REQUEST_OK.replace("matches!(self, Request::QueryThing { .. })", "false");
        let findings = lint_reply_coverage(&undeclared, DISPATCH_OK);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("not declared"));
    }

    #[test]
    fn error_table_drift_is_found() {
        let no_display = ERROR_OK.replace("ErrorCode::ThingBusy => \"thing busy\",", "");
        assert!(lint_error_codes(&no_display, &server_emitting_everything(), "BadThing ThingBusy")
            .iter()
            .any(|f| f.message.contains("ThingBusy") && f.message.contains("Display")));
        let no_all = ERROR_OK.replace(", ErrorCode::ThingBusy]", "]");
        assert!(lint_error_codes(&no_all, &server_emitting_everything(), "BadThing ThingBusy")
            .iter()
            .any(|f| f.message.contains("ALL")));
        // The client library misses a classification.
        assert!(lint_error_codes(ERROR_OK, &server_emitting_everything(), "BadThing only")
            .iter()
            .any(|f| f.message.contains("ThingBusy") && f.message.contains("alib")));
    }

    #[test]
    fn doc_rows_checked_against_tables() {
        let design = "\
| Op | Request | Reply | Purpose |
|----|---------|-------|---------|
| 0 | `Ping` | – | liveness |
| 1 | `QueryThing` | yes | lookup |
";
        assert_eq!(lint_doc_rows(REQUEST_OK, design), Vec::new());
        let missing = design.replace("| 1 | `QueryThing` | yes | lookup |\n", "");
        assert!(lint_doc_rows(REQUEST_OK, &missing)[0].message.contains("no doc row"));
        let wrong_op = design.replace("| 1 | `QueryThing`", "| 9 | `QueryThing`");
        assert!(lint_doc_rows(REQUEST_OK, &wrong_op)[0].message.contains("documented as"));
        let wrong_reply = design.replace("| `QueryThing` | yes", "| `QueryThing` | –");
        assert!(lint_doc_rows(REQUEST_OK, &wrong_reply)[0].message.contains("reply flag"));
    }

    #[test]
    fn metrics_names_checked_against_catalog() {
        let files = vec![(
            "crates/core/src/telem.rs".to_string(),
            "fn build(reg: &Registry) {\n    let a = counter!(reg, \"dispatch_requests_total\");\n    let b = gauge!(reg, \"queue_depth\");\n    let c = histogram!(reg, \"engine_tick_us\");\n}\n"
                .to_string(),
        )];
        let design = "\
## 10. Observability

| Metric | Kind | Meaning |
|--------|------|---------|
| `dispatch_requests_total` | counter | requests |
| `queue_depth` | gauge | depth |
| `engine_tick_us` | histogram | tick time |
";
        assert_eq!(lint_metrics_names(&files, design), Vec::new());
        // A registered metric missing from the catalog.
        let missing = design.replace("| `queue_depth` | gauge | depth |\n", "");
        assert!(lint_metrics_names(&files, &missing)
            .iter()
            .any(|f| f.message.contains("queue_depth") && f.message.contains("not listed")));
        // A catalog row nothing registers.
        let stale = format!("{design}| `ghost_metric_total` | counter | gone |\n");
        assert!(lint_metrics_names(&files, &stale)
            .iter()
            .any(|f| f.message.contains("ghost_metric_total")
                && f.message.contains("nothing registers")));
        // The same name registered twice.
        let mut dup = files.clone();
        dup.push((
            "crates/core/src/engine.rs".to_string(),
            "fn again(reg: &Registry) { let d = gauge!(reg, \"queue_depth\"); }\n".to_string(),
        ));
        assert!(lint_metrics_names(&dup, design)
            .iter()
            .any(|f| f.message.contains("registered 2 times")));
        // Names must be snake_case.
        let bad = vec![(
            "crates/core/src/telem.rs".to_string(),
            "fn b(reg: &Registry) { let x = counter!(reg, \"BadName\"); }\n".to_string(),
        )];
        assert!(lint_metrics_names(&bad, "## 10. Observability\n\ntext\n")
            .iter()
            .any(|f| f.message.contains("not snake_case")));
        // Registrations with no catalog section at all.
        assert!(lint_metrics_names(&files, "## 8. Wire protocol\n\ntext\n")
            .iter()
            .any(|f| f.message.contains("no Observability section")));
    }

    #[test]
    fn trace_stages_checked_three_ways() {
        let proto = vec![(
            "crates/proto/src/reply.rs".to_string(),
            "impl TraceStage {\n    pub const NAMES: [&'static str; 2] =\n        [\"ingress\", \"drain\"];\n}\n"
                .to_string(),
        )];
        let server = vec![(
            "crates/core/src/telem.rs".to_string(),
            "fn build(reg: &Registry) {\n    let a = histogram!(reg, \"trace_stage_ingress_us\");\n    let b = histogram!(reg, \"trace_stage_drain_us\");\n}\n"
                .to_string(),
        )];
        let design = "\
## 15. Causal tracing & flight recorder

| Stage | Moment |
|-------|--------|
| `ingress` | frame decoded |
| `drain` | frame written |
";
        assert_eq!(lint_trace_stages(&proto, &server, design), Vec::new());
        // A stage with no histogram registration.
        let partial = vec![(
            "crates/core/src/telem.rs".to_string(),
            "fn build(reg: &Registry) { let a = histogram!(reg, \"trace_stage_ingress_us\"); }\n"
                .to_string(),
        )];
        assert!(lint_trace_stages(&proto, &partial, design)
            .iter()
            .any(|f| f.message.contains("drain") && f.message.contains("no")));
        // A histogram naming a stage the taxonomy lacks.
        let mut extra = server.clone();
        extra.push((
            "crates/core/src/telem.rs".to_string(),
            "fn more(reg: &Registry) { let c = histogram!(reg, \"trace_stage_ghost_us\"); }\n"
                .to_string(),
        ));
        assert!(lint_trace_stages(&proto, &extra, design)
            .iter()
            .any(|f| f.message.contains("ghost") && f.message.contains("not in TraceStage")));
        // A stage DESIGN.md never documents.
        let undocumented = design.replace("| `drain` | frame written |\n", "");
        assert!(lint_trace_stages(&proto, &server, &undocumented)
            .iter()
            .any(|f| f.message.contains("drain") && f.message.contains("not documented")));
        // No Causal tracing section at all.
        assert!(lint_trace_stages(&proto, &server, "## 10. Observability\n\ntext\n")
            .iter()
            .any(|f| f.message.contains("no Causal tracing section")));
        // Registrations without a NAMES taxonomy.
        assert!(lint_trace_stages(&[], &server, design)
            .iter()
            .any(|f| f.message.contains("NAMES was not found")));
        // No taxonomy and no registrations: nothing to check.
        assert_eq!(lint_trace_stages(&[], &[], design), Vec::new());
    }

    #[test]
    fn unwrap_lint_flags_bare_unwrap_only() {
        let files = vec![(
            "crates/core/src/engine.rs".into(),
            "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"checked above\");\n    let c = x.unwrap(); // lint: allow-unwrap - test hook\n    let d = x.unwrap_or(0);\n    a + b + c + d\n}\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) -> u32 { x.unwrap() }\n}\n"
                .into(),
        )];
        let findings = lint_unwrap(&files);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("line 2"));
    }

    #[test]
    fn lock_order_inversion_is_found() {
        let ok = "fn f(&self) {\n    let mut core = self.core.write();\n    core.tick();\n}\nfn g(&self) {\n    let core = self.core.read();\n    let _stripe = stripe.lock();\n    core.peek();\n}\nfn h(&self) {\n    self.stripe.lock();\n    let mut core = self.core.write();\n    core.tick();\n}\n";
        // f: write lock alone; g: canonical core -> stripe; h: the
        // stripe guard is a temporary, dead before core is locked.
        assert_eq!(lint_lock_order(&[("s.rs".into(), ok.into())]), Vec::new());
        let bad = "fn g(&self) {\n    let _stripe = self.stripe.lock();\n    let mut core = self.core.write();\n    core.tick();\n}\n";
        let findings = lint_lock_order(&[("s.rs".into(), bad.into())]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("core acquired while stripe"));
        // The guard dies with its block: no finding across scopes.
        let scoped = "fn g(&self) {\n    {\n        let _stripe = self.stripe.lock();\n    }\n    let mut core = self.core.write();\n    core.tick();\n}\n";
        assert_eq!(lint_lock_order(&[("s.rs".into(), scoped.into())]), Vec::new());
        // Wire-codec `.write(&mut w)` calls take arguments: never matched.
        let wire = "fn g(&self) {\n    let _stripe = self.stripe.lock();\n    reply.write(&mut w);\n    core.read_frame(&mut buf);\n}\n";
        assert_eq!(lint_lock_order(&[("s.rs".into(), wire.into())]), Vec::new());
    }

    #[test]
    fn lock_mode_modeling_flags_upgrades_and_write_mode_stripes() {
        // Read guard live, then `.write()` on the same receiver: the
        // classic non-upgradable RwLock self-deadlock.
        let upgrade = "fn g(&self) {\n    let c = self.core.read();\n    let mut w = self.core.write();\n    w.tick();\n}\n";
        let findings = lint_lock_order(&[("s.rs".into(), upgrade.into())]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("read->write upgrade hazard"));
        // Write-then-write (and write-then-read) are plain re-entrancy,
        // not upgrades.
        let reentrant = "fn g(&self) {\n    let w = self.core.write();\n    let c = self.core.read();\n    c.peek();\n}\n";
        let findings = lint_lock_order(&[("s.rs".into(), reentrant.into())]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("re-entrant"));
        // A stripe under the core *write* lock is aliasing-suspect even
        // though the order matches the canonical [core, stripe].
        let write_stripe = "fn g(&self) {\n    let mut w = self.core.write();\n    let _s = stripe.lock();\n    w.tick();\n}\n";
        let findings = lint_lock_order(&[("s.rs".into(), write_stripe.into())]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("stripe acquired under the core write lock"));
        // The same stripe under the core *read* lock is the documented
        // fast-path protocol: clean.
        let read_stripe = "fn g(&self) {\n    let c = self.core.read();\n    let _s = stripe.lock();\n    c.peek();\n}\n";
        assert_eq!(lint_lock_order(&[("s.rs".into(), read_stripe.into())]), Vec::new());
    }

    #[test]
    fn allowlist_suppresses_by_pass_and_substring() {
        let allow = parse_allowlist(
            "# comment\n\nevent-emission: ThingChanged  \nunwrap-in-server: engine.rs\n",
        );
        assert_eq!(allow.len(), 2);
        let findings = vec![
            finding("event-emission", EVENT_RS, "event ThingChanged is never emitted".into()),
            finding("event-emission", EVENT_RS, "event Pong is never emitted".into()),
        ];
        let left = apply_allowlist(findings, &allow);
        assert_eq!(left.len(), 1);
        assert!(left[0].message.contains("Pong"));
    }

    #[test]
    fn casts_lint_flags_unmarked_narrowing_only() {
        let files = vec![(
            "crates/proto/src/fixture.rs".to_string(),
            "fn f(n: usize, b: u8) -> u32 {\n\
             \x20   let a = n as u32;\n\
             \x20   let b2 = u32::from(b);\n\
             \x20   let c = n as u32; // cast-ok: bounded by MAX_FRAME_PAYLOAD\n\
             \x20   let d = n as u64;\n\
             \x20   a + b2 + c + (d as u32)\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn g(n: usize) -> u8 { n as u8 }\n\
             }\n"
                .to_string(),
        )];
        let findings = lint_casts(&files);
        // Lines 2 and 6 are flagged; the cast-ok line, the widening to
        // u64, and the test module are not.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.pass == "casts"));
        assert!(findings[0].message.contains("line 2"));
        assert!(findings[1].message.contains("line 6"));
    }

    #[test]
    fn casts_lint_respects_token_boundaries() {
        let files = vec![(
            "crates/proto/src/fixture.rs".to_string(),
            "fn f(v: V) -> u32x4 { v as u32x4 }\n".to_string(),
        )];
        assert!(lint_casts(&files).is_empty());
    }

    /// The real workspace must lint clean: this is the tree the passes
    /// were written against, and any drift from here on is a regression
    /// (or a new allowlist entry with a written justification).
    #[test]
    fn workspace_is_lint_clean() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let findings = run_workspace_lint(root).expect("workspace readable");
        for f in &findings {
            eprintln!("{f}");
        }
        assert!(findings.is_empty());
    }
}
