//! The workspace lint: machine checks for the invariants ARCHITECTURE.md
//! can only state in prose.
//!
//! `cargo run -p xtask -- lint` walks every Rust source file in the
//! repository and enforces five rules:
//!
//! 1. **`raw-lock`** — no raw `std::sync` lock construction (`Mutex`,
//!    `RwLock`, `Condvar`) outside the ranked wrappers in
//!    `crates/engine/src/sync.rs` and `vendor/rayon/src/lockcheck.rs`.
//!    Every lock in the process must carry a `LockRank` so the lock-order
//!    checker sees it.
//! 2. **`unsafe-safety`** — every `unsafe` keyword is preceded by a
//!    `// SAFETY:` comment (attributes may sit between the comment and the
//!    keyword).
//! 3. **`determinism`** — the modules on the deterministic evaluation path
//!    must not read wall clocks (`Instant`, `SystemTime`) or iterate
//!    hash-ordered containers (`HashMap`, `HashSet`); answers are replayed
//!    bit-for-bit from a seed, so iteration order and time are both
//!    forbidden inputs.  Sanctioned uses (deadline checks, lookup-only
//!    maps) are listed in the allowlist with a justification.
//! 4. **`failpoints`** — the failpoint registry in
//!    `crates/engine/src/faults.rs` and its uses stay in sync three ways:
//!    every probe call site names a registered site, every registered site
//!    has a probe call site, and every registered site is exercised by a
//!    string literal in `tests/fault_storm.rs`.
//! 5. **`pool-in-init`** — no worker-pool work (`par_iter`,
//!    `into_par_iter`, `par_chunks`, `rayon::join`, `rayon::scope`, and the
//!    `_mut` forms) inside the closure passed to `get_or_init(` in non-test
//!    code.  A thread waiting for pool jobs helps run queued ones, which
//!    may be sibling callers of the same cell, and re-entering
//!    `get_or_init` from inside its own initialiser deadlocks.  The rule
//!    is lexical: it sees the tokens written between the call's
//!    parentheses, not the functions they call — pool work reached through
//!    a called function is out of its reach, as is a `use rayon::join`
//!    called bare.
//!
//! `cargo run -p xtask -- loc` prints the production lines of every file
//! under `crates/*/src` and a per-crate total ([`production_lines`] is the
//! counting rule), so "less code" criteria are not counted by hand.  With
//! `--against <git-rev>` every row carries the count at that revision (read
//! through `git show`), the count now, and the difference — the
//! before/after table a simplicity PR owes its changelog entry.
//!
//! Findings are suppressed by `lint.allow` at the repository root; an
//! allowlist entry that no longer matches anything is itself a finding
//! (rule **`allowlist`**), so the list can only shrink as code is fixed.
//!
//! The scanner is line- and token-based, not a parser: comments and string
//! literals are blanked before identifier matching (so prose and message
//! text never trip a rule), and identifiers match whole tokens only
//! (`OrderedMutex` does not contain the token `Mutex`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Rule name: raw `std::sync` lock outside the ranked wrappers.
pub const RULE_RAW_LOCK: &str = "raw-lock";
/// Rule name: `unsafe` without a `// SAFETY:` comment above it.
pub const RULE_SAFETY: &str = "unsafe-safety";
/// Rule name: wall clock or hash-order iteration in a deterministic module.
pub const RULE_DETERMINISM: &str = "determinism";
/// Rule name: failpoint registry and probe/test literals out of sync.
pub const RULE_FAILPOINTS: &str = "failpoints";
/// Rule name: worker-pool work inside a `OnceLock` initialiser.
pub const RULE_POOL_IN_INIT: &str = "pool-in-init";
/// Rule name: a `lint.allow` entry that matches nothing (or is malformed).
pub const RULE_ALLOWLIST: &str = "allowlist";

/// The two files allowed to construct raw `std::sync` primitives: the
/// ranked wrappers themselves.
const RAW_LOCK_EXEMPT: [&str; 2] = ["crates/engine/src/sync.rs", "vendor/rayon/src/lockcheck.rs"];

/// The deterministic evaluation path: algebra rewriting, u-relations,
/// confidence compilation and world enumeration, physical evaluation, and
/// delta maintenance.  See ARCHITECTURE.md invariant 2 (bit-replayable
/// answers) for why time and hash order are forbidden here.
const DETERMINISTIC_DIRS: [&str; 2] = ["crates/algebra/src/", "crates/urel/src/"];
const DETERMINISTIC_FILES: [&str; 7] = [
    "crates/confidence/src/compile.rs",
    "crates/confidence/src/bitworld.rs",
    "crates/confidence/src/dnnf.rs",
    "crates/confidence/src/cost.rs",
    "crates/engine/src/physical.rs",
    "crates/engine/src/delta.rs",
    "crates/engine/src/sched.rs",
];

/// Method tokens that submit work to the worker pool (`pool-in-init`).
const POOL_METHODS: [&str; 5] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
];
/// Pool entry points the `pool-in-init` rule matches as `rayon::<name>`.
const POOL_FUNCTIONS: [&str; 2] = ["join", "scope"];

/// Where the failpoint registry lives and where every site must be
/// exercised.
const FAULTS_REGISTRY: &str = "crates/engine/src/faults.rs";
const FAULT_STORM_SUITE: &str = "tests/fault_storm.rs";

/// One lint violation, pointing at a repository-relative file and line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repository-relative path with `/` separators.
    pub path: String,
    /// 1-based line number the finding anchors to.
    pub line: usize,
    /// One of the `RULE_*` names.
    pub rule: &'static str,
    /// The offending token — what an allowlist entry must name to
    /// suppress this finding.
    pub token: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A source file split into the three views the rules scan.
///
/// All views have identical line structure (newlines are preserved), so a
/// line index is valid across them and against the original file.
pub struct Source {
    /// Comments and string/char-literal *contents* blanked to spaces:
    /// identifier matching runs here.
    pub code: Vec<String>,
    /// Comments blanked, string literals kept: failpoint site literals are
    /// extracted from here.
    pub code_with_strings: Vec<String>,
    /// The file verbatim: `// SAFETY:` comments are found here.
    pub raw: Vec<String>,
}

/// Splits `text` into the lint [`Source`] views with a single pass that
/// understands line and (nested) block comments, normal and raw string
/// literals, byte strings, char literals, and lifetimes (`'scope` is code,
/// not an unterminated char literal).
pub fn split_views(text: &str) -> Source {
    let chars: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(text.len());
    let mut with_strings = String::with_capacity(text.len());
    // Newlines always pass through both views so line numbers survive.
    fn emit(out: &mut String, c: char, visible: bool) {
        out.push(if c == '\n' || visible { c } else { ' ' });
    }
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        // Line comment: blank to end of line in both code views.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                emit(&mut code, chars[i], false);
                emit(&mut with_strings, chars[i], false);
                i += 1;
            }
            continue;
        }
        // Block comment, which Rust nests.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    for _ in 0..2 {
                        emit(&mut code, chars[i], false);
                        emit(&mut with_strings, chars[i], false);
                        i += 1;
                    }
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    for _ in 0..2 {
                        emit(&mut code, chars[i], false);
                        emit(&mut with_strings, chars[i], false);
                        i += 1;
                    }
                    if depth == 0 {
                        break;
                    }
                } else {
                    emit(&mut code, chars[i], false);
                    emit(&mut with_strings, chars[i], false);
                    i += 1;
                }
            }
            continue;
        }
        // String literal.  Raw-ness is decided by the characters already
        // consumed: trailing `#`s, then `r` (optionally preceded by `b`)
        // that does not terminate a longer identifier.
        if c == '"' {
            let mut j = i;
            let mut hashes = 0usize;
            while j > 0 && chars[j - 1] == '#' {
                j -= 1;
                hashes += 1;
            }
            let is_raw = j > 0 && chars[j - 1] == 'r' && {
                let mut k = j - 1;
                if k > 0 && chars[k - 1] == 'b' {
                    k -= 1;
                }
                k == 0 || (!chars[k - 1].is_alphanumeric() && chars[k - 1] != '_')
            };
            let hashes = if is_raw { hashes } else { 0 };
            emit(&mut code, '"', false);
            emit(&mut with_strings, '"', true);
            i += 1;
            if is_raw {
                while i < chars.len() {
                    let closes = chars[i] == '"'
                        && i + hashes < chars.len()
                        && chars[i + 1..i + 1 + hashes].iter().all(|&h| h == '#');
                    if closes {
                        for _ in 0..=hashes {
                            emit(&mut code, chars[i], false);
                            emit(&mut with_strings, chars[i], true);
                            i += 1;
                        }
                        break;
                    }
                    emit(&mut code, chars[i], false);
                    emit(&mut with_strings, chars[i], true);
                    i += 1;
                }
            } else {
                while i < chars.len() {
                    if chars[i] == '\\' && i + 1 < chars.len() {
                        for _ in 0..2 {
                            emit(&mut code, chars[i], false);
                            emit(&mut with_strings, chars[i], true);
                            i += 1;
                        }
                        continue;
                    }
                    let done = chars[i] == '"';
                    emit(&mut code, chars[i], false);
                    emit(&mut with_strings, chars[i], true);
                    i += 1;
                    if done {
                        break;
                    }
                }
            }
            continue;
        }
        // Char literal vs lifetime: `'x'` and `'\n'` are literals, `'a` in
        // `<'a>` (no closing quote within reach) is a lifetime and stays
        // code.
        if c == '\'' {
            if chars.get(i + 1) == Some(&'\\') {
                emit(&mut code, chars[i], true);
                emit(&mut with_strings, chars[i], true);
                i += 1;
                while i < chars.len() && chars[i] != '\'' {
                    emit(&mut code, chars[i], true);
                    emit(&mut with_strings, chars[i], true);
                    i += 1;
                }
                if i < chars.len() {
                    emit(&mut code, chars[i], true);
                    emit(&mut with_strings, chars[i], true);
                    i += 1;
                }
                continue;
            }
            if chars.get(i + 2) == Some(&'\'') {
                for _ in 0..3 {
                    emit(&mut code, chars[i], true);
                    emit(&mut with_strings, chars[i], true);
                    i += 1;
                }
                continue;
            }
            // A lifetime: fall through as ordinary code.
        }
        emit(&mut code, c, true);
        emit(&mut with_strings, c, true);
        i += 1;
    }
    let lines = |s: &str| s.split('\n').map(str::to_owned).collect();
    Source {
        code: lines(&code),
        code_with_strings: lines(&with_strings),
        raw: lines(text),
    }
}

/// Yields every maximal identifier token (`[A-Za-z_][A-Za-z0-9_]*`) on a
/// line, so `OrderedMutex` is one token and never matches `Mutex`.
pub fn identifiers(line: &str) -> Vec<&str> {
    identifier_spans(line)
        .into_iter()
        .map(|(_, id)| id)
        .collect()
}

/// [`identifiers`] with the byte offset each token starts at.
fn identifier_spans(text: &str) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            if !bytes[start].is_ascii_digit() {
                out.push((start, &text[start..i]));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// The `pool-in-init` scan of one file's code view (comments and literals
/// blanked): `(1-based line, token)` of every pool-work token between the
/// parentheses of a `get_or_init(` call, once per line and token.  Lines
/// from the first `#[cfg(test)]` on are test code and not scanned.
fn pool_work_in_initialisers(code: &[String]) -> BTreeSet<(usize, String)> {
    let production = code
        .iter()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"));
    let text = production.cloned().collect::<Vec<_>>().join("\n");
    let spans = identifier_spans(&text);
    let line_of = |at: usize| text[..at].matches('\n').count() + 1;
    let mut found = BTreeSet::new();
    for (at, _) in spans.iter().filter(|(_, id)| *id == "get_or_init") {
        let after = at + "get_or_init".len();
        let Some(open) = text[after..].find(|c: char| !c.is_whitespace()) else {
            continue;
        };
        let open = after + open;
        if !text[open..].starts_with('(') {
            continue;
        }
        // The call's argument list: up to the parenthesis closing `open`.
        let mut depth = 0usize;
        let close = text[open..].char_indices().find_map(|(i, c)| {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            (depth == 0).then_some(open + i)
        });
        let close = close.unwrap_or(text.len());
        for (pos, id) in spans.iter().filter(|(pos, _)| (open..close).contains(pos)) {
            let token = if POOL_METHODS.contains(id) {
                id.to_string()
            } else if POOL_FUNCTIONS.contains(id) && text[..*pos].trim_end().ends_with("rayon::") {
                format!("rayon::{id}")
            } else {
                continue;
            };
            found.insert((line_of(*pos), token));
        }
    }
    found
}

/// True for sources that are tests as a whole: integration tests, whose
/// pool use inside an initialiser blocks only the test itself.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// One `lint.allow` entry: `rule path token`, with `#` comments.
struct AllowEntry {
    rule: String,
    path: String,
    token: String,
    line: usize,
    used: bool,
}

/// Parses `lint.allow`; malformed lines become `allowlist` findings.
fn load_allowlist(root: &Path, findings: &mut Vec<Finding>) -> Vec<AllowEntry> {
    let path = root.join("lint.allow");
    let Ok(text) = fs::read_to_string(&path) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [rule, path, token] = fields[..] {
            entries.push(AllowEntry {
                rule: rule.to_owned(),
                path: path.to_owned(),
                token: token.to_owned(),
                line: idx + 1,
                used: false,
            });
        } else {
            findings.push(Finding {
                path: "lint.allow".to_owned(),
                line: idx + 1,
                rule: RULE_ALLOWLIST,
                token: line.to_owned(),
                message: format!("malformed allowlist entry (want `rule path token`): {line:?}"),
            });
        }
    }
    entries
}

/// Recursively collects every `.rs` file under the scan roots, skipping
/// build output and the lint's own test fixtures (which are violations on
/// purpose).
fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "src", "tests", "examples", "vendor"]
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && !path.ends_with("crates/xtask/tests/fixtures") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// `path` relative to `root`, with `/` separators.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn is_deterministic_path(rel: &str) -> bool {
    DETERMINISTIC_DIRS.iter().any(|d| rel.starts_with(d)) || DETERMINISTIC_FILES.contains(&rel)
}

/// Whether any comment line directly above `line` (1-based, skipping
/// attributes and earlier comment lines) contains `SAFETY:`.
fn has_safety_comment(raw: &[String], line: usize) -> bool {
    let mut idx = line - 1; // 0-based index of the `unsafe` line itself
    while idx > 0 {
        idx -= 1;
        let t = raw[idx].trim_start();
        if t.starts_with("//") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else if !(t.starts_with("#[") || t.starts_with("#![")) {
            return false;
        }
    }
    false
}

/// Extracts the failpoint site literals of one probe-call line: the first
/// string argument of `fire(`, `fire_cost_only(`, `corrupt_bytes(`, and
/// `FaultPlan::at` (matched as `.at(`).
fn probe_literals(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for pat in ["fire(", "fire_cost_only(", "corrupt_bytes(", ".at("] {
        let mut from = 0;
        while let Some(hit) = line[from..].find(pat) {
            let start = from + hit;
            from = start + pat.len();
            // Reject matches that end a longer identifier (`misfire(`).
            if !pat.starts_with('.') && start > 0 {
                let before = line.as_bytes()[start - 1];
                if before.is_ascii_alphanumeric() || before == b'_' {
                    continue;
                }
            }
            let rest = line[from..].trim_start();
            if let Some(lit) = rest.strip_prefix('"') {
                if let Some(end) = lit.find('"') {
                    out.push(lit[..end].to_owned());
                }
            }
        }
    }
    out
}

/// Pulls the string literals out of `pub const <name>: [...] = [...];` in
/// the registry source (comment-stripped view, literals kept).
fn registry_array(text: &str, name: &str) -> Option<Vec<String>> {
    let needle = format!("const {name}:");
    let start = text.find(&needle)?;
    // Slice from the `=` so the `;` inside the `[&str; N]` type does not
    // truncate the value expression.
    let tail = &text[start..];
    let eq = tail.find('=')?;
    let value = &tail[eq..];
    let end = value.find(';')?;
    let mut sites = Vec::new();
    let mut rest = &value[..end];
    while let Some(q) = rest.find('"') {
        let lit = &rest[q + 1..];
        let close = lit.find('"')?;
        sites.push(lit[..close].to_owned());
        rest = &lit[close + 1..];
    }
    Some(sites)
}

/// Runs every rule over the tree rooted at `root` and returns the
/// surviving findings, sorted by path and line.  `Err` is reserved for a
/// tree the lint cannot scan at all (missing registry or storm suite).
pub fn lint(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let mut allow = load_allowlist(root, &mut findings);

    let raw_lock_tokens = ["Mutex", "RwLock", "Condvar"];
    let hash_tokens = ["HashMap", "HashSet"];
    let clock_tokens = ["Instant", "SystemTime"];

    // site -> (file, line) of one probe call; gathered during the walk.
    let mut probed: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut probe_findings: Vec<(String, usize, String)> = Vec::new();
    let mut registry_text = None;
    let mut storm_text = None;

    for path in rust_files(root) {
        let rel = rel(root, &path);
        let text = fs::read_to_string(&path).map_err(|e| format!("reading {rel}: {e}"))?;
        let views = split_views(&text);
        let deterministic = is_deterministic_path(&rel);
        let lock_exempt = RAW_LOCK_EXEMPT.contains(&rel.as_str());

        for (idx, line) in views.code.iter().enumerate() {
            let lineno = idx + 1;
            // Dedup per line+token: one `use` line naming a token twice is
            // one finding.
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            for ident in identifiers(line) {
                if !seen.insert(ident) {
                    continue;
                }
                if !lock_exempt && raw_lock_tokens.contains(&ident) {
                    findings.push(Finding {
                        path: rel.clone(),
                        line: lineno,
                        rule: RULE_RAW_LOCK,
                        token: ident.to_owned(),
                        message: format!(
                            "raw `std::sync::{ident}` outside engine::sync — use the ranked \
                             wrapper (Ordered{ident}) so the lock carries a LockRank"
                        ),
                    });
                }
                if ident == "unsafe" && !has_safety_comment(&views.raw, lineno) {
                    findings.push(Finding {
                        path: rel.clone(),
                        line: lineno,
                        rule: RULE_SAFETY,
                        token: "unsafe".to_owned(),
                        message: "`unsafe` without a `// SAFETY:` comment above it".to_owned(),
                    });
                }
                if deterministic && hash_tokens.contains(&ident) {
                    findings.push(Finding {
                        path: rel.clone(),
                        line: lineno,
                        rule: RULE_DETERMINISM,
                        token: ident.to_owned(),
                        message: format!(
                            "`{ident}` in a deterministic module: iteration order is \
                             nondeterministic — use the BTree variant, or allowlist a \
                             lookup-only use"
                        ),
                    });
                }
                if deterministic && clock_tokens.contains(&ident) {
                    findings.push(Finding {
                        path: rel.clone(),
                        line: lineno,
                        rule: RULE_DETERMINISM,
                        token: ident.to_owned(),
                        message: format!(
                            "`{ident}` in a deterministic module: wall-clock reads are \
                             nondeterministic — allowlist deadline-only uses"
                        ),
                    });
                }
            }
        }

        if !is_test_path(&rel) {
            for (line, token) in pool_work_in_initialisers(&views.code) {
                findings.push(Finding {
                    path: rel.clone(),
                    line,
                    rule: RULE_POOL_IN_INIT,
                    message: format!(
                        "`{token}` inside a `get_or_init` initialiser: a thread waiting for \
                         pool jobs may run a sibling caller of the same cell, which \
                         re-enters the initialiser and deadlocks — compute sequentially, \
                         or outside the cell"
                    ),
                    token,
                });
            }
        }

        if rel == FAULTS_REGISTRY {
            registry_text = Some(views.code_with_strings.join("\n"));
            continue; // its own tests probe synthetic sites
        }
        if rel == FAULT_STORM_SUITE {
            storm_text = Some(views.code_with_strings.join("\n"));
        }
        // The lint's own sources spell the probe patterns out; vendored
        // crates have no access to the engine registry.
        if rel.starts_with("crates/xtask/") || rel.starts_with("vendor/") {
            continue;
        }
        for (idx, line) in views.code_with_strings.iter().enumerate() {
            for site in probe_literals(line) {
                probed.entry(site.clone()).or_insert((rel.clone(), idx + 1));
                probe_findings.push((rel.clone(), idx + 1, site));
            }
        }
    }

    // The failpoint cross-check proper.
    let registry_text =
        registry_text.ok_or_else(|| format!("{FAULTS_REGISTRY} not found under {root:?}"))?;
    let storm_text =
        storm_text.ok_or_else(|| format!("{FAULT_STORM_SUITE} not found under {root:?}"))?;
    let mut registered: BTreeSet<String> = BTreeSet::new();
    for array in ["SITES", "COST_SITES", "CORRUPT_SITES"] {
        let sites = registry_array(&registry_text, array)
            .ok_or_else(|| format!("cannot parse `const {array}` in {FAULTS_REGISTRY}"))?;
        registered.extend(sites);
    }
    for (path, line, site) in probe_findings {
        if !registered.contains(&site) {
            findings.push(Finding {
                path,
                line,
                rule: RULE_FAILPOINTS,
                token: site.clone(),
                message: format!(
                    "probe names unregistered failpoint site {site:?} — add it to the \
                     registry arrays in {FAULTS_REGISTRY}"
                ),
            });
        }
    }
    for site in &registered {
        let at = |text: &str| {
            text.lines()
                .position(|l| l.contains(&format!("{site:?}")))
                .map_or(1, |i| i + 1)
        };
        if !probed.contains_key(site) {
            findings.push(Finding {
                path: FAULTS_REGISTRY.to_owned(),
                line: at(&registry_text),
                rule: RULE_FAILPOINTS,
                token: site.clone(),
                message: format!("registered failpoint site {site:?} has no probe call site"),
            });
        }
        if !storm_text.contains(&format!("{site:?}")) {
            findings.push(Finding {
                path: FAULTS_REGISTRY.to_owned(),
                line: at(&registry_text),
                rule: RULE_FAILPOINTS,
                token: site.clone(),
                message: format!(
                    "registered failpoint site {site:?} is not exercised by \
                     {FAULT_STORM_SUITE}"
                ),
            });
        }
    }

    // Apply the allowlist, then flag the entries that earned nothing.
    findings.retain(|f| {
        !allow.iter_mut().any(|e| {
            let hit = e.rule == f.rule && e.path == f.path && e.token == f.token;
            e.used |= hit;
            hit
        })
    });
    for e in &allow {
        if !e.used {
            findings.push(Finding {
                path: "lint.allow".to_owned(),
                line: e.line,
                rule: RULE_ALLOWLIST,
                token: e.token.clone(),
                message: format!(
                    "stale allowlist entry `{} {} {}` matches no finding — remove it",
                    e.rule, e.path, e.token
                ),
            });
        }
    }
    findings.sort();
    Ok(findings)
}

/// Production lines of one source text, by the rule the "less code"
/// criteria of the simplicity PRs count with: lines before the first
/// `#[cfg(test)]`, minus blank lines and `//` comment lines (doc comments
/// included).
pub fn production_lines(text: &str) -> usize {
    text.lines()
        .map(str::trim_start)
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
        .count()
}

/// True for the files `loc` counts: Rust sources under `crates/*/src`.
fn counted(rel: &str) -> bool {
    let mut parts = rel.split('/');
    (parts.next(), parts.nth(1)) == (Some("crates"), Some("src")) && rel.ends_with(".rs")
}

/// `loc`: the production lines of every file under `crates/*/src`, as
/// `(repository-relative path, lines)` rows sorted by path.
pub fn loc(root: &Path) -> Result<Vec<(String, usize)>, String> {
    let mut rows = Vec::new();
    for path in rust_files(root) {
        let rel = rel(root, &path);
        if counted(&rel) {
            let text = fs::read_to_string(&path).map_err(|e| format!("{rel}: {e}"))?;
            rows.push((rel, production_lines(&text)));
        }
    }
    Ok(rows)
}

/// Runs `git` in `root` and returns its standard output.
fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let run = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output();
    let out = run.map_err(|e| format!("running git: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), stderr.trim()));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("git {}: {e}", args.join(" ")))
}

/// `loc --against <rev>`: for every file [`loc`] counts now or `rev` held,
/// `(path, lines at rev, lines now)` sorted by path, a file missing on one
/// side counting 0 there.  The old side is read from the object store
/// (`git ls-tree` / `git show`), so the working tree is never touched.
pub fn loc_against(root: &Path, rev: &str) -> Result<Vec<(String, usize, usize)>, String> {
    let mut rows: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for path in git(root, &["ls-tree", "-r", "--name-only", rev, "--", "crates"])?.lines() {
        if counted(path) {
            let text = git(root, &["show", &format!("{rev}:{path}")])?;
            rows.entry(path.to_owned()).or_default().0 = production_lines(&text);
        }
    }
    for (path, now) in loc(root)? {
        rows.entry(path).or_default().1 = now;
    }
    let flat = |(path, (before, now))| (path, before, now);
    Ok(rows.into_iter().map(flat).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_lines_stop_at_the_test_module_and_skip_comments() {
        let src = "//! docs\n\nuse a::b;\n    // note\nfn f() {}\n  #[cfg(test)]\nmod tests {\n    fn g() {}\n}\n";
        assert_eq!(production_lines(src), 2);
        assert_eq!(production_lines(""), 0);
    }

    #[test]
    fn comments_and_strings_are_blanked_for_identifier_matching() {
        let src = "// a Mutex in prose\nlet m = \"Mutex RwLock\"; /* Condvar */\n";
        let views = split_views(src);
        assert!(identifiers(&views.code[0]).is_empty());
        assert_eq!(identifiers(&views.code[1]), ["let", "m"]);
        // The string survives in the literal view for failpoint scanning.
        assert!(views.code_with_strings[1].contains("Mutex RwLock"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'scope>(x: &'scope str) -> &'scope str { x }\n";
        let views = split_views(src);
        assert!(identifiers(&views.code[0]).contains(&"scope"));
        assert!(views.code[0].contains('{'), "body must stay code");
    }

    #[test]
    fn raw_strings_and_char_literals_are_contained() {
        let src = "let a = r#\"Mutex \"quoted\" RwLock\"#;\nlet b = '\"';\nlet c = b'x';\nlet d = Condvar;\n";
        let views = split_views(src);
        assert!(identifiers(&views.code[0])
            .iter()
            .all(|i| *i != "Mutex" && *i != "RwLock"));
        assert_eq!(identifiers(&views.code[3]), ["let", "d", "Condvar"]);
    }

    #[test]
    fn whole_token_matching_spares_wrapper_names() {
        let views = split_views("use engine::sync::{OrderedMutex, OrderedRwLock};\n");
        let ids = identifiers(&views.code[0]);
        assert!(ids.contains(&"OrderedMutex"));
        assert!(!ids.contains(&"Mutex"));
    }

    #[test]
    fn safety_comments_allow_attributes_between() {
        let raw: Vec<String> = [
            "// SAFETY: the transmute widens a lifetime only.",
            "#[allow(clippy::transmute_ptr_to_ptr)]",
            "unsafe {",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(has_safety_comment(&raw, 3));
        let bare: Vec<String> = ["let x = 1;", "unsafe {"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(!has_safety_comment(&bare, 2));
    }

    #[test]
    fn probe_literal_extraction_matches_whole_calls() {
        assert_eq!(
            probe_literals("crate::faults::fire(\"admission\", deadline)?;"),
            ["admission"]
        );
        assert_eq!(probe_literals("plan.at(\"estimate\")"), ["estimate"]);
        assert!(probe_literals("misfire(\"nope\")").is_empty());
        assert!(probe_literals("fire(site, deadline)").is_empty());
    }

    #[test]
    fn registry_arrays_parse_including_empty_ones() {
        let text =
            "pub const SITES: [&str; 2] = [\"a\", \"b\"];\npub const COST_SITES: [&str; 0] = [];\n";
        assert_eq!(registry_array(text, "SITES").unwrap(), ["a", "b"]);
        assert!(registry_array(text, "COST_SITES").unwrap().is_empty());
        assert!(registry_array(text, "CORRUPT_SITES").is_none());
    }
}
