//! Custom source lints for contracts `rustc`/`clippy` cannot express,
//! run as a CI gate (`cargo run -p explainit-lint`):
//!
//! 1. **No `as f64` in the exactness-critical kernels and operators** —
//!    the typed kernel and vectorized-evaluator paths compare `i64` values
//!    exactly; casting through `f64` silently rounds values above 2^53.
//!    Flagged in `crates/query/src/kernel.rs` and `crates/query/src/veval.rs`
//!    (the typed loops, and the one copy of the Int/Float/big-Int comparison
//!    ladder that feeds them) and in the operators — `crates/query/src/exec.rs`
//!    and every file under `crates/query/src/exec/`, where the scan
//!    operators hold raw `i64` timestamps next to `f64` values and a typed
//!    output builder taking the shortcut would round `SUM(timestamp)` —
//!    unless the line carries a `lint: allow as f64` marker explaining why
//!    the cast is exact (or deliberately widening).
//! 2. **No `unwrap()`/`expect()` in query, engine, model or numerical
//!    library code, anywhere in the store, or on the statement surface** —
//!    outside `#[cfg(test)]` modules, every potential panic site in
//!    `crates/query/src`, `crates/tsdb/src` (all of it, the WAL/segment
//!    I/O paths included), `crates/core/src`, `crates/mlkit/src`,
//!    `crates/linalg/src` and `crates/stats/src` (where the factorizations
//!    and the p-values live), and — since PR 23 — in `src/` (`session.rs`
//!    and `bin/explainit.rs`, where a statement arrives),
//!    `crates/workloads/src` and `crates/sync/src` must either be
//!    converted to an error (`QueryError` / `StorageError` / `CoreError` /
//!    `MlError` / `LinalgError` / `SessionError`; `explainit-stats` has no
//!    error type, so there it is an `Option` or a total function) or
//!    justified with an `// invariant:` comment on the same or a nearby
//!    preceding line. A panic in the storage layer is worse than an
//!    error: it can tear a WAL append or leave a half-written segment
//!    behind; one in a scoring worker is re-raised out of
//!    `Engine::rank` and takes the whole ranking with it; one in the
//!    session ends the CLI mid-script.
//! 3. **`#![forbid(unsafe_code)]` everywhere** — every crate root
//!    (`src/lib.rs`) in the workspace must carry the attribute.
//! 4. **No raw `std::sync::{Mutex, RwLock}` outside `crates/sync`** —
//!    every lock goes through the `explainit-sync` wrappers so it gets a
//!    `LockClass` rank and lockdep order checking; naming the std types
//!    anywhere else needs a `lint: allow raw lock` marker explaining why
//!    the lock must stay untracked.
//! 5. **No row shim under the executor** — in `crates/query/src`, outside
//!    `eval.rs` (the row walker), `reference.rs` (the oracle built on it)
//!    and `#[cfg(test)]` modules, nothing calls `eval_row`,
//!    `eval_with_rows`, `eval_group` or `Table::rows`: every
//!    operator evaluates expressions through the column evaluator
//!    (`veval.rs`) — a grouped output too, over its operator's finished
//!    columns — so neither the row-at-a-time fallback nor group context can
//!    creep back. A `lint: allow row shim` marker on the line is the escape
//!    hatch.
//! 6. **One worker count** — `available_parallelism` is named only in
//!    `crates/sync/src/pool.rs`, whose `pool::workers()` asks once and
//!    falls back to 1; every other default worker count comes from there,
//!    so no two layers can disagree on what "all cores" means.
//!
//! The binary prints one `file:line: message` per finding and exits
//! non-zero when any rule fires. It also prints, gating nothing, the two
//! line counts the ROADMAP tracks: every line of Rust under `crates/`,
//! `src/` and `tests/`, and the non-test lines of `crates/query/src` (each
//! file up to its first `#[cfg(test)]`). It reads sources directly and uses only
//! the standard library, so it builds offline and never depends on
//! nightly lint plumbing.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = repo_root();
    let mut findings = Vec::new();

    lint_as_f64(&root, &mut findings);
    lint_panics(&root, &mut findings);
    lint_forbid_unsafe(&root, &mut findings);
    lint_raw_locks(&root, &mut findings);
    lint_row_shim(&root, &mut findings);
    lint_worker_count(&root, &mut findings);

    let (total, query) = line_counts(&root);
    println!(
        "lint: {total} lines of Rust in crates/ src/ tests/; {query} non-test in crates/query/src"
    );
    if findings.is_empty() {
        println!("lint: all checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/lint")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => panic!("lint: cannot read {}: {e}", path.display()),
    }
}

/// Rule 1: `as f64` in the exactness-critical files — the kernels, the
/// column evaluator and the operators.
fn lint_as_f64(root: &Path, findings: &mut Vec<String>) {
    let query = root.join("crates/query/src");
    let mut files: Vec<PathBuf> =
        ["kernel.rs", "veval.rs", "exec.rs"].iter().map(|f| query.join(f)).collect();
    files.extend(rust_files_under(&query.join("exec")));
    for path in files {
        let source = read(&path);
        let file = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        for (lineno, raw, code) in library_code_lines(&source) {
            if code.contains(" as f64") && !raw.contains("lint: allow as f64") {
                findings.push(format!(
                    "{file}:{lineno}: `as f64` in an exactness-critical kernel or operator \
                     (values above 2^53 round; stay in the value's own type, compare exactly, \
                     or mark `lint: allow as f64`)"
                ));
            }
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The library trees rule 2 covers, each with what a panic site should
/// become instead.
const PANIC_FREE_DIRS: [(&str, &str); 9] = [
    ("src", "a SessionError"),
    ("crates/workloads/src", "an error"),
    ("crates/sync/src", "an error"),
    ("crates/query/src", "a QueryError"),
    ("crates/tsdb/src", "a StorageError"),
    ("crates/core/src", "a CoreError"),
    ("crates/mlkit/src", "an MlError"),
    ("crates/linalg/src", "a LinalgError"),
    ("crates/stats/src", "an Option"),
];

/// Rule 2: unjustified `unwrap()`/`expect()` in query, engine, model and
/// numerical library code, anywhere in the store (the WAL/segment/pager
/// I/O paths included) and on the statement surface.
fn lint_panics(root: &Path, findings: &mut Vec<String>) {
    for (dir, instead) in PANIC_FREE_DIRS {
        for path in rust_files_under(&root.join(dir)) {
            let source = read(&path);
            let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            let lines: Vec<(usize, String, String)> = library_code_lines(&source).collect();
            for (i, (lineno, _, code)) in lines.iter().enumerate() {
                if !code.contains(".unwrap()") && !code.contains(".expect(") {
                    continue;
                }
                // Escape hatch: an `// invariant:` justification on the
                // same line or within the two preceding source lines.
                let justified = lines[i.saturating_sub(2)..=i]
                    .iter()
                    .any(|(_, raw, _)| raw.contains("invariant:"));
                if !justified {
                    findings.push(format!(
                        "{rel}:{lineno}: unwrap/expect in library code \
                         (return {instead} or justify with an `// invariant:` comment)"
                    ));
                }
            }
        }
    }
}

/// Rule 3: every crate root forbids `unsafe`.
fn lint_forbid_unsafe(root: &Path, findings: &mut Vec<String>) {
    let mut roots = vec![root.join("src/lib.rs")];
    for crates_dir in [root.join("crates"), root.join("crates/devstubs")] {
        let Ok(entries) = std::fs::read_dir(&crates_dir) else { continue };
        for entry in entries.filter_map(|e| e.ok()) {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    roots.sort();
    for lib in roots {
        let source = read(&lib);
        if !source.contains("#![forbid(unsafe_code)]") {
            let rel = lib.strip_prefix(root).unwrap_or(&lib).display();
            findings.push(format!("{rel}:1: crate root is missing `#![forbid(unsafe_code)]`"));
        }
    }
}

/// True when `word` occurs in `code` as a whole identifier (not as a
/// prefix of a longer one, so `Mutex` does not match `MutexGuard`).
fn has_word(code: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !ident(code[..start].chars().next_back().unwrap());
        let after_ok = !code[end..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Rule 4: raw `std::sync::{Mutex, RwLock}` outside `crates/sync`. Both
/// fully-qualified uses and `use std::sync::…` imports of the types are
/// flagged, whole-file (test modules included — tests run under lockdep
/// too, and a raw lock there escapes the analysis just the same).
fn lint_raw_locks(root: &Path, findings: &mut Vec<String>) {
    let mut dirs = vec![root.join("src"), root.join("tests")];
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else { return };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() && path.file_name().is_some_and(|n| n != "sync") {
            dirs.push(path);
        }
    }
    for dir in dirs {
        for path in rust_files_under(&dir) {
            let source = read(&path);
            let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            let stripped = strip_comments_and_strings(&source);
            for ((i, code), raw) in stripped.iter().enumerate().zip(source.lines()) {
                if raw.contains("lint: allow raw lock") {
                    continue;
                }
                let qualified = (code.contains("std::sync::Mutex")
                    && !code.contains("std::sync::MutexGuard"))
                    || (code.contains("std::sync::RwLock")
                        && !code.contains("std::sync::RwLockReadGuard")
                        && !code.contains("std::sync::RwLockWriteGuard"));
                let imported = code.contains("use std::sync::")
                    && (has_word(code, "Mutex") || has_word(code, "RwLock"));
                if qualified || imported {
                    findings.push(format!(
                        "{rel}:{}: raw std::sync lock outside crates/sync \
                         (use the explainit-sync wrappers with a LockClass, \
                         or mark `lint: allow raw lock`)",
                        i + 1
                    ));
                }
            }
        }
    }
}

/// The row-walker entry point a stripped code line calls, if any
/// (definitions of the `Table` methods themselves are not calls).
fn row_shim_call(code: &str) -> Option<&'static str> {
    if code.contains("fn rows(") {
        return None;
    }
    ["eval_row", "eval_with_rows", "eval_group"]
        .into_iter()
        .find(|name| has_word(code, name))
        .or_else(|| code.contains(".rows()").then_some("Table::rows"))
}

/// Rule 5: the executor layers never reach the row walker.
fn lint_row_shim(root: &Path, findings: &mut Vec<String>) {
    for path in rust_files_under(&root.join("crates/query/src")) {
        if path.file_name().is_some_and(|n| n == "eval.rs" || n == "reference.rs") {
            continue;
        }
        let source = read(&path);
        let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        for (lineno, raw, code) in library_code_lines(&source) {
            if raw.contains("lint: allow row shim") {
                continue;
            }
            if let Some(name) = row_shim_call(&code) {
                findings.push(format!(
                    "{rel}:{lineno}: `{name}` outside the row walker and its oracle \
                     (evaluate through veval — grouped outputs over the operator's \
                     finished columns — or mark `lint: allow row shim`)"
                ));
            }
        }
    }
}

/// Rule 6: the machine's parallelism is read in the pool alone. Whole
/// files under `crates/`, `src/`, `tests/` and `examples/` (test modules
/// included), comments and strings aside.
fn lint_worker_count(root: &Path, findings: &mut Vec<String>) {
    let pool = root.join("crates/sync/src/pool.rs");
    let trees = ["crates", "src", "tests", "examples"].map(|d| root.join(d));
    for path in trees.iter().flat_map(|d| rust_files_under(d)) {
        if path == pool {
            continue;
        }
        let source = read(&path);
        let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        for (i, code) in strip_comments_and_strings(&source).iter().enumerate() {
            if has_word(code, "available_parallelism") {
                findings.push(format!(
                    "{rel}:{}: `available_parallelism` outside the pool \
                     (use `explainit_sync::pool::workers()`)",
                    i + 1
                ));
            }
        }
    }
}

/// The line counts the ROADMAP tracks: every line of Rust under `crates/`,
/// `src/` and `tests/`, and the library region of every file under
/// `crates/query/src`.
fn line_counts(root: &Path) -> (usize, usize) {
    let trees = ["crates", "src", "tests"].iter().flat_map(|d| rust_files_under(&root.join(d)));
    let total = trees.map(|path| read(&path).lines().count()).sum();
    let query = rust_files_under(&root.join("crates/query/src"));
    let query = query.iter().map(|path| library_code_lines(&read(path)).count()).sum();
    (total, query)
}

/// Yields `(line number, raw line, comment-and-string-stripped line)` for
/// the library region of a source file — everything before the first
/// `#[cfg(test)]` line (test modules sit at the end of every file in this
/// workspace, which the assertion below keeps honest).
fn library_code_lines(source: &str) -> impl Iterator<Item = (usize, String, String)> + '_ {
    let test_start = source
        .lines()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(usize::MAX);
    strip_comments_and_strings(source)
        .into_iter()
        .enumerate()
        .zip(source.lines())
        .take_while(move |((i, _), _)| *i < test_start)
        .map(|((i, code), raw)| (i + 1, raw.to_string(), code))
}

/// Replaces comments and string-literal contents with spaces, line by
/// line, so lints match only real code. Handles `//` line comments,
/// `/* */` block comments (nesting ignored — unused in this workspace)
/// and double-quoted strings with backslash escapes.
fn strip_comments_and_strings(source: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment,
        Str,
    }
    let mut state = State::Code;
    let mut out = Vec::new();
    let mut line = String::new();
    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            out.push(std::mem::take(&mut line));
            continue;
        }
        match state {
            State::Code => match c {
                '/' if chars.peek() == Some(&'/') => {
                    state = State::LineComment;
                    line.push(' ');
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    state = State::BlockComment;
                    line.push_str("  ");
                }
                '"' => {
                    state = State::Str;
                    line.push('"');
                }
                other => line.push(other),
            },
            State::LineComment => line.push(' '),
            State::BlockComment => {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    state = State::Code;
                    line.push_str("  ");
                } else {
                    line.push(' ');
                }
            }
            State::Str => match c {
                // An escaped newline continues the string on the next line.
                '\\' if chars.peek() == Some(&'\n') => line.push(' '),
                '\\' => {
                    chars.next();
                    line.push_str("  ");
                }
                '"' => {
                    state = State::Code;
                    line.push('"');
                }
                _ => line.push(' '),
            },
        }
    }
    if !line.is_empty() {
        out.push(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_blanks_comments_and_strings() {
        let src = "let x = \"a // not a comment\"; // real comment\nas f64\n";
        let stripped = strip_comments_and_strings(src);
        assert!(!stripped[0].contains("not a comment"));
        assert!(!stripped[0].contains("real comment"));
        assert!(stripped[0].contains("let x = "));
        assert_eq!(stripped[1], "as f64");
        // A string continued over a line break keeps later lines aligned.
        let stripped = strip_comments_and_strings("f(\"a \\\n   b\");\nx.unwrap();\n");
        assert_eq!(stripped.len(), 3);
        assert_eq!(stripped[2], "x.unwrap();");
    }

    #[test]
    fn library_region_stops_at_test_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn b() { x.unwrap(); } }\n";
        let lines: Vec<_> = library_code_lines(src).collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].0, 1);
    }

    #[test]
    fn row_shim_calls_are_recognised() {
        assert_eq!(row_shim_call("let v = eval_row(e, schema, row)?;"), Some("eval_row"));
        assert_eq!(row_shim_call("use crate::eval::{eval_with_rows};"), Some("eval_with_rows"));
        assert_eq!(row_shim_call("for row in t.rows() {"), Some("Table::rows"));
        assert_eq!(row_shim_call("let rows = part.rows();"), Some("Table::rows"));
        assert_eq!(row_shim_call("out.push(eval_group(e, schema, &g)?);"), Some("eval_group"));
        assert_eq!(row_shim_call("let e = map_grouped(e, &mut sub)?;"), None);
        assert_eq!(row_shim_call("pub fn rows(&self) -> Vec<Vec<Value>> {"), None);
        assert_eq!(row_shim_call("let narrows = eval_rows(x);"), None);
    }

    #[test]
    fn line_counts_cover_the_workspace() {
        let root = repo_root();
        let (total, query) = line_counts(&root);
        assert!(0 < query && query < total, "{query} non-test query lines of {total}");
        // The query count stops at each file's test module.
        let exec = read(&root.join("crates/query/src/exec.rs"));
        assert!(library_code_lines(&exec).count() < exec.lines().count());
    }

    #[test]
    fn whole_tree_is_clean() {
        let root = repo_root();
        let mut findings = Vec::new();
        lint_as_f64(&root, &mut findings);
        lint_panics(&root, &mut findings);
        lint_forbid_unsafe(&root, &mut findings);
        lint_raw_locks(&root, &mut findings);
        lint_row_shim(&root, &mut findings);
        lint_worker_count(&root, &mut findings);
        assert!(findings.is_empty(), "lint findings:\n{}", findings.join("\n"));
        // Clean because it was looked at: every tree rule 2 names — the
        // numerical crates since PR 21; `src/`, workloads and sync since
        // PR 23 — is there to be read.
        for (dir, _) in PANIC_FREE_DIRS {
            assert!(!rust_files_under(&root.join(dir)).is_empty(), "{dir} holds no sources");
        }
    }
}
