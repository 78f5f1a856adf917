//! Static soundness auditor for the workspace (`noc audit`).
//!
//! Four mechanical rules keep `unsafe` and unexplained weak orderings
//! out of the workspace:
//!
//! 1. **Unsafe containment** — the token `unsafe` may appear only in the
//!    allowlisted files (the counting allocator of `tests/zero_alloc.rs`).
//!    Anywhere else it is an error, so a new `unsafe` block cannot land
//!    without widening the allowlist in this file, which is exactly the
//!    review trigger we want.
//! 2. **SAFETY comments** — every `unsafe` occurrence in an allowlisted
//!    file must have a `SAFETY:` comment on the same line or within the
//!    few lines above it, stating the invariant that justifies it.
//! 3. **Relaxed audit trail** — every `Ordering::Relaxed` in real code
//!    must carry a `RELAXED:` comment nearby explaining why the weakest
//!    ordering is sound at that site.
//! 4. **Forbid-by-default** — every crate root must declare
//!    `#![forbid(unsafe_code)]`.
//!
//! Rules 1–3 scan *code*, not prose: a comment-and-string stripper runs
//! first so that doc comments discussing `unsafe` don't trip the audit.
//! Deliberately-failing inputs live in `crates/check/fixtures/audit/`
//! (excluded from the workspace walk) and are checked by
//! `noc audit --fixtures` and the crate tests.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Files allowed to contain `unsafe`, relative to the workspace root: the
/// counting `GlobalAlloc` wrapper the zero-allocation test needs (the
/// trait's methods are inherently unsafe to implement).
pub const UNSAFE_ALLOWLIST: [&str; 1] = ["tests/zero_alloc.rs"];

/// How many lines above an `unsafe` / `Relaxed` site an audit comment
/// may sit (same line always counts).
pub const COMMENT_WINDOW: usize = 6;

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    /// Path relative to the audited root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Short rule identifier (`unsafe-outside-allowlist`, …).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Outcome of an audit run.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations found, in walk order.
    pub findings: Vec<AuditFinding>,
    /// Per-rule counts of *clean* sites (audited unsafe blocks, annotated
    /// Relaxed sites, forbidding crate roots) for the summary line.
    pub audited_unsafe: usize,
    /// Annotated `Ordering::Relaxed` sites.
    pub audited_relaxed: usize,
    /// Crate roots declaring `#![forbid(unsafe_code)]`.
    pub guarded_roots: usize,
}

impl AuditReport {
    /// True when no rule fired.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("error: {f}\n"));
        }
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        out.push_str(&format!(
            "[{verdict}] audit: {} files scanned, {} audited unsafe sites, \
             {} annotated Relaxed sites, {} guarded crate roots, {} violations\n",
            self.files_scanned,
            self.audited_unsafe,
            self.audited_relaxed,
            self.guarded_roots,
            self.findings.len()
        ));
        out
    }
}

/// Strips comments and string/char literals from Rust source, preserving
/// line structure (every removed character becomes a space, newlines
/// survive), so token scans see only code and line numbers still match.
///
/// Handles line comments, nested block comments, string literals with
/// escapes, raw strings with up to arbitrary `#` depth, and char
/// literals — precisely enough for token-presence auditing, with no
/// claim of being a full lexer (lifetimes like `'a` are treated as
/// degenerate char literals, which is harmless here).
pub fn strip_comments_and_strings(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let n = b.len();
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"..." / r#"..."# (with optional b prefix).
        let raw_start = if c == 'r' {
            Some(i + 1)
        } else if c == 'b' && i + 1 < n && b[i + 1] == 'r' {
            Some(i + 2)
        } else {
            None
        };
        if let Some(mut j) = raw_start {
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                // Emit the prefix as-is (it contains no audit tokens).
                for k in i..=j {
                    out.push(b[k]);
                }
                i = j + 1;
                'raw: while i < n {
                    if b[i] == '"' {
                        let mut m = 0usize;
                        while m < hashes && i + 1 + m < n && b[i + 1 + m] == '#' {
                            m += 1;
                        }
                        if m == hashes {
                            out.push('"');
                            for _ in 0..hashes {
                                out.push('#');
                            }
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // String literal.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    // Keep an escaped newline (string line-continuation)
                    // as a newline or every later line number shifts.
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Char literal `'x'` / `'\n'` — but not lifetimes (`'a`, `'_`).
        if c == '\'' && i + 2 < n {
            let esc = b[i + 1] == '\\';
            let close = if esc { i + 3 } else { i + 2 };
            if close < n && b[close] == '\'' && (esc || b[i + 1] != '\'') {
                for _ in i..=close {
                    out.push(' ');
                }
                i = close + 1;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

/// True if `code` (already stripped) contains `unsafe` as a standalone
/// token on this line — `unsafe_code` and `forbid(unsafe_code)` don't
/// count.
fn has_unsafe_token(line: &str) -> bool {
    let mut rest = line;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = rest[pos + "unsafe".len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

/// True if any of the `COMMENT_WINDOW` raw lines ending at `line_idx`
/// (0-based, inclusive) contains the given audit tag.
fn has_nearby_tag(raw_lines: &[&str], line_idx: usize, tag: &str) -> bool {
    let lo = line_idx.saturating_sub(COMMENT_WINDOW);
    raw_lines[lo..=line_idx].iter().any(|l| l.contains(tag))
}

/// Audits one file's source text. `rel` is the path reported in
/// findings; whether it is allowlisted selects the `unsafe` rule.
pub fn audit_source(rel: &Path, src: &str, report: &mut AuditReport) {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let allowlisted = UNSAFE_ALLOWLIST.iter().any(|a| rel_str == *a);
    let stripped = strip_comments_and_strings(src);
    let raw_lines: Vec<&str> = src.lines().collect();

    report.files_scanned += 1;
    for (idx, line) in stripped.lines().enumerate() {
        if idx >= raw_lines.len() {
            break;
        }
        if has_unsafe_token(line) {
            if !allowlisted {
                report.findings.push(AuditFinding {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: "unsafe-outside-allowlist",
                    message: format!(
                        "`unsafe` outside the audited allowlist ({}); if this \
                         is intentional, extend UNSAFE_ALLOWLIST in \
                         crates/check/src/audit.rs and add a SAFETY comment",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                });
            } else if !has_nearby_tag(&raw_lines, idx, "SAFETY:") {
                report.findings.push(AuditFinding {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: "unsafe-without-safety-comment",
                    message: format!(
                        "`unsafe` without a `// SAFETY:` comment within {COMMENT_WINDOW} \
                         lines stating the invariant that makes it sound"
                    ),
                });
            } else {
                report.audited_unsafe += 1;
            }
        }
        if line.contains("Ordering::Relaxed") {
            if has_nearby_tag(&raw_lines, idx, "RELAXED:") {
                report.audited_relaxed += 1;
            } else {
                report.findings.push(AuditFinding {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: "relaxed-without-audit-comment",
                    message: format!(
                        "`Ordering::Relaxed` without a `// RELAXED:` comment within \
                         {COMMENT_WINDOW} lines justifying the weakest ordering"
                    ),
                });
            }
        }
    }
}

/// Audits a crate root (`lib.rs` / the `noc` binary root) for the
/// blanket `#![forbid(unsafe_code)]`.
fn audit_crate_root(root: &Path, rel: &Path, report: &mut AuditReport) {
    let Ok(src) = fs::read_to_string(root.join(rel)) else {
        return;
    };
    if src.contains("#![forbid(unsafe_code)]") {
        report.guarded_roots += 1;
    } else {
        report.findings.push(AuditFinding {
            file: rel.to_path_buf(),
            line: 1,
            rule: "crate-missing-forbid",
            message: "crate root must declare `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

/// Recursively collects `.rs` files under `dir`, skipping build output,
/// VCS metadata and the deliberately-failing audit fixtures.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full audit over a workspace root: every `.rs` file under
/// `crates/`, `src/`, `tests/` and `examples/`, plus the crate-root lint
/// rule for each `crates/*/src/lib.rs` and the `noc` binary.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let mut report = AuditReport::default();
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        let src = fs::read_to_string(path)?;
        audit_source(&rel, &src, &mut report);
    }

    // Crate-root lint attributes.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut roots: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.join("src/lib.rs").is_file())
            .collect();
        roots.sort();
        for krate in roots {
            let rel = krate
                .strip_prefix(root)
                .unwrap_or(&krate)
                .join("src/lib.rs");
            audit_crate_root(root, &rel, &mut report);
        }
    }
    if root.join("src/bin/noc.rs").is_file() {
        audit_crate_root(root, Path::new("src/bin/noc.rs"), &mut report);
    }
    Ok(report)
}

/// Audits the negative fixtures under `crates/check/fixtures/audit/`:
/// returns one report per fixture file. Each is expected to FAIL — the
/// caller (CLI `--fixtures`, CI) treats a passing fixture as the error.
pub fn audit_fixtures(root: &Path) -> io::Result<Vec<(PathBuf, AuditReport)>> {
    let dir = root.join("crates/check/fixtures/audit");
    let mut out = Vec::new();
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    for path in files {
        let src = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        // A fixture may open with `//@ as: <path>` to be audited as if it
        // sat at that path — how the SAFETY-comment rule (which only
        // applies inside the allowlist) gets negative coverage.
        let persona = src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@ as:"))
            .map(|p| PathBuf::from(p.trim()));
        let mut report = AuditReport::default();
        audit_source(persona.as_deref().unwrap_or(&rel), &src, &mut report);
        out.push((rel, report));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_comments_and_strings_but_keeps_lines() {
        let src = "let a = \"unsafe\"; // unsafe in comment\n/* unsafe\n block */ let b = 1;\n";
        let s = strip_comments_and_strings(src);
        assert_eq!(s.lines().count(), src.lines().count());
        assert!(!s.contains("unsafe"));
        assert!(s.contains("let a"));
        assert!(s.contains("let b = 1;"));
    }

    #[test]
    fn stripper_keeps_escaped_newlines_in_strings() {
        let src = "let s = \"two \\\n     lines\";\nOrdering::Relaxed\n";
        let stripped = strip_comments_and_strings(src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        let hit = stripped
            .lines()
            .position(|l| l.contains("Ordering::Relaxed"));
        assert_eq!(hit, Some(2), "line numbers shifted: {stripped:?}");
    }

    #[test]
    fn stripper_handles_raw_strings() {
        let src = "let re = r#\"unsafe { }\"#;\nlet x = 2;";
        let s = strip_comments_and_strings(src);
        assert!(!s.contains("unsafe"));
        assert!(s.contains("let x = 2;"));
    }

    #[test]
    fn unsafe_token_detection_ignores_identifiers() {
        assert!(has_unsafe_token("unsafe { foo() }"));
        assert!(has_unsafe_token("unsafe impl Sync for T {}"));
        assert!(!has_unsafe_token("#![forbid(unsafe_code)]"));
        assert!(!has_unsafe_token("deny(unsafe_op_in_unsafe_fn)"));
        assert!(!has_unsafe_token("let not_unsafe_here = 1;"));
    }

    #[test]
    fn unallowlisted_unsafe_is_flagged() {
        let mut r = AuditReport::default();
        audit_source(
            Path::new("crates/core/src/lib.rs"),
            "fn f() { unsafe { g() } }\n",
            &mut r,
        );
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "unsafe-outside-allowlist");
    }

    #[test]
    fn allowlisted_unsafe_needs_safety_comment() {
        let rel = Path::new("tests/zero_alloc.rs");
        let mut bad = AuditReport::default();
        audit_source(rel, "fn f() { unsafe { g() } }\n", &mut bad);
        assert_eq!(bad.findings.len(), 1);
        assert_eq!(bad.findings[0].rule, "unsafe-without-safety-comment");

        let mut good = AuditReport::default();
        audit_source(
            rel,
            "// SAFETY: g is sound here.\nunsafe { g() }\n",
            &mut good,
        );
        assert!(good.passed(), "{:?}", good.findings);
        assert_eq!(good.audited_unsafe, 1);
    }

    #[test]
    fn relaxed_needs_annotation() {
        let rel = Path::new("crates/obs/src/progress.rs");
        let mut bad = AuditReport::default();
        audit_source(rel, "x.load(Ordering::Relaxed);\n", &mut bad);
        assert_eq!(bad.findings.len(), 1);
        assert_eq!(bad.findings[0].rule, "relaxed-without-audit-comment");

        let mut good = AuditReport::default();
        audit_source(
            rel,
            "// RELAXED: monotonic counter, no ordering needed.\nx.load(Ordering::Relaxed);\n",
            &mut good,
        );
        assert!(good.passed());
    }
}
