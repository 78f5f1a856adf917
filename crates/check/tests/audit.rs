//! End-to-end audit runs: the real workspace must pass, and every
//! negative fixture must fail with the rule it was written to violate.

use noc_check::audit::{audit_fixtures, audit_workspace};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/check -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[test]
fn workspace_audit_is_clean() {
    let report = audit_workspace(&workspace_root()).unwrap_or_else(|e| {
        panic!("audit walk failed: {e}");
    });
    assert!(report.passed(), "\n{}", report.render());
    // The audit only proves something if it actually saw the tree: the
    // counting allocator's unsafe sites, the annotated Relaxed sites and
    // one forbidding root per crate must all be present.
    assert!(report.files_scanned > 40, "{} files", report.files_scanned);
    assert!(
        report.audited_unsafe >= 5,
        "expected the counting allocator's SAFETY-commented sites, saw {}",
        report.audited_unsafe
    );
    assert!(
        report.audited_relaxed >= 5,
        "expected the annotated Relaxed sites, saw {}",
        report.audited_relaxed
    );
    assert!(
        report.guarded_roots >= 11,
        "expected every crate root and the noc binary to forbid unsafe, saw {}",
        report.guarded_roots
    );
}

#[test]
fn every_negative_fixture_fails_its_rule() {
    let fixtures = audit_fixtures(&workspace_root()).unwrap_or_else(|e| {
        panic!("fixture walk failed: {e}");
    });
    assert!(
        fixtures.len() >= 3,
        "only {} fixtures found",
        fixtures.len()
    );
    let expected = [
        ("relaxed_unannotated", "relaxed-without-audit-comment"),
        ("unsafe_missing_safety", "unsafe-without-safety-comment"),
        ("unsafe_outside_allowlist", "unsafe-outside-allowlist"),
    ];
    for (stem, rule) in expected {
        let (_, report) = fixtures
            .iter()
            .find(|(p, _)| p.file_stem().is_some_and(|s| s == stem))
            .unwrap_or_else(|| panic!("fixture `{stem}` missing"));
        assert!(!report.passed(), "fixture `{stem}` passed the audit");
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "fixture `{stem}` did not trip `{rule}`: {:?}",
            report.findings
        );
    }
}
