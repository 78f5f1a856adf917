//! Run-wide plumbing: the operation/failure tally and the scratch
//! directory, both shared by every family.

use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Metric values in print order.
pub type Values = Vec<(String, f64)>;

/// Operations attempted and failed. An operation is one thing a user would
/// notice failing: a simulation run, a checked allocator call, a sweep
/// point, a served request, or one run-level assertion.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; a false `ok` is a failure, reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED: {failed} of {attempted} {what}");
        }
    }
}

/// Where a run may write: `<benchmark dir>/out`, with a per-process scratch
/// tree below it that is removed when the run ends.
pub struct Env {
    out: PathBuf,
    scratch: PathBuf,
    next: Cell<usize>,
}

impl Env {
    pub fn new(benchmark_dir: &Path) -> Result<Env, String> {
        let out = benchmark_dir.join("out");
        let scratch = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        Ok(Env {
            out,
            scratch,
            next: Cell::new(0),
        })
    }

    /// The directory result and trace files go to.
    pub fn out_dir(&self) -> &Path {
        &self.out
    }

    /// A path no earlier call returned; nothing is created there.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.scratch.join(format!("{tag}-{n}"))
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Removes a scratch directory; a leftover is swept when [`Env`] drops.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
