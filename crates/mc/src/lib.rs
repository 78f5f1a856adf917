#![forbid(unsafe_code)]
//! `noc-mc` — an exhaustive interleaving model checker for the parallel
//! engine's hand-rolled synchronization protocol.
//!
//! The only `unsafe` in the workspace is `Network::run_parallel` in
//! `noc-sim`: a persistent worker pool stepping disjoint `UnsafeCell`
//! router shards under an epoch/done/stop protocol whose correctness
//! rests on Acquire/Release edges. This crate machine-checks that
//! argument at the memory-model level:
//!
//! * a small virtual-thread DSL ([`program`]) with modeled atomics
//!   (Acquire/Release/Relaxed via vector clocks, [`clock`]) and tracked
//!   `UnsafeCell` accesses;
//! * a DFS scheduler ([`explore`]) that enumerates every interleaving of
//!   synchronization operations (data accesses run eagerly in between —
//!   the race verdict depends only on happens-before, so only sync-op
//!   order needs branching) and prints the exact schedule that reaches
//!   any violation;
//! * the `run_par` protocol encoded faithfully ([`protocol`]), plus a
//!   catalogue of weakened mutants (`Release`→`Relaxed` at each site,
//!   done-reset reordering, overlapping shards) that the checker must
//!   reject — proof that a pass means something.
//!
//! Like the in-repo `rand`/`proptest` shims, this crate is
//! vendored and dependency-free. Run it via `noc mc` or the tests in
//! `tests/protocol.rs`.
//!
//! ```
//! use noc_mc::{explore, Limits, RunParModel};
//! let model = RunParModel::faithful(2, 2, 1).build();
//! let outcome = explore(&model, Limits::default()).ok();
//! assert!(outcome.is_some_and(|o| o.executions > 0));
//! ```

pub mod clock;
pub mod explore;
pub mod program;
pub mod protocol;
pub mod state;

pub use clock::VectorClock;
pub use explore::{explore, Counterexample, ExploreError, Limits, Outcome};
pub use program::{AccessKind, Cond, Expr, Op, Ordering, Pred, Program};
pub use protocol::{shard_range, ProtocolOrderings, RunParModel, PHASES, SPIN_LIMIT};
pub use state::{Model, ModelState, TraceEntry, Violation};

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// Two threads writing one cell with no synchronization: the most
    /// basic race the detector must see.
    #[test]
    fn unsynchronized_writers_race() {
        let writer = |name: &str| {
            Rc::new(Program {
                name: name.to_string(),
                ops: vec![
                    // A sync op first so both threads reach the cell
                    // access via a scheduling point.
                    Op::Load {
                        var: 0,
                        ord: Ordering::Relaxed,
                        reg: 0,
                    },
                    Op::Cell {
                        cell: Expr::Const(0),
                        kind: AccessKind::Write,
                    },
                ],
                regs: 1,
            })
        };
        let model = Model {
            name: "race-smoke".into(),
            atomic_names: vec!["flag".into()],
            atomic_init: vec![0],
            cell_names: vec!["cell".into()],
            programs: vec![writer("a"), writer("b")],
        };
        let err = explore(&model, Limits::default()).err();
        match err {
            Some(ExploreError::Violation(cx)) => {
                assert!(matches!(cx.violation, Violation::DataRace { .. }));
                let rendered = cx.render(&model);
                assert!(rendered.contains("data race"), "{rendered}");
                assert!(rendered.contains("schedule"), "{rendered}");
            }
            other => panic!("expected a data race, got {other:?}"),
        }
    }

    /// Release/Acquire handoff orders the cell accesses: no race.
    #[test]
    fn release_acquire_handoff_is_clean() {
        let producer = Rc::new(Program {
            name: "producer".into(),
            ops: vec![
                Op::Cell {
                    cell: Expr::Const(0),
                    kind: AccessKind::Write,
                },
                Op::Store {
                    var: 0,
                    ord: Ordering::Release,
                    value: Expr::Const(1),
                },
            ],
            regs: 1,
        });
        let consumer = Rc::new(Program {
            name: "consumer".into(),
            ops: vec![
                Op::Await {
                    var: 0,
                    ord: Ordering::Acquire,
                    pred: Pred::GeConst(1),
                    reg: 0,
                },
                Op::Cell {
                    cell: Expr::Const(0),
                    kind: AccessKind::Write,
                },
            ],
            regs: 1,
        });
        let model = Model {
            name: "handoff".into(),
            atomic_names: vec!["flag".into()],
            atomic_init: vec![0],
            cell_names: vec!["cell".into()],
            programs: vec![producer, consumer],
        };
        let outcome = match explore(&model, Limits::default()) {
            Ok(o) => o,
            Err(e) => panic!("{}", e.render(&model)),
        };
        assert!(outcome.executions >= 1);
    }

    /// The same handoff with a relaxed publish: racy.
    #[test]
    fn relaxed_publish_races() {
        let producer = Rc::new(Program {
            name: "producer".into(),
            ops: vec![
                Op::Cell {
                    cell: Expr::Const(0),
                    kind: AccessKind::Write,
                },
                Op::Store {
                    var: 0,
                    ord: Ordering::Relaxed,
                    value: Expr::Const(1),
                },
            ],
            regs: 1,
        });
        let consumer = Rc::new(Program {
            name: "consumer".into(),
            ops: vec![
                Op::Await {
                    var: 0,
                    ord: Ordering::Acquire,
                    pred: Pred::GeConst(1),
                    reg: 0,
                },
                Op::Cell {
                    cell: Expr::Const(0),
                    kind: AccessKind::Read,
                },
            ],
            regs: 1,
        });
        let model = Model {
            name: "relaxed-publish".into(),
            atomic_names: vec!["flag".into()],
            atomic_init: vec![0],
            cell_names: vec!["cell".into()],
            programs: vec![producer, consumer],
        };
        assert!(matches!(
            explore(&model, Limits::default()),
            Err(ExploreError::Violation(_))
        ));
    }

    /// A thread awaiting a flag nobody sets: deadlock, with the blocked
    /// thread named.
    #[test]
    fn lost_signal_is_a_deadlock() {
        let waiter = Rc::new(Program {
            name: "waiter".into(),
            ops: vec![Op::Await {
                var: 0,
                ord: Ordering::Acquire,
                pred: Pred::GeConst(1),
                reg: 0,
            }],
            regs: 1,
        });
        let model = Model {
            name: "lost-signal".into(),
            atomic_names: vec!["flag".into()],
            atomic_init: vec![0],
            cell_names: vec![],
            programs: vec![waiter],
        };
        match explore(&model, Limits::default()) {
            Err(ExploreError::Violation(cx)) => {
                assert!(matches!(cx.violation, Violation::Deadlock { .. }));
                assert!(cx.render(&model).contains("waiter"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
