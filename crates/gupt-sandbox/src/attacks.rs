//! Adversarial analyst programs — the §6.2 side-channel attack gallery.
//!
//! Haeberlen, Pierce and Narayan ("Differential privacy under fire",
//! USENIX Security 2011) describe three channels through which a
//! malicious query can leak the presence of a target record despite the
//! noisy output:
//!
//! 1. **Timing attack** — run long iff the record is present.
//! 2. **State attack** — flip externally visible state iff present.
//! 3. **Privacy budget attack** — issue extra queries iff present, so the
//!    attacker observes the depleted budget.
//!
//! This module implements the attacking programs; the security test-suite
//! and the Table 1 bench run them against GUPT chambers (which defeat
//! them) and against the PINQ/Airavat baselines (which do not, matching
//! the paper's comparison).
//!
//! The budget attack has no program here because the GUPT defense is
//! *structural*: [`crate::program::BlockProgram`] receives no ledger
//! handle, so there is no code an attacker could even write. The
//! equivalent attack against the PINQ baseline lives in
//! `gupt-baselines::pinq`.

use crate::program::BlockProgram;
use crate::scratch::Scratch;
use crate::view::BlockView;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Whether any row of `block` contains `target` (exact match on any
/// coordinate) — the trigger predicate shared by the attacks.
pub fn block_contains(block: &BlockView, target: f64) -> bool {
    block.iter().any(|row| row.contains(&target))
}

/// Timing attack: stalls for `slow` iff the target record is in the
/// block; otherwise returns immediately. Without the §6.2 defense an
/// observer distinguishes the two cases by latency.
pub struct TimingAttackProgram {
    /// Record value that triggers the stall.
    pub target: f64,
    /// Stall duration on trigger.
    pub slow: Duration,
}

impl BlockProgram for TimingAttackProgram {
    fn run(&self, block: &BlockView, _scratch: &mut Scratch) -> Vec<f64> {
        if block_contains(block, self.target) {
            std::thread::sleep(self.slow);
        }
        vec![block.len() as f64]
    }

    fn output_dimension(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "timing-attack"
    }
}

/// State attack: increments a shared counter iff the target record is in
/// the block. In PINQ the analyst's closure runs in the analyst's own
/// process, so this channel is wide open; GUPT's chamber architecture
/// (MAC-confined process in the paper, capability-free trait here plus
/// the runtime returning only the DP aggregate) never surfaces the
/// counter to the analyst.
pub struct StateAttackProgram {
    /// Record value that triggers the state flip.
    pub target: f64,
    /// The externally visible state the attacker will inspect.
    pub leaked_state: Arc<AtomicU64>,
}

impl BlockProgram for StateAttackProgram {
    fn run(&self, block: &BlockView, _scratch: &mut Scratch) -> Vec<f64> {
        if block_contains(block, self.target) {
            self.leaked_state.fetch_add(1, Ordering::SeqCst);
        }
        vec![block.len() as f64]
    }

    fn output_dimension(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "state-attack"
    }
}

/// Cross-invocation state attack via the scratch space: each invocation
/// tries to read a marker left by a previous one and, if found, leaks
/// through its *output*. Defeated by the chamber wiping scratch between
/// invocations — the testable analogue of AppArmor's emptied scratch
/// directory.
pub struct ScratchPersistenceProgram {
    /// Record value that plants the marker.
    pub target: f64,
}

/// Output emitted when the scratch marker from a previous invocation is
/// visible (i.e. isolation failed).
pub const LEAK_SENTINEL: f64 = 1_000_000.0;

impl BlockProgram for ScratchPersistenceProgram {
    fn run(&self, block: &BlockView, scratch: &mut Scratch) -> Vec<f64> {
        let leaked = scratch.get("marker").is_some();
        if block_contains(block, self.target) {
            scratch.put("marker", vec![1.0]);
        }
        if leaked {
            vec![LEAK_SENTINEL]
        } else {
            vec![block.len() as f64]
        }
    }

    fn output_dimension(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "scratch-persistence-attack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chamber::{Chamber, ChamberOutcome};
    use crate::policy::ChamberPolicy;
    use crate::program::ClosureProgram;
    use crate::route::KeyPartition;

    fn block_with(values: &[f64]) -> BlockView {
        let rows: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        BlockView::from_rows(&rows)
    }

    #[test]
    fn block_contains_matches_any_coordinate() {
        assert!(block_contains(
            &BlockView::from_rows(&[vec![1.0, 5.0]]),
            5.0
        ));
        assert!(!block_contains(
            &BlockView::from_rows(&[vec![1.0, 5.0]]),
            2.0
        ));
        assert!(!block_contains(&BlockView::from_rows(&[]), 1.0));
    }

    #[test]
    fn timing_attack_defeated_by_padding() {
        let budget = Duration::from_millis(80);
        let program = |_unused| -> Arc<dyn BlockProgram> {
            Arc::new(TimingAttackProgram {
                target: 13.0,
                slow: Duration::from_millis(40),
            })
        };
        let chamber = Chamber::new(ChamberPolicy::bounded(budget, 0.0));
        // Victim present vs absent: elapsed must be indistinguishable.
        let with_target = chamber.execute(program(()), block_with(&[1.0, 13.0, 2.0]));
        let without_target = chamber.execute(program(()), block_with(&[1.0, 3.0, 2.0]));
        assert_eq!(with_target.outcome, ChamberOutcome::Completed);
        assert_eq!(without_target.outcome, ChamberOutcome::Completed);
        let diff = with_target.elapsed.abs_diff(without_target.elapsed);
        assert!(
            diff < Duration::from_millis(25),
            "timing channel visible: {diff:?}"
        );
    }

    #[test]
    fn partitioned_blocks_pad_to_one_budget_whatever_their_key_count() {
        // Two blocks of four rows: one holds a single key, the other
        // four, so the second makes five program calls to the first's
        // two. Padded, both occupy the block's one budget.
        let budget = Duration::from_millis(100);
        let program: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            std::thread::sleep(Duration::from_millis(10));
            vec![b.len() as f64]
        }));
        let partition = KeyPartition::new(vec![0], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let chamber = Chamber::new(ChamberPolicy::bounded(budget, 0.0));
        let one_key = chamber.execute_partitioned(
            Arc::clone(&program),
            &partition,
            block_with(&[1.0; 4]),
            None,
        );
        let four_keys = chamber.execute_partitioned(
            program,
            &partition,
            block_with(&[1.0, 2.0, 3.0, 4.0]),
            None,
        );
        assert_eq!(one_key.keys, vec![0]);
        assert_eq!(four_keys.keys, vec![0, 1, 2, 3]);
        assert_eq!(one_key.outcome, ChamberOutcome::Completed);
        assert_eq!(four_keys.outcome, ChamberOutcome::Completed);
        assert!(one_key.elapsed >= budget && four_keys.elapsed >= budget);
        let diff = one_key.elapsed.abs_diff(four_keys.elapsed);
        assert!(
            diff < Duration::from_millis(25),
            "key count visible: {diff:?}"
        );
    }

    #[test]
    fn timing_attack_overrun_killed_with_constant() {
        // If the stall exceeds the budget the program is killed and the
        // constant fallback emitted — output also carries no signal.
        let program: Arc<dyn BlockProgram> = Arc::new(TimingAttackProgram {
            target: 13.0,
            slow: Duration::from_secs(10),
        });
        let chamber =
            Chamber::new(ChamberPolicy::bounded(Duration::from_millis(30), 0.25).without_padding());
        let report = chamber.execute(program, block_with(&[13.0]));
        assert_eq!(report.outcome, ChamberOutcome::TimedOut);
        assert_eq!(report.output, vec![0.25]);
    }

    #[test]
    fn scratch_never_persists_across_invocations() {
        let program: Arc<dyn BlockProgram> = Arc::new(ScratchPersistenceProgram { target: 13.0 });
        let chamber = Chamber::new(ChamberPolicy::unbounded());
        // First invocation plants the marker; second must not see it.
        let first = chamber.execute(Arc::clone(&program), block_with(&[13.0, 1.0]));
        let second = chamber.execute(Arc::clone(&program), block_with(&[2.0, 3.0]));
        assert_ne!(first.output, vec![LEAK_SENTINEL]);
        assert_ne!(
            second.output,
            vec![LEAK_SENTINEL],
            "scratch leaked across invocations"
        );
        assert_eq!(second.output, vec![2.0]);
    }

    #[test]
    fn state_attack_program_flips_state() {
        // The program *does* flip shared state — the attack is real; the
        // defense (exercised in the integration suite) is that GUPT's
        // analyst-facing API never surfaces it and the deployment confines
        // the process. This test documents the attack's mechanics.
        let state = Arc::new(AtomicU64::new(0));
        let program: Arc<dyn BlockProgram> = Arc::new(StateAttackProgram {
            target: 13.0,
            leaked_state: Arc::clone(&state),
        });
        let chamber = Chamber::new(ChamberPolicy::unbounded());
        chamber.execute(Arc::clone(&program), block_with(&[1.0]));
        assert_eq!(state.load(Ordering::SeqCst), 0);
        chamber.execute(program, block_with(&[13.0]));
        assert_eq!(state.load(Ordering::SeqCst), 1);
    }
}
