//! Chamber execution: one untrusted program, one block, full isolation.
//!
//! A [`Chamber`] is the in-process analogue of the paper's AppArmor-
//! confined worker. It enforces the [`crate::policy::ChamberPolicy`]
//! contract: bounded execution, kill + in-range constant on overrun,
//! panic containment, fixed output arity, fresh scratch per invocation,
//! and optional constant-time padding.
//!
//! A [`ChamberPool`] dispatches many blocks across a work-stealing
//! worker pool (the paper's cluster parallelism, §1), scheduled by an
//! [`ExecutionPolicy`]. Blocks are bundled into contiguous chunks, each
//! worker drains its own deque, and idle workers steal chunks from busy
//! peers — so one slow chamber (a hostile program burning its budget,
//! say) cannot strand the rest of the fan-out behind it. With
//! [`ChamberPool::run_planned`] the pool starts before the block plan is
//! complete: the caller draws the plan and publishes each block the
//! moment it is final, helper workers run chambers on the published
//! blocks meanwhile, and the caller joins them once the draw is done.
//! Two properties make the parallelism invisible to answers:
//!
//! - **Seeds split before fan-out.** Chamber `i`'s RNG seed is a pure
//!   function of (query seed, `i`) derived by [`crate::exec::chamber_seed`]
//!   and carried into the chamber's [`Scratch`]; no draw depends on
//!   which worker ran the block or when.
//! - **Index-ordered reduce.** Every report lands in its block's slot,
//!   and the pool returns them in block order regardless of completion
//!   order.
//!
//! Blocks arrive as [`BlockView`]s: the chamber hands the program a
//! read-only window onto the shared row store instead of piping an owned
//! copy, so dispatch cost is independent of block byte size.

use crate::exec::{chamber_seed, ExecutionPolicy};
use crate::policy::ChamberPolicy;
use crate::program::BlockProgram;
use crate::scratch::Scratch;
use crate::view::BlockView;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// How a chamber invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChamberOutcome {
    /// The program returned within its budget.
    Completed,
    /// The program exceeded its execution budget and was killed; the
    /// output is the policy's fallback constant.
    TimedOut,
    /// The program panicked; the output is the policy's fallback constant.
    Panicked,
}

/// The result of one chamber invocation.
#[derive(Debug, Clone)]
pub struct ChamberReport {
    /// Program output, normalised to the declared output dimension.
    pub output: Vec<f64>,
    /// How the invocation ended.
    pub outcome: ChamberOutcome,
    /// Wall-clock time the chamber occupied, including padding. Under a
    /// padding policy this is data-independent by construction.
    pub elapsed: Duration,
}

/// An isolated execution chamber.
#[derive(Debug, Clone, Default)]
pub struct Chamber {
    policy: ChamberPolicy,
}

impl Chamber {
    /// Creates a chamber with the given policy.
    pub fn new(policy: ChamberPolicy) -> Self {
        Chamber { policy }
    }

    /// The chamber's policy.
    pub fn policy(&self) -> &ChamberPolicy {
        &self.policy
    }

    /// Executes `program` on `block` under the chamber policy.
    ///
    /// The view is moved into the chamber (mirroring the paper's data
    /// piping into the sandboxed process) but shares the underlying row
    /// store: the program can read exactly its block and can never
    /// observe or mutate runtime-owned memory.
    pub fn execute(&self, program: Arc<dyn BlockProgram>, block: BlockView) -> ChamberReport {
        self.execute_seeded(program, block, None)
    }

    /// Like [`Chamber::execute`], with a pre-derived RNG seed exposed to
    /// the program through [`Scratch::seed`]. The seed must be a pure
    /// function of (query seed, block index) — see
    /// [`crate::exec::chamber_seed`] — so the invocation stays
    /// deterministic under any scheduling.
    pub fn execute_seeded(
        &self,
        program: Arc<dyn BlockProgram>,
        block: BlockView,
        seed: Option<u64>,
    ) -> ChamberReport {
        let start = Instant::now();
        let dim = program.output_dimension();
        let fallback = vec![self.policy.fallback_value; dim];

        let (output, outcome) = match self.policy.execution_budget {
            None => self.run_inline(program.as_ref(), &block, &fallback, seed),
            Some(budget) => self.run_bounded(program, block, budget, &fallback, seed),
        };

        let mut output = output;
        normalize_arity(&mut output, dim, self.policy.fallback_value);

        // Constant-time padding: consume the rest of the budget so the
        // chamber's total occupancy is independent of the data.
        if self.policy.pad_to_budget {
            if let Some(budget) = self.policy.execution_budget {
                let elapsed = start.elapsed();
                if elapsed < budget {
                    std::thread::sleep(budget - elapsed);
                }
            }
        }

        ChamberReport {
            output,
            outcome,
            elapsed: start.elapsed(),
        }
    }

    fn fresh_scratch(&self, seed: Option<u64>) -> Scratch {
        let scratch = match self.policy.scratch_quota {
            Some(q) => Scratch::with_quota(q),
            None => Scratch::new(),
        };
        match seed {
            Some(s) => scratch.with_seed(s),
            None => scratch,
        }
    }

    fn run_inline(
        &self,
        program: &dyn BlockProgram,
        block: &BlockView,
        fallback: &[f64],
        seed: Option<u64>,
    ) -> (Vec<f64>, ChamberOutcome) {
        let mut scratch = self.fresh_scratch(seed);
        let result = catch_unwind(AssertUnwindSafe(|| program.run(block, &mut scratch)));
        scratch.wipe();
        match result {
            Ok(out) => (out, ChamberOutcome::Completed),
            Err(_) => (fallback.to_vec(), ChamberOutcome::Panicked),
        }
    }

    fn run_bounded(
        &self,
        program: Arc<dyn BlockProgram>,
        block: BlockView,
        budget: Duration,
        fallback: &[f64],
        seed: Option<u64>,
    ) -> (Vec<f64>, ChamberOutcome) {
        let scratch = self.fresh_scratch(seed);
        let (tx, rx) = mpsc::channel::<Vec<f64>>();
        // A dedicated worker thread, abandoned on overrun — the closest
        // safe-Rust analogue to killing the confined process. A hostile
        // program that ignores the kill keeps its thread, but its output
        // is discarded and it holds no capabilities to leak through.
        let handle = std::thread::Builder::new()
            .name(format!("gupt-chamber-{}", program.name()))
            .spawn(move || {
                let mut scratch = scratch;
                let result = catch_unwind(AssertUnwindSafe(|| program.run(&block, &mut scratch)));
                scratch.wipe();
                if let Ok(out) = result {
                    let _ = tx.send(out);
                }
                // On panic the sender is dropped: the receiver observes a
                // disconnect and reports `Panicked`.
            });
        let handle = match handle {
            Ok(h) => h,
            Err(_) => return (fallback.to_vec(), ChamberOutcome::Panicked),
        };

        match rx.recv_timeout(budget) {
            Ok(out) => {
                // The worker is done (it sent before exiting); reap it.
                let _ = handle.join();
                (out, ChamberOutcome::Completed)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Kill: abandon the worker, emit the in-range constant.
                (fallback.to_vec(), ChamberOutcome::TimedOut)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = handle.join();
                (fallback.to_vec(), ChamberOutcome::Panicked)
            }
        }
    }
}

/// Pads (with `fill`) or truncates `out` to exactly `dim` values, so a
/// hostile program cannot signal through output arity (§8.1).
fn normalize_arity(out: &mut Vec<f64>, dim: usize, fill: f64) {
    out.resize(dim, fill);
    // Non-finite outputs are replaced too: downstream clamping handles
    // range, but NaN would poison the aggregate before clamping sees it.
    for v in out.iter_mut() {
        if !v.is_finite() {
            *v = fill;
        }
    }
}

/// Execution trace of one [`ChamberPool::run_all_traced`] or
/// [`ChamberPool::run_planned`] call, for operator telemetry. Worker
/// busy times depend on the private data (unless a padding policy is in
/// force) and are **not** ε-protected.
#[derive(Debug, Clone, Default)]
pub struct PoolTrace {
    /// Wall clock of the whole dispatch, including any plan drawn while
    /// the chambers ran.
    pub wall: Duration,
    /// Worker threads actually used (`min(workers, tasks)`), the calling
    /// thread included.
    pub workers_used: usize,
    /// Per-worker time spent inside chambers (unordered). The caller's
    /// entry excludes the time it spent drawing the plan.
    pub busy: Vec<Duration>,
    /// Task chunks taken from a peer's deque rather than the worker's
    /// own — the load-balancing traffic of the work-stealing scheduler.
    pub steals: u64,
}

impl PoolTrace {
    /// Fraction of `workers_used × wall` spent inside chambers
    /// (1.0 = perfectly packed). 0 when nothing ran.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers_used as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.busy.iter().map(Duration::as_secs_f64).sum();
        (busy / capacity).min(1.0)
    }

    /// Total CPU-side chamber time across workers — compare against
    /// `wall × workers_used` to read parallel efficiency.
    pub fn cpu(&self) -> Duration {
        self.busy.iter().sum()
    }
}

/// A contiguous run of block indices: the unit of work-stealing. Chunks
/// keep deque traffic off the per-block fast path while leaving enough
/// granularity for thieves to balance uneven chambers.
type Task = std::ops::Range<usize>;

/// Idle sweeps a worker spins through before it starts yielding its
/// core to the thread drawing the plan.
const SPINS_BEFORE_YIELD: u32 = 64;

/// Where a [`ChamberPool::run_planned`] planner publishes its blocks.
pub struct BlockSink<'a> {
    slots: &'a [OnceLock<BlockView>],
    /// The queue idle workers take published blocks from; `None` when
    /// no worker runs until the plan is complete.
    injector: Option<&'a Injector<Task>>,
}

impl BlockSink<'_> {
    /// Hands block `index` to the chambers. A worker may start on it
    /// before this returns; publishing takes a lock, never a system call
    /// on the uncontended path.
    ///
    /// Panics when `index` is out of range or was already published.
    pub fn publish(&mut self, index: usize, view: BlockView) {
        assert!(
            self.slots[index].set(view).is_ok(),
            "block {index} published twice"
        );
        if let Some(injector) = self.injector {
            injector.push(index..index + 1);
        }
    }
}

/// Ends the plan when dropped — also when the planner panics, so idle
/// workers drain what was published and exit instead of waiting for
/// blocks that will never come.
struct EndOfPlan<'a>(&'a AtomicBool);

impl Drop for EndOfPlan<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// What every worker of one parallel dispatch shares.
struct Dispatch<'a> {
    program: &'a Arc<dyn BlockProgram>,
    policy: &'a ChamberPolicy,
    seed_base: Option<u64>,
    views: &'a [OnceLock<BlockView>],
    reports: &'a [OnceLock<ChamberReport>],
    injector: &'a Injector<Task>,
    stealers: &'a [Stealer<Task>],
    /// Set while the planner may still publish blocks. Cleared with
    /// `Release` after the last push; a worker that reads it clear with
    /// `Acquire` before a sweep sees every published task in that sweep.
    planning: &'a AtomicBool,
    steals: &'a AtomicU64,
}

impl Dispatch<'_> {
    /// One worker: run chambers until no task is left anywhere and no
    /// more can be published. Returns the time spent inside chambers.
    fn work(&self, id: usize, own: &Worker<Task>) -> Duration {
        let chamber = Chamber::new(self.policy.clone());
        let mut busy = Duration::ZERO;
        let mut idle = 0u32;
        loop {
            let planning = self.planning.load(Ordering::Acquire);
            match self.next_task(id, own) {
                Some(task) => {
                    idle = 0;
                    for i in task {
                        let view = self.views[i].get().expect("queued blocks are published");
                        let seed = self.seed_base.map(|b| chamber_seed(b, i as u64));
                        let report =
                            chamber.execute_seeded(Arc::clone(self.program), view.clone(), seed);
                        busy += report.elapsed;
                        assert!(self.reports[i].set(report).is_ok(), "block {i} ran twice");
                    }
                }
                // Nothing queued and nothing more to come.
                None if !planning => break,
                None if idle < SPINS_BEFORE_YIELD => {
                    idle += 1;
                    std::hint::spin_loop();
                }
                None => std::thread::yield_now(),
            }
        }
        busy
    }

    /// The next task: from the worker's own deque, then the injector,
    /// then a peer's deque. `None` after a sweep that found every queue
    /// empty.
    fn next_task(&self, id: usize, own: &Worker<Task>) -> Option<Task> {
        if let Some(task) = own.pop() {
            return Some(task);
        }
        loop {
            let mut retry = false;
            match self.injector.steal_batch_and_pop(own) {
                Steal::Success(task) => return Some(task),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            for (peer, stealer) in self.stealers.iter().enumerate() {
                if peer == id {
                    continue;
                }
                match stealer.steal() {
                    Steal::Success(task) => {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(task);
                    }
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
        }
    }
}

/// A pool of chambers executing many blocks in parallel under an
/// [`ExecutionPolicy`], via work-stealing deques.
#[derive(Debug, Clone)]
pub struct ChamberPool {
    policy: ChamberPolicy,
    exec: ExecutionPolicy,
    workers: usize,
}

impl ChamberPool {
    /// Creates a pool running under `policy` with `workers` threads
    /// (clamped to at least 1). Equivalent to
    /// [`ChamberPool::with_execution`] with [`ExecutionPolicy::parallel`].
    pub fn new(policy: ChamberPolicy, workers: usize) -> Self {
        ChamberPool::with_execution(policy, ExecutionPolicy::parallel(workers))
    }

    /// Creates a pool scheduled by `exec` (the first-class path).
    pub fn with_execution(policy: ChamberPolicy, exec: ExecutionPolicy) -> Self {
        let workers = exec.effective_threads();
        ChamberPool {
            policy,
            exec,
            workers,
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_default_parallelism(policy: ChamberPolicy) -> Self {
        ChamberPool::with_execution(policy, ExecutionPolicy::auto())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The policy chambers run under.
    pub fn policy(&self) -> &ChamberPolicy {
        &self.policy
    }

    /// The execution policy scheduling this pool.
    pub fn execution(&self) -> &ExecutionPolicy {
        &self.exec
    }

    /// A pool with the same scheduling but a different chamber policy —
    /// how per-query policy overrides (e.g. a deadline-derived execution
    /// budget) are applied without touching the shared pool.
    pub fn with_policy(&self, policy: ChamberPolicy) -> ChamberPool {
        ChamberPool {
            policy,
            exec: self.exec.clone(),
            workers: self.workers,
        }
    }

    /// A pool with the same chamber policy but a different execution
    /// policy — how per-query `.execution(..)` overrides and service
    /// worker-budget caps are applied.
    pub fn with_execution_policy(&self, exec: ExecutionPolicy) -> ChamberPool {
        ChamberPool::with_execution(self.policy.clone(), exec)
    }

    /// Executes `program` on every block view, in parallel, preserving
    /// block order in the returned reports.
    pub fn run_all(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<BlockView>,
    ) -> Vec<ChamberReport> {
        self.run_all_traced(program, views).0
    }

    /// Like [`ChamberPool::run_all`], additionally returning a
    /// [`PoolTrace`] with the dispatch wall clock, per-worker busy
    /// times and steal counts, for operator telemetry.
    pub fn run_all_traced(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<BlockView>,
    ) -> (Vec<ChamberReport>, PoolTrace) {
        self.run_all_traced_seeded(program, views, None)
    }

    /// Like [`ChamberPool::run_all_traced`], optionally threading a
    /// per-query seed base through to the chambers (chamber `i` receives
    /// [`chamber_seed`]`(base, i)` via its scratch space).
    ///
    /// Every view is published before any worker starts, chunked and
    /// dealt round-robin onto the workers' deques; idle workers steal
    /// from busy peers. Workers clone each view — an O(1) pair of `Arc`
    /// bumps, never a row copy — so shipping work to the pool costs the
    /// same regardless of γ or dataset size.
    pub fn run_all_traced_seeded(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<BlockView>,
        seed_base: Option<u64>,
    ) -> (Vec<ChamberReport>, PoolTrace) {
        let slots = views.into_iter().map(OnceLock::from).collect();
        self.dispatch(program, slots, seed_base, None::<fn(&mut BlockSink<'_>)>)
    }

    /// Runs `program` on `blocks` blocks that `plan` publishes, on the
    /// calling thread, while the pool is already running chambers on the
    /// ones published so far.
    ///
    /// The `workers − 1` helper threads start before `plan` runs, so
    /// their start-up hides under it; they take published blocks from a
    /// shared queue, spinning a bounded number of times and then
    /// yielding while it is empty. When `plan` returns, the caller works
    /// too. A one-worker pool runs `plan` first and then every chamber
    /// inline, in index order, on no thread of its own.
    ///
    /// Answers do not depend on when a block is published or which
    /// worker runs it: chamber `i` is seeded with [`chamber_seed`]`(base,
    /// i)` and its report lands in slot `i`. `plan` must publish each
    /// index in `0..blocks` exactly once; if it panics, the workers
    /// finish what was published and the panic propagates.
    pub fn run_planned<P>(
        &self,
        program: &Arc<dyn BlockProgram>,
        blocks: usize,
        seed_base: Option<u64>,
        plan: P,
    ) -> (Vec<ChamberReport>, PoolTrace)
    where
        P: FnOnce(&mut BlockSink<'_>),
    {
        let slots = (0..blocks).map(|_| OnceLock::new()).collect();
        self.dispatch(program, slots, seed_base, Some(plan))
    }

    /// The one dispatch behind [`ChamberPool::run_all_traced_seeded`]
    /// (every view in `views` already, `plan` is `None`) and
    /// [`ChamberPool::run_planned`] (empty slots that `plan` fills).
    /// Reports land in per-block slots and are returned in block order:
    /// the index-ordered reduce that, together with pre-split seeds,
    /// makes answers bit-identical to sequential execution.
    fn dispatch<P>(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<OnceLock<BlockView>>,
        seed_base: Option<u64>,
        plan: Option<P>,
    ) -> (Vec<ChamberReport>, PoolTrace)
    where
        P: FnOnce(&mut BlockSink<'_>),
    {
        let n = views.len();
        let start = Instant::now();
        let workers_used = self.workers.min(n);

        // Sequential path: one worker (or at most one block) plans
        // first, then runs inline on the calling thread — no spawns, no
        // deques, no slot locking. This keeps single-threaded policies
        // (latency-sensitive serve paths, determinism baselines) free of
        // scheduler overhead.
        if workers_used <= 1 {
            if let Some(plan) = plan {
                plan(&mut BlockSink {
                    slots: &views,
                    injector: None,
                });
            }
            if n == 0 {
                return (Vec::new(), PoolTrace::default());
            }
            let chamber = Chamber::new(self.policy.clone());
            let mut busy = Duration::ZERO;
            let reports: Vec<ChamberReport> = views
                .into_iter()
                .enumerate()
                .map(|(i, view)| {
                    let view = view.into_inner().expect("planner published every block");
                    let seed = seed_base.map(|b| chamber_seed(b, i as u64));
                    let report = chamber.execute_seeded(Arc::clone(program), view, seed);
                    busy += report.elapsed;
                    report
                })
                .collect();
            let trace = PoolTrace {
                wall: start.elapsed(),
                workers_used: 1,
                busy: vec![busy],
                steals: 0,
            };
            return (reports, trace);
        }

        let mut local: Vec<Worker<Task>> = (0..workers_used).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Task>> = local.iter().map(Worker::stealer).collect();
        if plan.is_none() {
            // Pre-split the index space into chunks and deal them
            // round-robin onto per-worker deques: every worker starts
            // with local work and only touches a peer's deque when its
            // own runs dry.
            let chunk = self.exec.chunk_for(n, workers_used);
            for (t, task_start) in (0..n).step_by(chunk).enumerate() {
                local[t % workers_used].push(task_start..(task_start + chunk).min(n));
            }
        }
        let reports: Vec<OnceLock<ChamberReport>> = (0..n).map(|_| OnceLock::new()).collect();
        let injector = Injector::new();
        let planning = AtomicBool::new(plan.is_some());
        let steals = AtomicU64::new(0);
        let shared = Dispatch {
            program,
            policy: &self.policy,
            seed_base,
            views: &views,
            reports: &reports,
            injector: &injector,
            stealers: &stealers,
            planning: &planning,
            steals: &steals,
        };

        // The caller is worker 0; the helpers start before the plan.
        let own = local.remove(0);
        let busy: Vec<Duration> = crossbeam::thread::scope(|scope| {
            let shared = &shared;
            let helpers: Vec<_> = local
                .into_iter()
                .enumerate()
                .map(|(k, queue)| scope.spawn(move |_| shared.work(k + 1, &queue)))
                .collect();
            if let Some(plan) = plan {
                let _end = EndOfPlan(&planning);
                plan(&mut BlockSink {
                    slots: &views,
                    injector: Some(&injector),
                });
            }
            let mine = shared.work(0, &own);
            std::iter::once(mine)
                .chain(
                    helpers
                        .into_iter()
                        .map(|h| h.join().expect("chamber pool worker panicked")),
                )
                .collect()
        })
        .expect("chamber pool worker panicked");

        let trace = PoolTrace {
            wall: start.elapsed(),
            workers_used,
            busy,
            steals: steals.into_inner(),
        };
        let reports = reports
            .into_iter()
            .map(|r| r.into_inner().expect("planner published every block"))
            .collect();
        (reports, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ClosureProgram;
    use std::sync::Mutex;

    fn sum_program() -> Arc<dyn BlockProgram> {
        Arc::new(ClosureProgram::new(1, |block: &BlockView| {
            vec![block.iter().map(|r| r[0]).sum::<f64>()]
        }))
    }

    fn view(rows: &[Vec<f64>]) -> BlockView {
        BlockView::from_rows(rows)
    }

    #[test]
    fn completes_well_behaved_program() {
        let chamber = Chamber::new(ChamberPolicy::unbounded());
        let report = chamber.execute(sum_program(), view(&[vec![1.0], vec![2.0], vec![3.0]]));
        assert_eq!(report.outcome, ChamberOutcome::Completed);
        assert_eq!(report.output, vec![6.0]);
    }

    #[test]
    fn contains_panics() {
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(2, |_: &BlockView| {
            panic!("hostile program")
        }));
        let chamber = Chamber::new(ChamberPolicy::unbounded().with_fallback(7.0));
        let report = chamber.execute(p, view(&[vec![1.0]]));
        assert_eq!(report.outcome, ChamberOutcome::Panicked);
        assert_eq!(report.output, vec![7.0, 7.0]);
    }

    #[test]
    fn kills_overrunning_program() {
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            std::thread::sleep(Duration::from_secs(5));
            vec![999.0]
        }));
        let chamber =
            Chamber::new(ChamberPolicy::bounded(Duration::from_millis(20), 0.5).without_padding());
        let start = Instant::now();
        let report = chamber.execute(p, view(&[vec![1.0]]));
        assert_eq!(report.outcome, ChamberOutcome::TimedOut);
        assert_eq!(report.output, vec![0.5]);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn bounded_completion_within_budget() {
        let chamber =
            Chamber::new(ChamberPolicy::bounded(Duration::from_secs(5), 0.0).without_padding());
        let report = chamber.execute(sum_program(), view(&[vec![4.0]]));
        assert_eq!(report.outcome, ChamberOutcome::Completed);
        assert_eq!(report.output, vec![4.0]);
        assert!(report.elapsed < Duration::from_secs(1));
    }

    #[test]
    fn padding_makes_runtime_constant() {
        let budget = Duration::from_millis(60);
        let fast: Arc<dyn BlockProgram> =
            Arc::new(ClosureProgram::new(1, |_: &BlockView| vec![1.0]));
        let slow: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            std::thread::sleep(Duration::from_millis(30));
            vec![1.0]
        }));
        let chamber = Chamber::new(ChamberPolicy::bounded(budget, 0.0));
        let t_fast = chamber.execute(fast, view(&[vec![0.0]])).elapsed;
        let t_slow = chamber.execute(slow, view(&[vec![0.0]])).elapsed;
        // Both at least the budget, and within scheduling slop of each other.
        assert!(t_fast >= budget && t_slow >= budget);
        let diff = t_fast.abs_diff(t_slow);
        assert!(diff < Duration::from_millis(25), "diff = {diff:?}");
    }

    #[test]
    fn output_arity_is_enforced() {
        let too_many: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(2, |_: &BlockView| {
            vec![1.0, 2.0, 3.0, 4.0]
        }));
        let too_few: Arc<dyn BlockProgram> =
            Arc::new(ClosureProgram::new(3, |_: &BlockView| vec![1.0]));
        let chamber = Chamber::new(ChamberPolicy::unbounded().with_fallback(-1.0));
        assert_eq!(
            chamber.execute(too_many, view(&[vec![0.0]])).output,
            vec![1.0, 2.0]
        );
        assert_eq!(
            chamber.execute(too_few, view(&[vec![0.0]])).output,
            vec![1.0, -1.0, -1.0]
        );
    }

    #[test]
    fn non_finite_outputs_replaced() {
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(3, |_: &BlockView| {
            vec![f64::NAN, f64::INFINITY, 1.0]
        }));
        let chamber = Chamber::new(ChamberPolicy::unbounded().with_fallback(0.0));
        assert_eq!(
            chamber.execute(p, view(&[vec![0.0]])).output,
            vec![0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn scratch_quota_overrun_contained_as_panic() {
        // A scratch-hog program is terminated and the fallback emitted —
        // the §6 resource bound.
        struct Hog;
        impl BlockProgram for Hog {
            fn run(&self, _block: &BlockView, scratch: &mut crate::Scratch) -> Vec<f64> {
                for i in 0.. {
                    scratch.put(format!("k{i}"), vec![0.0; 1024]);
                }
                vec![1.0]
            }
            fn output_dimension(&self) -> usize {
                1
            }
        }
        let chamber = Chamber::new(
            ChamberPolicy::unbounded()
                .with_scratch_quota(16 * 1024)
                .with_fallback(0.5),
        );
        let report = chamber.execute(Arc::new(Hog), view(&[vec![1.0]]));
        assert_eq!(report.outcome, ChamberOutcome::Panicked);
        assert_eq!(report.output, vec![0.5]);
    }

    #[test]
    fn seed_reaches_program_through_scratch() {
        struct SeedEcho;
        impl BlockProgram for SeedEcho {
            fn run(&self, _block: &BlockView, scratch: &mut crate::Scratch) -> Vec<f64> {
                vec![scratch.seed().map_or(-1.0, |s| (s % 1000) as f64)]
            }
            fn output_dimension(&self) -> usize {
                1
            }
        }
        let chamber = Chamber::new(ChamberPolicy::unbounded());
        let p: Arc<dyn BlockProgram> = Arc::new(SeedEcho);
        let unseeded = chamber.execute_seeded(Arc::clone(&p), view(&[vec![0.0]]), None);
        assert_eq!(unseeded.output, vec![-1.0]);
        let seeded = chamber.execute_seeded(p, view(&[vec![0.0]]), Some(123_456));
        assert_eq!(seeded.output, vec![(123_456.0_f64 % 1000.0)]);
    }

    #[test]
    fn bounded_chamber_also_carries_seed() {
        struct SeedEcho;
        impl BlockProgram for SeedEcho {
            fn run(&self, _block: &BlockView, scratch: &mut crate::Scratch) -> Vec<f64> {
                vec![scratch.seed().map_or(-1.0, |s| (s % 1000) as f64)]
            }
            fn output_dimension(&self) -> usize {
                1
            }
        }
        let chamber =
            Chamber::new(ChamberPolicy::bounded(Duration::from_secs(5), 0.0).without_padding());
        let report = chamber.execute_seeded(Arc::new(SeedEcho), view(&[vec![0.0]]), Some(777));
        assert_eq!(report.output, vec![777.0]);
    }

    #[test]
    fn pool_preserves_block_order() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 4);
        let views: Vec<BlockView> = (0..32).map(|i| view(&[vec![i as f64]])).collect();
        let reports = pool.run_all(&sum_program(), views);
        assert_eq!(reports.len(), 32);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.output, vec![i as f64], "block {i}");
        }
    }

    #[test]
    fn pool_preserves_order_at_every_chunk_size() {
        for chunk in [1usize, 2, 3, 5, 32, 100] {
            let pool = ChamberPool::with_execution(
                ChamberPolicy::unbounded(),
                ExecutionPolicy::parallel(4).chunk(chunk),
            );
            let views: Vec<BlockView> = (0..33).map(|i| view(&[vec![i as f64]])).collect();
            let reports = pool.run_all(&sum_program(), views);
            assert_eq!(reports.len(), 33, "chunk {chunk}");
            for (i, r) in reports.iter().enumerate() {
                assert_eq!(r.output, vec![i as f64], "chunk {chunk}, block {i}");
            }
        }
    }

    #[test]
    fn pool_shares_one_store_across_views() {
        // The production shape: every view windows the same Arc'd store.
        let store = std::sync::Arc::new(crate::RowStore::from_rows(
            &(0..32).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        ));
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 4);
        let views: Vec<BlockView> = (0..32)
            .map(|i| BlockView::dense(std::sync::Arc::clone(&store), i, 1))
            .collect();
        let reports = pool.run_all(&sum_program(), views);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.output, vec![i as f64], "block {i}");
        }
    }

    #[test]
    fn pool_empty_input() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 2);
        assert!(pool.run_all(&sum_program(), Vec::new()).is_empty());
    }

    #[test]
    fn pool_single_worker_still_works() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 1);
        let views: Vec<BlockView> = (0..5).map(|i| view(&[vec![i as f64]])).collect();
        let reports = pool.run_all(&sum_program(), views);
        assert_eq!(reports.len(), 5);
    }

    #[test]
    fn pool_contains_mixed_failures() {
        // Program panics on blocks whose first value is negative.
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            assert!(b.row(0)[0] >= 0.0, "hostile trigger");
            vec![b.row(0)[0]]
        }));
        let pool = ChamberPool::new(ChamberPolicy::unbounded().with_fallback(-99.0), 3);
        let views = vec![view(&[vec![1.0]]), view(&[vec![-1.0]]), view(&[vec![2.0]])];
        let reports = pool.run_all(&p, views);
        assert_eq!(reports[0].outcome, ChamberOutcome::Completed);
        assert_eq!(reports[1].outcome, ChamberOutcome::Panicked);
        assert_eq!(reports[1].output, vec![-99.0]);
        assert_eq!(reports[2].outcome, ChamberOutcome::Completed);
    }

    #[test]
    fn traced_run_reports_busy_workers() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 3);
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            std::thread::sleep(Duration::from_millis(5));
            vec![1.0]
        }));
        let views: Vec<BlockView> = (0..6).map(|i| view(&[vec![i as f64]])).collect();
        let (reports, trace) = pool.run_all_traced(&p, views);
        assert_eq!(reports.len(), 6);
        assert_eq!(trace.workers_used, 3);
        assert_eq!(trace.busy.len(), 3);
        assert!(trace.wall >= Duration::from_millis(5));
        assert!(trace.cpu() >= Duration::from_millis(6 * 5));
        let u = trace.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization = {u}");
    }

    #[test]
    fn traced_run_caps_workers_at_block_count() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 8);
        let (reports, trace) = pool.run_all_traced(&sum_program(), vec![view(&[vec![1.0]])]);
        assert_eq!(reports.len(), 1);
        assert_eq!(trace.workers_used, 1);
        assert_eq!(trace.steals, 0, "single block runs on the fast path");
    }

    #[test]
    fn empty_trace_is_zero_utilization() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 2);
        let (reports, trace) = pool.run_all_traced(&sum_program(), Vec::new());
        assert!(reports.is_empty());
        assert_eq!(trace.workers_used, 0);
        assert_eq!(trace.utilization(), 0.0);
        assert_eq!(trace.cpu(), Duration::ZERO);
    }

    #[test]
    fn default_parallelism_pool() {
        let pool = ChamberPool::with_default_parallelism(ChamberPolicy::unbounded());
        assert!(pool.workers() >= 1);
        assert_eq!(pool.execution().threads, 0, "auto policy retained");
    }

    #[test]
    fn stealing_rebalances_one_slow_chamber() {
        // All the slow blocks are dealt to worker 0's deque (chunk 1,
        // round-robin over 2 workers puts even indices there); the idle
        // peer must steal to finish in ~half the sequential time — the
        // trace proves stealing happened.
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            if b.row(0)[0] % 2.0 == 0.0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            vec![b.row(0)[0]]
        }));
        let pool = ChamberPool::with_execution(
            ChamberPolicy::unbounded(),
            ExecutionPolicy::parallel(2).chunk(1),
        );
        let views: Vec<BlockView> = (0..8).map(|i| view(&[vec![i as f64]])).collect();
        let (reports, trace) = pool.run_all_traced(&p, views);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.output, vec![i as f64]);
        }
        assert!(trace.steals > 0, "idle worker must have stolen tasks");
    }

    #[test]
    fn seeded_dispatch_is_interleaving_independent() {
        // A program that derives its output from the scratch seed must
        // produce identical reports at 1, 2 and 8 threads.
        struct SeedHash;
        impl BlockProgram for SeedHash {
            fn run(&self, block: &BlockView, scratch: &mut crate::Scratch) -> Vec<f64> {
                let s = scratch.seed().expect("pool supplies seeds");
                vec![(s % 10_000) as f64 + block.row(0)[0]]
            }
            fn output_dimension(&self) -> usize {
                1
            }
        }
        let p: Arc<dyn BlockProgram> = Arc::new(SeedHash);
        let views = || -> Vec<BlockView> { (0..24).map(|i| view(&[vec![i as f64]])).collect() };
        let run = |threads: usize| -> Vec<u64> {
            let pool = ChamberPool::with_execution(
                ChamberPolicy::unbounded(),
                ExecutionPolicy::parallel(threads).chunk(1),
            );
            pool.run_all_traced_seeded(&p, views(), Some(0xDEAD_BEEF))
                .0
                .into_iter()
                .map(|r| r.output[0].to_bits())
                .collect()
        };
        // The same blocks published one at a time, last first, while
        // the pool is already running.
        let run_planned = |threads: usize| -> Vec<u64> {
            let pool = ChamberPool::with_execution(
                ChamberPolicy::unbounded(),
                ExecutionPolicy::parallel(threads).chunk(1),
            );
            let mut views = views();
            pool.run_planned(&p, views.len(), Some(0xDEAD_BEEF), |sink| {
                while let Some(view) = views.pop() {
                    sink.publish(views.len(), view);
                }
            })
            .0
            .into_iter()
            .map(|r| r.output[0].to_bits())
            .collect()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(8));
        for threads in [1, 2, 8] {
            assert_eq!(
                sequential,
                run_planned(threads),
                "planned, {threads} threads"
            );
        }
    }

    #[test]
    fn planned_dispatch_accepts_blocks_in_reverse_order() {
        for threads in [2, 4] {
            let pool = ChamberPool::new(ChamberPolicy::unbounded(), threads);
            let (reports, trace) = pool.run_planned(&sum_program(), 33, None, |sink| {
                for i in (0..33).rev() {
                    sink.publish(i, view(&[vec![i as f64]]));
                }
            });
            assert_eq!(reports.len(), 33);
            for (i, r) in reports.iter().enumerate() {
                assert_eq!(r.output, vec![i as f64], "{threads} threads, block {i}");
            }
            assert_eq!(trace.workers_used, threads);
            assert_eq!(trace.busy.len(), threads);
        }
    }

    #[test]
    fn helpers_run_published_blocks_while_the_plan_is_drawn() {
        // The planner publishes block 0 and then refuses to go on until
        // a chamber has run it: only a helper started before the plan
        // can, so the overlap is forced, not timed.
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, move |b: &BlockView| {
            flag.store(true, Ordering::SeqCst);
            vec![b.row(0)[0]]
        }));
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 2);
        let (reports, _) = pool.run_planned(&p, 4, None, |sink| {
            sink.publish(0, view(&[vec![0.0]]));
            let deadline = Instant::now() + Duration::from_secs(30);
            while !ran.load(Ordering::SeqCst) {
                assert!(
                    Instant::now() < deadline,
                    "no helper ran the published block"
                );
                std::thread::yield_now();
            }
            for i in 1..4 {
                sink.publish(i, view(&[vec![i as f64]]));
            }
        });
        let outputs: Vec<f64> = reports.iter().map(|r| r.output[0]).collect();
        assert_eq!(outputs, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn planned_dispatch_contains_failures_while_the_draw_continues() {
        // Block 3 panics and block 5 overruns its budget; the planner
        // keeps publishing after both were handed out.
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            let v = b.row(0)[0];
            assert!(v != 3.0, "hostile trigger");
            if v == 5.0 {
                std::thread::sleep(Duration::from_secs(5));
            }
            vec![v]
        }));
        let policy = ChamberPolicy::bounded(Duration::from_millis(50), -1.0).without_padding();
        let pool = ChamberPool::new(policy, 2);
        let (reports, _) = pool.run_planned(&p, 8, None, |sink| {
            for i in 0..8 {
                sink.publish(i, view(&[vec![i as f64]]));
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        for (i, r) in reports.iter().enumerate() {
            let (outcome, output) = match i {
                3 => (ChamberOutcome::Panicked, -1.0),
                5 => (ChamberOutcome::TimedOut, -1.0),
                _ => (ChamberOutcome::Completed, i as f64),
            };
            assert_eq!((r.outcome, r.output[0]), (outcome, output), "block {i}");
        }
    }

    #[test]
    fn planned_dispatch_of_zero_and_one_block() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 4);
        let mut planned = false;
        let (reports, trace) = pool.run_planned(&sum_program(), 0, None, |_| planned = true);
        assert!(planned, "the planner runs even with nothing to publish");
        assert!(reports.is_empty());
        assert_eq!(trace.workers_used, 0);

        let (reports, trace) = pool.run_planned(&sum_program(), 1, Some(7), |sink| {
            sink.publish(0, view(&[vec![2.0], vec![3.0]]));
        });
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].output, vec![5.0]);
        assert_eq!(trace.workers_used, 1, "one block runs inline");
    }

    #[test]
    fn sequential_planned_dispatch_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let threads = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&threads);
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, move |_: &BlockView| {
            seen.lock().unwrap().push(std::thread::current().id());
            vec![1.0]
        }));
        let pool =
            ChamberPool::with_execution(ChamberPolicy::unbounded(), ExecutionPolicy::sequential());
        let (reports, trace) = pool.run_planned(&p, 6, None, |sink| {
            for i in (0..6).rev() {
                sink.publish(i, view(&[vec![i as f64]]));
            }
            assert!(
                threads.lock().unwrap().is_empty(),
                "chambers wait for the plan"
            );
        });
        assert_eq!(reports.len(), 6);
        assert_eq!(trace.workers_used, 1);
        assert!(threads.lock().unwrap().iter().all(|&t| t == caller));
    }

    #[test]
    fn planner_panic_propagates_instead_of_hanging() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let result = catch_unwind(|| {
                let pool = ChamberPool::new(ChamberPolicy::unbounded(), 2);
                pool.run_planned(&sum_program(), 10, None, |sink| {
                    for i in 0..4 {
                        sink.publish(i, view(&[vec![i as f64]]));
                    }
                    panic!("planner failed mid-plan");
                })
            });
            let message = result
                .err()
                .and_then(|e| e.downcast_ref::<&str>().map(|s| s.to_string()));
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("dispatch hung after its planner panicked");
        assert_eq!(message.as_deref(), Some("planner failed mid-plan"));
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn publishing_a_block_twice_panics() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 2);
        pool.run_planned(&sum_program(), 2, None, |sink| {
            sink.publish(0, view(&[vec![1.0]]));
            sink.publish(0, view(&[vec![1.0]]));
        });
    }

    #[test]
    fn execution_policy_override_keeps_chamber_policy() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded().with_fallback(3.5), 2);
        let wide = pool.with_execution_policy(ExecutionPolicy::parallel(6));
        assert_eq!(wide.workers(), 6);
        assert_eq!(wide.policy().fallback_value, 3.5);
    }
}
