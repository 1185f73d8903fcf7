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
//! complete: one worker draws the plan and publishes each block the
//! moment it is final while the others run chambers on the published
//! blocks. [`ChamberPool::run_batch`] does the same for many queries in
//! one dispatch, any idle worker drawing the next query's plan while the
//! others run the chambers of the queries already drawn.
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
use crate::route::KeyPartition;
use crate::scratch::Scratch;
use crate::view::BlockView;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
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
    /// Program output, normalised to the declared output dimension. For
    /// a block of a partitioned run ([`Chamber::execute_partitioned`]):
    /// the output on the block's empty sub-view, then one output per
    /// entry of `keys`, each normalised to the declared dimension.
    pub output: Vec<f64>,
    /// The ranks of the keys present in a partitioned run's block, in
    /// ascending order; empty for any other run.
    pub keys: Vec<usize>,
    /// How the invocation ended: for a partitioned block, the first of
    /// its program calls that did not complete, else `Completed`.
    pub outcome: ChamberOutcome,
    /// Wall-clock time the chamber occupied, including padding. Under a
    /// padding policy this is data-independent by construction: a
    /// partitioned block is padded once, to the same budget, whatever
    /// the number of keys it holds.
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
        let (output, outcome) = self.invoke(program, block, seed, self.policy.execution_budget);
        self.pad(start);
        ChamberReport {
            output,
            keys: Vec::new(),
            outcome,
            elapsed: start.elapsed(),
        }
    }

    /// Executes one block of a partitioned run: routes the block's rows
    /// to their keys in `partition` and runs `program` once on the sub-view
    /// of each key present, and once on an empty sub-view standing for
    /// every absent key (see [`crate::route`]).
    ///
    /// Each program call is contained on its own, on a fresh scratch with
    /// the block's seed: a panic or overrun replaces only that key's
    /// output, which keeps every key's output a function of its own rows
    /// and of the block's length alone. The block shares one execution
    /// budget: each call is killed after `budget / (1 + block length)`,
    /// an even share of the most calls a block of that length can make,
    /// so the whole block never runs past its budget and no call's bound
    /// depends on another key's rows. Padding then fills the block once,
    /// to the budget, whatever the number of keys it holds.
    pub fn execute_partitioned(
        &self,
        program: Arc<dyn BlockProgram>,
        partition: &KeyPartition,
        block: BlockView,
        seed: Option<u64>,
    ) -> ChamberReport {
        let start = Instant::now();
        let share = self.policy.execution_budget.map(|budget| {
            let calls = 1 + block.len() as u128;
            Duration::from_nanos((budget.as_nanos() / calls) as u64)
        });
        let routed = partition.route(&block);
        let (mut output, mut outcome) = self.invoke(
            Arc::clone(&program),
            KeyPartition::absent(&block),
            seed,
            share,
        );
        let mut keys = Vec::with_capacity(routed.len());
        for (rank, view) in routed {
            let (out, ended) = self.invoke(Arc::clone(&program), view, seed, share);
            output.extend(out);
            keys.push(rank);
            if outcome == ChamberOutcome::Completed {
                outcome = ended;
            }
        }
        self.pad(start);
        ChamberReport {
            output,
            keys,
            outcome,
            elapsed: start.elapsed(),
        }
    }

    /// One program call, killed after `budget` if one is given: its
    /// output, normalised to the declared dimension, and how it ended.
    fn invoke(
        &self,
        program: Arc<dyn BlockProgram>,
        block: BlockView,
        seed: Option<u64>,
        budget: Option<Duration>,
    ) -> (Vec<f64>, ChamberOutcome) {
        let dim = program.output_dimension();
        let fallback = vec![self.policy.fallback_value; dim];
        let (mut output, outcome) = match budget {
            None => self.run_inline(program.as_ref(), &block, &fallback, seed),
            Some(budget) => self.run_bounded(program, block, budget, &fallback, seed),
        };
        normalize_arity(&mut output, dim, self.policy.fallback_value);
        (output, outcome)
    }

    /// Constant-time padding: under a padding policy, sleeps out the
    /// rest of the budget counted from `start`, so the chamber's total
    /// occupancy is independent of the data.
    fn pad(&self, start: Instant) {
        if !self.policy.pad_to_budget {
            return;
        }
        if let Some(budget) = self.policy.execution_budget {
            let elapsed = start.elapsed();
            if elapsed < budget {
                std::thread::sleep(budget - elapsed);
            }
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

/// Execution trace of one run of a [`ChamberPool`] dispatch — a
/// [`ChamberPool::run_all_traced`] or [`ChamberPool::run_planned`]
/// call, or one member of a [`ChamberPool::run_batch`] — for operator
/// telemetry. Worker busy times depend on the private data (unless a
/// padding policy is in force) and are **not** ε-protected.
#[derive(Debug, Clone, Default)]
pub struct PoolTrace {
    /// Wall clock from the run's admission to its last chamber report,
    /// including its draw. For a dispatch of one run, that is the whole
    /// dispatch.
    pub wall: Duration,
    /// The part of `wall` before the run's draw ended (zero for blocks
    /// that came ready).
    pub drawn: Duration,
    /// Worker threads the dispatch used (`min(workers, blocks)`), the
    /// calling thread included.
    pub workers_used: usize,
    /// Per-worker time spent inside this run's chambers (unordered).
    /// Time spent drawing plans is not included.
    pub busy: Vec<Duration>,
    /// This run's task chunks taken from a peer's deque rather than the
    /// worker's own — the load-balancing traffic of the work-stealing
    /// scheduler.
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

/// One run of a [`ChamberPool::run_batch`] dispatch: a program, the
/// number of blocks its planner publishes, and the planner itself.
pub struct PlannedRun<'a, P> {
    /// The program every block of this run executes.
    pub program: &'a Arc<dyn BlockProgram>,
    /// The run's key partition, for a partitioned run: each block then
    /// runs through [`Chamber::execute_partitioned`].
    pub partition: Option<&'a KeyPartition>,
    /// Blocks `plan` publishes, with indices `0..blocks`.
    pub blocks: usize,
    /// Chamber `i` of this run is seeded with
    /// [`chamber_seed`]`(seed_base, i)`.
    pub seed_base: Option<u64>,
    /// Draws the run's blocks and publishes each one as it is final.
    pub plan: P,
}

/// A contiguous run of one run's block indices: the unit of
/// work-stealing. Chunks keep deque traffic off the per-block fast path
/// while leaving enough granularity for thieves to balance uneven
/// chambers.
struct Task {
    run: usize,
    blocks: std::ops::Range<usize>,
}

/// Idle sweeps a worker spins through before it starts yielding its
/// core to the threads drawing plans.
const SPINS_BEFORE_YIELD: u32 = 64;

/// A block's place between its planner and its chamber. The view is
/// taken out when the chamber runs, so a block's index list is freed as
/// soon as its chamber is done with it.
enum Slot {
    Empty,
    Ready(BlockView),
    Taken,
}

/// Where a planner publishes its blocks.
pub struct BlockSink<'a> {
    slots: &'a [Mutex<Slot>],
    /// The queue idle workers take published blocks from, and the run
    /// they belong to; `None` when no worker runs until the plan is
    /// complete.
    queue: Option<(&'a Injector<Task>, usize)>,
    published: usize,
}

impl BlockSink<'_> {
    /// Hands block `index` to the chambers. A worker may start on it
    /// before this returns; publishing takes a lock, never a system call
    /// on the uncontended path.
    ///
    /// Panics when `index` is out of range or was already published.
    #[inline(never)]
    pub fn publish(&mut self, index: usize, view: BlockView) {
        let fresh = {
            let mut slot = self.slots[index].lock().expect("block slot poisoned");
            let fresh = matches!(*slot, Slot::Empty);
            if fresh {
                *slot = Slot::Ready(view);
            }
            fresh
        };
        assert!(fresh, "block {index} published twice");
        self.published += 1;
        if let Some((injector, run)) = self.queue {
            injector.push(Task {
                run,
                blocks: index..index + 1,
            });
        }
    }
}

/// What one run of a dispatch carries from admission to its last report.
struct Run<'a, P> {
    program: &'a Arc<dyn BlockProgram>,
    partition: Option<&'a KeyPartition>,
    seed_base: Option<u64>,
    /// `None` once drawn, and for blocks that came ready.
    plan: Mutex<Option<P>>,
    views: Vec<Mutex<Slot>>,
    reports: Vec<OnceLock<ChamberReport>>,
    /// Blocks still to report, plus one until the draw has ended.
    remaining: AtomicUsize,
    admitted: OnceLock<Instant>,
    drawn: OnceLock<Instant>,
    finished: OnceLock<Instant>,
    steals: AtomicU64,
    /// The planner's panic, or the blocks it failed to publish: raised
    /// once every other run is done.
    failure: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<'a, P> Run<'a, P>
where
    P: FnOnce(&mut BlockSink<'_>),
{
    fn new(
        program: &'a Arc<dyn BlockProgram>,
        partition: Option<&'a KeyPartition>,
        seed_base: Option<u64>,
        views: Vec<Slot>,
        plan: Option<P>,
    ) -> Self {
        let blocks = views.len();
        Run {
            program,
            partition,
            seed_base,
            plan: Mutex::new(plan),
            views: views.into_iter().map(Mutex::new).collect(),
            reports: (0..blocks).map(|_| OnceLock::new()).collect(),
            remaining: AtomicUsize::new(blocks + 1),
            admitted: OnceLock::new(),
            drawn: OnceLock::new(),
            finished: OnceLock::new(),
            steals: AtomicU64::new(0),
            failure: Mutex::new(None),
        }
    }

    /// Runs the planner, if the run has one, publishing into `queue`.
    /// Returns how many slots settle with the draw: its own token plus
    /// every block the planner did not publish.
    fn draw(&self, queue: Option<(&Injector<Task>, usize)>) -> usize {
        let plan = self.plan.lock().expect("plan slot poisoned").take();
        let mut unpublished = 0;
        if let Some(plan) = plan {
            let mut sink = BlockSink {
                slots: &self.views,
                queue,
                published: 0,
            };
            let failure = match catch_unwind(AssertUnwindSafe(|| plan(&mut sink))) {
                Err(panic) => Some(panic),
                Ok(()) if sink.published < self.views.len() => Some(Box::new(format!(
                    "the planner published {} of {} blocks",
                    sink.published,
                    self.views.len()
                ))
                    as Box<dyn Any + Send>),
                Ok(()) => None,
            };
            unpublished = self.views.len() - sink.published;
            *self.failure.lock().expect("failure slot poisoned") = failure;
        }
        let _ = self.drawn.set(Instant::now());
        1 + unpublished
    }

    /// Whether the planner panicked or left blocks unpublished.
    fn failed(&self) -> bool {
        self.failure
            .lock()
            .expect("failure slot poisoned")
            .is_some()
    }

    /// Runs block `i` in `chamber` and stores its report.
    fn run_block(&self, chamber: &Chamber, i: usize) -> Duration {
        let slot = std::mem::replace(
            &mut *self.views[i].lock().expect("block slot poisoned"),
            Slot::Taken,
        );
        let Slot::Ready(view) = slot else {
            panic!("block {i} queued before it was published");
        };
        let seed = self.seed_base.map(|b| chamber_seed(b, i as u64));
        let program = Arc::clone(self.program);
        let report = match self.partition {
            Some(partition) => chamber.execute_partitioned(program, partition, view, seed),
            None => chamber.execute_seeded(program, view, seed),
        };
        let elapsed = report.elapsed;
        assert!(self.reports[i].set(report).is_ok(), "block {i} ran twice");
        elapsed
    }

    /// Subtracts `n` from the blocks still to report; true when that
    /// finished the run.
    fn settle(&self, n: usize) -> bool {
        let done = self.remaining.fetch_sub(n, Ordering::AcqRel) == n;
        if done {
            let _ = self.finished.set(Instant::now());
        }
        done
    }

    /// The run's reports in block order and its trace, or its failure.
    fn into_result(
        self,
        workers_used: usize,
        busy: Vec<Duration>,
    ) -> Result<(Vec<ChamberReport>, PoolTrace), Box<dyn Any + Send>> {
        if let Some(failure) = self.failure.into_inner().expect("failure slot poisoned") {
            return Err(failure);
        }
        let admitted = *self.admitted.get().expect("every run is admitted");
        let since = |at: &OnceLock<Instant>| {
            at.get()
                .map_or(Duration::ZERO, |t| t.saturating_duration_since(admitted))
        };
        let trace = PoolTrace {
            wall: since(&self.finished),
            drawn: since(&self.drawn),
            workers_used,
            busy,
            steals: self.steals.into_inner(),
        };
        let reports = self
            .reports
            .into_iter()
            .map(|r| r.into_inner().expect("every published block ran"))
            .collect();
        Ok((reports, trace))
    }
}

/// What every worker of one parallel dispatch shares.
struct Dispatch<'a, P> {
    runs: &'a [Run<'a, P>],
    /// Runs whose plan waits for a worker to draw it.
    draws: Injector<usize>,
    /// Published blocks, and the chunks of runs admitted after the start.
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    chunk: usize,
    /// The next run to admit once a run in flight finishes.
    next: AtomicUsize,
    /// Runs not yet finished. A worker that reads 0 with `Acquire` sees
    /// every report, which each run stored before its `AcqRel` settle.
    unfinished: AtomicUsize,
    policy: &'a ChamberPolicy,
}

impl<P> Dispatch<'_, P>
where
    P: FnOnce(&mut BlockSink<'_>),
{
    /// Puts run `r` in flight: its plan on the draw queue, or its ready
    /// blocks in chunks — dealt round-robin onto `deques` at the start of
    /// the dispatch, onto the shared injector later.
    fn admit(&self, r: usize, deques: Option<&[Worker<Task>]>) {
        let run = &self.runs[r];
        let _ = run.admitted.set(Instant::now());
        if run.plan.lock().expect("plan slot poisoned").is_some() {
            self.draws.push(r);
            return;
        }
        let n = run.views.len();
        for (t, start) in (0..n).step_by(self.chunk).enumerate() {
            let task = Task {
                run: r,
                blocks: start..(start + self.chunk).min(n),
            };
            match deques {
                Some(deques) => deques[t % deques.len()].push(task),
                None => self.injector.push(task),
            }
        }
        self.settle(r, run.draw(None), deques);
    }

    /// Settles `n` of run `r`'s slots; the worker that finishes a run
    /// admits the next one.
    fn settle(&self, r: usize, n: usize, deques: Option<&[Worker<Task>]>) {
        if self.runs[r].settle(n) {
            let next = self.next.fetch_add(1, Ordering::Relaxed);
            if next < self.runs.len() {
                self.admit(next, deques);
            }
            self.unfinished.fetch_sub(1, Ordering::Release);
        }
    }

    /// Draws run `r`'s plan, publishing its blocks to every worker.
    fn draw(&self, r: usize) {
        let drawn = self.runs[r].draw(Some((&self.injector, r)));
        self.settle(r, drawn, None);
    }

    /// One worker: draw plans and run chambers until every run is done.
    /// Returns the time spent inside each run's chambers.
    fn work(&self, id: usize, own: &Worker<Task>) -> Vec<Duration> {
        let chamber = Chamber::new(self.policy.clone());
        let mut busy = vec![Duration::ZERO; self.runs.len()];
        let mut idle = 0u32;
        loop {
            // Draws first: a plan in progress is what keeps the other
            // workers fed.
            if let Some(r) = self.draws.steal().success() {
                idle = 0;
                self.draw(r);
                continue;
            }
            match self.next_task(id, own) {
                Some(task) => {
                    idle = 0;
                    let run = &self.runs[task.run];
                    for i in task.blocks {
                        busy[task.run] += run.run_block(&chamber, i);
                        self.settle(task.run, 1, None);
                    }
                }
                None if self.unfinished.load(Ordering::Acquire) == 0 => break,
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
                        self.runs[task.run].steals.fetch_add(1, Ordering::Relaxed);
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
    /// Every view is ready before any worker starts: they are chunked
    /// and dealt round-robin onto the workers' deques, and idle workers
    /// steal from busy peers. Handing a view to a chamber moves it —
    /// never a row copy — so shipping work to the pool costs the same
    /// regardless of γ or dataset size.
    pub fn run_all_traced_seeded(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<BlockView>,
        seed_base: Option<u64>,
    ) -> (Vec<ChamberReport>, PoolTrace) {
        let ready = views.into_iter().map(Slot::Ready).collect();
        let run = Run::new(
            program,
            None,
            seed_base,
            ready,
            None::<fn(&mut BlockSink<'_>)>,
        );
        one(self.dispatch(vec![run]))
    }

    /// Runs `program` on `blocks` blocks that `plan` publishes, while the
    /// pool is already running chambers on the ones published so far —
    /// a [`ChamberPool::run_batch`] of one run.
    ///
    /// `plan` must publish each index in `0..blocks` exactly once; if it
    /// panics, the workers finish what was published and the panic
    /// propagates.
    pub fn run_planned<P>(
        &self,
        program: &Arc<dyn BlockProgram>,
        blocks: usize,
        seed_base: Option<u64>,
        plan: P,
    ) -> (Vec<ChamberReport>, PoolTrace)
    where
        P: FnOnce(&mut BlockSink<'_>) + Send,
    {
        one(self.run_batch(vec![PlannedRun {
            program,
            partition: None,
            blocks,
            seed_base,
            plan,
        }]))
    }

    /// Runs several queries' blocks in one dispatch, each drawn by its
    /// own planner, and returns each run's reports (in block order) and
    /// trace, in run order.
    ///
    /// The `workers − 1` helper threads start once for the whole batch;
    /// the caller is worker 0. Drawing a run's plan is a task any idle
    /// worker takes, ahead of any chamber; the run's chambers start as
    /// its blocks are published. At most `workers` runs are in flight at
    /// once: the worker that takes a run's last report admits the next
    /// run, so block index lists are held for only a few runs at a time.
    /// A one-worker pool draws each plan and then runs its chambers
    /// inline, in index order, run after run, on no thread of its own.
    ///
    /// Answers do not depend on when a block is published or which
    /// worker runs it: chamber `i` of a run is seeded with
    /// [`chamber_seed`]`(seed_base, i)` and its report lands in slot `i`.
    /// Each planner must publish every index in `0..blocks` exactly once;
    /// if a planner panics (or publishes too few blocks), the other runs
    /// finish and then the first such failure propagates as a panic.
    pub fn run_batch<P>(&self, runs: Vec<PlannedRun<'_, P>>) -> Vec<(Vec<ChamberReport>, PoolTrace)>
    where
        P: FnOnce(&mut BlockSink<'_>) + Send,
    {
        let runs = runs
            .into_iter()
            .map(|run| {
                let empty = (0..run.blocks).map(|_| Slot::Empty).collect();
                Run::new(
                    run.program,
                    run.partition,
                    run.seed_base,
                    empty,
                    Some(run.plan),
                )
            })
            .collect();
        self.dispatch(runs)
    }

    /// The one dispatch behind every entry point. Reports land in
    /// per-block slots and are returned in block order: the
    /// index-ordered reduce that, together with pre-split seeds, makes
    /// answers bit-identical to sequential execution.
    fn dispatch<P>(&self, runs: Vec<Run<'_, P>>) -> Vec<(Vec<ChamberReport>, PoolTrace)>
    where
        P: FnOnce(&mut BlockSink<'_>) + Send,
    {
        let total: usize = runs.iter().map(|r| r.views.len()).sum();
        let workers_used = self.workers.min(total);
        let busy: Vec<Vec<Duration>> = if workers_used <= 1 {
            self.run_inline(&runs)
        } else {
            self.run_parallel(&runs, workers_used)
        };
        let workers_used = workers_used.max(usize::from(total > 0));
        let mut failure = None;
        let results = runs
            .into_iter()
            .enumerate()
            .filter_map(|(r, run)| {
                let busy_r = busy.iter().map(|b| b[r]).collect();
                match run.into_result(workers_used, busy_r) {
                    Ok(result) => Some(result),
                    Err(panic) => {
                        failure.get_or_insert(panic);
                        None
                    }
                }
            })
            .collect();
        if let Some(panic) = failure {
            resume_unwind(panic);
        }
        results
    }

    /// Sequential path: one worker (or at most one block in all) draws
    /// each plan and then runs its chambers inline on the calling thread
    /// — no spawns, no deques. This keeps single-threaded policies
    /// (latency-sensitive serve paths, determinism baselines) free of
    /// scheduler overhead.
    fn run_inline<P>(&self, runs: &[Run<'_, P>]) -> Vec<Vec<Duration>>
    where
        P: FnOnce(&mut BlockSink<'_>),
    {
        let chamber = Chamber::new(self.policy.clone());
        let mut busy = vec![Duration::ZERO; runs.len()];
        for (r, run) in runs.iter().enumerate() {
            let _ = run.admitted.set(Instant::now());
            let drawn = run.draw(None);
            if run.settle(drawn) || run.failed() {
                continue;
            }
            for i in 0..run.views.len() {
                busy[r] += run.run_block(&chamber, i);
                run.settle(1);
            }
        }
        vec![busy]
    }

    /// Parallel path: `workers_used` workers, the caller among them.
    fn run_parallel<P>(&self, runs: &[Run<'_, P>], workers_used: usize) -> Vec<Vec<Duration>>
    where
        P: FnOnce(&mut BlockSink<'_>) + Send,
    {
        let mut local: Vec<Worker<Task>> = (0..workers_used).map(|_| Worker::new_fifo()).collect();
        let in_flight = workers_used.min(runs.len());
        let total: usize = runs.iter().map(|r| r.views.len()).sum();
        let shared = Dispatch {
            runs,
            draws: Injector::new(),
            injector: Injector::new(),
            stealers: local.iter().map(Worker::stealer).collect(),
            chunk: self.exec.chunk_for(total, workers_used),
            next: AtomicUsize::new(in_flight),
            unfinished: AtomicUsize::new(runs.len()),
            policy: &self.policy,
        };
        for r in 0..in_flight {
            shared.admit(r, Some(&local));
        }

        // The caller is worker 0 and draws the first plan itself; the
        // helpers start once for the batch, before that draw, so their
        // start-up hides under it.
        let own = local.remove(0);
        let first = shared.draws.steal().success();
        crossbeam::thread::scope(|scope| {
            let shared = &shared;
            let helpers: Vec<_> = local
                .into_iter()
                .enumerate()
                .map(|(k, queue)| scope.spawn(move |_| shared.work(k + 1, &queue)))
                .collect();
            if let Some(r) = first {
                shared.draw(r);
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
        .expect("chamber pool worker panicked")
    }
}

/// The only result of a one-run dispatch.
fn one(mut results: Vec<(Vec<ChamberReport>, PoolTrace)>) -> (Vec<ChamberReport>, PoolTrace) {
    results
        .pop()
        .expect("a dispatch returns one result per run")
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
    fn partitioned_block_runs_once_per_present_key() {
        // Column 1 is the key; key 3.0 is in the partition but not in
        // the block, key 9.0 in the block but not in the partition. The
        // program panics on key 2's rows: only that key's output falls
        // back.
        let partition = KeyPartition::new(vec![1], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(2, |b: &BlockView| {
            assert!(b.iter().all(|r| r[1] != 2.0), "hostile on key 2");
            vec![b.iter().map(|r| r[0]).sum::<f64>(), b.block_len() as f64]
        }));
        let block = view(&[
            vec![1.0, 4.0],
            vec![2.0, 1.0],
            vec![4.0, 9.0],
            vec![8.0, 4.0],
            vec![16.0, 2.0],
        ]);
        let chamber = Chamber::new(ChamberPolicy::unbounded().with_fallback(-1.0));
        let report = chamber.execute_partitioned(p, &partition, block, Some(5));
        assert_eq!(report.keys, vec![0, 1, 3]);
        assert_eq!(
            report.output,
            vec![0.0, 5.0, 2.0, 5.0, -1.0, -1.0, 9.0, 5.0]
        );
        assert_eq!(report.outcome, ChamberOutcome::Panicked);
    }

    #[test]
    fn partitioned_block_runs_within_one_budget() {
        // Every call stalls far past the budget: each is killed after its
        // share, so the block of four keys (five calls) ends near one
        // budget, not five, with every output the fallback.
        let partition = KeyPartition::new(vec![0], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            std::thread::sleep(Duration::from_secs(5));
            vec![9.0]
        }));
        let budget = Duration::from_millis(100);
        let chamber = Chamber::new(ChamberPolicy::bounded(budget, 0.5).without_padding());
        let block = view(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
        let report = chamber.execute_partitioned(p, &partition, block, None);
        assert_eq!(report.outcome, ChamberOutcome::TimedOut);
        assert_eq!(report.output, vec![0.5; 5]);
        assert!(report.elapsed < 2 * budget, "{:?}", report.elapsed);
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

    /// A planned run of `blocks` one-row blocks holding `base + i`,
    /// published last first.
    fn reversed_run(
        program: &Arc<dyn BlockProgram>,
        base: usize,
        blocks: usize,
    ) -> PlannedRun<'_, impl FnOnce(&mut BlockSink<'_>) + Send> {
        PlannedRun {
            program,
            partition: None,
            blocks,
            seed_base: Some(base as u64),
            plan: move |sink: &mut BlockSink<'_>| {
                for i in (0..blocks).rev() {
                    sink.publish(i, view(&[vec![(base + i) as f64]]));
                }
            },
        }
    }

    #[test]
    fn batch_reports_equal_separate_planned_runs() {
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
        let sizes = [5usize, 0, 17, 1, 9, 30, 2];
        let bits = |reports: &[ChamberReport]| -> Vec<u64> {
            reports.iter().map(|r| r.output[0].to_bits()).collect()
        };
        for threads in [1, 2, 8] {
            let pool = ChamberPool::with_execution(
                ChamberPolicy::unbounded(),
                ExecutionPolicy::parallel(threads).chunk(1),
            );
            let separate: Vec<Vec<u64>> = sizes
                .iter()
                .enumerate()
                .map(|(r, &blocks)| {
                    let run = reversed_run(&p, 100 * r, blocks);
                    bits(
                        &pool
                            .run_planned(run.program, run.blocks, run.seed_base, run.plan)
                            .0,
                    )
                })
                .collect();
            let runs = sizes
                .iter()
                .enumerate()
                .map(|(r, &blocks)| reversed_run(&p, 100 * r, blocks))
                .collect();
            let batch = pool.run_batch(runs);
            assert_eq!(batch.len(), sizes.len());
            for (r, (reports, trace)) in batch.iter().enumerate() {
                assert_eq!(bits(reports), separate[r], "{threads} threads, run {r}");
                assert!(trace.drawn <= trace.wall, "run {r}");
            }
        }
    }

    #[test]
    fn batch_planner_panic_propagates_after_the_other_runs_finish() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&ran);
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, move |b: &BlockView| {
            seen.lock().unwrap().push(b.row(0)[0] as usize);
            vec![1.0]
        }));
        for threads in [1, 2, 4] {
            ran.lock().unwrap().clear();
            let pool = ChamberPool::new(ChamberPolicy::unbounded(), threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                let runs = (0..6)
                    .map(|r| PlannedRun {
                        program: &p,
                        partition: None,
                        blocks: 4,
                        seed_base: None,
                        plan: move |sink: &mut BlockSink<'_>| {
                            for i in 0..4 {
                                if r == 1 && i == 2 {
                                    panic!("planner 1 failed");
                                }
                                sink.publish(i, view(&[vec![(10 * r + i) as f64]]));
                            }
                        },
                    })
                    .collect();
                pool.run_batch(runs)
            }));
            let message = result
                .err()
                .and_then(|e| e.downcast_ref::<&str>().map(|s| s.to_string()));
            assert_eq!(message.as_deref(), Some("planner 1 failed"));
            let mut ran = ran.lock().unwrap().clone();
            ran.sort_unstable();
            // Every block of the other five runs ran; of run 1, at most
            // the two blocks it published.
            let others: Vec<usize> = ran.iter().copied().filter(|v| v / 10 != 1).collect();
            let expected: Vec<usize> = (0..6)
                .filter(|&r| r != 1)
                .flat_map(|r| (0..4).map(move |i| 10 * r + i))
                .collect();
            assert_eq!(others, expected, "{threads} threads");
            assert!(ran.iter().filter(|v| *v / 10 == 1).all(|&v| v < 12));
        }
    }

    #[test]
    fn batch_keeps_at_most_a_pool_width_of_runs_in_flight() {
        // A run is in flight from the start of its draw to its last
        // report; the planners and programs track the count.
        let live = Arc::new(std::sync::atomic::AtomicIsize::new(0));
        let peak = Arc::new(std::sync::atomic::AtomicIsize::new(0));
        let left = Arc::new(Mutex::new(std::collections::HashMap::new()));
        let (live_p, left_p) = (Arc::clone(&live), Arc::clone(&left));
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, move |b: &BlockView| {
            let run = b.row(0)[0] as usize / 100;
            let mut left = left_p.lock().unwrap();
            let remaining = left.get_mut(&run).expect("drawn before it runs");
            *remaining -= 1;
            if *remaining == 0 {
                live_p.fetch_sub(1, Ordering::SeqCst);
            }
            vec![1.0]
        }));
        for threads in [2, 3] {
            peak.store(0, Ordering::SeqCst);
            let pool = ChamberPool::with_execution(
                ChamberPolicy::unbounded(),
                ExecutionPolicy::parallel(threads).chunk(1),
            );
            let runs = (0..24)
                .map(|r| {
                    let (live, peak, left) =
                        (Arc::clone(&live), Arc::clone(&peak), Arc::clone(&left));
                    PlannedRun {
                        program: &p,
                        partition: None,
                        blocks: 6,
                        seed_base: None,
                        plan: move |sink: &mut BlockSink<'_>| {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            left.lock().unwrap().insert(r, 6);
                            for i in 0..6 {
                                sink.publish(i, view(&[vec![(100 * r + i) as f64]]));
                                std::thread::yield_now();
                            }
                        },
                    }
                })
                .collect();
            let results = pool.run_batch(runs);
            assert_eq!(results.len(), 24);
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                (1..=threads as isize).contains(&peak),
                "{peak} runs in flight on {threads} workers"
            );
            assert_eq!(live.load(Ordering::SeqCst), 0);
        }
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
