//! Worker pools for parallel suite evaluation: a scoped one-shot sharder
//! ([`run_jobs`]) and a long-lived submission pool ([`WorkerPool`]).
//!
//! The paper's experiments (Figs. 4, 9 and 10) evaluate whole generated
//! suites of attack-defense trees, and those suites are embarrassingly
//! parallel: every instance is analyzed on its own private BDD manager, so
//! there is no shared mutable state between jobs at all. Two designs serve
//! that, both dependency-free (the build environment is offline):
//!
//! * [`WorkerPool`] — the long-lived engine pool: workers are spawned
//!   **once** and survive across suites, pulling type-erased tasks from an
//!   injector queue (a `Mutex<VecDeque>` + condvar — contention is one
//!   lock round per *job*, negligible next to per-job analysis time). Each
//!   worker owns an [`AnalysisEngine`], so with [`WorkerPool::submit`]ed
//!   batches the engine's GC-bounded manager and cross-query front cache
//!   persist from one suite to the next — the "warm" path of the
//!   `experiments` binary and the `bench_engine` harness.
//!   [`WorkerPool::reset_engines`] restores the cold baseline between
//!   batches without tearing down the threads.
//!
//! * [`run_jobs`] — the PR-3 one-shot sharder, kept as the stateless
//!   baseline: it shards one slice of jobs across `N` workers spawned with
//!   [`std::thread::scope`] and tears them down at the end. Workers pull
//!   job indices from one shared [`AtomicUsize`] cursor, so a straggler
//!   never holds idle workers hostage the way static chunking would.
//! * Results are **index-ordered, not arrival-ordered**: each outcome is
//!   stored in the slot of the job that produced it, so the caller observes
//!   exactly the sequential order regardless of which worker finished when.
//!   A differential test asserts parallel output equals sequential output
//!   front-for-front.
//! * `workers == 1` short-circuits to a plain in-place loop on the calling
//!   thread — byte-identical behavior to the pre-pool drivers, used by the
//!   `--jobs 1` path of the `experiments` binary.
//! * Every job's wall-clock and executing worker are captured in its
//!   [`JobOutput`] for callers that account per-job time (the `bench_pool`
//!   harness and the pool tests). The figure drivers' timing *columns*
//!   still come from `time_avg` calls inside their job closures — the
//!   pool measures around the closure, not inside it.
//!
//! [`evaluate_suite`] layers the ADT-specific part on top: it maps a
//! [`SuiteJob`] (instance + ordering configuration, from `adt-gen`) to a
//! [`BddBuReport`] by materializing the configured defense-first order and
//! running `BDDBU` — each worker owning its own manager.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use adt_analysis::{bdd_bu_report, AnalysisEngine, BddBuReport, DefenseFirstOrder};
use adt_core::semiring::{AttributeDomain, MinCost};
use adt_gen::{OrderingKind, SuiteJob};

/// The worker count [`run_jobs`] defaults to: the host's available
/// parallelism, or 1 when that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Clamps a requested `--jobs` value to something the pool can honor:
/// at least 1 (a request of 0 means "sequential", not "no work"), and at
/// most `job_count` (extra workers would only spawn, find the cursor
/// exhausted, and exit).
pub fn clamp_jobs(requested: usize, job_count: usize) -> usize {
    requested.max(1).min(job_count.max(1))
}

/// One job's outcome, with provenance.
#[derive(Debug, Clone)]
pub struct JobOutput<R> {
    /// Position of the job in the input slice (results are returned sorted
    /// by this, so it equals the output position too).
    pub index: usize,
    /// Which worker (0-based) executed the job. Always 0 on the sequential
    /// path.
    pub worker: usize,
    /// Wall-clock spent inside the job closure for this job alone.
    pub elapsed: Duration,
    /// Whatever the job closure returned.
    pub result: R,
}

/// Runs `f` over every job, on `workers` scoped threads pulling from a
/// shared atomic cursor, and returns the outcomes **in job order**.
///
/// `workers` is clamped with [`clamp_jobs`]; a clamped value of 1 runs the
/// jobs in a plain loop on the calling thread (no threads spawned), which
/// is the reproducibility baseline the parallel path is tested against.
///
/// The closure receives `(index, &job)` so workers can be fully stateless.
/// If a job panics, the panic propagates out of the scope and the whole
/// call aborts — suite evaluation has no partial-result semantics.
///
/// # Examples
///
/// ```
/// let jobs: Vec<u64> = (0..100).collect();
/// let outputs = adt_bench::run_jobs(&jobs, 4, |_, &n| n * n);
/// // Index-ordered, regardless of worker interleaving:
/// assert!(outputs.iter().enumerate().all(|(i, o)| o.index == i));
/// assert_eq!(outputs[7].result, 49);
/// ```
pub fn run_jobs<J, R, F>(jobs: &[J], workers: usize, f: F) -> Vec<JobOutput<R>>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let workers = clamp_jobs(workers, jobs.len());
    if workers == 1 {
        // Sequential fast path: same iteration order, same closure, no
        // synchronization — the `--jobs 1` reproducibility baseline.
        return jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                let start = Instant::now();
                let result = f(index, job);
                JobOutput {
                    index,
                    worker: 0,
                    elapsed: start.elapsed(),
                    result,
                }
            })
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    // One pre-sized slot per job. Workers hold the lock only to deposit a
    // finished result (an O(1) move), never while computing, so contention
    // is negligible next to per-job analysis time; `forbid(unsafe_code)`
    // rules out lock-free disjoint writes into the shared Vec.
    let slots: Mutex<Vec<Option<JobOutput<R>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let cursor = &cursor;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= jobs.len() {
                    break;
                }
                let start = Instant::now();
                let result = f(index, &jobs[index]);
                let output = JobOutput {
                    index,
                    worker,
                    elapsed: start.elapsed(),
                    result,
                };
                slots.lock().expect("no worker panicked holding the lock")[index] = Some(output);
            });
        }
    });
    slots
        .into_inner()
        .expect("scope joined every worker")
        .into_iter()
        .map(|slot| slot.expect("cursor covered every index"))
        .collect()
}

/// The reorder threshold suite evaluators arm when a job asks for
/// [`OrderingKind::Sift`] and the engine has none configured: diagrams
/// below this many live nodes keep their static order (a sift pass there
/// costs more than it can save), bigger ones trigger a sifting pass.
pub const DEFAULT_REORDER_THRESHOLD: usize = 256;

/// Materializes a job's [`OrderingKind`] into an actual
/// [`DefenseFirstOrder`] over the job's tree.
///
/// [`OrderingKind::Sift`] starts from the declaration order — the dynamic
/// part happens inside the evaluating engine (see
/// [`engine_suite_report`]), not in the order itself.
pub fn build_order(job: &SuiteJob) -> DefenseFirstOrder {
    let adt = job.instance.adt.adt();
    match job.ordering {
        OrderingKind::Declaration | OrderingKind::Sift => DefenseFirstOrder::declaration(adt),
        OrderingKind::Dfs => DefenseFirstOrder::dfs(adt),
        OrderingKind::Force { rounds } => DefenseFirstOrder::force(adt, rounds),
    }
}

/// The report type [`evaluate_suite`] produces per job (the generated
/// suites are min-cost/min-cost, per the paper's §VI-B setup).
pub type SuiteReport =
    BddBuReport<<MinCost as AttributeDomain>::Value, <MinCost as AttributeDomain>::Value>;

/// Evaluates a whole generated suite on `workers` threads: each job is
/// compiled under its configured defense-first order and pushed through
/// `BDDBU` on a worker-private BDD manager. Outputs are in suite order.
pub fn evaluate_suite(jobs: &[SuiteJob], workers: usize) -> Vec<JobOutput<SuiteReport>> {
    run_jobs(jobs, workers, |_, job| match job.ordering {
        // Sifting needs an engine lifecycle (protect → reorder →
        // propagate); a fresh job-private engine keeps the same isolation
        // as the plain manager path.
        OrderingKind::Sift => engine_suite_report(&mut SuiteEngine::new(), job),
        _ => bdd_bu_report(&job.instance.adt, &build_order(job)),
    })
}

// ---------------------------------------------------------------------------
// The long-lived engine pool
// ---------------------------------------------------------------------------

/// The engine type the pool's workers own (the generated suites are
/// min-cost/min-cost, per the paper's §VI-B setup).
pub type SuiteEngine = AnalysisEngine<MinCost, MinCost>;

/// The per-worker state a [`WorkerPool`] task receives: the worker's index
/// and its private, suite-surviving [`AnalysisEngine`].
pub struct EngineWorker {
    /// 0-based index of this worker (0 on the sequential path).
    pub worker: usize,
    /// The worker's private engine: GC-managed manager + cross-query
    /// front cache, alive until the pool is dropped (or
    /// [`WorkerPool::reset_engines`] runs).
    pub engine: SuiteEngine,
}

/// A type-erased unit of work for one worker.
type Task = Box<dyn FnOnce(&mut EngineWorker) + Send>;

/// A completion hook of a [`WorkerPool::try_submit`] task.
type OnDone = Box<dyn FnOnce() + Send>;

/// The injector queue shared between submitters and workers.
struct PoolShared {
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    /// Notified whenever a worker finishes a task and the pool might have
    /// gone idle — what [`WorkerPool::drain`] blocks on.
    idle: Condvar,
}

struct QueueState {
    /// Queued tasks, each with the completion hook (if any) the worker
    /// runs once it has stopped counting the task.
    tasks: VecDeque<(Task, Option<OnDone>)>,
    /// Tasks currently executing on a worker (popped but not finished).
    /// `tasks.len() + active` is the pool's pending count — the quantity
    /// [`WorkerPool::try_submit`]'s admission bound is checked against.
    active: usize,
    shutdown: bool,
}

/// Rejection of a [`WorkerPool::try_submit`] admission attempt: the pool's
/// pending count (queued + executing tasks) had reached the caller's
/// limit. Carries the observed count so servers can report queue depth in
/// their backpressure responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFull {
    /// Queued-plus-executing tasks at the moment of rejection.
    pub pending: usize,
}

impl std::fmt::Display for PoolFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool admission queue full ({} tasks pending)",
            self.pending
        )
    }
}

impl std::error::Error for PoolFull {}

/// Completion tracking of one submitted batch.
struct Batch<R> {
    /// One pre-sized slot per job, filled in arbitrary completion order,
    /// read out in index order.
    slots: Mutex<Vec<Option<JobOutput<R>>>>,
    /// Jobs not yet finished; the submitter blocks on `done` until 0.
    remaining: Mutex<usize>,
    done: Condvar,
    /// The payload of the first job that panicked, re-raised on the
    /// submitting thread (suite evaluation has no partial-result
    /// semantics).
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A long-lived worker pool: `N` threads spawned once, each owning an
/// [`AnalysisEngine`] that survives across submitted batches.
///
/// Submit work with [`WorkerPool::submit`]; workers pull tasks from a
/// shared injector queue, so a straggler never idles the rest. Results are
/// index-ordered like [`run_jobs`]'s. Dropping the pool shuts the workers
/// down and joins them.
///
/// # Examples
///
/// ```
/// use adt_bench::WorkerPool;
///
/// let pool = WorkerPool::new(4, adt_analysis::DEFAULT_GC_THRESHOLD);
/// let jobs: Vec<u64> = (0..100).collect();
/// // The same threads serve both batches; closures that consult
/// // `ctx.engine` (e.g. `evaluate_suite_warm`) additionally keep each
/// // worker's engine state — manager and front cache — across batches.
/// let squares = pool.submit(jobs.clone(), |_ctx, _, &n| n * n);
/// let cubes = pool.submit(jobs, |_ctx, _, &n| n * n * n);
/// assert_eq!(squares[7].result, 49);
/// assert_eq!(cubes[3].result, 27);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to at least 1), each owning an
    /// engine with the given GC threshold.
    pub fn new(workers: usize, gc_threshold: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, worker, gc_threshold))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Tasks queued or currently executing — the pool's pending count.
    ///
    /// This is the quantity the [`WorkerPool::try_submit`] admission bound
    /// is checked against; a server's queue-depth observability reads it
    /// between admissions too. The count is momentary: workers pop and
    /// finish tasks concurrently, so it can be stale by the time the
    /// caller acts on it (admission itself re-checks under the lock).
    pub fn pending_tasks(&self) -> usize {
        let queue = self.shared.queue.lock().expect("pool queue poisoned");
        queue.tasks.len() + queue.active
    }

    /// Non-blocking single-task admission with an explicit bound: enqueues
    /// `task` if the pending count (queued + executing) is below `limit`,
    /// else returns [`PoolFull`] without enqueuing anything. This is the
    /// serving front's path into the pool — the bound is the admission
    /// queue, and a rejection is what becomes a backpressure response.
    ///
    /// Unlike [`WorkerPool::submit`], nothing blocks and no results are
    /// collected: the task is *detached*. Deliver results through the
    /// closure itself (e.g. by writing to a shared sink). A detached task
    /// that panics is swallowed by the worker loop after the worker's
    /// engine is reset (a half-updated engine must not serve later tasks),
    /// so callers that need to observe failures must catch them inside the
    /// closure — there is no submitter to re-raise on.
    ///
    /// `on_done` runs on the worker after the task, once the pool has
    /// stopped counting it — whether or not the task panicked. Completion
    /// signalled from there is ordered after the pending count drops, so
    /// whoever observes it also observes a [`WorkerPool::pending_tasks`]
    /// that no longer includes the task.
    ///
    /// # Errors
    ///
    /// [`PoolFull`] when the pending count had reached `limit`; neither
    /// the task nor `on_done` runs (both are dropped with the `Err`).
    pub fn try_submit<F, D>(&self, limit: usize, task: F, on_done: D) -> Result<(), PoolFull>
    where
        F: FnOnce(&mut EngineWorker) + Send + 'static,
        D: FnOnce() + Send + 'static,
    {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        let pending = queue.tasks.len() + queue.active;
        if pending >= limit {
            return Err(PoolFull { pending });
        }
        queue
            .tasks
            .push_back((Box::new(task), Some(Box::new(on_done))));
        drop(queue);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Blocks until the pool has no queued and no executing tasks — the
    /// graceful-shutdown barrier of the serving front. Tasks submitted
    /// concurrently with the wait extend it; callers are expected to stop
    /// admitting first.
    pub fn drain(&self) {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        while !queue.tasks.is_empty() || queue.active > 0 {
            queue = self.shared.idle.wait(queue).expect("pool queue poisoned");
        }
    }

    /// Runs `f` over every job on the pool's workers and returns the
    /// outcomes **in job order** (same contract as [`run_jobs`]). Blocks
    /// until the whole batch is done.
    ///
    /// The closure receives the executing worker's [`EngineWorker`] state,
    /// the job index and the job; jobs of one batch may run on any worker,
    /// so closures must not assume engine affinity beyond "some persistent
    /// engine". If a job panics, the panic is re-raised here after the
    /// rest of the batch drains (the panicking worker's engine is reset —
    /// a half-updated engine must not serve later jobs).
    ///
    /// Accepts an owned `Vec` or an `Arc<Vec<_>>` — pass the `Arc` when
    /// the caller keeps the jobs for post-processing, so the suite is
    /// shared with the workers instead of deep-copied.
    pub fn submit<J, R, F>(&self, jobs: impl Into<Arc<Vec<J>>>, f: F) -> Vec<JobOutput<R>>
    where
        J: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&mut EngineWorker, usize, &J) -> R + Send + Sync + 'static,
    {
        let jobs: Arc<Vec<J>> = jobs.into();
        let count = jobs.len();
        if count == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let batch = Arc::new(Batch::<R> {
            slots: Mutex::new((0..count).map(|_| None).collect()),
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for index in 0..count {
                let jobs = Arc::clone(&jobs);
                let f = Arc::clone(&f);
                let batch = Arc::clone(&batch);
                let task: Task = Box::new(move |ctx: &mut EngineWorker| {
                    let start = Instant::now();
                    let outcome =
                        std::panic::catch_unwind(AssertUnwindSafe(|| f(ctx, index, &jobs[index])));
                    match outcome {
                        Ok(result) => {
                            let output = JobOutput {
                                index,
                                worker: ctx.worker,
                                elapsed: start.elapsed(),
                                result,
                            };
                            batch.slots.lock().expect("batch slots poisoned")[index] = Some(output);
                        }
                        Err(payload) => {
                            // The engine may be mid-mutation; never let it
                            // serve another job.
                            ctx.engine.reset();
                            let mut first = batch.panic.lock().expect("panic slot poisoned");
                            first.get_or_insert(payload);
                        }
                    }
                    let mut remaining = batch.remaining.lock().expect("batch count poisoned");
                    *remaining -= 1;
                    if *remaining == 0 {
                        batch.done.notify_all();
                    }
                });
                queue.tasks.push_back((task, None));
            }
            self.shared.work_ready.notify_all();
        }
        let mut remaining = batch.remaining.lock().expect("batch count poisoned");
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).expect("batch condvar poisoned");
        }
        drop(remaining);
        if let Some(payload) = batch.panic.lock().expect("panic slot poisoned").take() {
            std::panic::resume_unwind(payload);
        }
        let slots = std::mem::take(&mut *batch.slots.lock().expect("batch slots poisoned"));
        slots
            .into_iter()
            .map(|slot| slot.expect("every job deposited a result"))
            .collect()
    }

    /// Resets every worker's engine to the cold state (see
    /// [`AnalysisEngine::reset`]) without restarting threads — the
    /// per-suite baseline of the non-`--warm` experiment paths.
    /// Configuration (GC threshold, cache capacity, reorder threshold)
    /// survives the reset.
    pub fn reset_engines(&self) {
        self.for_each_engine(|engine| engine.reset());
    }

    /// Arms (or, with `usize::MAX`, disarms) dynamic variable reordering
    /// on every worker's engine (see
    /// [`AnalysisEngine::set_reorder_threshold`]) — the `--reorder-threshold`
    /// path of the `experiments` binary. The setting survives
    /// [`WorkerPool::reset_engines`].
    pub fn set_reorder_threshold(&self, nodes: usize) {
        self.for_each_engine(move |engine| engine.set_reorder_threshold(nodes));
    }

    /// Sets the *intra-query* kernel thread count on every worker's engine
    /// (see [`AnalysisEngine::set_kernel_threads`]) — the
    /// `--kernel-threads` path of the `experiments` binary. The setting
    /// survives [`WorkerPool::reset_engines`]. The two axes compose: up to
    /// `workers × kernel_threads` threads do BDD work during modular
    /// analyses when both are above one, so callers should keep the
    /// product near the core count.
    pub fn set_kernel_threads(&self, threads: usize) {
        self.for_each_engine(move |engine| engine.set_kernel_threads(threads));
    }

    /// Attaches the persistent store directory at `dir` to every worker's
    /// engine (see [`AnalysisEngine::open_store`]) — the `--store` path of
    /// the `experiments` binary. Each worker holds its own handle onto the
    /// *same* directory; the store's lock file serializes their appends
    /// and reads are lockless, so the workers share one on-disk cache. The
    /// attachment survives [`WorkerPool::reset_engines`] — that asymmetry
    /// (process state cold, disk tier warm) is what `--store` is for.
    ///
    /// # Errors
    ///
    /// The first worker's [`Store::open`](adt_store::Store::open) failure,
    /// if any; workers that failed are left without a store (their engines
    /// keep working purely in memory).
    pub fn open_store(&self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<()> {
        let dir = dir.into();
        let first_error: Arc<Mutex<Option<std::io::Error>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&first_error);
        self.for_each_engine(move |engine| {
            if let Err(error) = engine.open_store(dir.clone()) {
                sink.lock()
                    .expect("store-error slot poisoned")
                    .get_or_insert(error);
            }
        });
        // Every error write happened-before its task's completion, which
        // happened-before for_each_engine returned — the lock is enough.
        let error = first_error
            .lock()
            .expect("store-error slot poisoned")
            .take();
        match error {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// Runs `f` exactly once on every worker's engine.
    ///
    /// Implemented as a barrier batch: one task per worker, each blocking
    /// until all of them have started, which forces the queue to hand
    /// every worker exactly one task. Must not overlap concurrent
    /// [`WorkerPool::submit`] calls from other threads (a worker stuck on
    /// a foreign batch would starve the barrier); the experiment drivers
    /// submit from a single thread, where this cannot arise.
    fn for_each_engine(&self, f: impl Fn(&mut SuiteEngine) + Send + Sync + 'static) {
        let workers = self.workers();
        let barrier = Arc::new((Mutex::new(0usize), Condvar::new()));
        let indices: Vec<usize> = (0..workers).collect();
        self.submit(indices, move |ctx, _, _| {
            let (count, all_started) = &*barrier;
            let mut started = count.lock().expect("barrier poisoned");
            *started += 1;
            if *started == workers {
                all_started.notify_all();
            }
            while *started < workers {
                started = all_started.wait(started).expect("barrier poisoned");
            }
            drop(started);
            f(&mut ctx.engine);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            // A worker can only have panicked through a bug outside the
            // per-task catch; don't double-panic during drop.
            let _ = handle.join();
        }
    }
}

/// One worker thread: construct the private engine, then serve tasks until
/// shutdown. Tasks arrive type-erased; batch tasks handle panics inside
/// their closures (see [`WorkerPool::submit`]), and the loop's own
/// `catch_unwind` covers detached [`WorkerPool::try_submit`] tasks — a
/// panicking detached task resets the worker's engine and is otherwise
/// swallowed (there is no submitter to re-raise on), so the worker thread
/// itself never dies and the pool stays full-strength.
fn worker_loop(shared: &PoolShared, worker: usize, gc_threshold: usize) {
    let mut ctx = EngineWorker {
        worker,
        engine: SuiteEngine::with_gc_threshold(gc_threshold),
    };
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    queue.active += 1;
                    break Some(task);
                }
                if queue.shutdown {
                    break None;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        match task {
            Some((task, on_done)) => {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| task(&mut ctx)));
                if outcome.is_err() {
                    // A detached task unwound: the engine may be
                    // mid-mutation; never let it serve another task.
                    ctx.engine.reset();
                }
                let mut queue = shared.queue.lock().expect("pool queue poisoned");
                queue.active -= 1;
                let idle = queue.tasks.is_empty() && queue.active == 0;
                drop(queue);
                if idle {
                    shared.idle.notify_all();
                }
                if let Some(on_done) = on_done {
                    // The hook never sees the engine, so a panic in it
                    // leaves nothing half-updated; swallow it like a
                    // detached task's.
                    let _ = std::panic::catch_unwind(AssertUnwindSafe(on_done));
                }
            }
            None => return,
        }
    }
}

/// The sequential twin of [`WorkerPool::submit`]: runs every job in order
/// on the calling thread against one caller-owned [`EngineWorker`]. This
/// *is* the `--jobs 1` path of the `experiments` binary (warm when the
/// caller keeps the worker across suites), and the reproducibility
/// baseline the pool is pinned against.
pub fn run_engine_jobs<J, R, F>(worker: &mut EngineWorker, jobs: &[J], f: F) -> Vec<JobOutput<R>>
where
    F: Fn(&mut EngineWorker, usize, &J) -> R,
{
    jobs.iter()
        .enumerate()
        .map(|(index, job)| {
            let start = Instant::now();
            let result = f(worker, index, job);
            JobOutput {
                index,
                worker: worker.worker,
                elapsed: start.elapsed(),
                result,
            }
        })
        .collect()
}

/// The per-job body both warm suite paths share: evaluate one [`SuiteJob`]
/// on a persistent engine (order materialized per job, report served from
/// the engine's cross-query cache when the instance recurs).
///
/// A [`OrderingKind::Sift`] job arms the engine's reorder threshold
/// ([`DEFAULT_REORDER_THRESHOLD`]) for the duration of the job when the
/// caller left it unconfigured, so sift jobs are self-contained on any
/// engine; an explicitly configured threshold (e.g. `--reorder-threshold`)
/// is respected as-is.
pub fn engine_suite_report(engine: &mut SuiteEngine, job: &SuiteJob) -> SuiteReport {
    let arm =
        matches!(job.ordering, OrderingKind::Sift) && engine.reorder_threshold() == usize::MAX;
    if arm {
        engine.set_reorder_threshold(DEFAULT_REORDER_THRESHOLD);
    }
    let report = engine.bdd_bu_report(&job.instance.adt, &build_order(job));
    if arm {
        engine.set_reorder_threshold(usize::MAX);
    }
    report
}

/// Evaluates a suite on a long-lived pool (cf. [`evaluate_suite`], the
/// fresh-manager-per-job baseline). Outputs are in suite order.
pub fn evaluate_suite_warm(pool: &WorkerPool, jobs: Vec<SuiteJob>) -> Vec<JobOutput<SuiteReport>> {
    pool.submit(jobs, |ctx, _, job| {
        engine_suite_report(&mut ctx.engine, job)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_gen::{bucket_suite, paper_suite, suite_jobs, Shape};

    #[test]
    fn clamping() {
        // 0 → 1: "--jobs 0" means sequential, never zero workers.
        assert_eq!(clamp_jobs(0, 10), 1);
        // More workers than jobs → one worker per job.
        assert_eq!(clamp_jobs(64, 10), 10);
        // In range → unchanged.
        assert_eq!(clamp_jobs(3, 10), 3);
        // Empty suites still get one (immediately idle) worker.
        assert_eq!(clamp_jobs(4, 0), 1);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn results_are_index_ordered() {
        let jobs: Vec<usize> = (0..57).collect();
        for workers in [1, 2, 5, 64] {
            let outputs = run_jobs(&jobs, workers, |i, &j| {
                assert_eq!(i, j);
                j * 3
            });
            assert_eq!(outputs.len(), jobs.len());
            for (i, output) in outputs.iter().enumerate() {
                assert_eq!(output.index, i);
                assert_eq!(output.result, i * 3);
                assert!(output.worker < clamp_jobs(workers, jobs.len()));
            }
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let outputs = run_jobs(&[] as &[u8], 8, |_, _| unreachable!("no jobs"));
        assert!(outputs.is_empty());
    }

    #[test]
    fn parallel_suite_matches_sequential() {
        let jobs: Vec<SuiteJob> = suite_jobs(
            bucket_suite(2, 80, Shape::Dag, 77),
            OrderingKind::Declaration,
        )
        .collect();
        let sequential = evaluate_suite(&jobs, 1);
        let parallel = evaluate_suite(&jobs, 4);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.index, p.index);
            assert_eq!(s.result.front, p.result.front, "job {}", s.index);
            assert_eq!(s.result.bdd_nodes, p.result.bdd_nodes);
        }
    }

    fn fresh_worker() -> EngineWorker {
        EngineWorker {
            worker: 0,
            engine: SuiteEngine::new(),
        }
    }

    #[test]
    fn pool_submit_is_index_ordered_and_matches_the_sequential_loop() {
        let pool = WorkerPool::new(3, adt_analysis::DEFAULT_GC_THRESHOLD);
        let jobs: Vec<usize> = (0..41).collect();
        let pooled = pool.submit(jobs.clone(), |_, i, &j| {
            assert_eq!(i, j);
            j * 7
        });
        let sequential = run_engine_jobs(&mut fresh_worker(), &jobs, |_, i, &j| {
            assert_eq!(i, j);
            j * 7
        });
        assert_eq!(pooled.len(), sequential.len());
        for (p, s) in pooled.iter().zip(&sequential) {
            assert_eq!(p.index, s.index);
            assert_eq!(p.result, s.result);
            assert!(p.worker < 3);
        }
    }

    #[test]
    fn pool_engines_survive_across_batches() {
        // One worker so both batches hit the same engine deterministically.
        let pool = WorkerPool::new(1, adt_analysis::DEFAULT_GC_THRESHOLD);
        let jobs: Vec<SuiteJob> = suite_jobs(
            paper_suite(6, 40, Shape::Dag, 21),
            OrderingKind::Declaration,
        )
        .collect();
        let cold = evaluate_suite_warm(&pool, jobs.clone());
        // Same suite again: every report must come from the engine's
        // cross-query cache now.
        let warm = evaluate_suite_warm(&pool, jobs.clone());
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.result.front, w.result.front);
            assert_eq!(c.result.bdd_nodes, w.result.bdd_nodes);
        }
        let hits = pool
            .submit(vec![()], |ctx, _, ()| ctx.engine.stats())
            .remove(0)
            .result
            .cache_hits;
        assert_eq!(hits, jobs.len(), "second batch must be pure cache hits");
    }

    #[test]
    fn reset_engines_restores_the_cold_baseline() {
        let pool = WorkerPool::new(2, adt_analysis::DEFAULT_GC_THRESHOLD);
        let jobs: Vec<SuiteJob> = suite_jobs(
            paper_suite(4, 30, Shape::Tree, 5),
            OrderingKind::Declaration,
        )
        .collect();
        evaluate_suite_warm(&pool, jobs);
        pool.reset_engines();
        let stats = pool.submit(vec![(), ()], |ctx, _, ()| {
            (ctx.engine.stats(), ctx.engine.cached_fronts())
        });
        for s in stats {
            let (engine_stats, cached) = s.result;
            // Either worker may have answered either probe job, but every
            // engine was reset, so nothing may be cached anywhere.
            assert_eq!(cached, 0);
            assert!(engine_stats.lookups() <= 1, "only the probe itself ran");
        }
    }

    #[test]
    fn warm_pool_agrees_with_cold_baseline_front_for_front() {
        let jobs: Vec<SuiteJob> = suite_jobs(
            bucket_suite(2, 60, Shape::Dag, 99),
            OrderingKind::Declaration,
        )
        .collect();
        let baseline = evaluate_suite(&jobs, 1);
        let pool = WorkerPool::new(4, 1 << 12);
        for _round in 0..2 {
            let warm = evaluate_suite_warm(&pool, jobs.clone());
            assert_eq!(baseline.len(), warm.len());
            for (b, w) in baseline.iter().zip(&warm) {
                assert_eq!(b.index, w.index);
                assert_eq!(b.result.front, w.result.front, "job {}", b.index);
                assert_eq!(b.result.bdd_nodes, w.result.bdd_nodes);
            }
        }
    }

    #[test]
    fn pool_reorder_threshold_reaches_every_worker_and_survives_reset() {
        let pool = WorkerPool::new(3, adt_analysis::DEFAULT_GC_THRESHOLD);
        pool.set_reorder_threshold(99);
        pool.reset_engines();
        let probes = pool.submit(vec![(), (), ()], |ctx, _, ()| {
            ctx.engine.reorder_threshold()
        });
        for p in probes {
            assert_eq!(p.result, 99, "reset must not disarm reordering");
        }
    }

    #[test]
    fn pool_kernel_threads_reach_every_worker_and_survive_reset() {
        let pool = WorkerPool::new(2, adt_analysis::DEFAULT_GC_THRESHOLD);
        pool.set_kernel_threads(2);
        pool.reset_engines();
        let probes = pool.submit(vec![(), ()], |ctx, _, ()| ctx.engine.kernel_threads());
        for p in probes {
            assert_eq!(p.result, 2, "reset must not downshift the kernel");
        }
        // Fronts under a kernel-threaded pool match the sequential baseline.
        let jobs: Vec<SuiteJob> = suite_jobs(
            bucket_suite(2, 60, Shape::Dag, 44),
            OrderingKind::Declaration,
        )
        .collect();
        let baseline = evaluate_suite(&jobs, 1);
        let threaded = evaluate_suite_warm(&pool, jobs);
        for (b, t) in baseline.iter().zip(&threaded) {
            assert_eq!(b.result.front, t.result.front, "job {}", b.index);
            assert_eq!(b.result.bdd_nodes, t.result.bdd_nodes);
        }
    }

    #[test]
    fn sift_jobs_agree_with_declaration_fronts_cold_and_warm() {
        let instances = bucket_suite(2, 60, Shape::Dag, 31);
        let declaration: Vec<SuiteJob> =
            suite_jobs(instances.clone(), OrderingKind::Declaration).collect();
        let sift: Vec<SuiteJob> = suite_jobs(instances, OrderingKind::Sift).collect();
        let baseline = evaluate_suite(&declaration, 1);
        let cold = evaluate_suite(&sift, 2);
        let pool = WorkerPool::new(2, 1 << 12);
        let warm = evaluate_suite_warm(&pool, sift);
        assert_eq!(baseline.len(), cold.len());
        for ((b, c), w) in baseline.iter().zip(&cold).zip(&warm) {
            assert_eq!(b.result.front, c.result.front, "job {}", b.index);
            assert_eq!(b.result.front, w.result.front, "job {}", b.index);
        }
    }

    #[test]
    fn sift_jobs_leave_an_unarmed_engine_unarmed() {
        let job = suite_jobs(bucket_suite(1, 60, Shape::Dag, 32), OrderingKind::Sift)
            .next()
            .expect("one instance requested");
        let mut engine = SuiteEngine::new();
        engine_suite_report(&mut engine, &job);
        assert_eq!(engine.reorder_threshold(), usize::MAX);
        // An explicitly armed threshold is respected and kept.
        engine.set_reorder_threshold(7);
        engine_suite_report(&mut engine, &job);
        assert_eq!(engine.reorder_threshold(), 7);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = WorkerPool::new(2, adt_analysis::DEFAULT_GC_THRESHOLD);
        let outputs = pool.submit(Vec::<u8>::new(), |_, _, _| unreachable!("no jobs"));
        assert!(outputs.is_empty());
    }

    #[test]
    fn try_submit_respects_the_admission_bound() {
        let pool = WorkerPool::new(1, adt_analysis::DEFAULT_GC_THRESHOLD);
        // Gate the single worker so admitted tasks stay pending
        // deterministically while we probe the bound.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let release = {
            let gate = Arc::clone(&gate);
            move || {
                let (open, opened) = &*gate;
                *open.lock().unwrap() = true;
                opened.notify_all();
            }
        };
        let blocker = {
            let gate = Arc::clone(&gate);
            move |_: &mut EngineWorker| {
                let (open, opened) = &*gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = opened.wait(open).unwrap();
                }
            }
        };
        assert_eq!(pool.pending_tasks(), 0);
        pool.try_submit(2, blocker, || ())
            .expect("first admission fits");
        let done = Arc::new(AtomicUsize::new(0));
        let bump = {
            let done = Arc::clone(&done);
            move |_: &mut EngineWorker| {
                done.fetch_add(1, Ordering::SeqCst);
            }
        };
        pool.try_submit(2, bump.clone(), || ())
            .expect("second admission fits");
        // Pending is now 2 (one executing, one queued): the bound rejects.
        let rejected = pool.try_submit(2, bump.clone(), || ());
        assert_eq!(rejected, Err(PoolFull { pending: 2 }));
        assert_eq!(pool.pending_tasks(), 2);
        release();
        pool.drain();
        assert_eq!(pool.pending_tasks(), 0);
        assert_eq!(done.load(Ordering::SeqCst), 1, "rejected task never ran");
        // After the drain the bound admits again.
        pool.try_submit(2, bump, || ())
            .expect("post-drain admission");
        pool.drain();
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn on_done_runs_after_the_pool_stops_counting_the_task() {
        let pool = WorkerPool::new(1, adt_analysis::DEFAULT_GC_THRESHOLD);
        let (done, finished) = std::sync::mpsc::channel();
        for panics in [false, true] {
            let done = done.clone();
            pool.try_submit(
                usize::MAX,
                move |_| assert!(!panics, "detached task exploded"),
                move || done.send(()).expect("receiver alive"),
            )
            .expect("admission");
            finished.recv().expect("on_done ran");
            assert_eq!(pool.pending_tasks(), 0, "panicking task: {panics}");
        }
    }

    #[test]
    fn drain_on_an_idle_pool_returns_immediately() {
        let pool = WorkerPool::new(3, adt_analysis::DEFAULT_GC_THRESHOLD);
        pool.drain();
        assert_eq!(pool.pending_tasks(), 0);
    }

    #[test]
    fn detached_panic_resets_the_engine_and_keeps_the_worker() {
        let pool = WorkerPool::new(1, adt_analysis::DEFAULT_GC_THRESHOLD);
        // Warm the engine's cache, then panic a detached task: the reset
        // must wipe the cache and the worker must keep serving.
        let jobs: Vec<SuiteJob> = suite_jobs(
            paper_suite(2, 30, Shape::Tree, 8),
            OrderingKind::Declaration,
        )
        .collect();
        evaluate_suite_warm(&pool, jobs);
        pool.try_submit(usize::MAX, |_| panic!("detached task exploded"), || ())
            .expect("admission");
        pool.drain();
        let cached = pool
            .submit(vec![()], |ctx, _, ()| ctx.engine.cached_fronts())
            .remove(0)
            .result;
        assert_eq!(cached, 0, "the panicking task's engine must be reset");
    }

    #[test]
    fn pool_store_is_shared_warm_across_workers_and_resets() {
        let dir = adt_store::TestDir::new("pool-shared-store");
        let jobs: Vec<SuiteJob> = suite_jobs(
            paper_suite(6, 40, Shape::Dag, 21),
            OrderingKind::Declaration,
        )
        .collect();
        let baseline = evaluate_suite(&jobs, 1);

        // Populate the store through one pool, then tear the pool down —
        // simulating a finished process.
        {
            let pool = WorkerPool::new(2, adt_analysis::DEFAULT_GC_THRESHOLD);
            pool.open_store(dir.path()).expect("store opens");
            let cold = evaluate_suite_warm(&pool, jobs.clone());
            for (b, c) in baseline.iter().zip(&cold) {
                assert_eq!(b.result.front, c.result.front, "job {}", b.index);
            }
        }

        // A brand-new pool over the same directory starts warm: fronts
        // identical, and every memory miss answered on disk. One worker,
        // so the stats probe deterministically reads the engine that
        // served the jobs (probe tasks have no worker affinity).
        let pool = WorkerPool::new(1, adt_analysis::DEFAULT_GC_THRESHOLD);
        pool.open_store(dir.path()).expect("store reopens");
        let warm = evaluate_suite_warm(&pool, jobs.clone());
        for (b, w) in baseline.iter().zip(&warm) {
            assert_eq!(b.result.front, w.result.front, "job {}", b.index);
            assert_eq!(b.result.bdd_nodes, w.result.bdd_nodes);
        }
        let stats = pool
            .submit(vec![()], |ctx, _, ()| ctx.engine.stats())
            .remove(0)
            .result;
        assert_eq!(stats.store_hits, jobs.len(), "every job must store-hit");
        assert_eq!(stats.store_misses, 0);
        assert_eq!(stats.store_writes, 0, "nothing new to persist when warm");

        // reset_engines keeps the disk tier: the re-run is store-served
        // again, not recomputed from scratch.
        pool.reset_engines();
        let after_reset = evaluate_suite_warm(&pool, jobs.clone());
        for (b, a) in baseline.iter().zip(&after_reset) {
            assert_eq!(b.result.front, a.result.front, "job {}", b.index);
        }
        let post = pool
            .submit(vec![()], |ctx, _, ()| ctx.engine.stats())
            .remove(0)
            .result;
        assert_eq!(
            post.store_hits,
            jobs.len(),
            "reset engines must re-promote from the surviving store"
        );
    }

    #[test]
    fn job_panic_propagates_to_the_submitter() {
        let pool = WorkerPool::new(2, adt_analysis::DEFAULT_GC_THRESHOLD);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.submit(vec![0u32, 1, 2, 3], |_, _, &j| {
                assert!(j != 2, "job two exploded");
                j
            })
        }));
        assert!(result.is_err(), "the panic must reach the submitter");
        // The pool survives a panicked batch and keeps serving.
        let next = pool.submit(vec![10u32], |_, _, &j| j + 1);
        assert_eq!(next[0].result, 11);
    }
}
