//! Persistent worker pool for the EPF block solves.
//!
//! A solve dispatches thousands of small jobs (a 32-block chunk is
//! ≈ 160 µs of UFL work), so the pool is a fork-join sized for that:
//! `threads = N` keeps N − 1 long-lived workers and **the calling
//! thread executes part 0 itself**. A dispatch copies the index list
//! into one reused shared buffer, bumps an epoch, runs its own part,
//! and reads the other parts back out of pre-sized per-worker slots.
//! Every thread owns a [`BlockScratch`] (a reusable [`UflProblem`]
//! buffer plus [`UflScratch`]), so the dispatch machinery itself
//! allocates nothing in the steady state.
//!
//! **Handoff.** Both directions spin, then block: a worker polls the
//! epoch counter for [`SPIN_BUDGET`] iterations before it sleeps on the
//! `work` condvar, and the caller polls the open-parts counter the same
//! way before it sleeps on `done`. Back-to-back chunk dispatches
//! therefore meet a hot worker, while an oversubscribed box falls back
//! to plain blocking instead of burning a core. The budget is an
//! iteration count, not a duration: the solver reads no clock. All job
//! data travels under the board mutex, and both counters change only
//! under it; polling them lock-free only says "look now".
//!
//! **Determinism contract.** Part `k` is the `k`-th contiguous slice of
//! the request, its output lands in slot `k`, and slots are read back
//! *in part order*; the per-part work — `exec_job` — is the exact code
//! the inline single-threaded path runs. Whichever thread finishes
//! first, the caller observes the same outputs in the same order, built
//! from the same [`PenaltyArena`] snapshot; `threads = 1` and
//! `threads = N` are therefore byte-identical by construction (pinned
//! by the `determinism` integration test).
//!
//! **Panics.** A worker that unwinds flags the board on its way out
//! and wakes the caller, which re-raises; dropping the pool (also while
//! the caller itself unwinds) tells every worker to exit, so the
//! enclosing scope always joins.
//!
//! The penalty arena is shared through an `RwLock`: the main thread
//! write-locks between dispatches ([`WorkerPool::update_penalty`]),
//! every thread read-locks for the duration of its part. The lock is
//! never contended in the write path because the pool's callers only
//! update duals while no jobs are in flight.

use crate::block::{UflProblem, UflScratch, UflSolution};
use crate::epf::{block_delta, build_ufl_into};
use crate::instance::MipInstance;
use crate::kernel::Kernel;
use crate::penalty::{PenaltyArena, PenaltyUpdate};
use crate::potential::{Duals, RowLayout};
use crate::solution::BlockBuf;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Below this many items a dispatch runs inline on the calling thread.
/// Measured on the 2-core reference box (`mesh100` blocks, 3–5 µs of
/// UFL work per item): a handoff to a spinning worker costs ≈ 3 µs, so
/// under four items the split saves less than it costs. Dispatches that
/// small are only a pass's ragged last chunk, which always meets a hot
/// worker.
const PARALLEL_MIN: usize = 4;

/// Iterations either side of a handoff polls its counter before it
/// blocks. An iteration is one load plus `spin_loop` (≈ 11 ns on the
/// reference box, up to ≈ 50 ns where `PAUSE` is slow), so the budget
/// spans the ≈ 170 µs a worker idles while the caller applies a chunk's
/// steps serially — at 2¹² a worker is asleep again before the next
/// chunk and `mesh100-9k` loses 8 % — and still bounds what a thread
/// can burn per dispatch to a fraction of a scheduler slice.
const SPIN_BUDGET: u32 = 1 << 14;

/// Every this many iterations a spinner yields its core instead: free
/// when the box has a core per thread, and on an oversubscribed one
/// (tests run 8 threads on 2 cores) it hands the core to a thread with
/// a part to run rather than spinning in front of it.
const YIELD_EVERY: u32 = 128;

/// Fan `f` over `items` on up to `threads` scoped workers and return
/// the results **in item order** — the pool's determinism contract
/// generalized to arbitrary independent jobs (used by `vod-sim`'s
/// batch runner). Each result lands at its item's index, so
/// `threads = 1` and `threads = N` produce the same `Vec` whatever the
/// completion order; with `threads <= 1` (or a single item) the
/// closure runs inline on the caller.
///
/// Work is pulled from a shared atomic counter rather than pre-chunked
/// so a slow item (a big scenario) does not leave workers idle.
pub fn map_ordered<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let n = items.len();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, f(&items[i]))).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, r) = rx.recv().expect("map_ordered worker hung up"); // lint:allow(no-panic-hot-path): hangup implies a worker panic; re-raise it
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("map_ordered item missing")) // lint:allow(no-panic-hot-path): every index sent exactly once above
            .collect()
    })
}

/// What to do with each block index of a job.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobKind {
    /// Lagrangized UFL heuristic minimizer (the Frank-Wolfe direction),
    /// returned flat: the caller materialises the `hat` block the line
    /// search steps toward into its own reused buffer.
    Solve,
    /// Per-block lower bound: dual ascent, or (`exact: true`) the
    /// larger of it and the exact block LP, from one UFL build.
    DualBound { exact: bool },
    /// Polish sweep: valid bound + minimizer's resource usage — the
    /// heuristic minimizer's, or (`exact: true`) the block LP's.
    Polish { exact: bool },
    /// Panics on the given item: the panic-propagation test's job.
    #[cfg(test)]
    PanicOn(usize),
}

enum JobOutput {
    Solutions(Vec<UflSolution>),
    Bounds(Vec<f64>),
    Polish(PolishSweep),
}

/// One polish sweep over some blocks: the valid bound of each, in item
/// order, and the minimizers' coupling-row usage as one list — item
/// after item, rows ascending within an item — which is the order the
/// caller sums it in.
#[derive(Debug, Default)]
pub(crate) struct PolishSweep {
    pub(crate) bounds: Vec<f64>,
    pub(crate) usage: Vec<(usize, f64)>,
}

/// Per-thread reusable state: one UFL build buffer + solver scratch,
/// and a polish item's minimizer, the all-zero block its usage is
/// taken against, and that usage's row list.
#[derive(Default)]
struct BlockScratch {
    ufl: UflProblem,
    search: UflScratch,
    hat: BlockBuf,
    empty: BlockBuf,
    rows: Vec<(usize, f64)>,
}

/// The dispatch state every thread of the pool reads and writes under
/// one mutex. Holds are a few dozen instructions (publish, copy a
/// part's indices out, store an output), never a job.
struct Board {
    kind: JobKind,
    /// The current dispatch's item list (reused buffer).
    items: Vec<usize>,
    /// Items per part: part `k` is `items[k·per .. (k+1)·per]`, clipped.
    per: usize,
    /// Slot `k − 1` receives worker `k`'s output.
    slots: Vec<Option<JobOutput>>,
    /// Set when the pool is dropped: workers exit.
    shutdown: bool,
    /// Set by a worker that is unwinding: the caller re-raises.
    panicked: bool,
}

struct Shared {
    board: Mutex<Board>,
    /// Workers sleep here for a new epoch or shutdown.
    work: Condvar,
    /// The caller sleeps here for the last open part or a worker panic.
    done: Condvar,
    /// Dispatch counter; a worker runs its part once per new value.
    /// Written only under the board mutex, so a check-then-wait under
    /// the mutex cannot miss a bump; spinners poll it without the lock
    /// as a hint to go and look (the board's data is published by the
    /// mutex, not by this store).
    epoch: AtomicU64,
    /// Worker parts not yet delivered (the caller's part 0 excluded);
    /// same discipline as `epoch`.
    open: AtomicUsize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Board> {
        self.board.lock().expect("pool board lock poisoned") // lint:allow(no-panic-hot-path): poisoned lock implies a pool thread panicked mid-update; re-raise it
    }
}

/// Sleep on `cv`, releasing the board while asleep.
fn wait<'a>(cv: &Condvar, board: MutexGuard<'a, Board>) -> MutexGuard<'a, Board> {
    cv.wait(board).expect("pool board lock poisoned") // lint:allow(no-panic-hot-path): poisoned lock implies a pool thread panicked mid-update; re-raise it
}

/// Poll `ready` for up to [`SPIN_BUDGET`] iterations. Returning early
/// or late changes only who sleeps, never a result: every caller
/// re-checks its condition under the board mutex afterwards.
fn spin_until(ready: impl Fn() -> bool) {
    for i in 0..SPIN_BUDGET {
        if ready() {
            return;
        }
        if i % YIELD_EVERY == YIELD_EVERY - 1 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A pool of long-lived block-solver workers tied to one solve.
pub(crate) struct WorkerPool<'env> {
    inst: &'env MipInstance,
    layout: RowLayout,
    arena: &'env RwLock<PenaltyArena>,
    kernel: Kernel,
    shared: Arc<Shared>,
    /// Worker count (`threads − 1`); 0 runs every dispatch inline.
    workers: usize,
    /// The calling thread's scratch: part 0 and every inline dispatch.
    own: RefCell<BlockScratch>,
}

impl<'env> WorkerPool<'env> {
    /// A pool of `threads` compute threads: the caller plus
    /// `threads − 1` workers spawned on `scope` (none when
    /// `threads <= 1`; every dispatch then runs inline). Workers exit
    /// when the pool is dropped, which must happen before the scope
    /// ends.
    pub(crate) fn new<'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        threads: usize,
        inst: &'env MipInstance,
        layout: RowLayout,
        arena: &'env RwLock<PenaltyArena>,
        kernel: Kernel,
    ) -> Self {
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            board: Mutex::new(Board {
                kind: JobKind::Solve,
                items: Vec::new(),
                per: 1,
                slots: (0..workers).map(|_| None).collect(),
                shutdown: false,
                panicked: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            epoch: AtomicU64::new(0),
            open: AtomicUsize::new(0),
        });
        for part in 1..=workers {
            let shared = Arc::clone(&shared);
            scope.spawn(move || worker_loop(part, &shared, inst, layout, arena, kernel));
        }
        Self {
            inst,
            layout,
            arena,
            kernel,
            shared,
            workers,
            own: RefCell::new(BlockScratch::default()),
        }
    }

    /// Bring the shared penalty arena up to date with `duals` (between
    /// dispatches only; see the module-level lock discipline).
    pub(crate) fn update_penalty(&self, duals: &Duals) -> PenaltyUpdate {
        self.arena
            .write()
            .expect("penalty arena lock poisoned") // lint:allow(no-panic-hot-path): poisoned lock implies a worker panic; re-raise it
            .update(self.inst, &self.layout, duals, self.kernel)
    }

    /// Read access to the current penalty arena (callers must drop the
    /// guard before the next [`WorkerPool::update_penalty`]).
    pub(crate) fn penalty(&self) -> RwLockReadGuard<'_, PenaltyArena> {
        self.arena.read().expect("penalty arena lock poisoned") // lint:allow(no-panic-hot-path): poisoned lock implies a worker panic; re-raise it
    }

    /// Heuristic UFL minimizers for `items`, in item order.
    pub(crate) fn solve(&self, items: &[usize]) -> Vec<UflSolution> {
        let mut all = Vec::with_capacity(items.len());
        self.run(items, JobKind::Solve, |o| match o {
            JobOutput::Solutions(mut v) => all.append(&mut v),
            _ => unreachable!("Solve job returned a non-Solutions output"), // lint:allow(no-panic-hot-path): exec_job pairs Solve with Solutions
        });
        all
    }

    /// Per-block dual-ascent bounds for `items`, in item order.
    pub(crate) fn dual_bounds(&self, items: &[usize]) -> Vec<f64> {
        self.bounds(items, false)
    }

    /// `max(dual ascent, exact block LP)` per block of `items`, in item
    /// order — both valid block bounds, so the mix is one. A block LP
    /// costs tens of dual ascents (≈ 0.1 ms against a few µs on a
    /// 23-VHO network).
    pub(crate) fn exact_bounds(&self, items: &[usize]) -> Vec<f64> {
        self.bounds(items, true)
    }

    fn bounds(&self, items: &[usize], exact: bool) -> Vec<f64> {
        let mut all = Vec::with_capacity(items.len());
        self.run(items, JobKind::DualBound { exact }, |o| match o {
            JobOutput::Bounds(mut v) => all.append(&mut v),
            _ => unreachable!("DualBound job returned a non-Bounds output"), // lint:allow(no-panic-hot-path): exec_job pairs DualBound with Bounds
        });
        all
    }

    /// Polish sweep over `items`: valid bounds and minimizer usage.
    pub(crate) fn polish_sweep(&self, items: &[usize], exact: bool) -> PolishSweep {
        let mut all = PolishSweep::default();
        all.bounds.reserve(items.len());
        self.run(items, JobKind::Polish { exact }, |o| match o {
            JobOutput::Polish(mut part) => {
                all.bounds.append(&mut part.bounds);
                all.usage.append(&mut part.usage);
            }
            _ => unreachable!("Polish job returned a non-Polish output"), // lint:allow(no-panic-hot-path): exec_job pairs Polish with Polish
        });
        all
    }

    /// One part's job on the calling thread.
    fn exec_own(&self, kind: JobKind, items: &[usize]) -> JobOutput {
        let arena = self.penalty();
        let mut scratch = self.own.borrow_mut();
        exec_job(
            self.inst,
            &self.layout,
            &arena,
            self.kernel,
            kind,
            items,
            &mut scratch,
        )
    }

    /// Dispatch `items` (split into contiguous parts, one per thread,
    /// part 0 on the caller) and hand the part outputs to `sink` **in
    /// part order** — the determinism contract's reassembly step.
    fn run(&self, items: &[usize], kind: JobKind, mut sink: impl FnMut(JobOutput)) {
        if self.workers == 0 || items.len() < PARALLEL_MIN {
            sink(self.exec_own(kind, items));
            return;
        }
        let shared = &*self.shared;
        let per = items.len().div_ceil(self.workers + 1);
        let worker_parts = items.len().div_ceil(per) - 1;
        {
            let mut board = shared.lock();
            board.kind = kind;
            board.items.clear();
            board.items.extend_from_slice(items);
            board.per = per;
            shared.open.store(worker_parts, Ordering::Release);
            shared.epoch.fetch_add(1, Ordering::Release);
        }
        shared.work.notify_all();
        sink(self.exec_own(kind, &items[..per]));
        spin_until(|| shared.open.load(Ordering::Acquire) == 0);
        let mut board = shared.lock();
        while shared.open.load(Ordering::Acquire) > 0 && !board.panicked {
            board = wait(&shared.done, board);
        }
        assert!(!board.panicked, "solver worker panicked");
        for slot in &mut board.slots[..worker_parts] {
            sink(slot.take().expect("worker part missing")); // lint:allow(no-panic-hot-path): open == 0 means every dispatched part was delivered
        }
    }
}

impl Drop for WorkerPool<'_> {
    fn drop(&mut self) {
        // Also runs while the caller unwinds, so never panic here: a
        // poisoned board still takes the flag.
        let mut board = self
            .shared
            .board
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        board.shutdown = true;
        drop(board);
        self.shared.work.notify_all();
    }
}

/// Flags the board when its worker unwinds, so the caller stops
/// waiting for a part that will never arrive.
struct PanicFlag<'a>(&'a Shared);

impl Drop for PanicFlag<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut board = self.0.board.lock().unwrap_or_else(PoisonError::into_inner);
            board.panicked = true;
            drop(board);
            self.0.done.notify_one();
        }
    }
}

/// Worker `part` (1-based: the caller is part 0): run that part of
/// every dispatch until the pool shuts down.
fn worker_loop(
    part: usize,
    shared: &Shared,
    inst: &MipInstance,
    layout: RowLayout,
    arena: &RwLock<PenaltyArena>,
    kernel: Kernel,
) {
    let _flag = PanicFlag(shared);
    let mut scratch = BlockScratch::default();
    let mut items: Vec<usize> = Vec::new();
    let mut seen = 0u64;
    loop {
        spin_until(|| shared.epoch.load(Ordering::Acquire) != seen);
        let kind = {
            let mut board = shared.lock();
            while shared.epoch.load(Ordering::Acquire) == seen && !board.shutdown {
                board = wait(&shared.work, board);
            }
            if board.shutdown {
                return;
            }
            seen = shared.epoch.load(Ordering::Acquire);
            let n = board.items.len();
            let (lo, hi) = ((part * board.per).min(n), ((part + 1) * board.per).min(n));
            items.clear();
            items.extend_from_slice(&board.items[lo..hi]);
            board.kind
        };
        if items.is_empty() {
            continue; // fewer parts than threads this dispatch
        }
        let out = {
            let arena = arena.read().expect("penalty arena lock poisoned"); // lint:allow(no-panic-hot-path): poisoned lock implies a worker panic; re-raise it
            exec_job(inst, &layout, &arena, kernel, kind, &items, &mut scratch)
        };
        let mut board = shared.lock();
        board.slots[part - 1] = Some(out);
        if shared.open.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(board);
            shared.done.notify_one();
        }
    }
}

/// The single shared job body — run identically by workers and by the
/// inline path, which is what makes thread count invisible to results.
fn exec_job(
    inst: &MipInstance,
    layout: &RowLayout,
    arena: &PenaltyArena,
    kernel: Kernel,
    kind: JobKind,
    items: &[usize],
    scratch: &mut BlockScratch,
) -> JobOutput {
    match kind {
        JobKind::Solve => JobOutput::Solutions(
            items
                .iter()
                .map(|&m| {
                    build_ufl_into(
                        inst,
                        layout,
                        &inst.blocks()[m],
                        arena.duals(),
                        arena,
                        &mut scratch.ufl,
                        kernel,
                    );
                    scratch
                        .ufl
                        .solve_local_search_fast_with_kernel(&mut scratch.search, kernel)
                })
                .collect(),
        ),
        JobKind::DualBound { exact } => JobOutput::Bounds(
            items
                .iter()
                .map(|&m| {
                    build_ufl_into(
                        inst,
                        layout,
                        &inst.blocks()[m],
                        arena.duals(),
                        arena,
                        &mut scratch.ufl,
                        kernel,
                    );
                    let ascent = scratch
                        .ufl
                        .dual_ascent_bound_with_kernel(&mut scratch.search, kernel);
                    if exact {
                        // Guards the certificate against round-off in
                        // the LP value: both are valid block bounds.
                        ascent.max(crate::direct::exact_block_lp(&scratch.ufl))
                    } else {
                        ascent
                    }
                })
                .collect(),
        ),
        JobKind::Polish { exact } => {
            let mut usage = Vec::new();
            let bounds = items
                .iter()
                .map(|&m| {
                    let data = &inst.blocks()[m];
                    build_ufl_into(
                        inst,
                        layout,
                        data,
                        arena.duals(),
                        arena,
                        &mut scratch.ufl,
                        kernel,
                    );
                    let empty = scratch.empty.set_empty(data.clients.len());
                    // Exact mode wants the LP *minimizer's* usage, not
                    // the heuristic's: the pair (exact bound, exact
                    // argmin) is what makes the polish's certification
                    // direction a true subgradient of the Lagrangian
                    // dual. A block whose LP or map-back fails takes
                    // the heuristic pair.
                    let certified = if exact {
                        crate::direct::exact_block_lp_solution(&scratch.ufl)
                    } else {
                        None
                    };
                    let lb = if let Some((lb, hat)) = &certified {
                        block_delta(inst, layout, data, empty, hat, &mut scratch.rows);
                        *lb
                    } else {
                        // Both solvers run on this build: fuse their
                        // seeding passes (column sums + row minima).
                        scratch.ufl.precompute_lane_aux(kernel);
                        let lb = scratch
                            .ufl
                            .dual_ascent_bound_with_kernel(&mut scratch.search, kernel);
                        let sol = scratch
                            .ufl
                            .solve_local_search_fast_with_kernel(&mut scratch.search, kernel);
                        let hat = scratch.hat.set_from_ufl(&sol);
                        block_delta(inst, layout, data, empty, hat, &mut scratch.rows);
                        lb
                    };
                    usage.extend_from_slice(&scratch.rows);
                    lb
                })
                .collect();
            JobOutput::Polish(PolishSweep { bounds, usage })
        }
        #[cfg(test)]
        JobKind::PanicOn(bad) => {
            assert!(!items.contains(&bad), "planted job panic on item {bad}");
            JobOutput::Bounds(items.iter().map(|&m| m as f64).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epf::layout_of;
    use crate::epf::tests::small_instance;
    use crate::epf::EpfConfig;
    use crate::solver::solve_fractional;

    /// Run `body` against a pool of `threads` over `inst`, its arena
    /// priced at non-trivial duals so every block sees link penalties.
    fn with_pool<R>(
        inst: &MipInstance,
        threads: usize,
        body: impl FnOnce(&WorkerPool<'_>) -> R,
    ) -> R {
        let layout = layout_of(inst);
        let arena = RwLock::new(PenaltyArena::new(inst, &layout));
        let rows = (0..layout.n_rows())
            .map(|r| 0.25 + (r % 7) as f64 * 0.5)
            .collect();
        std::thread::scope(|scope| {
            let pool = WorkerPool::new(scope, threads, inst, layout, &arena, Kernel::default());
            pool.update_penalty(&Duals::new(rows, 1.0));
            body(&pool)
        })
    }

    type Sweep = (Vec<UflSolution>, Vec<u64>, Vec<u64>, Vec<(usize, u64)>);

    /// All three job kinds over `items`, floats as bits.
    fn sweep(pool: &WorkerPool<'_>, items: &[usize]) -> Sweep {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
        let polish = pool.polish_sweep(items, false);
        let usage = polish.usage.into_iter().map(|(r, u)| (r, u.to_bits()));
        (
            pool.solve(items),
            bits(pool.dual_bounds(items)),
            bits(polish.bounds),
            usage.collect(),
        )
    }

    /// Parts come back in part order whatever the thread count: item
    /// counts straddle the inline threshold and leave ragged (or
    /// missing) last parts, and the item order is not the block order.
    #[test]
    fn parts_reassemble_in_order_at_every_thread_count() {
        let inst = small_instance(61, 2.0, 1.0, 9);
        let counts = [
            1,
            PARALLEL_MIN - 1,
            PARALLEL_MIN,
            PARALLEL_MIN + 1,
            13,
            31,
            61,
        ];
        let items_of = |n: usize| (0..n).map(|k| (k * 23 + 5) % 61).collect::<Vec<usize>>();
        let want: Vec<Sweep> = with_pool(&inst, 1, |pool| {
            counts.iter().map(|&n| sweep(pool, &items_of(n))).collect()
        });
        for threads in [2usize, 3, 8] {
            with_pool(&inst, threads, |pool| {
                for (&n, want) in counts.iter().zip(&want) {
                    assert_eq!(&sweep(pool, &items_of(n)), want, "threads={threads} n={n}");
                }
            });
        }
    }

    /// Eight threads on a 60-video instance (more threads than cores
    /// on any CI box, parts of four blocks): the handoff must fall back
    /// to blocking and finish, bit for bit the single-thread solve.
    #[test]
    fn oversubscribed_solve_finishes_and_matches_one_thread() {
        let inst = small_instance(60, 2.0, 1.0, 6);
        let solve = |threads| {
            let cfg = EpfConfig {
                max_passes: 30,
                threads,
                seed: 6,
                ..Default::default()
            };
            solve_fractional(&inst, &cfg)
        };
        let (f1, s1) = solve(1);
        let (f8, s8) = solve(8);
        assert_eq!(s1.passes, s8.passes);
        assert_eq!(s1.block_steps, s8.block_steps);
        assert_eq!(s1.objective.to_bits(), s8.objective.to_bits());
        assert_eq!(s1.lower_bound.to_bits(), s8.lower_bound.to_bits());
        assert_eq!(f1.blocks, f8.blocks);
    }

    /// Item 31 of 32 is worker 1's at two threads: its panic must reach
    /// the caller as a panic (and the scope must still join), not leave
    /// the caller waiting on the part forever.
    #[test]
    #[should_panic(expected = "solver worker panicked")]
    fn worker_panic_reaches_the_caller() {
        let inst = small_instance(40, 2.0, 1.0, 9);
        let items: Vec<usize> = (0..32).collect();
        with_pool(&inst, 2, |pool| {
            pool.run(&items, JobKind::PanicOn(31), |_| {})
        });
    }

    /// The mirror case: the caller's own part 0 panics while workers
    /// run theirs; dropping the pool on unwind must release them.
    #[test]
    #[should_panic(expected = "planted job panic on item 0")]
    fn caller_panic_releases_the_workers() {
        let inst = small_instance(40, 2.0, 1.0, 9);
        let items: Vec<usize> = (0..32).collect();
        with_pool(&inst, 3, |pool| {
            pool.run(&items, JobKind::PanicOn(0), |_| {})
        });
    }
}
