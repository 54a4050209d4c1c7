//! Persistent worker pool for the EPF block solves.
//!
//! A solve dispatches thousands of small jobs (a 32-block chunk is
//! ≈ 160 µs of UFL work) and, once per pass, one library-wide bound
//! sweep. `threads = N` keeps N − 1 long-lived workers; the calling
//! thread is the N-th and works on every dispatch itself. Every thread
//! owns a [`BlockScratch`] (a reusable [`UflProblem`] buffer plus
//! [`UflScratch`]) and a [`Claims`] buffer, so neither a dispatch nor a
//! sweep allocates in the steady state beyond the outputs themselves.
//!
//! **Items are claimed one at a time.** A dispatch (`Solve`, `Polish`)
//! copies the index list into one reused shared buffer, resets a claim
//! counter and bumps an epoch. The caller and every worker that sees
//! the epoch while items are left take the next position from the
//! counter, run that item, and record `(position, output)` in their own
//! claims; the caller then reads every thread's claims back **in item
//! order**. A thread that draws cheap items simply draws more of them.
//!
//! **Bound sweeps run in the background.** [`WorkerPool::start_bounds`]
//! retargets a second penalty arena, the *bound arena*, at the duals to
//! price and publishes blocks `0..n`. A worker with no dispatch to run
//! claims bound items one at a time and checks the epoch between items,
//! so a chunk dispatch waits at most one item for it — the sweep fills
//! the time the caller spends applying steps serially.
//! [`WorkerPool::finish_bounds`] has the caller claim whatever is left,
//! waits for the items still in flight, and returns the per-block values
//! summed in block order. With no workers every item runs there, inline.
//!
//! **Handoff.** Both directions spin, then block: an idle worker polls
//! the epoch and the bound counter for [`SPIN_BUDGET`] iterations before
//! it sleeps on the `work` condvar, and the caller polls the joined
//! workers (or the delivered bound items) the same way before it sleeps
//! on `done`. Back-to-back chunk dispatches therefore meet a hot worker,
//! while an oversubscribed box falls back to plain blocking instead of
//! burning a core. The budget is an iteration count, not a duration:
//! the solver reads no clock. Dispatch data travels under the board
//! mutex; the counters that announce work change only under it, so a
//! check-then-wait under the mutex cannot miss one, and polling them
//! lock-free only says "look now".
//!
//! **Determinism contract.** An item's output is a function of the item
//! and the arena snapshot it reads — every item overwrites the scratch
//! it uses, and the per-item work (`exec_item`, `block_bound`) is the
//! same code on every thread. Outputs are read back by position and
//! bound values by block, whichever thread claimed them and in whatever
//! order; `threads = 1` and `threads = N` are therefore byte-identical
//! by construction (pinned by the `determinism` integration test).
//!
//! **Panics.** A worker that unwinds flags the board on its way out and
//! wakes the caller, which re-raises at its next wait — for a dispatch
//! or for a sweep; dropping the pool (also while the caller itself
//! unwinds) closes a sweep still in flight and tells every worker to
//! exit after the item it is on, so the enclosing scope always joins.
//!
//! **Locks.** The main arena is write-locked by the caller between
//! dispatches ([`WorkerPool::update_penalty`]) and read-locked by every
//! thread while it claims a dispatch's items. The bound arena is
//! write-locked by `start_bounds`, which only runs with no sweep in
//! flight, and read-locked per bound item. Neither write ever waits on
//! a reader.
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::block::{UflProblem, UflScratch, UflSolution};
use crate::epf::{block_delta, build_ufl_into, RowAcc};
use crate::instance::{MipInstance, VideoBlock};
use crate::kernel::Kernel;
use crate::penalty::{PenaltyArena, PenaltyUpdate};
use crate::potential::{Duals, RowLayout};
use crate::solution::BlockBuf;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Below this many items a dispatch runs inline on the calling thread.
/// Measured on the 2-core reference box (`mesh100` blocks, 3–5 µs of
/// UFL work per item): a handoff to a spinning worker costs ≈ 3 µs, so
/// under four items the split saves less than it costs. Dispatches that
/// small are only a pass's ragged last chunk.
const PARALLEL_MIN: usize = 4;

/// Iterations either side of a handoff polls its counter before it
/// blocks. An iteration is one load plus `spin_loop` (≈ 11 ns on the
/// reference box, up to ≈ 50 ns where `PAUSE` is slow), so the budget
/// spans ≈ 180 µs: longer than the ≈ 90 µs the caller spends applying a
/// chunk's steps serially on `mesh100-9k`, which a worker with no bound
/// item left to claim — all of phase 1, and the rest of a pass once its
/// sweep is done — spends waiting for the next chunk. At 2¹² that
/// worker would be asleep again before the chunk arrives. It still
/// bounds what a thread can burn per wait to a fraction of a scheduler
/// slice.
const SPIN_BUDGET: u32 = 1 << 14;

/// Every this many iterations a spinner yields its core instead: free
/// when the box has a core per thread, and on an oversubscribed one
/// (tests run 8 threads on 2 cores) it hands the core to a thread with
/// an item to run rather than spinning in front of it.
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
            #[expect(
                clippy::expect_used,
                reason = "a hangup implies a worker panic; re-raise it"
            )]
            let (i, r) = rx.recv().expect("map_ordered worker hung up");
            out[i] = Some(r);
        }
        out.into_iter()
            .map(
                #[expect(clippy::expect_used, reason = "every index is sent exactly once above")]
                |r| r.expect("map_ordered item missing"),
            )
            .collect()
    })
}

/// What a dispatch runs on each of its items.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobKind {
    /// Lagrangized UFL heuristic minimizer (the Frank-Wolfe direction),
    /// returned flat: the caller materialises the `hat` block the line
    /// search steps toward into its own reused buffer.
    Solve,
    /// Polish sweep: the exact block LP's bound + its minimizer's
    /// resource usage (the dual-ascent bound and the local-search
    /// minimizer's usage for a block whose LP fails).
    Polish,
    /// The panic-propagation tests' plants (see
    /// `WorkerPool::caller_claims`): a worker panics on every item it
    /// claims, and the caller claims none.
    #[cfg(test)]
    WorkerPanic,
    /// The caller panics once the dispatch is out, while the workers
    /// build its items.
    #[cfg(test)]
    CallerPanic,
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
/// taken against, and the accumulator of that usage's rows.
#[derive(Default)]
struct BlockScratch {
    ufl: UflProblem,
    search: UflScratch,
    hat: BlockBuf,
    empty: BlockBuf,
    rows: RowAcc,
}

/// One thread's share of a dispatch: every item it claimed, as its
/// position in the dispatch and its output, in claim order. Emptied by
/// the read-back and reused, never freed.
#[derive(Default)]
struct Claims {
    solutions: Vec<(usize, UflSolution)>,
    /// `Polish`: position, valid bound, and the end of the item's rows
    /// in `usage` (they start where the previous claim's rows end).
    polish: Vec<(usize, f64, usize)>,
    usage: Vec<(usize, f64)>,
}

impl Claims {
    fn clear(&mut self) {
        self.solutions.clear();
        self.polish.clear();
        self.usage.clear();
    }
}

/// The dispatch state every thread of the pool reads and writes under
/// one mutex. Holds are a few dozen instructions (publish, copy the
/// item list, deliver claims) or the caller's read-back, never a job.
struct Board {
    kind: JobKind,
    /// The current dispatch's item list (reused buffer).
    items: Vec<usize>,
    /// Thread `k`'s claims (the caller is thread 0) while the caller
    /// reads a dispatch back; worker `k` swaps its own in on delivery.
    slots: Vec<Claims>,
    /// Set when the pool is dropped: workers exit.
    shutdown: bool,
    /// Set by a worker that is unwinding: the caller re-raises.
    panicked: bool,
}

struct Shared {
    board: Mutex<Board>,
    /// Idle workers sleep here for a new epoch, a bound sweep or
    /// shutdown.
    work: Condvar,
    /// The caller sleeps here for the last joined worker, the last
    /// bound item or a worker panic.
    done: Condvar,
    /// Dispatch counter; a worker looks at each new value once.
    /// Written only under the board mutex, so a check-then-wait under
    /// the mutex cannot miss a bump; spinners poll it without the lock
    /// as a hint to go and look (the board's data is published by the
    /// mutex, not by this store).
    epoch: AtomicU64,
    /// The current dispatch's next unclaimed position. `Relaxed`: it
    /// only hands out positions; the dispatch it counts for is
    /// published (and the counter reset) under the board mutex.
    next: AtomicUsize,
    /// Workers that joined the current dispatch and have not delivered;
    /// changed only under the board mutex, which also carries the
    /// delivered claims.
    joined: AtomicUsize,
    /// The bound sweep's next unclaimed block, `n` or more when none is
    /// left. Reset to 0 with `Release` (under the board mutex) once the
    /// bound arena and `bound_exact` are in place; every claim is an
    /// `Acquire`, so the claimer sees them.
    bound_next: AtomicUsize,
    /// Bound items of the current sweep delivered so far: a `Release`
    /// increment after each value is stored, read with `Acquire` by the
    /// caller before it reads the values.
    bound_done: AtomicUsize,
    /// The current sweep's mode, published by the `bound_next` reset.
    bound_exact: AtomicBool,
    /// Block `m`'s bound from the current sweep, as bits, published by
    /// the `bound_done` increment.
    bound_values: Vec<AtomicU64>,
    /// A bound item that panics: the panic-propagation test's plant.
    #[cfg(test)]
    bound_panic_on: AtomicUsize,
}

impl Shared {
    #[expect(
        clippy::expect_used,
        reason = "a poisoned lock implies a pool thread panicked mid-update; re-raise it"
    )]
    fn lock(&self) -> MutexGuard<'_, Board> {
        self.board.lock().expect("pool board lock poisoned")
    }

    /// Whether the bound sweep has a block left to claim.
    fn bounds_open(&self) -> bool {
        self.bound_next.load(Ordering::Relaxed) < self.bound_values.len()
    }
}

/// Sleep on `cv`, releasing the board while asleep.
#[expect(
    clippy::expect_used,
    reason = "a poisoned lock implies a pool thread panicked mid-update; re-raise it"
)]
fn wait<'a>(cv: &Condvar, board: MutexGuard<'a, Board>) -> MutexGuard<'a, Board> {
    cv.wait(board).expect("pool board lock poisoned")
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

#[expect(
    clippy::expect_used,
    reason = "a poisoned lock implies a pool thread panicked mid-update; re-raise it"
)]
fn read(arena: &RwLock<PenaltyArena>) -> RwLockReadGuard<'_, PenaltyArena> {
    arena.read().expect("penalty arena lock poisoned")
}

/// What every thread of the pool reads: the instance, the two penalty
/// arenas and the kernel.
#[derive(Clone, Copy)]
struct Env<'env> {
    inst: &'env MipInstance,
    layout: RowLayout,
    arena: &'env RwLock<PenaltyArena>,
    bound_arena: &'env RwLock<PenaltyArena>,
    kernel: Kernel,
}

impl<'env> Env<'env> {
    /// Build block `m`'s UFL at `arena`'s snapshot into `scratch` — the
    /// start of every per-item body — and return the block's data.
    fn build(
        &self,
        arena: &PenaltyArena,
        m: usize,
        scratch: &mut BlockScratch,
    ) -> &'env VideoBlock {
        let data = &self.inst.blocks()[m];
        build_ufl_into(
            self.inst,
            &self.layout,
            data,
            arena.duals(),
            arena,
            &mut scratch.ufl,
            self.kernel,
        );
        data
    }

    /// Claim positions of `items` from `next` until none is left, and
    /// run each claimed item into `claims`.
    fn claim(
        &self,
        kind: JobKind,
        items: &[usize],
        next: &AtomicUsize,
        scratch: &mut BlockScratch,
        claims: &mut Claims,
    ) {
        let arena = read(self.arena);
        loop {
            let pos = next.fetch_add(1, Ordering::Relaxed);
            let Some(&m) = items.get(pos) else {
                return;
            };
            self.exec_item(&arena, kind, m, pos, scratch, claims);
        }
    }

    /// Claim and price one block of the bound sweep; `false` when no
    /// block is left to claim.
    fn bound_item(&self, shared: &Shared, scratch: &mut BlockScratch) -> bool {
        let n = shared.bound_values.len();
        // Acquire: whoever reset the counter published the arena and
        // the mode before it.
        let m = shared.bound_next.fetch_add(1, Ordering::Acquire);
        if m >= n {
            return false;
        }
        #[cfg(test)]
        assert!(
            m != shared.bound_panic_on.load(Ordering::Relaxed),
            "planted bound panic on block {m}"
        );
        let exact = shared.bound_exact.load(Ordering::Relaxed);
        let value = self.block_bound(&read(self.bound_arena), m, exact, scratch);
        shared.bound_values[m].store(value.to_bits(), Ordering::Relaxed);
        if shared.bound_done.fetch_add(1, Ordering::Release) + 1 == n {
            let _board = shared.lock();
            shared.done.notify_one();
        }
        true
    }

    /// Block `m`'s Lagrangian lower bound at `arena`'s snapshot, from
    /// one UFL build: dual ascent, or (`exact`) the larger of it and
    /// the exact block LP — both valid block bounds, so the mix is one.
    /// A block LP costs tens of dual ascents (≈ 0.1 ms against a few µs
    /// on a 23-VHO network).
    fn block_bound(
        &self,
        arena: &PenaltyArena,
        m: usize,
        exact: bool,
        scratch: &mut BlockScratch,
    ) -> f64 {
        self.build(arena, m, scratch);
        let ascent = scratch
            .ufl
            .dual_ascent_bound_with_kernel(&mut scratch.search, self.kernel);
        if exact {
            // Guards the certificate against round-off in the LP value:
            // both are valid block bounds.
            ascent.max(crate::direct::exact_block_lp(&scratch.ufl))
        } else {
            ascent
        }
    }

    /// The single per-item job body — run identically by every thread,
    /// which is what makes thread count invisible to results.
    fn exec_item(
        &self,
        arena: &PenaltyArena,
        kind: JobKind,
        m: usize,
        pos: usize,
        scratch: &mut BlockScratch,
        claims: &mut Claims,
    ) {
        let (inst, layout, kernel) = (self.inst, &self.layout, self.kernel);
        let data = self.build(arena, m, scratch);
        match kind {
            JobKind::Solve => {
                let sol = scratch
                    .ufl
                    .solve_local_search_fast_with_kernel(&mut scratch.search, kernel);
                claims.solutions.push((pos, sol));
            }
            JobKind::Polish => {
                let empty = scratch.empty.set_empty(data.clients.len());
                // The LP *minimizer's* usage, not the heuristic's: the
                // pair (exact bound, exact argmin) is what makes the
                // polish's direction a true subgradient of the
                // Lagrangian dual. A block whose LP or map-back fails
                // takes the heuristic pair.
                let certified = crate::direct::exact_block_lp_solution(&scratch.ufl);
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
                claims.usage.extend_from_slice(scratch.rows.rows());
                claims.polish.push((pos, lb, claims.usage.len()));
            }
            #[cfg(test)]
            JobKind::WorkerPanic => panic!("planted worker panic on item {m}"),
            #[cfg(test)]
            JobKind::CallerPanic => {}
        }
    }
}

/// A pool of long-lived block-solver workers tied to one solve.
pub(crate) struct WorkerPool<'env> {
    env: Env<'env>,
    shared: Arc<Shared>,
    /// Worker count (`threads − 1`); 0 runs every item on the caller.
    workers: usize,
    /// The calling thread's scratch and claims.
    own: RefCell<(BlockScratch, Claims)>,
}

impl<'env> WorkerPool<'env> {
    /// A pool of `threads` compute threads: the caller plus
    /// `threads − 1` workers spawned on `scope` (none when
    /// `threads <= 1`; everything then runs inline). `arena` prices the
    /// dispatches, `bound_arena` the bound sweeps; both are the
    /// caller's to keep for the whole solve. Workers exit when the pool
    /// is dropped, which must happen before the scope ends.
    pub(crate) fn new<'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        threads: usize,
        inst: &'env MipInstance,
        layout: RowLayout,
        arena: &'env RwLock<PenaltyArena>,
        bound_arena: &'env RwLock<PenaltyArena>,
        kernel: Kernel,
    ) -> Self {
        let workers = threads.saturating_sub(1);
        let n = inst.n_videos();
        let shared = Arc::new(Shared {
            board: Mutex::new(Board {
                kind: JobKind::Solve,
                items: Vec::new(),
                slots: (0..=workers).map(|_| Claims::default()).collect(),
                shutdown: false,
                panicked: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            epoch: AtomicU64::new(0),
            next: AtomicUsize::new(0),
            joined: AtomicUsize::new(0),
            bound_next: AtomicUsize::new(n),
            bound_done: AtomicUsize::new(n),
            bound_exact: AtomicBool::new(false),
            bound_values: (0..n).map(|_| AtomicU64::new(0)).collect(),
            #[cfg(test)]
            bound_panic_on: AtomicUsize::new(usize::MAX),
        });
        let env = Env {
            inst,
            layout,
            arena,
            bound_arena,
            kernel,
        };
        for k in 1..=workers {
            let shared = Arc::clone(&shared);
            scope.spawn(move || worker_loop(k, &shared, env));
        }
        Self {
            env,
            shared,
            workers,
            own: RefCell::default(),
        }
    }

    /// Bring the dispatch arena up to date with `duals` (between
    /// dispatches only; see the module-level lock discipline).
    #[expect(
        clippy::expect_used,
        reason = "a poisoned lock implies a pool thread panicked mid-update; re-raise it"
    )]
    pub(crate) fn update_penalty(&self, duals: &Duals) -> PenaltyUpdate {
        let Env {
            inst,
            layout,
            kernel,
            ..
        } = self.env;
        self.env
            .arena
            .write()
            .expect("penalty arena lock poisoned")
            .update(inst, &layout, duals, kernel)
    }

    /// Read access to the current dispatch arena (callers must drop the
    /// guard before the next [`WorkerPool::update_penalty`]).
    pub(crate) fn penalty(&self) -> RwLockReadGuard<'_, PenaltyArena> {
        read(self.env.arena)
    }

    /// Approximate heap bytes of the two arenas and the bound sweep's
    /// per-block values (reported through `EpfStats::approx_bytes`).
    pub(crate) fn arena_bytes(&self) -> usize {
        read(self.env.arena).approx_bytes()
            + read(self.env.bound_arena).approx_bytes()
            + self.shared.bound_values.len() * std::mem::size_of::<AtomicU64>()
    }

    /// Heuristic UFL minimizers for `items`, in item order.
    pub(crate) fn solve(&self, items: &[usize]) -> Vec<UflSolution> {
        self.run(items, JobKind::Solve, |slots| {
            let mut all = Vec::with_capacity(items.len());
            for claims in slots {
                all.append(&mut claims.solutions);
            }
            all.sort_unstable_by_key(|&(pos, _)| pos);
            all.into_iter().map(|(_, sol)| sol).collect()
        })
    }

    /// Polish sweep over `items`: exact block bounds and their
    /// minimizers' usage.
    pub(crate) fn polish_sweep(&self, items: &[usize]) -> PolishSweep {
        self.run(items, JobKind::Polish, |slots| {
            let mut sweep = PolishSweep {
                bounds: vec![0.0; items.len()],
                usage: Vec::with_capacity(slots.iter().map(|c| c.usage.len()).sum()),
            };
            // Where each position's rows sit: (thread, start, end).
            let mut spans = vec![(0, 0, 0); items.len()];
            for (k, claims) in slots.iter().enumerate() {
                let mut start = 0;
                for &(pos, lb, end) in &claims.polish {
                    sweep.bounds[pos] = lb;
                    spans[pos] = (k, start, end);
                    start = end;
                }
            }
            for (k, start, end) in spans {
                sweep.usage.extend_from_slice(&slots[k].usage[start..end]);
            }
            sweep
        })
    }

    /// Run `kind` on every item of `items` — each claimed by the caller
    /// or by a worker that joined — and hand every thread's claims to
    /// `read_back`, which reassembles them **in item order**: the
    /// determinism contract's read-back step. The claims are emptied
    /// afterwards, whatever `read_back` left in them.
    fn run<R>(
        &self,
        items: &[usize],
        kind: JobKind,
        read_back: impl FnOnce(&mut [Claims]) -> R,
    ) -> R {
        let mut own = self.own.borrow_mut();
        let (scratch, claims) = &mut *own;
        let shared = &*self.shared;
        if self.workers == 0 || items.len() < PARALLEL_MIN {
            self.env
                .claim(kind, items, &AtomicUsize::new(0), scratch, claims);
            let out = read_back(std::slice::from_mut(claims));
            claims.clear();
            return out;
        }
        {
            let mut board = shared.lock();
            board.kind = kind;
            board.items.clear();
            board.items.extend_from_slice(items);
            shared.next.store(0, Ordering::Relaxed);
            shared.epoch.fetch_add(1, Ordering::Release);
        }
        shared.work.notify_all();
        if self.caller_claims(kind) {
            self.env.claim(kind, items, &shared.next, scratch, claims);
        }
        spin_until(|| shared.joined.load(Ordering::Acquire) == 0);
        let mut board = shared.lock();
        while shared.joined.load(Ordering::Acquire) > 0 && !board.panicked {
            board = wait(&shared.done, board);
        }
        assert!(!board.panicked, "solver worker panicked");
        std::mem::swap(&mut board.slots[0], claims);
        let out = read_back(&mut board.slots);
        board.slots.iter_mut().for_each(Claims::clear);
        std::mem::swap(&mut board.slots[0], claims);
        out
    }

    /// Whether the caller claims items of the dispatch it just
    /// published: always, but for the panic-propagation tests' plants.
    /// On `CallerPanic` it panics instead; on `WorkerPanic` it waits
    /// for a worker to panic, so that `run`'s wait for the joined
    /// workers has to end on the panic flag.
    fn caller_claims(&self, kind: JobKind) -> bool {
        match kind {
            JobKind::Solve | JobKind::Polish => true,
            #[cfg(test)]
            JobKind::CallerPanic => panic!("planted caller panic"),
            #[cfg(test)]
            JobKind::WorkerPanic => {
                let mut board = self.shared.lock();
                while !board.panicked {
                    board = wait(&self.shared.done, board);
                }
                false
            }
        }
    }

    /// Start pricing every block's Lagrangian lower bound at `duals`:
    /// retarget the bound arena at them and publish blocks `0..n` to
    /// the workers. Each block's bound is dual ascent or, with `exact`,
    /// the larger of it and the exact block LP. The sweep runs while
    /// the caller does other work; [`WorkerPool::finish_bounds`] ends
    /// it, and must come before the next start.
    pub(crate) fn start_bounds(&self, duals: &Duals, exact: bool) {
        let Env {
            inst,
            layout,
            kernel,
            ..
        } = self.env;
        let shared = &*self.shared;
        assert!(
            shared.bound_done.load(Ordering::Acquire) == shared.bound_values.len(),
            "a bound sweep is still in flight"
        );
        #[expect(
            clippy::expect_used,
            reason = "a poisoned lock implies a pool thread panicked mid-update; re-raise it"
        )]
        self.env
            .bound_arena
            .write()
            .expect("penalty arena lock poisoned")
            .update(inst, &layout, duals, kernel);
        shared.bound_exact.store(exact, Ordering::Relaxed);
        shared.bound_done.store(0, Ordering::Relaxed);
        {
            let _board = shared.lock();
            shared.bound_next.store(0, Ordering::Release);
        }
        shared.work.notify_all();
    }

    /// End the sweep [`WorkerPool::start_bounds`] began: the caller
    /// claims whatever is left, then waits — spinning first, then
    /// blocking — for the items still in flight. Returns the per-block
    /// bounds summed in block order, and re-raises a worker's panic.
    pub(crate) fn finish_bounds(&self) -> f64 {
        let shared = &*self.shared;
        let n = shared.bound_values.len();
        {
            let mut own = self.own.borrow_mut();
            while self.env.bound_item(shared, &mut own.0) {}
        }
        spin_until(|| shared.bound_done.load(Ordering::Acquire) == n);
        let mut board = shared.lock();
        while shared.bound_done.load(Ordering::Acquire) < n && !board.panicked {
            board = wait(&shared.done, board);
        }
        assert!(!board.panicked, "solver worker panicked");
        drop(board);
        shared
            .bound_values
            .iter()
            .map(|v| f64::from_bits(v.load(Ordering::Relaxed)))
            .sum()
    }

    /// The last finished sweep's bound of every block, in block order.
    #[cfg(test)]
    fn bound_values(&self) -> Vec<f64> {
        let values = &self.shared.bound_values;
        values
            .iter()
            .map(|v| f64::from_bits(v.load(Ordering::Relaxed)))
            .collect()
    }
}

impl Drop for WorkerPool<'_> {
    fn drop(&mut self) {
        // Also runs while the caller unwinds, so never panic here: a
        // poisoned board still takes the flag.
        let shared = &*self.shared;
        let mut board = shared.board.lock().unwrap_or_else(PoisonError::into_inner);
        board.shutdown = true;
        // A sweep still in flight (the caller is unwinding) is never
        // read: close it, so a worker stops after the item it is on.
        shared
            .bound_next
            .store(shared.bound_values.len(), Ordering::Relaxed);
        drop(board);
        self.shared.work.notify_all();
    }
}

/// Flags the board when its worker unwinds, so the caller stops
/// waiting for claims or bound items that will never arrive.
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

/// Worker `k` (1-based: the caller is thread 0): join every dispatch
/// that still has items left when it looks, claim bound items while
/// there is no dispatch to run, and sleep when there is neither, until
/// the pool shuts down.
fn worker_loop(k: usize, shared: &Shared, env: Env<'_>) {
    let _flag = PanicFlag(shared);
    let mut scratch = BlockScratch::default();
    let mut claims = Claims::default();
    let mut items: Vec<usize> = Vec::new();
    let mut seen = 0u64;
    loop {
        spin_until(|| shared.epoch.load(Ordering::Acquire) != seen || shared.bounds_open());
        let kind = {
            let mut board = shared.lock();
            while shared.epoch.load(Ordering::Acquire) == seen
                && !shared.bounds_open()
                && !board.shutdown
            {
                board = wait(&shared.work, board);
            }
            if board.shutdown {
                return;
            }
            let epoch = shared.epoch.load(Ordering::Acquire);
            // Join only while items are left: the caller waits for
            // every worker that joined, and for no other.
            let join = epoch != seen && shared.next.load(Ordering::Relaxed) < board.items.len();
            seen = epoch;
            if join {
                shared.joined.fetch_add(1, Ordering::Relaxed);
                items.clear();
                items.extend_from_slice(&board.items);
                Some(board.kind)
            } else {
                None
            }
        };
        if let Some(kind) = kind {
            env.claim(kind, &items, &shared.next, &mut scratch, &mut claims);
            let mut board = shared.lock();
            std::mem::swap(&mut board.slots[k], &mut claims);
            if shared.joined.fetch_sub(1, Ordering::AcqRel) == 1 {
                drop(board);
                shared.done.notify_one();
            }
        } else {
            while shared.epoch.load(Ordering::Acquire) == seen
                && env.bound_item(shared, &mut scratch)
            {}
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Dispatch duals: non-trivial, so every block sees link penalties.
    fn dispatch_duals(layout: &RowLayout) -> Duals {
        let rows = (0..layout.n_rows())
            .map(|r| 0.25 + (r % 7) as f64 * 0.5)
            .collect();
        Duals::new(rows, 1.0)
    }

    /// Bound duals, unlike the dispatch ones, so a sweep priced on the
    /// wrong arena shows.
    fn bound_duals(layout: &RowLayout) -> Duals {
        let rows = (0..layout.n_rows())
            .map(|r| 0.1 + (r % 5) as f64 * 0.3)
            .collect();
        Duals::new(rows, 1.0)
    }

    /// Run `body` against a pool of `threads` over `inst`, its dispatch
    /// arena priced at [`dispatch_duals`].
    fn with_pool<R>(
        inst: &MipInstance,
        threads: usize,
        body: impl FnOnce(&WorkerPool<'_>) -> R,
    ) -> R {
        let layout = layout_of(inst);
        let arena = RwLock::new(PenaltyArena::new(inst, &layout));
        let bound_arena = RwLock::new(PenaltyArena::new(inst, &layout));
        std::thread::scope(|scope| {
            let pool = WorkerPool::new(
                scope,
                threads,
                inst,
                layout,
                &arena,
                &bound_arena,
                Kernel::default(),
            );
            pool.update_penalty(&dispatch_duals(&layout));
            body(&pool)
        })
    }

    type Sweep = (Vec<UflSolution>, Vec<u64>, Vec<(usize, u64)>);

    /// Both dispatch kinds over `items`, floats as bits.
    fn sweep(pool: &WorkerPool<'_>, items: &[usize]) -> Sweep {
        let polish = pool.polish_sweep(items);
        let bounds = polish.bounds.into_iter().map(f64::to_bits);
        let usage = polish.usage.into_iter().map(|(r, u)| (r, u.to_bits()));
        (pool.solve(items), bounds.collect(), usage.collect())
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

    /// Every block's bound priced on its own, in block order: the
    /// reference a sweep must match bit for bit.
    fn reference_bounds(inst: &MipInstance, duals: &Duals, exact: bool) -> Vec<u64> {
        let layout = layout_of(inst);
        let kernel = Kernel::default();
        let arena = PenaltyArena::for_duals(inst, &layout, duals, kernel);
        let mut ufl = UflProblem::default();
        let mut search = UflScratch::default();
        inst.blocks()
            .iter()
            .map(|data| {
                build_ufl_into(inst, &layout, data, duals, &arena, &mut ufl, kernel);
                let ascent = ufl.dual_ascent_bound_with_kernel(&mut search, kernel);
                let bound = if exact {
                    ascent.max(crate::direct::exact_block_lp(&ufl))
                } else {
                    ascent
                };
                bound.to_bits()
            })
            .collect()
    }

    /// A bound sweep returns every block's bound — dual ascent, or its
    /// max with the exact block LP — and their block-order sum, at every
    /// thread count: finished back to back, and finished after `Solve`
    /// and `Polish` dispatches ran while it was in flight (which must
    /// not move a bit of theirs either).
    #[test]
    fn bound_sweeps_match_the_per_block_reference_at_every_thread_count() {
        let inst = small_instance(61, 2.0, 1.0, 9);
        let duals = bound_duals(&layout_of(&inst));
        let items: Vec<usize> = (0..61).map(|k| (k * 23 + 5) % 61).collect();
        let chunks = [&items[..31], &items[31..], &items[..3]];
        let plain: Vec<Sweep> = with_pool(&inst, 1, |pool| {
            chunks.iter().map(|chunk| sweep(pool, chunk)).collect()
        });
        for exact in [false, true] {
            let want = reference_bounds(&inst, &duals, exact);
            let want_sum: f64 = want.iter().map(|&b| f64::from_bits(b)).sum();
            for threads in [1usize, 2, 3, 8] {
                let what = format!("threads={threads} exact={exact}");
                with_pool(&inst, threads, |pool| {
                    let check = |sum: f64, how: &str| {
                        let got: Vec<u64> =
                            pool.bound_values().into_iter().map(f64::to_bits).collect();
                        assert_eq!(got, want, "{what}, {how}");
                        assert_eq!(sum.to_bits(), want_sum.to_bits(), "{what}, {how}");
                    };
                    pool.start_bounds(&duals, exact);
                    check(pool.finish_bounds(), "back to back");
                    pool.start_bounds(&duals, exact);
                    for (chunk, plain) in chunks.iter().zip(&plain) {
                        assert_eq!(&sweep(pool, chunk), plain, "{what}, dispatch");
                    }
                    check(pool.finish_bounds(), "interleaved");
                });
            }
        }
    }

    /// Eight threads on a 60-video instance (more threads than cores
    /// on any CI box): the handoff must fall back to blocking and
    /// finish, bit for bit the single-thread solve.
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

    /// The message of the panic `body` must raise.
    fn panic_of(body: impl FnOnce()) -> String {
        let payload =
            catch_unwind(AssertUnwindSafe(body)).expect_err("no panic reached the caller");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// A worker that panics mid-dispatch reaches the caller as `solver
    /// worker panicked` instead of leaving it waiting for claims that
    /// will never arrive: the caller claims nothing, so its wait for
    /// the joined workers can only end on the panic flag.
    #[test]
    fn worker_panic_reaches_the_caller() {
        let inst = small_instance(40, 2.0, 1.0, 9);
        let items: Vec<usize> = (0..32).collect();
        for threads in [2usize, 3, 8] {
            let message = panic_of(|| {
                with_pool(&inst, threads, |pool| {
                    pool.run(&items, JobKind::WorkerPanic, |_| {})
                })
            });
            assert_eq!(message, "solver worker panicked", "threads={threads}");
        }
    }

    /// The mirror case: the caller panics while the workers run the
    /// dispatch's items; dropping the pool on unwind must release them,
    /// or the scope never joins.
    #[test]
    fn caller_panic_releases_the_workers() {
        let inst = small_instance(40, 2.0, 1.0, 9);
        let items: Vec<usize> = (0..32).collect();
        for threads in [2usize, 3, 8] {
            let message = panic_of(|| {
                with_pool(&inst, threads, |pool| {
                    pool.run(&items, JobKind::CallerPanic, |_| {})
                })
            });
            assert_eq!(message, "planted caller panic", "threads={threads}");
        }
    }

    /// A planted panic in a bound item reaches the caller at
    /// `finish_bounds` instead of leaving it waiting for a value that
    /// will never arrive. With workers, the caller leaves every block
    /// to them until one panics, so the planted block is a worker's.
    #[test]
    fn a_planted_bound_panic_reaches_the_caller() {
        let inst = small_instance(40, 2.0, 1.0, 9);
        let duals = bound_duals(&layout_of(&inst));
        for threads in [1usize, 2, 3, 8] {
            for bad in [0, 39] {
                let message = panic_of(|| {
                    with_pool(&inst, threads, |pool| {
                        let shared = &*pool.shared;
                        shared.bound_panic_on.store(bad, Ordering::Relaxed);
                        pool.start_bounds(&duals, false);
                        while threads > 1 && shared.bounds_open() && !shared.lock().panicked {
                            std::thread::yield_now();
                        }
                        pool.finish_bounds();
                    })
                });
                let want = if threads == 1 {
                    format!("planted bound panic on block {bad}")
                } else {
                    "solver worker panicked".to_string()
                };
                assert_eq!(message, want, "threads={threads} bad={bad}");
            }
        }
    }
}
