//! The persistent worker pool and the one primitive everything else is
//! built on: [`run_pieces`], "call `body(i)` for every `i < pieces`, on as
//! many threads as the current pool has, and return when all are done".

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

type Body<'a> = dyn Fn(usize) + Sync + 'a;

/// A mutex here only ever guards plain counters and queues that stay valid
/// across a panic, so a poisoned lock is recovered rather than propagated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One parallel operation in flight.
struct Op {
    /// The caller's closure with its lifetime erased; see `help`.
    body: *const Body<'static>,
    pieces: usize,
    /// Next unclaimed piece. Publishes nothing: the closure is published to
    /// helpers by the ticket queue's mutex, results by `done`'s.
    next: AtomicUsize,
    done: Mutex<usize>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` points at a `Sync` closure, so calling it through a shared
// reference from several threads is allowed; every other field is `Sync`.
// The pointer is only dereferenced while the closure is alive (see `help`).
unsafe impl Send for Op {}
// SAFETY: as above.
unsafe impl Sync for Op {}

impl Op {
    /// Claim and run pieces until none are left.
    fn help(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.pieces {
                return;
            }
            // SAFETY: piece `i < pieces` was claimed and is not yet counted
            // in `done`, and `run_pieces` does not return (so the closure
            // it borrows stays alive) until `done == pieces`. A ticket that
            // arrives after that claims `i >= pieces` and never gets here.
            let body = unsafe { &*self.body };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            let mut done = lock(&self.done);
            *done += 1;
            if *done == self.pieces {
                self.all_done.notify_all();
            }
        }
    }
}

struct Queue {
    tickets: VecDeque<Arc<Op>>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Threads that compute: the parked workers plus the calling thread.
    width: usize,
}

thread_local! {
    /// Pool put in place by `ThreadPool::install` on this thread.
    static INSTALLED: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
    /// True while this thread runs a piece: nested operations go serial.
    static IN_PIECE: Cell<bool> = const { Cell::new(false) };
}

fn worker_main(shared: Arc<Shared>) {
    IN_PIECE.with(|f| f.set(true));
    loop {
        let op = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(op) = q.tickets.pop_front() {
                    break op;
                }
                if q.shutdown {
                    return;
                }
                q = shared.wake.wait(q).unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        op.help();
    }
}

fn default_width() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        ThreadPoolBuilder::new().build().expect("rayon stand-in: cannot start the global pool")
    })
}

fn current_shared() -> Arc<Shared> {
    INSTALLED.with(|cur| cur.borrow().clone()).unwrap_or_else(|| Arc::clone(&global().shared))
}

/// Threads a parallel operation started here would use (1 inside a piece).
pub(crate) fn effective_width() -> usize {
    if IN_PIECE.with(|f| f.get()) {
        1
    } else {
        current_shared().width
    }
}

/// Run `body(0) … body(pieces − 1)`, each exactly once, and return when all
/// have finished. A panic in any piece is re-raised here afterwards.
pub(crate) fn run_pieces(pieces: usize, body: &Body<'_>) {
    let shared = (pieces > 1 && !IN_PIECE.with(|f| f.get())).then(current_shared);
    let Some(shared) = shared.filter(|s| s.width > 1) else {
        (0..pieces).for_each(body);
        return;
    };
    // SAFETY: only the lifetime changes. `Op::help` documents why no
    // dereference outlives this call.
    let body: *const Body<'static> = unsafe { std::mem::transmute(body as *const Body<'_>) };
    let op = Arc::new(Op {
        body,
        pieces,
        next: AtomicUsize::new(0),
        done: Mutex::new(0),
        all_done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let helpers = (shared.width - 1).min(pieces - 1);
    {
        let mut q = lock(&shared.queue);
        for _ in 0..helpers {
            q.tickets.push_back(Arc::clone(&op));
        }
    }
    if helpers == 1 {
        shared.wake.notify_one();
    } else {
        shared.wake.notify_all();
    }

    IN_PIECE.with(|f| f.set(true));
    op.help();
    IN_PIECE.with(|f| f.set(false));

    let mut done = lock(&op.done);
    while *done < pieces {
        done = op.all_done.wait(done).unwrap_or_else(|poisoned| poisoned.into_inner());
    }
    drop(done);
    let payload = lock(&op.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// A fixed-width pool. Dropping it stops and joins its workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Run `f` on the calling thread with this pool as the one parallel
    /// operations inside `f` fan out on.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        struct Restore(Option<Arc<Shared>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0.take();
                INSTALLED.with(|cur| *cur.borrow_mut() = previous);
            }
        }
        let previous = INSTALLED.with(|cur| cur.replace(Some(Arc::clone(&self.shared))));
        let _restore = Restore(previous);
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            // A worker only unwinds if the pool's own code is broken; piece
            // panics are caught in `Op::help`. Nothing useful to do here.
            let _ = handle.join();
        }
    }
}

/// Width of the pool a parallel operation started on this thread would use.
pub fn current_num_threads() -> usize {
    current_shared().width
}

#[derive(Debug)]
pub struct ThreadPoolBuildError(std::io::Error);

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot spawn a pool worker: {}", self.0)
    }
}
impl std::error::Error for ThreadPoolBuildError {}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` (the default) sizes the pool like the global one.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = if self.num_threads == 0 { default_width() } else { self.num_threads };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { tickets: VecDeque::new(), shutdown: false }),
            wake: Condvar::new(),
            width,
        });
        let mut pool = ThreadPool { shared, workers: Vec::with_capacity(width - 1) };
        for i in 1..width {
            let shared = Arc::clone(&pool.shared);
            let handle = std::thread::Builder::new()
                .name(format!("rayon-standin-{i}"))
                .spawn(move || worker_main(shared))
                .map_err(ThreadPoolBuildError)?;
            pool.workers.push(handle);
        }
        Ok(pool)
    }
}
