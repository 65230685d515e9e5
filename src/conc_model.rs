//! Distilled skeleton of the encrypted walk's frontier protocol
//! (`fhe_runtime::ckks_exec::walk`) for the `fhe-conc` model checker
//! (checker builds only).
//!
//! The walk is the runtime's one parallel layer: the calling thread and
//! `k − 1` scoped threads pop ready DAG nodes from a shared frontier. The
//! skeleton keeps exactly its synchronization: one frontier mutex, one
//! `ready` condvar, and per runner the loop
//!
//! 1. under the lock, return if the walk panicked or is done, pop the
//!    lowest ready node, or else park on `ready`;
//! 2. run the node outside the lock;
//! 3. `complete` it under the lock, then `notify_all` on `ready`.
//!
//! A node "panics" by taking the runner's unwind path instead of step 3.
//! The shipped walk sets the frontier's `panicked` flag and wakes the
//! parked runners before unwinding. Before that fix a panicking runner
//! unwound with neither: a sibling already parked on `ready` waited for a
//! completion that never came, and the walk hung instead of reporting the
//! panic. The planted variant keeps the flag and drops only the wake, to
//! show that the flag alone does not close the race.
//!
//! The fhe-runtime crate stays free of checker code; the skeleton lives in
//! this crate and runs from `tests/conc_models.rs` and `conc_smoke`.

use fhe_conc::sync::{thread, Arc, Condvar, Mutex};

/// The modelled DAG, a diamond `0 → {1, 2} → 3`: `PREDS[n]` lists node
/// `n`'s predecessors. Two runners meet every frontier state that matters:
/// one ready node with the other runner parked, two ready nodes, and a
/// join that waits on both branches.
const PREDS: [&[usize]; 4] = [&[], &[0], &[0], &[1, 2]];

struct Frontier {
    /// Unretired predecessors per node.
    waiting: [usize; 4],
    popped: [bool; 4],
    completed: [u32; 4],
    panicked: bool,
}

impl Frontier {
    fn is_done(&self) -> bool {
        self.completed.iter().all(|&c| c > 0)
    }

    /// The ready node earliest in schedule order, like `DepConsumer`.
    fn pop_ready(&mut self) -> Option<usize> {
        let node = (0..PREDS.len()).find(|&n| !self.popped[n] && self.waiting[n] == 0)?;
        self.popped[node] = true;
        Some(node)
    }

    fn complete(&mut self, node: usize) {
        self.completed[node] += 1;
        for (n, preds) in PREDS.iter().enumerate() {
            if preds.contains(&node) {
                self.waiting[n] -= 1;
            }
        }
    }
}

struct Shared {
    frontier: Mutex<Frontier>,
    ready: Condvar,
}

/// One runner. Returns `true` iff it took the unwind path, i.e. its
/// panic is the one the caller would see.
fn runner(s: &Shared, panic_at: Option<usize>, wake_on_unwind: bool) -> bool {
    loop {
        let node = {
            let mut f = s.frontier.lock().expect("frontier lock");
            loop {
                if f.panicked || f.is_done() {
                    return false;
                }
                if let Some(node) = f.pop_ready() {
                    break node;
                }
                f = s.ready.wait(f).expect("frontier lock");
            }
        };
        if panic_at == Some(node) {
            s.frontier.lock().expect("frontier lock").panicked = true;
            if wake_on_unwind {
                s.ready.notify_all();
            }
            // BUG when `wake_on_unwind` is false: the flag alone only
            // stops runners that have yet to check it; one already parked
            // on `ready` sleeps forever.
            return true;
        }
        s.frontier.lock().expect("frontier lock").complete(node);
        s.ready.notify_all();
    }
}

/// Two runners walk the diamond: the calling thread and one spawned
/// runner, as `walk` launches them at width 2. With `panic_at = None`
/// every node must retire exactly once. With a panicking node exactly one
/// runner reports the panic, the node never retires, and both runners
/// return. Under the checker, `wake_on_unwind = false` must deadlock in
/// some interleaving; `true` must pass exhaustively.
pub fn walk_model(panic_at: Option<usize>, wake_on_unwind: bool) {
    let s = Arc::new(Shared {
        frontier: Mutex::new(Frontier {
            waiting: PREDS.map(|p| p.len()),
            popped: [false; 4],
            completed: [0; 4],
            panicked: false,
        }),
        ready: Condvar::new(),
    });
    let helper = {
        let s = Arc::clone(&s);
        thread::spawn(move || runner(&s, panic_at, wake_on_unwind))
    };
    let own = runner(&s, panic_at, wake_on_unwind);
    let theirs = helper.join().expect("runner joins");
    let f = s.frontier.lock().expect("frontier lock");
    match panic_at {
        None => {
            assert!(!own && !theirs, "no runner unwinds");
            assert_eq!(f.completed, [1; 4], "every node retires exactly once");
        }
        Some(node) => {
            assert!(own ^ theirs, "exactly one runner carries the panic");
            assert_eq!(f.completed[node], 0, "the panicking node never retires");
            assert!(f.completed.iter().all(|&c| c <= 1));
        }
    }
}
