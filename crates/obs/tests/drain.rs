//! `drain` reaches what other threads recorded without waiting for them to
//! exit. Isolated in its own test binary so no parallel test drains (and
//! so steals) the data under test or flips the global enable flag.

use std::sync::mpsc;

use valentine_obs::{capture, counter, drain};

#[test]
fn drain_reaches_the_root_of_a_thread_that_is_still_running() {
    let (recorded_tx, recorded_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        // A top-level capture folds into the thread root when it closes...
        let ((), _) = capture(|| counter("drain_test/captured", 3));
        // ...and with tracing on, records outside a capture go there too.
        valentine_obs::set_enabled(true);
        counter("drain_test/uncaptured", 5);
        valentine_obs::set_enabled(false);
        recorded_tx.send(()).unwrap();
        release_rx.recv().unwrap(); // stay alive until the drain is done
    });
    recorded_rx.recv().unwrap();
    let live = drain();
    release_tx.send(()).unwrap();
    worker.join().unwrap();

    assert_eq!(live.counter("drain_test/captured"), 3, "{live:?}");
    assert_eq!(live.counter("drain_test/uncaptured"), 5, "{live:?}");
    // Drained once: the worker's exit does not hand the data over again.
    let after_exit = drain();
    assert_eq!(after_exit.counter("drain_test/captured"), 0);
    assert_eq!(after_exit.counter("drain_test/uncaptured"), 0);
}
