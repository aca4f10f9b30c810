//! The sink install/uninstall lifecycle of the locks runtime's
//! process-global event slot.
//!
//! Lives in its own integration-test binary: the sink slot is
//! process-global, so a test of the library running concurrently in
//! the same process (any monitor operation emits while a sink is
//! installed) would record into this test's sink and break its exact
//! event counts.

use revmon_locks::obs::{emit, enabled, install, uninstall};
use revmon_obs::{EventKind, EventSink, TsUnit};
use std::sync::Arc;

#[test]
fn install_uninstall_round_trip() {
    // One test owns the whole install lifecycle (tests in this
    // binary share the process-global sink slot), so the
    // generation-cache checks live here too.
    let sink = Arc::new(EventSink::new(TsUnit::WallNanos));
    install(Arc::clone(&sink));
    assert!(enabled());
    emit(7, EventKind::Acquire);
    assert_eq!(sink.recorded(), 1, "emit did not reach the installed sink");

    let back = uninstall().expect("sink was installed");
    assert!(Arc::ptr_eq(&back, &sink));
    assert!(!enabled());
    emit(7, EventKind::Release);
    assert_eq!(sink.recorded(), 1, "emit after uninstall leaked into old sink");

    // Reinstalling a *different* sink must invalidate the emitting
    // thread's cached handle: the next event lands in the new sink.
    let second = Arc::new(EventSink::new(TsUnit::WallNanos));
    install(Arc::clone(&second));
    emit(8, EventKind::Acquire);
    assert_eq!(second.recorded(), 1, "stale cached sink survived reinstall");
    assert_eq!(sink.recorded(), 1);
    uninstall();
}
