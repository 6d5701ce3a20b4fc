//! Thread-local observability hook installation shared by the engines.
//!
//! Two hooks travel together: the flight recorder handle (so deep call
//! sites can note local events via [`mn_obs::flightrec::note_local`])
//! and the `mn-rand` jump observer (so O(1) stream jumps land in the
//! flight record without `mn-rand` depending on `mn-obs`). Engines
//! install them on every thread that executes kernel code: the caller
//! thread for [`crate::serial::SerialEngine`] and
//! [`crate::sim::SimEngine`]; for [`crate::thread::ThreadEngine`], the
//! caller (rank 0) before every map and each persistent rank worker
//! once, when it is spawned; and each rank thread for
//! [`crate::msg::SpmdEngine`].

use mn_obs::flightrec::{self, FlightRec};

/// The jump observer forwarded into `mn-rand`: report the jump to this
/// thread's flight recorder as an `RngJump` local event.
fn forward_jump(draw: u64) {
    flightrec::note_rng_jump(draw);
}

/// Install this thread's flight recorder and RNG jump observer.
pub(crate) fn install_thread_hooks(flight: FlightRec) {
    flightrec::set_thread_recorder(Some(flight));
    mn_rand::observe::set_jump_observer(Some(forward_jump));
}

/// Clear this thread's observability hooks.
pub(crate) fn clear_thread_hooks() {
    flightrec::set_thread_recorder(None);
    mn_rand::observe::set_jump_observer(None);
}
