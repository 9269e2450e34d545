//! Graceful-shutdown coordination: one shared flag, checked at every
//! blocking point.
//!
//! The sequence on shutdown is: the flag is set, and the acceptor —
//! blocked in `accept` — is unblocked by a throwaway loopback connection
//! to its own port and stops accepting. A query that is already running
//! finishes on its connection thread and is answered — nothing already
//! admitted is dropped; a connection that is idle (nothing being served)
//! closes when its blocked read next looks at the flag, at most one
//! read tick later. The acceptor joins every connection thread (a
//! connection is one thread), so `ServerHandle::join`
//! returning means no server thread is left. Queries that arrive after
//! the trigger are refused with a typed `SHUTTING_DOWN` error frame.
//!
//! Setting the flag is all [`Shutdown::trigger`] does; the wake-ups
//! belong to `ServerHandle::shutdown` and the `SHUTDOWN` frame, which
//! know the listener's address.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable shutdown flag shared by the acceptor and every
/// connection thread.
#[derive(Clone, Default)]
pub struct Shutdown {
    flag: Arc<AtomicBool>,
}

impl Shutdown {
    /// A fresh, untriggered flag.
    pub fn new() -> Shutdown {
        Shutdown::default()
    }

    /// Triggers shutdown. Idempotent; never blocks.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// `true` once [`Shutdown::trigger`] has run.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for Shutdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shutdown")
            .field("triggered", &self.is_triggered())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_is_visible_to_clones_and_idempotent() {
        let s = Shutdown::new();
        let c = s.clone();
        assert!(!c.is_triggered());
        s.trigger();
        s.trigger();
        assert!(c.is_triggered());
    }
}
