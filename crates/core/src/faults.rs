//! Fault injection: named fail points compiled in under
//! `--cfg stair_faults`, no-ops otherwise.
//!
//! Robustness claims ("a panicking step fails one query, not the
//! process") are only worth what the tests that exercise them can
//! reach — and panics deep inside a kernel loop are unreachable from
//! ordinary inputs. A *fail point* is a named hook at such a site:
//!
//! ```ignore
//! staircase_core::faults::fail_point("core::desc::partition");
//! ```
//!
//! In normal builds the call compiles to an empty inline function —
//! zero cost, no registry, nothing to configure. Under
//! `RUSTFLAGS="--cfg stair_faults"` the call consults a process-wide
//! registry and can **panic**, **delay**, or **trip the ambient
//! budget** ([`crate::governor`]), letting the chaos suite drive every
//! failure path end to end.
//!
//! The registry is configured two ways:
//!
//! * the `STAIR_FAULTS` environment variable, parsed once on first use:
//!   a `;`-separated list of `site=action` entries where *action* is
//!   `panic`, `delay:<ms>`, or `trip`, each optionally suffixed
//!   `:<count>` to disarm after that many firings — e.g.
//!   `STAIR_FAULTS="core::desc::partition=panic:1;xpath::lane=delay:5"`;
//! * programmatically via `set` / `clear` / `clear_all` (items that
//!   exist in `stair_faults` builds only), which is what the chaos
//!   tests use to scope an injection to one operation.

#[cfg(not(stair_faults))]
mod imp {
    /// A named fail point; inert in this build (`stair_faults` cfg is
    /// off).
    #[inline(always)]
    pub fn fail_point(_name: &str) {}

    /// `false`: fault injection is compiled out of this build.
    pub fn enabled() -> bool {
        false
    }
}

#[cfg(stair_faults)]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// What an armed fail point does when execution reaches it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// Panic with a message naming the site.
        Panic,
        /// Sleep for the given number of milliseconds.
        Delay(u64),
        /// Cancel the ambient [`crate::governor::Budget`] (forced trip);
        /// inert when no budget is installed.
        Trip,
    }

    #[derive(Debug)]
    struct Fault {
        kind: FaultKind,
        /// Remaining firings; `None` = unlimited.
        remaining: Option<u64>,
    }

    fn registry() -> &'static Mutex<HashMap<String, Fault>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Fault>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(parse_env(std::env::var("STAIR_FAULTS").ok())))
    }

    fn parse_env(spec: Option<String>) -> HashMap<String, Fault> {
        let mut map = HashMap::new();
        let Some(spec) = spec else { return map };
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            let Some((site, action)) = entry.split_once('=') else {
                continue;
            };
            let mut parts = action.split(':');
            let kind = parts.next().unwrap_or("");
            let (kind, remaining) = match kind {
                "panic" => (FaultKind::Panic, parts.next()),
                "trip" => (FaultKind::Trip, parts.next()),
                "delay" => {
                    let ms = parts.next().and_then(|v| v.parse().ok()).unwrap_or(1);
                    (FaultKind::Delay(ms), parts.next())
                }
                _ => continue,
            };
            let remaining = remaining.and_then(|v| v.parse().ok());
            map.insert(site.trim().to_string(), Fault { kind, remaining });
        }
        map
    }

    /// A named fail point: fires the registered action for `name`, if
    /// any. Panics raised here unwind through the calling kernel — that
    /// is the point.
    pub fn fail_point(name: &str) {
        let kind = {
            let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
            let Some(fault) = reg.get_mut(name) else {
                return;
            };
            match &mut fault.remaining {
                Some(0) => return, // disarmed
                Some(n) => *n -= 1,
                None => {}
            }
            fault.kind
        };
        match kind {
            FaultKind::Panic => panic!("fault injected at {name}"),
            FaultKind::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
            FaultKind::Trip => {
                if let Some(budget) = crate::governor::current() {
                    budget.cancel();
                }
            }
        }
    }

    /// `true`: this build has fault injection compiled in.
    pub fn enabled() -> bool {
        true
    }

    /// Arms (or re-arms) the fail point `name`; `remaining` bounds how
    /// often it fires (`None` = unlimited).
    pub fn set(name: &str, kind: FaultKind, remaining: Option<u64>) {
        registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), Fault { kind, remaining });
    }

    /// Disarms the fail point `name`.
    pub fn clear(name: &str) {
        registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
    }

    /// Disarms every fail point (including env-configured ones).
    pub fn clear_all() {
        registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

pub use imp::*;

#[cfg(all(test, stair_faults))]
mod tests {
    use super::*;

    #[test]
    fn fail_points_fire_and_disarm() {
        assert!(enabled());
        // Unarmed site: nothing happens.
        fail_point("test::unarmed");

        // Bounded panic: fires exactly once.
        set("test::panic", FaultKind::Panic, Some(1));
        let hit = std::panic::catch_unwind(|| fail_point("test::panic"));
        assert!(hit.is_err(), "armed fail point must panic");
        fail_point("test::panic"); // disarmed: no panic

        // Trip cancels the ambient budget.
        let budget = std::sync::Arc::new(crate::governor::Budget::new());
        set("test::trip", FaultKind::Trip, None);
        {
            let _g = crate::governor::enter(std::sync::Arc::clone(&budget));
            fail_point("test::trip");
        }
        assert!(budget.is_cancelled());
        clear("test::trip");

        // Cleared sites stop firing.
        set("test::panic2", FaultKind::Panic, None);
        clear("test::panic2");
        fail_point("test::panic2");
        clear_all();
    }
}
