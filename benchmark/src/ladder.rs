//! The open-loop rate ladder: requests are due on a fixed schedule whether
//! or not earlier ones have come back, latency counts from the instant a
//! request was due, and a rung whose generator falls a second behind is
//! abandoned together with every higher rung.

use std::time::{Duration, Instant};

use crate::stats::{percentile, tail_percentile};

/// Offered rates, requests per second over all connections.
pub const RUNGS: [u32; 5] = [25, 100, 400, 1600, 6400];
/// The latency limit a rung's tail percentile must meet.
pub const LIMIT: Duration = Duration::from_millis(10);
/// A generator this far behind its schedule gives the rung up.
pub const ABANDON_AFTER: Duration = Duration::from_secs(1);
/// A rung is met only if it achieved this share of the offered rate.
pub const MIN_ACHIEVED: f64 = 0.97;

/// Time as the generator sees it; tests substitute a clock they advance.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, at: Duration);
}

#[derive(Clone, Copy)]
pub struct RealClock(pub Instant);

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        if let Some(wait) = at.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// From the scheduled send time to the reply.
    pub latency: Duration,
    /// How late the generator actually sent.
    pub late: Duration,
    pub ok: bool,
}

/// One connection's share of one rung.
#[derive(Debug, Default)]
pub struct Lane {
    pub samples: Vec<Sample>,
    pub abandoned: bool,
    /// When the last reply arrived.
    pub finished: Duration,
}

/// Sends `count` requests, request `i` due at `start + i × interval`;
/// `send` blocks until the reply is in and says whether it was right.
pub fn run_lane(
    clock: &impl Clock,
    start: Duration,
    interval: Duration,
    count: usize,
    mut send: impl FnMut(usize) -> bool,
) -> Lane {
    let mut lane = Lane::default();
    for i in 0..count {
        let due = start + interval * i as u32;
        clock.sleep_until(due);
        let late = clock.now().saturating_sub(due);
        if late > ABANDON_AFTER {
            lane.abandoned = true;
            break;
        }
        let ok = send(i);
        lane.finished = clock.now();
        lane.samples.push(Sample {
            latency: lane.finished.saturating_sub(due),
            late,
            ok,
        });
    }
    lane
}

/// One rung: every connection's lane, merged.
#[derive(Debug)]
pub struct Rung {
    pub rate: u32,
    pub offered: usize,
    pub seconds: f64,
    pub samples: Vec<Sample>,
    pub abandoned: bool,
    /// From the rung's start to its last reply.
    pub elapsed: Duration,
}

impl Rung {
    pub fn merge(
        rate: u32,
        offered: usize,
        seconds: f64,
        start: Duration,
        lanes: Vec<Lane>,
    ) -> Rung {
        Rung {
            rate,
            offered,
            seconds,
            abandoned: lanes.iter().any(|l| l.abandoned),
            elapsed: lanes
                .iter()
                .map(|l| l.finished.saturating_sub(start))
                .max()
                .unwrap_or_default(),
            samples: lanes.into_iter().flat_map(|l| l.samples).collect(),
        }
    }

    /// The highest percentile with ten samples beyond it (the maximum when
    /// the rung is too short for any), in milliseconds.
    pub fn tail_ms(&self, pick: impl Fn(&Sample) -> Duration) -> f64 {
        let ms: Vec<f64> = self
            .samples
            .iter()
            .map(|s| pick(s).as_secs_f64() * 1e3)
            .collect();
        if ms.is_empty() {
            return 0.0;
        }
        percentile(&ms, tail_percentile(ms.len()).unwrap_or(1.0))
    }

    pub fn achieved_qps(&self) -> f64 {
        // Replies inside the rung's own window count at the offered pace; a
        // backlog that drains after it stretches the window.
        self.samples.len() as f64 / self.elapsed.as_secs_f64().max(self.seconds)
    }

    pub fn met(&self) -> bool {
        !self.abandoned
            && self.samples.len() == self.offered
            && self.samples.iter().all(|s| s.ok)
            && self.achieved_qps() >= MIN_ACHIEVED * f64::from(self.rate)
            && self.tail_ms(|s| s.latency) <= LIMIT.as_secs_f64() * 1e3
    }
}

/// Climbs `rates` in order until a rung is abandoned; higher rungs are then
/// not run at all. Returns the rungs run and the highest rate met (0 if none).
pub fn climb(rates: &[u32], mut run_rung: impl FnMut(u32) -> Rung) -> (Vec<Rung>, u32) {
    let mut rungs = Vec::new();
    let mut met = 0;
    for &rate in rates {
        let rung = run_rung(rate);
        let abandoned = rung.abandoned;
        if rung.met() {
            met = rate;
        }
        rungs.push(rung);
        if abandoned {
            break;
        }
    }
    (rungs, met)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the wake-up
    /// time, sending advances it by the service time.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, at: Duration) {
            if at > self.0.get() {
                self.0.set(at);
            }
        }
    }

    fn rung(rate: u32, seconds: f64, service: Duration) -> Rung {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let count = (f64::from(rate) * seconds) as usize;
        let interval = Duration::from_secs_f64(1.0 / f64::from(rate));
        let lane = run_lane(&clock, Duration::ZERO, interval, count, |_| {
            clock.0.set(clock.0.get() + service);
            true
        });
        Rung::merge(rate, count, seconds, Duration::ZERO, vec![lane])
    }

    #[test]
    fn a_fast_server_meets_the_rung() {
        let r = rung(100, 4.0, Duration::from_millis(1));
        assert!(!r.abandoned);
        assert_eq!(r.samples.len(), 400);
        assert!((r.tail_ms(|s| s.latency) - 1.0).abs() < 1e-6);
        assert_eq!(r.tail_ms(|s| s.late), 0.0);
        assert!(r.met());
    }

    #[test]
    fn latency_counts_from_the_scheduled_time() {
        // 12 ms service at a 10 ms interval: the generator never falls a
        // second behind in 0.5 s, but every request waits for the backlog.
        let r = rung(100, 0.5, Duration::from_millis(12));
        assert!(!r.abandoned);
        let last = r.samples.last().unwrap();
        assert_eq!(last.late, Duration::from_millis(2 * 49));
        assert_eq!(last.latency, Duration::from_millis(2 * 49 + 12));
        assert!(!r.met(), "over the limit and under the offered rate");
    }

    #[test]
    fn a_slow_server_is_abandoned_a_second_behind() {
        // 50 ms service at a 10 ms interval falls 40 ms further behind per
        // request: more than 1 s behind when request 26 comes due.
        let r = rung(100, 4.0, Duration::from_millis(50));
        assert!(r.abandoned);
        assert_eq!(r.samples.len(), 26);
        assert!(!r.met());
    }

    #[test]
    fn a_wrong_answer_fails_the_rung() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let lane = run_lane(
            &clock,
            Duration::ZERO,
            Duration::from_millis(10),
            100,
            |i| i != 7,
        );
        let r = Rung::merge(100, 100, 1.0, Duration::ZERO, vec![lane]);
        assert!(!r.met());
    }

    #[test]
    fn the_ladder_stops_at_the_first_abandoned_rung() {
        let mut ran = Vec::new();
        let (rungs, met) = climb(&RUNGS, |rate| {
            ran.push(rate);
            // 5 ms service: fine at 25 and 100 qps, hopeless at 400.
            rung(rate, 4.0, Duration::from_millis(5))
        });
        assert_eq!(ran, [25, 100, 400]);
        assert_eq!(rungs.len(), 3);
        assert_eq!(met, 100);
        let (_, none) = climb(&RUNGS, |rate| rung(rate, 4.0, Duration::from_millis(50)));
        assert_eq!(none, 0);
    }
}
