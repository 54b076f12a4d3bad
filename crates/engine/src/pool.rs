//! The resident front end onto one [`AdmissionEngine`]: [`ServicePool`],
//! a counting permit under which callers on their own threads decide
//! their own setups.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use rtcac_net::Route;
use rtcac_signaling::SetupRequest;

use crate::{AdmissionEngine, EngineError, EngineOutcome};

/// The resident admission front end: a counting permit that lets at
/// most `workers` setups be decided at once, each *on the thread that
/// submits it* (e.g. one per client session of `rtcac-serve`). Admission
/// CPU is thereby bounded by the permit count, not the submitter count,
/// and no setup crosses a thread to be priced.
///
/// A submitter that finds every permit taken waits (the `pool.queue`
/// span of its trace). A panic while deciding is caught on the
/// submitter's thread and resolves to [`EngineError::ServiceStopped`];
/// its permit comes back, so the pool keeps its full width. Shutting
/// down ([`ServicePool::shutdown`], or dropping the pool) wakes every
/// waiter, and those waiters and every later submission resolve to
/// [`EngineError::ServiceStopped`]; setups already holding a permit
/// are decided.
///
/// ```
/// use std::sync::Arc;
/// use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
/// use rtcac_cac::{Priority, SwitchConfig};
/// use rtcac_engine::{AdmissionEngine, ServicePool};
/// use rtcac_net::builders;
/// use rtcac_rational::ratio;
/// use rtcac_signaling::{CdvPolicy, SetupRequest};
///
/// let sr = builders::star_ring(4, 1)?;
/// let config = SwitchConfig::uniform(1, Time::from_integer(48))?;
/// let engine = Arc::new(AdmissionEngine::new(
///     sr.topology().clone(),
///     config,
///     CdvPolicy::Hard,
/// ));
/// let pool = ServicePool::new(Arc::clone(&engine), 2);
/// let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 16)))?);
/// let route = sr.ring_route_from_terminal(0, 0, 1)?;
/// let outcome = pool
///     .admit(route, SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(500)))?;
/// assert!(outcome.is_admitted());
/// pool.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ServicePool {
    engine: Arc<AdmissionEngine>,
    /// `(free permits, stopped)`.
    permits: Mutex<(usize, bool)>,
    /// Signalled when a permit comes back or the pool stops.
    changed: Condvar,
}

/// One held permit of a [`ServicePool`]; dropping it hands it back.
struct Permit<'a>(&'a ServicePool);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock_permits().0 += 1;
        self.0.changed.notify_one();
    }
}

impl ServicePool {
    /// A pool deciding at most `workers` setups (at least one) at once
    /// on `engine`, until [`ServicePool::shutdown`].
    pub fn new(engine: Arc<AdmissionEngine>, workers: usize) -> ServicePool {
        ServicePool {
            engine,
            permits: Mutex::new((workers.max(1), false)),
            changed: Condvar::new(),
        }
    }

    /// The engine this pool serves.
    pub fn engine(&self) -> &Arc<AdmissionEngine> {
        &self.engine
    }

    /// Waits for a free permit to decide one setup with the calling
    /// thread, and blocks until that setup is decided.
    ///
    /// # Errors
    ///
    /// [`EngineError::ServiceStopped`] if the pool is shut down (or the
    /// setup panicked while being decided); otherwise as
    /// [`AdmissionEngine::admit_with_id`].
    pub fn admit(&self, route: Route, request: SetupRequest) -> Result<EngineOutcome, EngineError> {
        let id = self.engine.allocate_id();
        let mut ctx = self.engine.start_trace("engine.admit", id);
        let queue_span = ctx.begin("pool.queue");
        let permit = self.acquire();
        ctx.end(queue_span);
        let Some(_permit) = permit else {
            return Err(EngineError::ServiceStopped);
        };
        // The engine is shared across threads anyway, so a panic here
        // leaves it as any panicking thread would: a shard it poisoned
        // stays poisoned and panics its next user, which lands here too.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            self.engine.admit_with_ctx(id, &route, request, &mut ctx)
        }))
        .unwrap_or(Err(EngineError::ServiceStopped));
        ctx.finish(AdmissionEngine::outcome_rejects(&outcome));
        outcome
    }

    /// Stops the pool: every waiting and later submission resolves to
    /// [`EngineError::ServiceStopped`]; setups already holding a permit
    /// are still decided. Idempotent.
    pub fn shutdown(&self) {
        self.lock_permits().1 = true;
        self.changed.notify_all();
    }

    /// Takes a permit, waiting while none is free; `None` once stopped.
    fn acquire(&self) -> Option<Permit<'_>> {
        let mut permits = self
            .changed
            .wait_while(self.lock_permits(), |&mut (free, stopped)| {
                free == 0 && !stopped
            })
            .unwrap_or_else(PoisonError::into_inner);
        if permits.1 {
            return None;
        }
        permits.0 -= 1;
        Some(Permit(self))
    }

    /// The permit state. It is a counter and a flag, each updated in one
    /// step, so a poisoned lock still holds valid data.
    fn lock_permits(&self) -> MutexGuard<'_, (usize, bool)> {
        self.permits.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
    use rtcac_cac::{Priority, SwitchConfig};
    use rtcac_net::builders;
    use rtcac_rational::ratio;
    use rtcac_signaling::CdvPolicy;

    fn cbr(num: i128, den: i128) -> TrafficContract {
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(num, den))).unwrap())
    }

    #[test]
    fn service_pool_serves_concurrent_submitters_and_shuts_down() {
        let sr = builders::star_ring(8, 2).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = Arc::new(AdmissionEngine::new(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
        ));
        let pool = Arc::new(ServicePool::new(Arc::clone(&engine), 4));
        // Eight submitter threads racing through the shared pool, like
        // eight client sessions of the admission service.
        let submitters: Vec<_> = (0..8)
            .map(|i| {
                let pool = Arc::clone(&pool);
                let route = sr.terminal_route((i, 0), (i, 1)).unwrap();
                thread::spawn(move || {
                    pool.admit(
                        route,
                        SetupRequest::new(cbr(1, 4), Priority::HIGHEST, Time::from_integer(500)),
                    )
                })
            })
            .collect();
        for handle in submitters {
            let outcome = handle.join().unwrap().unwrap();
            assert!(outcome.is_admitted());
        }
        assert_eq!(engine.connection_count(), 8);
        pool.shutdown();
        // Submissions after shutdown fail loudly instead of hanging.
        let route = sr.terminal_route((0, 0), (0, 1)).unwrap();
        match pool.admit(
            route,
            SetupRequest::new(cbr(1, 4), Priority::HIGHEST, Time::from_integer(500)),
        ) {
            Err(EngineError::ServiceStopped) => {}
            other => panic!("expected ServiceStopped, got {other:?}"),
        }
    }

    #[test]
    fn service_pool_worker_death_resolves_the_job() {
        let sr = builders::star_ring(4, 2).unwrap();
        let config = SwitchConfig::uniform(4, Time::from_integer(64)).unwrap();
        let engine = Arc::new(AdmissionEngine::new(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
        ));
        let route = sr.terminal_route((0, 0), (0, 1)).unwrap();
        let node = route.queueing_points(engine.topology()).unwrap()[0].0;
        engine.poison_shard(node);
        let pool = ServicePool::new(Arc::clone(&engine), 1);
        // The setup panics on the poisoned shard; the submitter must get
        // ServiceStopped, not hang forever.
        match pool.admit(
            route,
            SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(500)),
        ) {
            Err(EngineError::ServiceStopped) => {}
            other => panic!("expected ServiceStopped, got {other:?}"),
        }
        // The panic cost the pool nothing: its one permit came back, and
        // a setup on a healthy shard is decided through it.
        let healthy = sr.terminal_route((1, 0), (1, 1)).unwrap();
        let outcome = pool
            .admit(
                healthy,
                SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(500)),
            )
            .unwrap();
        assert!(outcome.is_admitted());
    }

    #[test]
    fn service_pool_admits_no_more_at_once_than_its_permits() {
        let sr = builders::star_ring(4, 2).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = Arc::new(AdmissionEngine::new(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
        ));
        let pool = Arc::new(ServicePool::new(Arc::clone(&engine), 2));
        let held = [pool.acquire().unwrap(), pool.acquire().unwrap()];
        let (tx, rx) = mpsc::channel();
        let submitter = Arc::clone(&pool);
        let route = sr.terminal_route((0, 0), (0, 1)).unwrap();
        thread::spawn(move || {
            let request = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(500));
            let _ = tx.send(submitter.admit(route, request));
        });
        // With both permits held, the third setup waits undecided…
        thread::sleep(Duration::from_millis(50));
        assert_eq!(engine.connection_count(), 0);
        assert!(rx.try_recv().is_err());
        // …and is decided as soon as one permit comes back.
        let [first, _second] = held;
        drop(first);
        let outcome = rx.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
        assert!(outcome.is_admitted());
        assert_eq!(engine.connection_count(), 1);
    }

    #[test]
    fn service_pool_shutdown_wakes_every_waiter() {
        let sr = builders::star_ring(4, 2).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = Arc::new(AdmissionEngine::new(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
        ));
        let pool = Arc::new(ServicePool::new(Arc::clone(&engine), 1));
        let held = pool.acquire().unwrap();
        let (tx, rx) = mpsc::channel();
        for node in 0..2 {
            let (tx, submitter) = (tx.clone(), Arc::clone(&pool));
            let route = sr.terminal_route((node, 0), (node, 1)).unwrap();
            thread::spawn(move || {
                let request =
                    SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(500));
                let _ = tx.send(submitter.admit(route, request));
            });
        }
        thread::sleep(Duration::from_millis(50));
        // Shutdown returns although a permit is still held, and both
        // waiters resolve without that permit ever coming back.
        pool.shutdown();
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Err(EngineError::ServiceStopped)) => {}
                other => panic!("expected ServiceStopped, got {other:?}"),
            }
        }
        drop(held);
        assert_eq!(engine.connection_count(), 0);
    }
}
