//! Per-switch shards: one lock around one [`Switch`].

use std::sync::{Mutex, MutexGuard};

use rtcac_cac::{Switch, SwitchConfig};

/// One shard: a CAC-managed switch behind a single mutex. Shards are
/// only ever locked in ascending `NodeId` order (see the two-phase
/// protocol in [`crate::AdmissionEngine`]), which rules out deadlock.
#[derive(Debug)]
pub(crate) struct Shard {
    switch: Mutex<Switch>,
}

impl Shard {
    pub fn new(config: SwitchConfig) -> Shard {
        Shard::from_switch(Switch::new(config))
    }

    /// Wraps an already-populated switch (the warm-restart path).
    pub fn from_switch(switch: Switch) -> Shard {
        Shard {
            switch: Mutex::new(switch),
        }
    }

    /// Locks the shard. Mutex poisoning is unrecoverable for admission
    /// state (a panicked worker may have left a half-reserved setup),
    /// so it propagates as a panic rather than a lying `Ok`.
    pub fn lock(&self) -> MutexGuard<'_, Switch> {
        self.switch.lock().expect("shard mutex poisoned")
    }
}
