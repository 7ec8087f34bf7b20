//! The per-node background actor skeleton shared by the crate's daemons
//! ([`TieringDaemon`](crate::tiering::TieringDaemon),
//! [`ScrubDaemon`](crate::scrub::ScrubDaemon)): one OS thread per node,
//! each running a tick and then parking for the interval, until stopped or
//! dropped.

use crate::server::UniviStorJob;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[derive(Debug)]
pub(crate) struct NodeActors {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl NodeActors {
    /// Start one actor per node of `job`, each calling `tick(job, node)`
    /// every `interval`; with `enabled` false, no thread at all. A tick's
    /// errors are its own business: the next one starts from fresh state.
    pub(crate) fn spawn(
        job: Arc<UniviStorJob>,
        enabled: bool,
        interval: Duration,
        tick: fn(&UniviStorJob, usize),
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let nodes = if enabled { job.cfg().geometry.nodes } else { 0 };
        let threads = (0..nodes)
            .map(|node| {
                let (job, stop) = (Arc::clone(&job), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        tick(&job, node);
                        std::thread::park_timeout(interval);
                    }
                })
            })
            .collect();
        NodeActors { stop, threads }
    }

    /// Number of actor threads running.
    pub(crate) fn actors(&self) -> usize {
        self.threads.len()
    }

    /// Signal all actors and wait for them to exit.
    pub(crate) fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for NodeActors {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}
