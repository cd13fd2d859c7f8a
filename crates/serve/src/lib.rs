//! # recovery-serve
//!
//! The policy-serving plane of the autorecover workspace: the policy
//! routes, mounted on the workspace's one std-only, thread-per-connection
//! HTTP server (`recovery_telemetry::HttpServer`), expose a trained
//! recovery policy to many concurrent clients while the continuous loop
//! keeps retraining it.
//!
//! The moving parts, smallest first:
//!
//! - [`PolicySnapshot`] — one immutable, versioned view of a published
//!   policy: canonical text + hash, the pre-rendered per-state advice
//!   table (byte-identical to offline
//!   [`recovery_diagnostics::explain_policy`] output by construction),
//!   and an optional replay plane for what-if simulation.
//! - [`PolicyStore`] — the `Arc`-swap point. Readers clone the current
//!   `Arc` and answer entirely from it; publishers build a snapshot
//!   off-lock and swap it in with a monotonic version bump. A torn read
//!   is structurally impossible.
//! - [`ServeDaemon`] — the HTTP front end: `POST /advise`,
//!   `POST /simulate`, `GET /policy`, `GET /policy/text`, plus the
//!   shared telemetry routes (`/metrics`, `/snapshot`, `/healthz`,
//!   `/events`, ...). Concurrency is bounded by
//!   [`ServeConfig::max_inflight`]; the server sheds excess connections
//!   with a typed `503 {"type":"shed"}` before any work happens.
//! - [`publish_snapshot`] — the reload seam: publishes a snapshot,
//!   bumps the `serve.reload` counter, records the version in the
//!   health record, and emits a `serve.reload` event. Wired to
//!   [`recovery_core::pipeline::run_continuous_loop_controlled`]'s
//!   publication callback, every
//!   `Trained` window hot-swaps a new snapshot while a `FellBack` window
//!   leaves the last-good one serving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod daemon;
pub mod snapshot;
pub mod store;

use std::sync::Arc;

use recovery_telemetry::{Event, Telemetry};

pub use daemon::{ServeConfig, ServeDaemon};
pub use snapshot::{fingerprint, PolicySnapshot, ReplayPlane, SimulatedRun, SimulatedStep};
pub use store::PolicyStore;

/// Publishes `snapshot` through `store` and announces the reload:
/// increments `serve.reload`, records the new version in the health
/// record (so `/healthz` names the last-good version even while a later
/// window degrades), and emits a `serve.reload` event with version,
/// hash, and source.
pub fn publish_snapshot(
    store: &PolicyStore,
    telemetry: &Telemetry,
    snapshot: PolicySnapshot,
) -> Arc<PolicySnapshot> {
    let published = store.publish(snapshot);
    if let Some(registry) = telemetry.registry() {
        registry.counter("serve.reload").inc();
    }
    if let Some(health) = telemetry.health() {
        health.set_policy_version(published.version());
    }
    if telemetry.is_enabled() {
        telemetry.emit(
            &Event::new("serve.reload")
                .with("version", published.version())
                .with("hash", published.hash())
                .with("source", published.source())
                .with("entries", published.entries() as u64),
        );
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_core::TrainedPolicy;
    use recovery_simlog::SymptomCatalog;
    use recovery_telemetry::EventBus;

    #[test]
    fn publish_announces_reload_and_updates_health() {
        let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
        let subscription = telemetry.bus().unwrap().subscribe();
        let store = PolicyStore::new();
        let mut symptoms = SymptomCatalog::default();
        symptoms.intern("error:X");
        let snapshot = PolicySnapshot::build(&TrainedPolicy::default(), &symptoms, "file:p", None);
        let published = publish_snapshot(&store, &telemetry, snapshot);
        assert_eq!(published.version(), 1);
        assert_eq!(store.version(), 1);
        assert_eq!(
            telemetry.registry().unwrap().counter("serve.reload").get(),
            1
        );
        assert_eq!(
            telemetry.health().unwrap().snapshot().policy_version,
            Some(1)
        );
        let line = subscription
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("reload event on the bus");
        assert!(line.starts_with("{\"type\":\"serve.reload\""), "{line}");
        assert!(line.contains("\"version\":1"), "{line}");
        assert!(
            line.contains(&format!("\"hash\":\"{}\"", published.hash())),
            "{line}"
        );
        assert!(line.contains("\"source\":\"file:p\""), "{line}");
    }
}
