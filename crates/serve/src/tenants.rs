//! Per-tenant serving state: counters, admission gauge, and the
//! registry the workers route against.
//!
//! A running server owns one [`TenantSet`] — index-aligned with the
//! registry's tenant list (one `default` tenant for a single corpus).
//! The event loop charges admission (the `inflight`
//! gauge and `quota_rejects`) on its own thread, so those are exact;
//! whichever thread answers a request — the loop thread inline, or a
//! worker — charges the outcome counters (queries, completions, rejects,
//! truncations) with relaxed atomics, mirroring `ServerStats`.
//!
//! Tenant counters surface in three places, all rendered from this one
//! struct so they cannot drift: the `tenants` section of `/stats`, the
//! `lotusx_tenant_*` families of `/metrics` (with a `tenant` label —
//! names are validated to the Prometheus-safe `[A-Za-z0-9_-]` alphabet
//! at route-load time), and the `tenant` field of access-log lines.

use lotusx::{EngineRegistry, LotusX, TenantLimits};
use lotusx_obs::{counter_members, push_json_str, PromWriter};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The tenancy view threaded through the event loop and the worker
/// pool: the registry plus its per-tenant runtime table (index-aligned).
/// Built once per `run` call.
pub(crate) struct Tenancy<'a> {
    pub(crate) registry: &'a EngineRegistry,
    /// Shared with [`crate::server::ServerHandle`] so harnesses can read
    /// exact per-tenant counters without a `/stats` round-trip.
    pub(crate) set: Arc<TenantSet>,
}

impl<'a> Tenancy<'a> {
    pub(crate) fn new(registry: &'a EngineRegistry) -> Tenancy<'a> {
        let tenants = registry.tenants().iter();
        let tenants = tenants.map(|t| TenantRuntime::new(t.name(), t.limits().clone()));
        let set = Arc::new(TenantSet {
            tenants: tenants.collect(),
        });
        Tenancy { registry, set }
    }

    /// The engine a request routed to `tenant` computes against.
    /// Tenant-less (server-scoped) requests never reach an engine; the
    /// first tenant stands in defensively.
    pub(crate) fn engine(&self, tenant: Option<u32>) -> &'a LotusX {
        self.registry.tenants()[tenant.unwrap_or(0) as usize].engine()
    }
}

lotusx_obs::counters! {
    /// Lifetime counters for one tenant: its object in the `tenants`
    /// section of `/stats` and its `tenant`-labelled samples in the
    /// `lotusx_tenant_*` families of `/metrics`.
    pub struct TenantStats => TenantSnapshot {
        counter requests: "Requests routed to this tenant and dispatched into service.",
        counter queries: "POST /query requests answered 200.",
        counter completions: "POST /complete requests answered 200.",
        counter rejected: "Requests answered 4xx/5xx after dispatch (bad bodies, engine errors, panics).",
        counter quota_rejects: "Requests answered 429 by this tenant's admission quota, never dispatched.",
        counter truncated_responses: "Query responses that went out marked truncated.",
        gauge inflight: "Requests currently in flight (loop-thread exact).",
        gauge max_inflight_seen: "High-water mark of inflight.",
    }
}

/// One tenant's runtime state: guard limits and counters.
pub struct TenantRuntime {
    name: String,
    limits: TenantLimits,
    /// Lifetime counters (see [`TenantStats`]).
    pub stats: TenantStats,
}

impl TenantRuntime {
    fn new(name: &str, limits: TenantLimits) -> TenantRuntime {
        TenantRuntime {
            name: name.to_string(),
            limits,
            stats: TenantStats::default(),
        }
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's admission quota and default budgets.
    pub fn limits(&self) -> &TenantLimits {
        &self.limits
    }

    /// Charges a served query.
    pub fn record_query(&self, truncated: bool) {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        if truncated {
            self.stats
                .truncated_responses
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charges a served completion request.
    pub fn record_completion(&self) {
        self.stats.completions.fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-tenant runtime table, index-aligned with the registry.
pub struct TenantSet {
    tenants: Vec<TenantRuntime>,
}

impl TenantSet {
    /// The tenant runtimes, in registry order.
    pub fn tenants(&self) -> &[TenantRuntime] {
        &self.tenants
    }

    /// The runtime at `idx` (panics on a bad index — indexes only come
    /// from resolution against the same registry).
    pub fn runtime(&self, idx: u32) -> &TenantRuntime {
        &self.tenants[idx as usize]
    }

    /// `(name, counters)` snapshots of every tenant, in registry order.
    pub fn snapshot(&self) -> Vec<(String, TenantSnapshot)> {
        self.tenants
            .iter()
            .map(|t| (t.name.clone(), t.stats.snapshot()))
            .collect()
    }

    /// The `tenants` section of the `/stats` response body: an object
    /// keyed by tenant name, each with its counters.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 * self.tenants.len() + 2);
        out.push('{');
        for (i, rt) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, &rt.name);
            out.push_str(":{");
            counter_members(&mut out, TenantStats::ROWS, &rt.stats.snapshot().values());
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The `lotusx_tenant_*` section of the `/metrics` exposition: every
    /// family written once (one `# HELP`/`# TYPE` pair), with one
    /// `tenant`-labelled sample per tenant.
    pub fn to_prometheus(&self) -> String {
        let tenants = self.tenants.iter();
        let series: Vec<_> = tenants
            .map(|rt| (rt.name.as_str(), rt.stats.snapshot().values()))
            .collect();
        let mut w = PromWriter::new();
        w.counter_rows("lotusx_tenant_", TenantStats::ROWS, |w, family, i| {
            for (name, values) in &series {
                w.sample_u64(family, &[("tenant", name)], values[i]);
            }
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(names: &[&str]) -> TenantSet {
        TenantSet {
            tenants: names
                .iter()
                .map(|n| TenantRuntime::new(n, TenantLimits::unlimited()))
                .collect(),
        }
    }

    #[test]
    fn json_and_prometheus_render_every_tenant_once() {
        let set = set_of(&["alpha", "beta"]);
        set.runtime(0).record_query(true);
        set.runtime(1).record_completion();
        set.runtime(1)
            .stats
            .requests
            .fetch_add(3, Ordering::Relaxed);

        let json = set.to_json();
        assert!(json.contains("\"alpha\":{\"requests\":0"), "{json}");
        assert!(json.contains("\"queries\":1"), "{json}");
        assert!(json.contains("\"beta\":{\"requests\":3"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let prom = set.to_prometheus();
        assert!(prom.contains("lotusx_tenant_queries_total{tenant=\"alpha\"} 1"));
        assert!(prom.contains("lotusx_tenant_truncated_responses_total{tenant=\"alpha\"} 1"));
        assert!(prom.contains("lotusx_tenant_requests_total{tenant=\"beta\"} 3"));
        // Exactly one HELP/TYPE pair per family despite two tenants.
        assert_eq!(
            prom.matches("# TYPE lotusx_tenant_requests_total").count(),
            1
        );
        assert_eq!(prom.matches("# TYPE lotusx_tenant_inflight").count(), 1);
    }
}
