//! Facility lints (F codes): multi-tenant serving configurations that
//! can never work.
//!
//! A `vine-serve` facility admits submissions from weighted tenants onto
//! a shared cluster. The failure modes here are quieter than Fig 11's —
//! a tenant whose quota exceeds the cluster just waits forever, a
//! zero-weight tenant is silently starved — so the facility runs these
//! checks before accepting its first submission, mirroring the engine's
//! own pre-flight gate.

use crate::{fmt_bytes, Code, Diagnostic, Locus, Report, Severity};

/// One tenant's admission knobs, as the facility sees them.
#[derive(Clone, Debug)]
pub struct TenantFacts {
    /// Display name (diagnostics only).
    pub name: String,
    /// Fair-share weight (larger = more throughput).
    pub weight: f64,
    /// Cap on cores this tenant may hold in flight at once.
    pub max_inflight_cores: u32,
    /// Cap on session-resident cache bytes attributed to this tenant.
    pub max_resident_bytes: u64,
}

/// A plain snapshot of the facility knobs the F lints read.
#[derive(Clone, Debug)]
pub struct FacilityFacts {
    /// Workers in the cluster.
    pub workers: usize,
    /// Cores per worker.
    pub cores_per_worker: u32,
    /// Disk (cache capacity) per worker, bytes.
    pub disk_per_worker: u64,
    /// Workers each admitted run receives.
    pub workers_per_run: usize,
    /// The tenants, in facility order.
    pub tenants: Vec<TenantFacts>,
}

impl FacilityFacts {
    fn total_cores(&self) -> u64 {
        self.workers as u64 * self.cores_per_worker as u64
    }

    fn aggregate_disk(&self) -> u64 {
        self.workers as u64 * self.disk_per_worker
    }
}

/// Run the facility lints.
pub fn lint_facility(facts: &FacilityFacts) -> Report {
    let mut report = Report::new();

    if facts.tenants.is_empty() {
        report.push(Diagnostic {
            code: Code::F002,
            severity: Severity::Error,
            locus: Locus::Config,
            message: "facility has no tenants; nothing can ever be admitted".into(),
            suggestion: Some("configure at least one tenant with a positive weight".into()),
        });
    }

    for (i, t) in facts.tenants.iter().enumerate() {
        if u64::from(t.max_inflight_cores) > facts.total_cores() {
            report.push(Diagnostic {
                code: Code::F001,
                severity: Severity::Error,
                locus: Locus::Tenant(i),
                message: format!(
                    "tenant '{}' allows {} in-flight cores but the cluster has only {}",
                    t.name,
                    t.max_inflight_cores,
                    facts.total_cores()
                ),
                suggestion: Some("cap the quota at the cluster's core count".into()),
            });
        }
        if !(t.weight.is_finite() && t.weight > 0.0) {
            report.push(Diagnostic {
                code: Code::F002,
                severity: Severity::Error,
                locus: Locus::Tenant(i),
                message: format!(
                    "tenant '{}' has fair-share weight {}; it will never be admitted",
                    t.name, t.weight
                ),
                suggestion: Some("give every tenant a positive finite weight".into()),
            });
        }
        if t.max_resident_bytes > facts.aggregate_disk() {
            report.push(Diagnostic {
                code: Code::F005,
                severity: Severity::Warn,
                locus: Locus::Tenant(i),
                message: format!(
                    "tenant '{}' may pin {} of cache but the cluster's disks total {}",
                    t.name,
                    fmt_bytes(t.max_resident_bytes),
                    fmt_bytes(facts.aggregate_disk())
                ),
                suggestion: Some("the quota is unreachable; lower it or add disk".into()),
            });
        }
    }

    if facts.workers_per_run == 0 || facts.workers_per_run > facts.workers {
        report.push(Diagnostic {
            code: Code::F004,
            severity: Severity::Error,
            locus: Locus::Cluster,
            message: format!(
                "each run wants {} workers but the cluster has {}",
                facts.workers_per_run, facts.workers
            ),
            suggestion: Some("shrink workers_per_run or grow the cluster".into()),
        });
    }

    report
}

/// A plain snapshot of the federation knobs the sharding lints read.
#[derive(Clone, Debug)]
pub struct ShardFacts {
    /// Independent facility shards in the federation.
    pub shards: usize,
    /// Whether a shared object tier is attached.
    pub store_enabled: bool,
    /// The tier's byte capacity (ignored when disabled).
    pub store_capacity_bytes: u64,
    /// Cross-shard work stealing enabled.
    pub work_stealing: bool,
}

/// Run the per-shard facility lints plus the federation-level sharding
/// lints (F006–F008).
pub fn lint_sharded(facts: &FacilityFacts, shard_facts: &ShardFacts) -> Report {
    let mut report = lint_facility(facts);

    if shard_facts.shards == 0 {
        report.push(Diagnostic {
            code: Code::F006,
            severity: Severity::Error,
            locus: Locus::Config,
            message: "federation has zero shards; nothing can ever run".into(),
            suggestion: Some("configure at least one shard".into()),
        });
    }

    if shard_facts.store_enabled && shard_facts.store_capacity_bytes == 0 {
        report.push(Diagnostic {
            code: Code::F007,
            severity: Severity::Error,
            locus: Locus::Config,
            message: "shared object tier has zero capacity; every put bounces".into(),
            suggestion: Some("give the tier a positive byte capacity".into()),
        });
    }

    if shard_facts.work_stealing && shard_facts.shards == 1 {
        report.push(Diagnostic {
            code: Code::F008,
            severity: Severity::Warn,
            locus: Locus::Config,
            message: "work stealing enabled on a single-shard federation; there is never a victim"
                .into(),
            suggestion: Some("add shards or disable work stealing".into()),
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> FacilityFacts {
        FacilityFacts {
            workers: 8,
            cores_per_worker: 12,
            disk_per_worker: 100_000_000_000,
            workers_per_run: 4,
            tenants: vec![
                TenantFacts {
                    name: "atlas".into(),
                    weight: 2.0,
                    max_inflight_cores: 48,
                    max_resident_bytes: 200_000_000_000,
                },
                TenantFacts {
                    name: "cms".into(),
                    weight: 1.0,
                    max_inflight_cores: 48,
                    max_resident_bytes: 200_000_000_000,
                },
            ],
        }
    }

    #[test]
    fn healthy_facility_is_clean() {
        assert!(lint_facility(&healthy()).is_clean());
    }

    #[test]
    fn over_quota_cores_fire_f001() {
        let mut f = healthy();
        f.tenants[0].max_inflight_cores = 1000;
        let r = lint_facility(&f);
        assert!(r.has_code(Code::F001) && r.has_errors());
    }

    #[test]
    fn zero_weight_fires_f002() {
        let mut f = healthy();
        f.tenants[1].weight = 0.0;
        assert!(lint_facility(&f).has_code(Code::F002));
        f.tenants[1].weight = f64::NAN;
        assert!(lint_facility(&f).has_code(Code::F002));
    }

    #[test]
    fn no_tenants_fires_f002() {
        let mut f = healthy();
        f.tenants.clear();
        let r = lint_facility(&f);
        assert!(r.has_code(Code::F002) && r.has_errors());
    }

    #[test]
    fn infeasible_slice_fires_f004() {
        let mut f = healthy();
        f.workers_per_run = 9;
        assert!(lint_facility(&f).has_code(Code::F004));
        f.workers_per_run = 0;
        assert!(lint_facility(&f).has_code(Code::F004));
    }

    #[test]
    fn oversized_byte_quota_fires_f005() {
        let mut f = healthy();
        f.tenants[0].max_resident_bytes = 10_000_000_000_000;
        let r = lint_facility(&f);
        assert!(r.has_code(Code::F005));
        assert!(!r.has_errors(), "F005 is advisory");
    }

    fn healthy_shards() -> ShardFacts {
        ShardFacts {
            shards: 4,
            store_enabled: true,
            store_capacity_bytes: 200_000_000_000,
            work_stealing: true,
        }
    }

    #[test]
    fn healthy_federation_is_clean() {
        assert!(lint_sharded(&healthy(), &healthy_shards()).is_clean());
    }

    #[test]
    fn zero_shards_fire_f006() {
        let mut s = healthy_shards();
        s.shards = 0;
        let r = lint_sharded(&healthy(), &s);
        assert!(r.has_code(Code::F006) && r.has_errors());
    }

    #[test]
    fn broken_store_fires_f007() {
        let mut s = healthy_shards();
        s.store_capacity_bytes = 0;
        let r = lint_sharded(&healthy(), &s);
        assert!(r.has_code(Code::F007) && r.has_errors());

        // A disabled store never lints its capacity.
        s.store_enabled = false;
        assert!(lint_sharded(&healthy(), &s).is_clean());
    }

    #[test]
    fn single_shard_stealing_fires_f008() {
        let mut s = healthy_shards();
        s.shards = 1;
        let r = lint_sharded(&healthy(), &s);
        assert!(r.has_code(Code::F008));
        assert!(!r.has_errors(), "F008 is advisory");

        s.work_stealing = false;
        assert!(lint_sharded(&healthy(), &s).is_clean());
    }
}
