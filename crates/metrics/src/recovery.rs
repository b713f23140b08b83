//! Structured per-run recovery accounting.
//!
//! Every layer of the stack emits recovery activity — the watchdog's
//! escalation ladder, the cluster's kill-migrate-restart path, the
//! breaker's quarantine/probe cycle, the serving frontend's brownout
//! shedding. Before this summary existed each test and bench counted the
//! events it cared about by hand; [`RecoverySummary`] is the one shared
//! tally, folded once by the producing layer and attached to its result
//! (`ClusterResult`, which `CoRun` also returns, and `ServeReport`).

use flep_sim_core::json::{JsonValue, ToJson};

/// Counts of every recovery-path action taken during one run. All fields
/// are plain counters; the producing layer folds its own event taxonomy
/// into them (the metrics crate stays independent of those enums).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Watchdog escalations past the flag rung: forced drains.
    pub forced_drains: u64,
    /// Watchdog terminal rung: victims killed.
    pub kills: u64,
    /// Lost completion notifications reconciled by the watchdog.
    pub lost_notifications: u64,
    /// Grid launches retried after transient rejection.
    pub launch_retries: u64,
    /// Jobs migrated off a failed device.
    pub migrations: u64,
    /// Devices quarantined by the circuit breaker (closed → open).
    pub quarantines: u64,
    /// Breaker probe grids launched toward re-admission.
    pub probes: u64,
    /// Devices re-admitted by the breaker (half-open → closed).
    pub readmissions: u64,
    /// Requests shed at admission by brownout tiers (serving only).
    pub shed: u64,
}

impl RecoverySummary {
    /// True when no recovery action of any kind was taken — the healthy
    /// fast path, and the gate for omitting this block from JSON so
    /// fault-free goldens stay byte-identical.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == RecoverySummary::default()
    }

    /// Total actions across all counters.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.forced_drains
            + self.kills
            + self.lost_notifications
            + self.launch_retries
            + self.migrations
            + self.quarantines
            + self.probes
            + self.readmissions
            + self.shed
    }

    /// Adds another summary's counts into this one (e.g. folding
    /// per-tenant or per-device tallies into a run total).
    pub fn merge(&mut self, other: &RecoverySummary) {
        self.forced_drains += other.forced_drains;
        self.kills += other.kills;
        self.lost_notifications += other.lost_notifications;
        self.launch_retries += other.launch_retries;
        self.migrations += other.migrations;
        self.quarantines += other.quarantines;
        self.probes += other.probes;
        self.readmissions += other.readmissions;
        self.shed += other.shed;
    }
}

impl ToJson for RecoverySummary {
    fn to_json(&self) -> JsonValue {
        // Only nonzero counters are emitted, so adding a new recovery
        // class later never perturbs existing artifacts.
        let mut fields: Vec<(&str, JsonValue)> = Vec::new();
        for (key, value) in [
            ("forced_drains", self.forced_drains),
            ("kills", self.kills),
            ("lost_notifications", self.lost_notifications),
            ("launch_retries", self.launch_retries),
            ("migrations", self.migrations),
            ("quarantines", self.quarantines),
            ("probes", self.probes),
            ("readmissions", self.readmissions),
            ("shed", self.shed),
        ] {
            if value > 0 {
                fields.push((key, value.to_json()));
            }
        }
        JsonValue::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty() {
        let s = RecoverySummary::default();
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.to_json().render(), "{}");
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = RecoverySummary {
            kills: 2,
            migrations: 1,
            ..RecoverySummary::default()
        };
        let b = RecoverySummary {
            kills: 1,
            quarantines: 3,
            shed: 5,
            ..RecoverySummary::default()
        };
        a.merge(&b);
        assert_eq!(a.kills, 3);
        assert_eq!(a.migrations, 1);
        assert_eq!(a.quarantines, 3);
        assert_eq!(a.shed, 5);
        assert_eq!(a.total(), 12);
        assert!(!a.is_empty());
    }

    #[test]
    fn json_omits_zero_counters() {
        let s = RecoverySummary {
            migrations: 4,
            quarantines: 1,
            ..RecoverySummary::default()
        };
        assert_eq!(s.to_json().render(), r#"{"migrations":4,"quarantines":1}"#);
    }
}
