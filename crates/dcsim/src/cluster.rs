//! Heterogeneous clusters and the paper's reference data center.
//!
//! A [`Cluster`] is an ordered set of [`ServerGroup`]s; a *speed vector*
//! assigns one decision index per group (0 = off). The builder constructs
//! arbitrary fleets; [`Cluster::paper_datacenter`] reproduces the paper's
//! evaluation setup: ≈216 K servers with a ≈50 MW peak, organized into 200
//! groups of four heterogeneous classes ("different purchase dates").

use serde::{Deserialize, Serialize, Value};

use crate::group::ServerGroup;
use crate::server::ServerClass;
use crate::SimError;

/// An ordered collection of server groups.
///
/// Serializes as `{"groups": [...]}`; the per-group choice counts are
/// derived from the groups, not stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    groups: Vec<ServerGroup>,
    /// `groups[i].num_choices()`, computed once so every decision's
    /// invariant check borrows it instead of collecting a fresh `Vec`.
    choice_counts: Vec<usize>,
}

impl Cluster {
    /// Creates a cluster from groups (must be non-empty).
    pub fn new(groups: Vec<ServerGroup>) -> crate::Result<Self> {
        if groups.is_empty() {
            return Err(SimError::InvalidConfig("cluster must have at least one group".into()));
        }
        Ok(Self::from_groups(groups))
    }

    fn from_groups(groups: Vec<ServerGroup>) -> Self {
        let choice_counts = groups.iter().map(ServerGroup::num_choices).collect();
        Self { groups, choice_counts }
    }

    /// The paper's reference data center: 200 groups × 1 080 servers
    /// (216 000 total, ≈50 MW peak), four classes modeling purchase-date
    /// heterogeneity around the measured AMD Opteron 2380.
    ///
    /// ```
    /// let dc = coca_dcsim::Cluster::paper_datacenter();
    /// assert_eq!(dc.num_servers(), 216_000);
    /// assert!((dc.peak_power() / 1000.0 - 50.0).abs() < 5.0); // ≈ 50 MW
    /// ```
    pub fn paper_datacenter() -> Self {
        Self::scaled_paper_datacenter(200, 1080)
    }

    /// Smaller/larger variants of the paper fleet, keeping the four-class
    /// heterogeneity structure. `groups` is rounded down to a multiple of 4.
    pub fn scaled_paper_datacenter(groups: usize, servers_per_group: usize) -> Self {
        assert!(groups >= 4 && servers_per_group >= 1);
        let base = ServerClass::amd_opteron_2380();
        let classes = [
            base.clone(),
            base.derived("amd-opteron-2380-old", 0.85, 1.10),
            base.derived("amd-opteron-2380-new", 1.15, 0.95),
            base.derived("amd-opteron-2380-lp", 0.90, 0.80),
        ];
        let per_class = groups / 4;
        let mut out = Vec::with_capacity(per_class * 4);
        for class in &classes {
            for _ in 0..per_class {
                out.push(ServerGroup { class: class.clone(), count: servers_per_group });
            }
        }
        Self::from_groups(out)
    }

    /// A small homogeneous cluster, convenient for tests and examples.
    pub fn homogeneous(groups: usize, servers_per_group: usize) -> Self {
        assert!(groups >= 1);
        let class = ServerClass::amd_opteron_2380();
        Self::from_groups(
            (0..groups)
                .map(|_| ServerGroup { class: class.clone(), count: servers_per_group })
                .collect(),
        )
    }

    /// Group accessors.
    pub fn groups(&self) -> &[ServerGroup] {
        &self.groups
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of servers.
    pub fn num_servers(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Per-group decision-space sizes (off + ladder), as consumed by GSD.
    pub fn choice_counts(&self) -> &[usize] {
        &self.choice_counts
    }

    /// Aggregate capacity at the top speed of every group (req/s).
    pub fn max_capacity(&self) -> f64 {
        self.groups.iter().map(|g| g.max_capacity()).sum()
    }

    /// Fleet nameplate power: every server at top speed, fully loaded (kW).
    pub fn peak_power(&self) -> f64 {
        self.groups.iter().map(|g| g.max_power()).sum()
    }

    /// The all-maximum speed vector.
    pub fn full_speed_vector(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.num_choices() - 1).collect()
    }

    /// The all-off speed vector.
    pub fn all_off_vector(&self) -> Vec<usize> {
        vec![0; self.groups.len()]
    }

    /// Aggregate service capacity of a speed vector (req/s).
    pub fn capacity_of(&self, levels: &[usize]) -> f64 {
        debug_assert_eq!(levels.len(), self.groups.len());
        self.groups.iter().zip(levels).map(|(g, &c)| g.capacity(c)).sum()
    }

    /// Total static power of a speed vector (kW).
    pub fn static_power_of(&self, levels: &[usize]) -> f64 {
        self.groups.iter().zip(levels).map(|(g, &c)| g.static_power(c)).sum()
    }

    /// Number of *servers* that are on under a speed vector.
    pub fn servers_on(&self, levels: &[usize]) -> usize {
        self.groups
            .iter()
            .zip(levels)
            .map(|(g, &c)| if c > 0 { g.count } else { 0 })
            .sum()
    }

    /// Validates that a speed vector indexes valid choices.
    pub fn validate_levels(&self, levels: &[usize]) -> crate::Result<()> {
        if levels.len() != self.groups.len() {
            return Err(SimError::InvalidDecision(format!(
                "speed vector has {} entries for {} groups",
                levels.len(),
                self.groups.len()
            )));
        }
        for (i, (&c, g)) in levels.iter().zip(&self.groups).enumerate() {
            if c >= g.num_choices() {
                return Err(SimError::InvalidDecision(format!(
                    "group {i}: choice {c} out of range {}",
                    g.num_choices()
                )));
            }
        }
        Ok(())
    }
}

impl Serialize for Cluster {
    fn serialize_value(&self) -> Result<Value, serde::Error> {
        Ok(Value::Map(vec![("groups".to_string(), self.groups.serialize_value()?)]))
    }
}

impl Deserialize for Cluster {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        if v.as_map().is_none() {
            return Err(serde::Error::custom("expected map for struct Cluster"));
        }
        let groups = Vec::deserialize_value(serde::field(v, "Cluster", "groups")?)?;
        Ok(Self::from_groups(groups))
    }
}

/// Fluent builder for custom clusters.
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    groups: Vec<ServerGroup>,
}

impl ClusterBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count_groups` groups of `servers_per_group` servers of `class`.
    pub fn add_groups(
        mut self,
        class: ServerClass,
        count_groups: usize,
        servers_per_group: usize,
    ) -> Self {
        for _ in 0..count_groups {
            self.groups.push(ServerGroup { class: class.clone(), count: servers_per_group });
        }
        self
    }

    /// Adds a single pre-built group.
    pub fn add_group(mut self, group: ServerGroup) -> Self {
        self.groups.push(group);
        self
    }

    /// Finalizes the cluster.
    pub fn build(self) -> crate::Result<Cluster> {
        for g in &self.groups {
            g.class.validate()?;
            if g.count == 0 {
                return Err(SimError::InvalidConfig("group with zero servers".into()));
            }
        }
        Cluster::new(self.groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_datacenter_matches_headline_numbers() {
        let c = Cluster::paper_datacenter();
        assert_eq!(c.num_groups(), 200);
        assert_eq!(c.num_servers(), 216_000);
        // ≈50 MW peak: the heterogeneity factors average slightly under 1.
        let peak_mw = c.peak_power() / 1000.0;
        assert!(
            (45.0..55.0).contains(&peak_mw),
            "peak power {peak_mw} MW should be near the paper's 50 MW"
        );
        // Max capacity ≈ 2.16 M req/s (the 1.1 M peak workload is ~50 %).
        let cap = c.max_capacity();
        assert!((1.9e6..2.4e6).contains(&cap), "capacity {cap}");
    }

    #[test]
    fn heterogeneity_creates_four_distinct_classes() {
        let c = Cluster::paper_datacenter();
        let mut names: Vec<&str> =
            c.groups().iter().map(|g| g.class.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn speed_vector_aggregates() {
        let c = Cluster::homogeneous(3, 10);
        let full = c.full_speed_vector();
        assert!((c.capacity_of(&full) - 300.0).abs() < 1e-9);
        assert!((c.static_power_of(&full) - 3.0 * 10.0 * 0.140).abs() < 1e-9);
        assert_eq!(c.servers_on(&full), 30);
        let off = c.all_off_vector();
        assert_eq!(c.capacity_of(&off), 0.0);
        assert_eq!(c.static_power_of(&off), 0.0);
        assert_eq!(c.servers_on(&off), 0);
    }

    #[test]
    fn validate_levels_bounds() {
        let c = Cluster::homogeneous(2, 1);
        assert!(c.validate_levels(&[0, 4]).is_ok());
        assert!(c.validate_levels(&[0]).is_err());
        assert!(c.validate_levels(&[0, 5]).is_err());
    }

    #[test]
    fn builder_accumulates_and_validates() {
        let cl = ClusterBuilder::new()
            .add_groups(ServerClass::amd_opteron_2380(), 2, 5)
            .add_group(ServerGroup::new(ServerClass::amd_opteron_2380(), 7).unwrap())
            .build()
            .unwrap();
        assert_eq!(cl.num_groups(), 3);
        assert_eq!(cl.num_servers(), 17);
        assert!(ClusterBuilder::new().build().is_err(), "empty cluster rejected");
    }

    #[test]
    fn choice_counts_match_classes() {
        let c = Cluster::paper_datacenter();
        let counts = c.choice_counts();
        assert!(counts.iter().all(|&k| k == 5));
    }

    #[test]
    fn serializes_groups_only_and_rederives_choice_counts() {
        let c = ClusterBuilder::new()
            .add_groups(ServerClass::amd_opteron_2380(), 2, 5)
            .add_group(ServerGroup { class: ServerClass::amd_opteron_2380(), count: 7 })
            .build()
            .unwrap();
        let value = c.serialize_value().unwrap();
        let keys: Vec<&str> = value.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["groups"]);
        let back = Cluster::deserialize_value(&value).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.choice_counts(), c.choice_counts());
    }
}
