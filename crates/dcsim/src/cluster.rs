//! Heterogeneous clusters and the paper's reference data center.
//!
//! A [`Cluster`] is an ordered set of [`ServerGroup`]s; a *speed vector*
//! assigns one decision index per group (0 = off). The builder constructs
//! arbitrary fleets; [`Cluster::paper_datacenter`] reproduces the paper's
//! evaluation setup: ≈216 K servers with a ≈50 MW peak, organized into 200
//! groups of four heterogeneous classes ("different purchase dates").
//!
//! Every cluster also carries its [`QueueTypes`] table: the distinct
//! per-level queue rows its groups induce, which every P3 kernel prices
//! speed vectors over.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use crate::group::ServerGroup;
use crate::server::ServerClass;
use crate::SimError;

/// An ordered collection of server groups.
///
/// Serializes as `{"groups": [...]}`; the per-group choice counts and the
/// queue-type table are derived from the groups, not stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    groups: Vec<ServerGroup>,
    /// `groups[i].num_choices()`, computed once so every decision's
    /// invariant check borrows it instead of collecting a fresh `Vec`.
    choice_counts: Vec<usize>,
    /// The groups' distinct per-level rows, built once with the cluster.
    /// Clones share it, so a solver can tell the fleet it built its own
    /// tables for by pointer (see [`Self::queue_types`]).
    queue_types: Arc<QueueTypes>,
}

/// One distinct per-level queue row of a fleet, unscaled: what a
/// `(group, speed level ≥ 1)` pair contributes to P3 before γ and PUE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueType {
    /// Pooled service capacity `Xᵢ` (req/s).
    pub capacity: f64,
    /// Marginal power per unit load (kW per req/s).
    pub energy_slope: f64,
    /// Static power when on (kW).
    pub static_power: f64,
}

impl QueueType {
    /// The row as a P3 kernel's bank holds it: `(capacity, γ·capacity,
    /// slope·PUE, static power·PUE)`.
    pub fn scaled(&self, gamma: f64, pue: f64) -> (f64, f64, f64, f64) {
        (self.capacity, gamma * self.capacity, self.energy_slope * pue, self.static_power * pue)
    }
}

/// A fleet's queue types: the distinct `(capacity, energy slope, static
/// power)` rows of its `(group, level ≥ 1)` pairs, and each pair's index
/// into them.
///
/// Rows merge only when all three values are bit-equal, so a P3 problem
/// over the types with integer multiplicities is the problem over the
/// groups. Rows keep the order in which they first appear, scanning groups
/// in cluster order and each group's levels upward. Two groups with equal
/// [`Self::group`] slices are interchangeable in P3 at every γ and PUE.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueTypes {
    rows: Vec<QueueType>,
    /// Type id of `(group g, level ℓ ≥ 1)` at `ids[offsets[g] + ℓ − 1]`.
    ids: Vec<usize>,
    /// Start of each group's range in `ids`, plus a final end sentinel.
    offsets: Vec<usize>,
}

impl QueueTypes {
    fn new(groups: &[ServerGroup]) -> Self {
        // Runs once per cluster, so a std map is fine.
        let mut index: HashMap<(u64, u64, u64), usize> = HashMap::new();
        let mut rows = Vec::new();
        let mut ids = Vec::new();
        let mut offsets = Vec::with_capacity(groups.len() + 1);
        for g in groups {
            offsets.push(ids.len());
            for c in 1..g.num_choices() {
                let row = QueueType {
                    capacity: g.capacity(c),
                    energy_slope: g.energy_slope(c),
                    static_power: g.static_power(c),
                };
                let key =
                    (row.capacity.to_bits(), row.energy_slope.to_bits(), row.static_power.to_bits());
                let id = *index.entry(key).or_insert_with(|| {
                    rows.push(row);
                    rows.len() - 1
                });
                ids.push(id);
            }
        }
        offsets.push(ids.len());
        Self { rows, ids, offsets }
    }

    /// The distinct rows, in first-appearance order.
    pub fn rows(&self) -> &[QueueType] {
        &self.rows
    }

    /// Type ids of group `g`'s positive levels: level `ℓ` at index `ℓ − 1`.
    #[inline]
    pub fn group(&self, g: usize) -> &[usize] {
        &self.ids[self.offsets[g]..self.offsets[g + 1]]
    }

    /// Type id of group `g` at level `level ≥ 1`.
    #[inline]
    pub fn type_of(&self, g: usize, level: usize) -> usize {
        self.ids[self.offsets[g] + level - 1]
    }
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
        let queue_types = Arc::new(QueueTypes::new(&groups));
        Self { groups, choice_counts, queue_types }
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

    /// The fleet's queue-type table. Clones of a cluster share one
    /// allocation and a deserialized cluster builds its own, so
    /// `Arc::ptr_eq` on two tables implies the same fleet (an unequal
    /// pointer says nothing).
    pub fn queue_types(&self) -> &Arc<QueueTypes> {
        &self.queue_types
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
        // The table is rebuilt, equal but not shared; a clone shares it.
        assert_eq!(back.queue_types(), c.queue_types());
        assert!(!Arc::ptr_eq(back.queue_types(), c.queue_types()));
        assert!(Arc::ptr_eq(c.clone().queue_types(), c.queue_types()));
    }

    #[test]
    fn queue_types_are_the_distinct_raw_rows_in_first_appearance_order() {
        let c = Cluster::scaled_paper_datacenter(8, 3);
        let types = c.queue_types();
        assert_eq!(types.rows().len(), 16, "four classes × four levels");
        for (g, grp) in c.groups().iter().enumerate() {
            // Each class's rows are first seen on its first group.
            let first = 4 * (g / 2);
            assert_eq!(types.group(g), &[first, first + 1, first + 2, first + 3]);
            for level in 1..grp.num_choices() {
                let (row, cap) = (types.rows()[types.type_of(g, level)], grp.capacity(level));
                let slope = grp.energy_slope(level);
                assert_eq!(row, QueueType { capacity: cap, energy_slope: slope, static_power: grp.static_power(level) });
            }
        }
        let homogeneous = Cluster::homogeneous(6, 10);
        assert_eq!(homogeneous.queue_types().group(5), &[0, 1, 2, 3], "identical groups share rows");
    }

    #[test]
    fn classes_equal_at_one_level_share_only_that_levels_type() {
        use crate::server::SpeedLevel;
        // Dyadic powers, so equal computing powers are bit-equal slopes.
        let class = |idle: f64, top: f64| ServerClass {
            name: format!("idle {idle}, top {top}"),
            idle_power: idle,
            levels: vec![
                SpeedLevel { rate: 5.0, power: idle + 0.5 },
                SpeedLevel { rate: 10.0, power: idle + top },
            ],
        };
        // Equal capacities throughout: the second class differs in slope
        // at level 2 only, the third in static power at every level.
        let c = ClusterBuilder::new()
            .add_groups(class(0.5, 1.0), 1, 4)
            .add_groups(class(0.5, 2.0), 1, 4)
            .add_groups(class(1.0, 1.0), 1, 4)
            .build()
            .unwrap();
        let types = c.queue_types();
        assert_eq!(types.group(0), &[0, 1]);
        assert_eq!(types.group(1), &[0, 2], "level 1 shared, level 2 not");
        assert_eq!(types.group(2), &[3, 4], "static power is part of the identity");
    }
}
