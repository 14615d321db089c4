//! Bit pin of the cold dispatch: every [`optimal_dispatch`] output over a
//! fixed grid of fleets, speed vectors and slot parameters is hashed with
//! `to_bits` — objective, IT and facility power, delay, brown power, water
//! level and every per-group load — and the digest is pinned. A change to
//! how the dispatch builds or solves its water-filling problem must leave
//! every one of those bits where it was.
//!
//! The grid covers a homogeneous fleet, two scaled paper fleets, and a
//! fleet whose groups share capacity and energy slope but not static
//! power, so groups merge into one weighted row while each still adds its
//! own static power. Each fleet runs at PUE 1 and 1.2, at zero load,
//! partial load and saturated load, with `W = 0`, and in the
//! electricity-active, renewable-slack and kink regimes.
//!
//! Every cold solve must add exactly one tally to the water-filling KKT
//! check of [`invariant::counts`]. The counters are process-wide, so this
//! binary holds this one test.

use coca_dcsim::dispatch::{optimal_dispatch, DispatchOutcome, SlotProblem};
use coca_dcsim::{Cluster, ClusterBuilder, ServerClass, SpeedLevel};
use coca_opt::invariant;

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &DispatchOutcome) {
        for v in [
            out.objective,
            out.it_power,
            out.facility_power,
            out.delay,
            out.brown,
        ] {
            self.mix(v.to_bits());
        }
        self.mix(out.water_level.map_or(u64::MAX, f64::to_bits));
        for &l in &out.loads {
            self.mix(l.to_bits());
        }
    }
}

/// A class whose powers and rates are dyadic, so `level power − idle`
/// is exact and two classes with different idle power share every energy
/// slope bit for bit.
fn dyadic_class(name: &str, idle: f64) -> ServerClass {
    let levels = [(2.0, 0.0625), (4.0, 0.09375), (6.0, 0.15625), (8.0, 0.25)]
        .iter()
        .map(|&(rate, computing)| SpeedLevel {
            rate,
            power: idle + computing,
        })
        .collect();
    ServerClass {
        name: name.into(),
        idle_power: idle,
        levels,
    }
}

/// Groups that merge by (capacity, slope) but differ in static power,
/// interleaved with a paper class that merges with nothing.
fn merging_fleet() -> Cluster {
    let lean = dyadic_class("lean", 0.125);
    let idle_heavy = dyadic_class("idle-heavy", 0.25);
    ClusterBuilder::new()
        .add_groups(lean.clone(), 1, 10)
        .add_groups(idle_heavy.clone(), 1, 10)
        .add_groups(ServerClass::amd_opteron_2380(), 1, 10)
        .add_groups(idle_heavy, 1, 10)
        .add_groups(lean, 1, 20)
        .build()
        .expect("merging fleet")
}

/// Speed vectors per fleet: all at top speed, all at the lowest speed, and
/// a mixed pattern with off groups (at least one group on), and the top
/// speed with every fifth group off.
fn speed_vectors(cluster: &Cluster) -> Vec<Vec<usize>> {
    let n = cluster.num_groups();
    let mut mixed: Vec<usize> = (0..n).map(|i| (i * 3 + 1) % 5).collect();
    if mixed.iter().all(|&c| c == 0) {
        mixed[0] = 4;
    }
    let gapped = (0..n).map(|i| if i % 5 == 2 { 0 } else { 4 }).collect();
    vec![cluster.full_speed_vector(), vec![1; n], mixed, gapped]
}

#[test]
fn cold_dispatch_bits_and_kkt_tallies_are_pinned() {
    let kkt_count = || {
        let counts = invariant::counts();
        counts
            .iter()
            .find(|(name, _)| *name == "kkt-residual")
            .expect("kkt counter")
            .1
    };
    let fleets = [
        Cluster::homogeneous(6, 10),
        Cluster::scaled_paper_datacenter(4, 6),
        Cluster::scaled_paper_datacenter(8, 200),
        merging_fleet(),
    ];
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut solves = 0u64;
    let mut kinks = 0u64;
    for cluster in &fleets {
        for levels in speed_vectors(cluster) {
            for pue in [1.0, 1.2] {
                let capped = 0.95 * cluster.capacity_of(&levels);
                let slot =
                    |arrival_rate: f64, onsite: f64, energy_weight: f64, delay_weight: f64| {
                        SlotProblem {
                            cluster,
                            arrival_rate,
                            onsite,
                            energy_weight,
                            delay_weight,
                            gamma: 0.95,
                            pue,
                        }
                    };
                let mut run = |p: SlotProblem<'_>| -> DispatchOutcome {
                    let before = kkt_count();
                    let out = optimal_dispatch(&p, &levels).expect("feasible dispatch");
                    assert_eq!(
                        kkt_count(),
                        before + 1,
                        "one KKT certificate per cold solve"
                    );
                    digest.outcome(&out);
                    solves += 1;
                    out
                };
                let _ = run(slot(0.0, 0.0, 50.0, 1.0));
                let _ = run(slot(capped, 0.0, 50.0, 1.0));
                let _ = run(slot(0.6 * capped, 0.0, 50.0, 0.0));
                let _ = run(slot(0.6 * capped, 0.0, 3.0, 7.0));
                // The two smooth regimes bracket the kink: with the
                // renewable supply between their facility powers, the
                // optimum pins power to it.
                let active = run(slot(0.6 * capped, 0.0, 500.0, 1.0));
                let slack = run(slot(0.6 * capped, 1e12, 500.0, 1.0));
                if active.facility_power < slack.facility_power {
                    let r = 0.5 * (active.facility_power + slack.facility_power);
                    let kink = run(slot(0.6 * capped, r, 500.0, 1.0));
                    assert!(
                        (kink.facility_power - r).abs() <= 1e-6 * r,
                        "kink power {} vs r {r}",
                        kink.facility_power
                    );
                    kinks += 1;
                }
            }
        }
    }
    assert_eq!((solves, kinks), (217, 25));
    assert_eq!(digest.0, 0x9d64_4f38_5d85_100a, "dispatch bits moved");
}
