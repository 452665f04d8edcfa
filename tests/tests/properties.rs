//! Property-based tests on randomly generated consistent SDF graphs and
//! random rationals: the invariants the paper's algorithms rest on.
//!
//! Deterministic seeded-loop style: each property draws many cases from
//! the in-repo [`SplitMix64`] stream; the failing case index is part of
//! the assertion message, so failures reproduce directly.

use buffy_analysis::{throughput, DataflowSemantics, ExplorationLimits, Schedule};
use buffy_core::{lower_bound_distribution, DistributionSpace};
use buffy_gen::{RandomGraphConfig, SplitMix64};
use buffy_graph::xml::{read_sdf_xml, write_sdf_xml};
use buffy_graph::{Rational, RepetitionVector, SdfGraph, StorageDistribution};

const CASES: u64 = 48;

/// A small random consistent graph drawn from `rng`.
fn small_graph(rng: &mut SplitMix64) -> SdfGraph {
    RandomGraphConfig {
        actors: rng.range_usize(3, 6),
        extra_channels: rng.range_usize(0, 3),
        max_repetition: rng.range_u64(1, 3),
        max_rate_factor: 2,
        max_execution_time: rng.range_u64(1, 2),
        seed: rng.range_u64(0, 499),
    }
    .generate()
}

fn small_rational(rng: &mut SplitMix64) -> Rational {
    let n = rng.range_u64(0, 2000) as i128 - 1000;
    let d = rng.range_u64(1, 99) as i128;
    Rational::new(n, d)
}

/// Rational arithmetic laws used throughout the exploration.
#[test]
fn rational_field_laws() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0001);
    for case in 0..CASES * 4 {
        let a = small_rational(&mut rng);
        let b = small_rational(&mut rng);
        let c = small_rational(&mut rng);
        assert_eq!(a + b, b + a, "case {case}");
        assert_eq!((a + b) + c, a + (b + c), "case {case}");
        assert_eq!(a * (b + c), a * b + a * c, "case {case}");
        assert_eq!(a - a, Rational::ZERO, "case {case}");
        if !b.is_zero() {
            assert_eq!((a / b) * b, a, "case {case}");
        }
        // Ordering is total and consistent with subtraction.
        assert_eq!(a < b, (a - b).numer() < 0, "case {case}");
    }
}

/// Parsing a displayed rational returns the same value.
#[test]
fn rational_display_roundtrip() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0002);
    for case in 0..CASES * 4 {
        let n = rng.range_u64(0, 20_000) as i128 - 10_000;
        let d = rng.range_u64(1, 9_999) as i128;
        let r = Rational::new(n, d);
        let back: Rational = r.to_string().parse().unwrap();
        assert_eq!(r, back, "case {case}");
    }
}

/// The repetition vector solves the balance equations and is minimal
/// (component-wise gcd 1).
#[test]
fn repetition_vector_balances() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0003);
    for case in 0..CASES {
        let g = small_graph(&mut rng);
        let q = RepetitionVector::compute(&g).unwrap();
        for (_, ch) in g.channels() {
            assert_eq!(
                q[ch.source()] * ch.production(),
                q[ch.target()] * ch.consumption(),
                "case {case}: channel {}",
                ch.name()
            );
        }
        let gcd = q
            .as_slice()
            .iter()
            .fold(0u64, |acc, &e| buffy_graph::gcd_u64(acc, e));
        assert_eq!(gcd, 1, "case {case}");
    }
}

/// SDF3-style XML round-trips every generated graph exactly.
#[test]
fn xml_roundtrip() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0004);
    for case in 0..CASES {
        let g = small_graph(&mut rng);
        let text = write_sdf_xml(&g);
        let back = read_sdf_xml(&text).unwrap();
        assert_eq!(g, back, "case {case}");
    }
}

/// Throughput is monotone in the storage distribution (the property §9's
/// divide-and-conquer and binary search rely on).
#[test]
fn throughput_monotone() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0005);
    for case in 0..CASES {
        let g = small_graph(&mut rng);
        let n_bumps = rng.range_usize(1, 4);
        let bumps: Vec<usize> = (0..n_bumps).map(|_| rng.range_usize(0, 8)).collect();
        let obs = g.default_observed_actor();
        let base = lower_bound_distribution(&g);
        let Ok(t0) = throughput(&g, &base, obs).map(|r| r.throughput) else {
            continue;
        };
        let mut grown = base.clone();
        for b in bumps {
            let cid = buffy_graph::ChannelId::new(b % g.num_channels());
            grown = grown.grown(cid, 1 + (b as u64 % 3));
        }
        let Ok(t1) = throughput(&g, &grown, obs).map(|r| r.throughput) else {
            continue;
        };
        assert!(
            t1 >= t0,
            "case {case}: thr {t0} -> {t1} when growing {base} -> {grown}"
        );
    }
}

/// Self-timed schedules extracted for arbitrary distributions are always
/// admissible, and their throughput matches the reduced analysis.
#[test]
fn schedules_always_validate() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0006);
    for case in 0..CASES {
        let g = small_graph(&mut rng);
        let extra = rng.range_u64(0, 5);
        let obs = g.default_observed_actor();
        let dist: StorageDistribution = g
            .channels()
            .map(|(id, _)| g.channel_lower_bound(id) + extra)
            .collect();
        let limits = ExplorationLimits::default();
        let Ok(s) = Schedule::extract(&g, &dist, limits) else {
            continue;
        };
        assert!(s.validate(&g, &dist).is_ok(), "case {case}");
        let r = throughput(&g, &dist, obs).unwrap();
        assert_eq!(s.throughput_of(obs), r.throughput, "case {case}");
    }
}

/// Distribution enumeration covers exactly the grid: every enumerated
/// distribution has the requested size, respects the per-channel
/// minimums, and distinct sizes never overlap.
#[test]
fn enumeration_is_exact() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0007);
    for case in 0..CASES {
        let g = small_graph(&mut rng);
        let extra = rng.range_u64(0, 4);
        let space = DistributionSpace::for_model(&g);
        let size = space.min_size() + extra;
        let all = space.all_of_size(size);
        let lb = lower_bound_distribution(&g);
        for d in &all {
            assert_eq!(d.size(), size, "case {case}");
            assert!(d.dominates(&lb), "case {case}");
        }
        // No duplicates.
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "case {case}");
    }
}

/// The BMLB per-channel bound is tight for an isolated two-actor channel:
/// capacity bound−1 deadlocks, capacity bound is live.
#[test]
fn bmlb_tight_on_isolated_channel() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0008);
    for case in 0..CASES * 2 {
        let p = rng.range_u64(1, 6);
        let c = rng.range_u64(1, 6);
        let d = rng.range_u64(0, 4);
        let mut b = SdfGraph::builder("iso");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel_with_tokens("ch", x, p, y, c, d).unwrap();
        let g = b.build().unwrap();
        let y = g.actor_by_name("y").unwrap();
        let bound = g.channel_lower_bound(g.channel_by_name("ch").unwrap());
        let at = throughput(&g, &StorageDistribution::from_capacities(vec![bound]), y).unwrap();
        assert!(
            !at.deadlocked,
            "case {case}: capacity {bound} should be live"
        );
        if bound > d {
            // Below the bound (but still holding the initial tokens) the
            // channel must eventually deadlock.
            let below = throughput(
                &g,
                &StorageDistribution::from_capacities(vec![bound - 1]),
                y,
            )
            .unwrap();
            assert!(
                below.deadlocked,
                "case {case}: capacity {} should deadlock",
                bound - 1
            );
        }
    }
}
