//! The dependency-guided driver and the constraint query on graphs whose
//! channels grow in different steps.
//!
//! With mixed steps, the distributions of one exact size can all deadlock
//! while a smaller size is live, so per-size reasoning goes wrong (the
//! exhaustive driver still does). The guided driver grows distributions
//! channel by channel and must find the true front, and the constraint
//! query, which runs the same search, must answer each front throughput
//! with its front point. The fixtures are `buffy generate --actors 4
//! --channels 5 --max-rate 4 --max-repetition 6` with `--seed 9`, `--seed
//! 2` and `--seed 8`; the last also pins the exhaustive driver's front as
//! it stands.

use buffy_analysis::{throughput, DataflowSemantics};
use buffy_core::{
    explore_dependency_guided, explore_design_space, lower_bound_distribution,
    min_storage_for_throughput, ExploreOptions,
};
use buffy_csdf::CsdfGraph;
use buffy_graph::xml::read_sdf_xml;
use buffy_graph::{ChannelId, Rational, SdfGraph, StorageDistribution};

fn fixture(text: &str) -> SdfGraph {
    read_sdf_xml(text).expect("fixture parses")
}

fn seed9() -> SdfGraph {
    fixture(include_str!("../fixtures/mixed-step-seed9.xml"))
}

fn seed2() -> SdfGraph {
    fixture(include_str!("../fixtures/mixed-step-seed2.xml"))
}

fn seed8() -> SdfGraph {
    fixture(include_str!("../fixtures/mixed-step-seed8.xml"))
}

/// The guided front as `(size, throughput, capacities)` triples.
fn guided_front(g: &SdfGraph) -> Vec<(u64, Rational, Vec<u64>)> {
    let r = explore_dependency_guided(g, &ExploreOptions::default()).unwrap();
    assert!(r.completeness.exact);
    let front: Vec<_> = r
        .pareto
        .points()
        .iter()
        .map(|p| (p.size, p.throughput, p.distribution.as_slice().to_vec()))
        .collect();
    // The single-phase CSDF embedding charts the same front.
    let csdf =
        explore_dependency_guided(&CsdfGraph::from_sdf(g), &ExploreOptions::default()).unwrap();
    let csdf_front: Vec<_> = csdf
        .pareto
        .points()
        .iter()
        .map(|p| (p.size, p.throughput, p.distribution.as_slice().to_vec()))
        .collect();
    assert_eq!(front, csdf_front, "SDF and CSDF fronts differ");
    front
}

/// The constraint query's answer to `t` as a `(size, throughput,
/// capacities)` triple.
fn answer<M: DataflowSemantics + Sync>(model: &M, t: Rational) -> (u64, Rational, Vec<u64>) {
    let r = min_storage_for_throughput(model, t, &ExploreOptions::default())
        .unwrap_or_else(|e| panic!("{} at {t}: {e}", model.name()));
    assert!(r.completeness.exact);
    let p = r.point;
    (p.size, p.throughput, p.distribution.as_slice().to_vec())
}

/// Requires the constraint query to answer every throughput of `front`
/// with its front point, and a throughput strictly between the first two
/// levels with the second point.
fn assert_constraints_answer_the_front(g: &SdfGraph, front: &[(u64, Rational, Vec<u64>)]) {
    for point in front {
        assert_eq!(answer(g, point.1), *point, "{} at {}", g.name(), point.1);
    }
    let between = (front[0].1 + front[1].1) / Rational::from(2u64);
    assert_eq!(answer(g, between), front[1], "{} at {between}", g.name());
}

fn q(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

/// Every grid distribution (per-channel lower bound plus whole steps) of
/// size at most `max_size`.
fn grid_distributions(g: &SdfGraph, max_size: u64) -> Vec<StorageDistribution> {
    let lb = lower_bound_distribution(g);
    let steps: Vec<u64> = (0..g.num_channels())
        .map(|i| g.channel_step(ChannelId::new(i)))
        .collect();
    let mut out = Vec::new();
    let mut caps = lb.as_slice().to_vec();
    fn walk(
        i: usize,
        caps: &mut Vec<u64>,
        lb: &[u64],
        steps: &[u64],
        max_size: u64,
        out: &mut Vec<StorageDistribution>,
    ) {
        if caps.iter().sum::<u64>() > max_size {
            return;
        }
        if i == caps.len() {
            out.push(StorageDistribution::from_capacities(caps.clone()));
            return;
        }
        loop {
            walk(i + 1, caps, lb, steps, max_size, out);
            caps[i] += steps[i];
            if caps.iter().sum::<u64>() > max_size {
                break;
            }
        }
        caps[i] = lb[i];
    }
    walk(0, &mut caps, lb.as_slice(), &steps, max_size, &mut out);
    out
}

/// The front by brute force: analyse every grid distribution up to
/// `max_size`, take the best throughput of each size, and keep the sizes
/// where the best over all sizes `≤ s` strictly rises.
fn brute_force_front(g: &SdfGraph, max_size: u64) -> Vec<(u64, Rational)> {
    let observed = g.default_observed_actor();
    let mut best_at: std::collections::BTreeMap<u64, Rational> = Default::default();
    for d in grid_distributions(g, max_size) {
        let t = throughput(g, &d, observed).unwrap().throughput;
        let best = best_at.entry(d.size()).or_insert(Rational::ZERO);
        *best = (*best).max(t);
    }
    let mut front = Vec::new();
    let mut running = Rational::ZERO;
    for (size, t) in best_at {
        if t > running {
            running = t;
            front.push((size, t));
        }
    }
    front
}

#[test]
fn seed9_guided_front_is_the_brute_force_front() {
    let g = seed9();
    let front = guided_front(&g);
    assert_eq!(
        front,
        vec![
            (41, q(1, 5), vec![2, 10, 2, 15, 12]),
            (45, q(1, 3), vec![2, 10, 4, 15, 14]),
        ]
    );
    let ub = explore_dependency_guided(&g, &ExploreOptions::default())
        .unwrap()
        .upper_bound_size;
    assert_eq!(ub, 45);
    // Size 42 is reachable only through the step-3 channel, and every
    // size-42 distribution deadlocks.
    assert_eq!(grid_distributions(&g, ub).len(), 41);
    let truth = brute_force_front(&g, ub);
    let pairs: Vec<(u64, Rational)> = front.iter().map(|(s, t, _)| (*s, *t)).collect();
    assert_eq!(pairs, truth);
}

/// Per-size reasoning answered 43 at 1/5: every size-42 distribution
/// deadlocks, and size 43 reaches 1/5 too.
#[test]
fn seed9_constraints_are_the_brute_force_sizes() {
    let g = seed9();
    let front = guided_front(&g);
    assert_constraints_answer_the_front(&g, &front);
    for (size, t) in brute_force_front(&g, 45) {
        assert_eq!(answer(&g, t).0, size, "at {t}");
    }
    // The single-phase CSDF embedding gets the same answers.
    let csdf = CsdfGraph::from_sdf(&g);
    for point in &front {
        assert_eq!(
            answer(&csdf, point.1),
            answer(&g, point.1),
            "at {}",
            point.1
        );
    }
}

#[test]
fn seed2_guided_front() {
    let front = guided_front(&seed2());
    let expected = vec![
        (125, q(4, 25), vec![14, 32, 15, 56, 8]),
        (129, q(1, 6), vec![18, 32, 15, 56, 8]),
        (131, q(4, 23), vec![20, 32, 15, 56, 8]),
        (134, q(2, 11), vec![20, 32, 18, 56, 8]),
        (140, q(4, 21), vec![20, 36, 18, 58, 8]),
        (143, q(1, 5), vec![20, 40, 15, 60, 8]),
        (148, q(2, 9), vec![22, 40, 18, 60, 8]),
        (152, q(4, 17), vec![20, 44, 18, 62, 8]),
        (154, q(1, 4), vec![22, 44, 18, 62, 8]),
        (160, q(2, 7), vec![22, 48, 18, 64, 8]),
        (171, q(4, 13), vec![24, 52, 21, 66, 8]),
        (179, q(1, 3), vec![26, 56, 21, 68, 8]),
    ];
    assert_eq!(front, expected);
    // Per-size reasoning answered 2 tokens more at 4/25, 2/11, 4/21, 4/13
    // and 1/3.
    assert_constraints_answer_the_front(&seed2(), &expected);
}

/// The guided front of seed 8. Per-size reasoning answered its constraints
/// 2 tokens too large at 1/16, 2/31, 1/13, 1/12, 2/21, 2/19 and 2/17.
#[test]
fn seed8_guided_front_answers_its_constraints() {
    let g = seed8();
    let front = guided_front(&g);
    let expected = vec![
        (176, q(1, 16), vec![12, 30, 2, 120, 12]),
        (178, q(2, 31), vec![14, 30, 2, 120, 12]),
        (180, q(1, 13), vec![12, 30, 4, 120, 14]),
        (182, q(1, 12), vec![14, 30, 4, 120, 14]),
        (184, q(2, 21), vec![16, 30, 4, 120, 14]),
        (187, q(1, 10), vec![16, 33, 4, 120, 14]),
        (190, q(2, 19), vec![16, 36, 4, 120, 14]),
        (193, q(1, 9), vec![16, 39, 4, 120, 14]),
        (196, q(2, 17), vec![16, 42, 4, 120, 14]),
        (203, q(1, 8), vec![20, 45, 4, 120, 14]),
        (206, q(2, 15), vec![20, 48, 4, 120, 14]),
    ];
    assert_eq!(front, expected);
    assert_constraints_answer_the_front(&g, &expected);
}

/// The exhaustive front of seed 8 as it stands, at 1 and 4 threads. It is
/// not the true front: the guided front also holds (178, 2/31), (190,
/// 2/19) and (193, 1/9), because exact-size maxima are not monotone here
/// (ROADMAP item 1). A sweep that stopped inside a chunk at a ceiling below
/// the maximal throughput, which bounds nothing on such graphs, would also
/// drop (182, 1/12).
#[test]
fn seed8_exhaustive_front_is_pinned() {
    let g = seed8();
    let expected = vec![
        (176, q(1, 16), vec![12, 30, 2, 120, 12]),
        (180, q(1, 13), vec![12, 30, 4, 120, 14]),
        (182, q(1, 12), vec![14, 30, 4, 120, 14]),
        (184, q(2, 21), vec![16, 30, 4, 120, 14]),
        (187, q(1, 10), vec![16, 33, 4, 120, 14]),
        (192, q(2, 19), vec![16, 36, 4, 120, 16]),
        (195, q(1, 9), vec![16, 39, 4, 120, 16]),
        (196, q(2, 17), vec![16, 42, 4, 120, 14]),
        (203, q(1, 8), vec![20, 45, 4, 120, 14]),
        (206, q(2, 15), vec![20, 48, 4, 120, 14]),
    ];
    for threads in [1, 4] {
        let r = explore_design_space(
            &g,
            &ExploreOptions {
                threads,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(r.completeness.exact);
        let front: Vec<_> = r
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput, p.distribution.as_slice().to_vec()))
            .collect();
        assert_eq!(front, expected, "threads {threads}");
    }
}
