//! End-to-end checks of every concrete number the paper states for its
//! running example (Fig. 1, Table 1, Figs. 3–5, §5–§9).

use buffy_analysis::{explore, maximal_throughput, throughput, ExplorationLimits, Schedule};
use buffy_core::{
    explore_dependency_guided, explore_design_space, lower_bound_distribution,
    min_storage_for_throughput, ExploreOptions,
};
use buffy_gen::gallery;
use buffy_graph::{Rational, RepetitionVector, StorageDistribution};

#[test]
fn repetition_vector_and_consistency() {
    let g = gallery::example();
    let q = RepetitionVector::compute(&g).unwrap();
    assert_eq!(q.as_slice(), &[3, 2, 1]);
}

/// §5: "the throughput of c is 1/7" under ⟨4, 2⟩ and c enters its periodic
/// phase firing every 7 time steps.
#[test]
fn section5_throughput_of_c() {
    let g = gallery::example();
    let c = g.actor_by_name("c").unwrap();
    let d = StorageDistribution::from_named(&g, &[("alpha", 4), ("beta", 2)]).unwrap();
    let r = throughput(&g, &d, c).unwrap();
    assert_eq!(r.throughput, Rational::new(1, 7));
    assert_eq!(r.period, 7);
}

/// §6/Fig. 3: the full state space under ⟨4, 2⟩ has a transient of 2 states
/// and one cycle of 7 states (Theorem 1, Property 1).
#[test]
fn fig3_full_state_space() {
    let g = gallery::example();
    let d = StorageDistribution::from_capacities(vec![4, 2]);
    let ss = explore(&g, &d, ExplorationLimits::default()).unwrap();
    assert_eq!(ss.cycle_start, Some(2));
    assert_eq!(ss.cycle_len(), 7);
    assert_eq!(ss.states.len(), 9);
    // The §6 trace: initial state (1,0,0,0,0) then (1,0,0,2,0).
    assert_eq!(ss.states[0].act_clk, vec![1, 0, 0]);
    assert_eq!(ss.states[0].tokens, vec![0, 0]);
    assert_eq!(ss.states[1].act_clk, vec![1, 0, 0]);
    assert_eq!(ss.states[1].tokens, vec![2, 0]);
}

/// §8: ⟨4,2⟩ and ⟨6,2⟩ are minimal storage distributions; ⟨5,2⟩ is not.
#[test]
fn section8_minimality() {
    let g = gallery::example();
    let c = g.actor_by_name("c").unwrap();
    let thr = |caps: Vec<u64>| {
        throughput(&g, &StorageDistribution::from_capacities(caps), c)
            .unwrap()
            .throughput
    };
    assert_eq!(thr(vec![4, 2]), Rational::new(1, 7));
    assert_eq!(thr(vec![5, 2]), Rational::new(1, 7)); // not minimal
    assert_eq!(thr(vec![6, 2]), Rational::new(1, 6));
}

/// §8/Fig. 5: the smallest positive-throughput distribution has size 6;
/// maximal throughput 1/4 is reached at size 10 and never exceeded.
#[test]
fn fig5_pareto_space() {
    let g = gallery::example();
    let r = explore_design_space(&g, &ExploreOptions::default()).unwrap();
    let front: Vec<(u64, Rational)> = r
        .pareto
        .points()
        .iter()
        .map(|p| (p.size, p.throughput))
        .collect();
    assert_eq!(
        front,
        vec![
            (6, Rational::new(1, 7)),
            (8, Rational::new(1, 6)),
            (9, Rational::new(1, 5)),
            (10, Rational::new(1, 4)),
        ]
    );
    // 4 Pareto points for the example graph (Table 2 row "#Pareto points").
    assert_eq!(r.pareto.len(), 4);
    let c = g.actor_by_name("c").unwrap();
    assert_eq!(maximal_throughput(&g, c).unwrap(), Rational::new(1, 4));
}

/// §8: the combined lower bound ⟨4, 2⟩ (size 6) coincides with the
/// smallest positive-throughput distribution for this graph.
#[test]
fn fig7_bounds() {
    let g = gallery::example();
    let lb = lower_bound_distribution(&g);
    assert_eq!(lb.as_slice(), &[4, 2]);
    let r = explore_design_space(&g, &ExploreOptions::default()).unwrap();
    assert_eq!(r.lower_bound_size, 6);
    assert_eq!(r.pareto.minimal().unwrap().size, 6);
}

/// Table 1: the self-timed schedule under ⟨4, 2⟩ has a 2-step transient
/// (two firings of a) and a 7-step periodic phase, and it is admissible.
#[test]
fn table1_schedule() {
    let g = gallery::example();
    let d = StorageDistribution::from_capacities(vec![4, 2]);
    let s = Schedule::extract(&g, &d, ExplorationLimits::default()).unwrap();
    assert_eq!(s.period(), Some(7));
    assert_eq!(s.period_entry(), Some(2));
    s.validate(&g, &d).unwrap();

    let a = g.actor_by_name("a").unwrap();
    let b = g.actor_by_name("b").unwrap();
    let c = g.actor_by_name("c").unwrap();
    // Per period: a fires 3×, b 2×, c 1× (the repetition vector).
    let count = |actor| s.periodic_firings().filter(|f| f.actor == actor).count();
    assert_eq!(count(a), 3);
    assert_eq!(count(b), 2);
    assert_eq!(count(c), 1);
}

/// The paper's headline use case: minimal storage for a given throughput
/// constraint, across all the levels of Fig. 5.
#[test]
fn throughput_constraints() {
    let g = gallery::example();
    let opts = ExploreOptions::default();
    for (constraint, size) in [
        (Rational::new(1, 1000), 6),
        (Rational::new(1, 7), 6),
        (Rational::new(1, 6), 8),
        (Rational::new(4, 21), 9), // between 1/6 and 1/5
        (Rational::new(1, 5), 9),
        (Rational::new(1, 4), 10),
    ] {
        let p = min_storage_for_throughput(&g, constraint, &opts)
            .unwrap()
            .point;
        assert_eq!(p.size, size, "constraint {constraint}");
    }
}

/// Both exploration algorithms chart the same front, and every Pareto
/// witness produces a valid schedule realizing its throughput (§10: "if
/// the explored graph and storage distribution form a Pareto point, a
/// schedule is generated").
#[test]
fn algorithms_agree_and_witnesses_schedule() {
    let g = gallery::example();
    let opts = ExploreOptions::default();
    let a = explore_design_space(&g, &opts).unwrap();
    let b = explore_dependency_guided(&g, &opts).unwrap();
    let front = |r: &buffy_core::ExplorationResult| {
        r.pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect::<Vec<_>>()
    };
    assert_eq!(front(&a), front(&b));

    let c = g.actor_by_name("c").unwrap();
    for p in a.pareto.points() {
        let s = Schedule::extract(&g, &p.distribution, ExplorationLimits::default()).unwrap();
        s.validate(&g, &p.distribution).unwrap();
        assert_eq!(s.throughput_of(c), p.throughput);
    }
}
