//! Seeded random generation of consistent SDF graphs.
//!
//! The generator fixes a random repetition vector first and derives channel
//! rates from it, so every generated graph is consistent by construction
//! (the role SDF3's `sdf3generate` plays for the original tool chain).
//! Cycle-closing channels receive one full iteration of initial tokens,
//! which keeps every cycle live.

use crate::rng::SplitMix64;
use buffy_graph::{gcd_u64, SdfGraph};

/// Configuration for the random graph generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomGraphConfig {
    /// Number of actors (≥ 1).
    pub actors: usize,
    /// Extra channels beyond the spanning tree (tree uses `actors − 1`).
    pub extra_channels: usize,
    /// Repetition-vector entries are drawn from `1..=max_repetition`.
    pub max_repetition: u64,
    /// Rate multipliers are drawn from `1..=max_rate_factor`.
    pub max_rate_factor: u64,
    /// Execution times are drawn from `1..=max_execution_time`.
    pub max_execution_time: u64,
    /// RNG seed: the same configuration always yields the same graph.
    pub seed: u64,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        RandomGraphConfig {
            actors: 6,
            extra_channels: 2,
            max_repetition: 4,
            max_rate_factor: 2,
            max_execution_time: 4,
            seed: 0,
        }
    }
}

impl RandomGraphConfig {
    /// The small family of the differential tests: four actors, one
    /// extra channel, repetition entries up to 3, rate factors up to 2 and
    /// execution times up to 3. Every analysis of such a graph is quick.
    pub fn small(seed: u64) -> RandomGraphConfig {
        RandomGraphConfig {
            actors: 4,
            extra_channels: 1,
            max_repetition: 3,
            max_rate_factor: 2,
            max_execution_time: 3,
            seed,
        }
    }

    /// The mixed-step family: `actors` actors and `channels` channels
    /// (at least `actors − 1`), repetition entries up to 6 and rate
    /// factors up to 4, so that channels have different capacity steps.
    /// It is the graph of `buffy generate --actors A --channels C
    /// --max-rate 4 --max-repetition 6 --seed S`; the exhaustive driver's
    /// missed front points were found in it with `A` in 4..=6 and `C` in
    /// 5..=7.
    ///
    /// # Panics
    ///
    /// Panics if `channels + 1 < actors`.
    pub fn mixed_step(actors: usize, channels: usize, seed: u64) -> RandomGraphConfig {
        assert!(
            channels + 1 >= actors,
            "a spanning tree needs actors − 1 channels"
        );
        RandomGraphConfig {
            actors,
            extra_channels: channels + 1 - actors,
            max_repetition: 6,
            max_rate_factor: 4,
            max_execution_time: 4,
            seed,
        }
    }

    /// Generates the graph for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `actors == 0` or a bound parameter is zero.
    pub fn generate(&self) -> SdfGraph {
        assert!(self.actors >= 1, "need at least one actor");
        assert!(self.max_repetition >= 1 && self.max_rate_factor >= 1);
        assert!(self.max_execution_time >= 1);
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let n = self.actors;

        // Random repetition vector.
        let q: Vec<u64> = (0..n)
            .map(|_| rng.range_u64(1, self.max_repetition))
            .collect();

        let mut b = SdfGraph::builder(format!("random-{}", self.seed));
        let ids: Vec<_> = (0..n)
            .map(|i| b.actor(format!("n{i}"), rng.range_u64(1, self.max_execution_time)))
            .collect();

        // Rates for an edge u→v consistent with q: p = k·q(v)/g,
        // c = k·q(u)/g with g = gcd(q(u), q(v)).
        let rates = |rng: &mut SplitMix64, u: usize, v: usize| {
            let g = gcd_u64(q[u], q[v]);
            let k = rng.range_u64(1, self.max_rate_factor);
            (k * (q[v] / g), k * (q[u] / g))
        };

        // Spanning tree over a random actor order: guarantees weak
        // connectivity.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.range_usize(0, i + 1);
            order.swap(i, j);
        }
        let mut nch = 0usize;
        for w in 1..n {
            let u = order[rng.range_usize(0, w)];
            let v = order[w];
            let (p, c) = rates(&mut rng, u, v);
            b.channel(format!("t{nch}"), ids[u], p, ids[v], c)
                .expect("positive rates");
            nch += 1;
        }

        // Extra channels; give each one full iteration of initial tokens
        // so any cycle it closes stays live.
        for _ in 0..self.extra_channels {
            let u = rng.range_usize(0, n);
            let v = rng.range_usize(0, n);
            let (p, c) = rates(&mut rng, u, v);
            let tokens = p * q[u];
            b.channel_with_tokens(format!("t{nch}"), ids[u], p, ids[v], c, tokens)
                .expect("positive rates");
            nch += 1;
        }

        b.build().expect("names are unique by construction")
    }
}

/// A homogeneous chain of `n` actors with unit rates and the given
/// execution time for every actor.
pub fn chain(n: usize, execution_time: u64) -> SdfGraph {
    assert!(n >= 1);
    let mut b = SdfGraph::builder(format!("chain-{n}"));
    let mut prev = b.actor("n0", execution_time);
    for i in 1..n {
        let next = b.actor(format!("n{i}"), execution_time);
        b.channel(format!("c{i}"), prev, 1, next, 1)
            .expect("positive rates");
        prev = next;
    }
    b.build().expect("static construction")
}

/// A homogeneous ring of `n` actors with unit rates, `tokens` initial
/// tokens on the closing channel and the given execution time everywhere.
pub fn ring(n: usize, execution_time: u64, tokens: u64) -> SdfGraph {
    assert!(n >= 2);
    let mut b = SdfGraph::builder(format!("ring-{n}"));
    let first = b.actor("n0", execution_time);
    let mut prev = first;
    for i in 1..n {
        let next = b.actor(format!("n{i}"), execution_time);
        b.channel(format!("c{i}"), prev, 1, next, 1)
            .expect("positive rates");
        prev = next;
    }
    b.channel_with_tokens("c0", prev, 1, first, 1, tokens)
        .expect("positive rates");
    b.build().expect("static construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::{is_consistent, RepetitionVector};

    #[test]
    fn generated_graphs_are_consistent_and_connected() {
        for seed in 0..50 {
            let g = RandomGraphConfig {
                seed,
                ..RandomGraphConfig::default()
            }
            .generate();
            assert!(is_consistent(&g), "seed {seed}");
            assert!(g.is_connected(), "seed {seed}");
            assert_eq!(g.num_actors(), 6);
            assert_eq!(g.num_channels(), 7);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomGraphConfig {
            seed: 42,
            ..RandomGraphConfig::default()
        };
        assert_eq!(cfg.generate(), cfg.generate());
        let other = RandomGraphConfig {
            seed: 43,
            ..RandomGraphConfig::default()
        };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn repetition_vector_divides_generated_one() {
        // The generated graph's minimal repetition vector must divide the
        // one the generator drew (rates were derived from it).
        let cfg = RandomGraphConfig {
            seed: 7,
            max_repetition: 6,
            ..RandomGraphConfig::default()
        };
        let g = cfg.generate();
        let q = RepetitionVector::compute(&g).unwrap();
        assert!(q.as_slice().iter().all(|&e| (1..=6).contains(&e)));
    }

    #[test]
    fn families_have_their_shapes() {
        let g = RandomGraphConfig::small(3).generate();
        assert_eq!((g.num_actors(), g.num_channels()), (4, 4));
        let mut mixed = 0;
        for seed in 1..=10 {
            let g = RandomGraphConfig::mixed_step(5, 7, seed).generate();
            assert_eq!((g.num_actors(), g.num_channels()), (5, 7));
            assert!(is_consistent(&g), "seed {seed}");
            let steps: Vec<u64> = g
                .channels()
                .map(|(_, c)| gcd_u64(c.production(), c.consumption()))
                .collect();
            if steps.iter().any(|&s| s != steps[0]) {
                mixed += 1;
            }
        }
        assert!(mixed > 0, "no graph of the family mixes channel steps");
    }

    #[test]
    fn chain_and_ring_shapes() {
        let c = chain(5, 2);
        assert_eq!(c.num_actors(), 5);
        assert_eq!(c.num_channels(), 4);
        assert_eq!(c.sources().len(), 1);
        assert_eq!(c.sinks().len(), 1);

        let r = ring(4, 1, 2);
        assert_eq!(r.num_actors(), 4);
        assert_eq!(r.num_channels(), 4);
        assert!(r.sinks().is_empty());
        assert!(is_consistent(&r));
        assert_eq!(r.total_initial_tokens(), 2);
    }

    #[test]
    fn single_actor_generation() {
        let g = RandomGraphConfig {
            actors: 1,
            extra_channels: 1,
            seed: 3,
            ..RandomGraphConfig::default()
        }
        .generate();
        assert_eq!(g.num_actors(), 1);
        assert!(is_consistent(&g)); // self-loop rates are equal
    }
}
