//! Cross-validation of the `buffy-lint` rules against the execution
//! engines: what the linter calls a guaranteed deadlock must actually
//! deadlock in the state-space exploration, and graphs that are
//! consistent by construction must never be flagged inconsistent.

use buffy_analysis::{bmlb, throughput};
use buffy_core::lower_bound_distribution;
use buffy_csdf::CsdfGraph;
use buffy_gen::{gallery, RandomGraphConfig, SplitMix64};
use buffy_graph::{Rational, SdfGraph, StorageDistribution};
use buffy_lint::{lint, LintContext, Severity};

const CASES: u64 = 40;

fn random_config(rng: &mut SplitMix64) -> RandomGraphConfig {
    RandomGraphConfig {
        actors: rng.range_usize(2, 6),
        extra_channels: rng.range_usize(0, 3),
        max_repetition: rng.range_u64(1, 3),
        seed: rng.range_u64(0, 1_000),
        ..RandomGraphConfig::default()
    }
}

/// The generator derives rates from a repetition vector, so its graphs
/// are consistent and connected by construction; the linter must agree.
#[test]
fn generated_graphs_are_never_flagged_inconsistent_or_disconnected() {
    let mut rng = SplitMix64::seed_from_u64(0x11A7_0001);
    for _ in 0..CASES {
        let g = random_config(&mut rng).generate();
        let report = lint(&g, &LintContext::default());
        for d in &report.diagnostics {
            assert_ne!(d.code, "B001", "{}: {}", g.name(), report.render_human());
            assert_ne!(d.code, "B002", "{}: {}", g.name(), report.render_human());
            // Cycle-closing channels carry a full iteration of tokens,
            // so generated cycles are live too.
            assert_ne!(d.code, "B003", "{}: {}", g.name(), report.render_human());
        }
    }
}

/// Rings without initial tokens are the canonical guaranteed deadlock:
/// the linter must flag B003 and the engine must indeed deadlock under
/// any (generous) storage distribution.
#[test]
fn token_free_cycles_flagged_and_deadlock_in_engine() {
    let mut rng = SplitMix64::seed_from_u64(0x11A7_0002);
    for _ in 0..CASES {
        let n = rng.range_usize(2, 6);
        let mut b = SdfGraph::builder("ring");
        let ids: Vec<_> = (0..n)
            .map(|i| b.actor(format!("a{i}"), rng.range_u64(1, 4)))
            .collect();
        for i in 0..n {
            let r = rng.range_u64(1, 3);
            b.channel(format!("c{i}"), ids[i], r, ids[(i + 1) % n], r)
                .unwrap();
        }
        let g = b.build().unwrap();

        let report = lint(&g, &LintContext::default());
        assert!(
            report.diagnostics.iter().any(|d| d.code == "B003"),
            "{}",
            report.render_human()
        );
        assert!(report.has_errors());

        let dist = StorageDistribution::from_capacities(vec![64; n]);
        let r = throughput(&g, &dist, g.default_observed_actor()).unwrap();
        assert!(
            r.deadlocked,
            "lint promised a deadlock the engine did not see"
        );
    }
}

/// A capacity strictly below the §7 lower bound (but still holding the
/// initial tokens) can never sustain repeated firings: B004 must fire and
/// the execution must deadlock under exactly that distribution.
#[test]
fn capacities_below_bound_flagged_and_deadlock_in_engine() {
    let mut rng = SplitMix64::seed_from_u64(0x11A7_0003);
    let mut exercised = 0;
    for _ in 0..CASES {
        let g = random_config(&mut rng).generate();
        let mut caps: Vec<u64> = lower_bound_distribution(&g).as_slice().to_vec();
        // Pick a channel whose bound can drop by one without dipping
        // below its initial tokens (capacity < tokens is a different,
        // ill-formed regime).
        let Some(victim) = g
            .channels()
            .find(|(cid, c)| caps[cid.index()] > c.initial_tokens().max(1))
            .map(|(cid, _)| cid)
        else {
            continue;
        };
        caps[victim.index()] -= 1;
        exercised += 1;

        let dist = StorageDistribution::from_capacities(caps);
        let ctx = LintContext {
            distribution: Some(dist.clone()),
            ..LintContext::default()
        };
        let report = lint(&g, &ctx);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "B004" && d.severity == Severity::Error),
            "{}: {}",
            g.name(),
            report.render_human()
        );

        let r = throughput(&g, &dist, g.default_observed_actor()).unwrap();
        assert!(r.deadlocked, "{}: B004 promised a deadlock", g.name());
    }
    assert!(
        exercised > CASES / 2,
        "too few cases exercised the reduction"
    );
}

/// Conversely: at the per-channel lower bounds no B004 can fire, and the
/// bound the rules read through the kernel is the BMLB.
#[test]
fn lower_bound_distribution_is_never_flagged() {
    let mut rng = SplitMix64::seed_from_u64(0x11A7_0004);
    for _ in 0..CASES {
        let g = random_config(&mut rng).generate();
        let dist = lower_bound_distribution(&g);
        for (cid, c) in g.channels() {
            assert_eq!(
                dist.get(cid),
                bmlb(c.production(), c.consumption(), c.initial_tokens())
            );
        }
        let ctx = LintContext {
            distribution: Some(dist),
            ..LintContext::default()
        };
        let report = lint(&g, &ctx);
        assert!(
            report.diagnostics.iter().all(|d| d.code != "B004"),
            "{}: {}",
            g.name(),
            report.render_human()
        );
    }
}

/// An infeasible throughput constraint (B005) is one the exploration can
/// never meet: verify against the engine's maximal throughput under a
/// huge distribution.
#[test]
fn infeasible_constraints_match_engine_maximum() {
    let mut rng = SplitMix64::seed_from_u64(0x11A7_0005);
    for _ in 0..(CASES / 2) {
        let g = random_config(&mut rng).generate();
        let obs = g.default_observed_actor();
        let Ok(max) = buffy_analysis::maximal_throughput(&g, obs) else {
            continue;
        };
        // Just feasible: silent. Just infeasible: B005.
        let feasible = LintContext {
            throughput_constraint: Some(max),
            ..LintContext::default()
        };
        assert!(
            lint(&g, &feasible)
                .diagnostics
                .iter()
                .all(|d| d.code != "B005"),
            "{}",
            g.name()
        );
        let infeasible = LintContext {
            throughput_constraint: Some(max + max),
            ..LintContext::default()
        };
        assert!(
            lint(&g, &infeasible)
                .diagnostics
                .iter()
                .any(|d| d.code == "B005"),
            "{}",
            g.name()
        );
    }
}

/// The rules read a model only through `DataflowSemantics`, so an SDF
/// graph and its single-phase CSDF embedding must lint alike: the same
/// JSON report apart from `"kind"`, under every context. The contexts
/// switch on every rule: the default one, a distribution one token below
/// each channel's lower bound (B004, B010), constraints that are trivially
/// met (B011), moderate and infeasible (B005), and a space threshold low
/// enough for B009.
#[test]
fn sdf_and_csdf_embedding_lint_alike() {
    let mut graphs = gallery::all();
    graphs.extend([
        gallery::modem_power(),
        gallery::cd2dat_power(),
        gallery::h263_decoder_power(),
    ]);
    for s in 0..CASES {
        graphs.push(RandomGraphConfig::small(s).generate());
        graphs.push(RandomGraphConfig::mixed_step(4, 5, s).generate());
    }
    let constraint = |r: Rational| LintContext {
        throughput_constraint: Some(r),
        ..LintContext::default()
    };
    let mut compared = 0;
    for g in &graphs {
        let below: StorageDistribution = lower_bound_distribution(g)
            .as_slice()
            .iter()
            .map(|&b| b - 1)
            .collect();
        let contexts = [
            LintContext::default(),
            LintContext {
                distribution: Some(below),
                ..constraint(Rational::new(1, 1000))
            },
            constraint(Rational::new(1, 100_000)),
            constraint(Rational::from(5u64)),
            LintContext {
                space_threshold: Some(10),
                ..LintContext::default()
            },
        ];
        let csdf = CsdfGraph::from_sdf(g);
        for ctx in &contexts {
            let sdf_report = lint(g, ctx);
            let csdf_report = lint(&csdf, ctx);
            assert_eq!((sdf_report.kind, csdf_report.kind), ("sdf", "csdf"));
            assert_eq!(
                sdf_report.render_json(),
                csdf_report
                    .render_json()
                    .replacen("\"kind\":\"csdf\"", "\"kind\":\"sdf\"", 1),
                "{} under {ctx:?}",
                g.name()
            );
            compared += 1;
        }
    }
    assert_eq!(compared, graphs.len() * 5);
}
