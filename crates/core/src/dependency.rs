//! Dependency-guided design-space exploration.
//!
//! The paper's exhaustive per-size enumeration is exact but exponential in
//! the number of channels (§9, §11); its conclusions call for combining
//! the technique with pruning heuristics (§12). This module implements the
//! pruning direction the authors later adopted in the SDF3 tool suite:
//! starting from the per-channel lower bounds, only *storage-dependent*
//! channels — channels whose lack of space actually blocked a token-ready
//! actor during the periodic phase, or in the deadlock state (see
//! [`ThroughputAnalysis::dependent`](buffy_analysis::ThroughputAnalysis::dependent))
//! — are grown, each by its behavioural step size. The analysis that
//! decides a candidate's throughput collects these flags in the same
//! simulation, and the memo entry keeps them, so no candidate is
//! simulated twice.
//!
//! On every graph in this repository's test suite (the paper's gallery and
//! seeded random graphs) the guided search produces exactly the same
//! (size, throughput) Pareto front as the exhaustive search, while
//! evaluating far fewer distributions; the equivalence is asserted by
//! integration tests and measured by the `dse` ablation benchmark. The
//! refined causal-dependency notion with a completeness proof is
//! follow-up work by the same authors and out of scope of the 2006 paper.
//!
//! The one search, written once against [`DataflowSemantics`] for SDF and
//! CSDF graphs alike, charts the front for [`explore_dependency_guided`]
//! and answers [`min_storage_for_throughput`](crate::min_storage_for_throughput);
//! both report to [`ExploreOptions::observer`].

use crate::enumerate::DistributionSpace;
use crate::error::ExploreError;
use crate::explore::{salvage, ExplorationResult, ExploreOptions};
use crate::pareto::{ParetoPoint, ParetoSet};
use crate::pipeline::{clip_front, EvalPipeline};
use crate::runtime::{Completeness, Event, SearchPhase, SkippedSize};
use buffy_analysis::{maximal_throughput, CancelReason, DataflowSemantics};
use buffy_graph::{ChannelId, Rational, StorageDistribution};
use buffy_telemetry::{labeled, names};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};

/// Explores the design space by growing storage-dependent channels only.
///
/// Accepts the same options as
/// [`explore_design_space`](crate::explore_design_space); the `threads`
/// option is ignored (the frontier is evaluated sequentially) and
/// `quantum` only thins the reported front. Evaluations run through the
/// same `EvalPipeline` as the exhaustive search, with the
/// storage-dependency flags collected by every analysis: bound probes
/// are cached (a frontier candidate landing on a probed distribution is
/// a cache hit, not a re-analysis), a run capped by `max_size` takes the
/// maximal throughput from the cycle-ratio bound and runs no bound probe
/// at all, and checkpointed `warm_start`
/// throughputs are replayed. A replayed entry carries no flags; one
/// uncounted analysis with the flags on supplies them. Once an accepted
/// point reaches the graph's maximal throughput — at a size no larger
/// than any queued candidate, by the size-ordered frontier — the
/// remaining frontier is provably dominated and drained without any
/// analysis. Once a cancel token trips, the pipeline refuses every fresh
/// analysis: after the bounds phase, the unexpanded frontier (the refused
/// candidate included) is then reported as skipped sizes on a partial
/// result, while a run that needs no further analysis stays exact.
///
/// # Errors
///
/// Same as [`explore_design_space`](crate::explore_design_space).
///
/// # Examples
///
/// ```
/// use buffy_core::{explore_dependency_guided, ExploreOptions};
/// use buffy_graph::{Rational, SdfGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("example");
/// let a = b.actor("a", 1);
/// let bb = b.actor("b", 2);
/// let c = b.actor("c", 2);
/// b.channel("alpha", a, 2, bb, 3)?;
/// b.channel("beta", bb, 1, c, 2)?;
/// let g = b.build()?;
/// let r = explore_dependency_guided(&g, &ExploreOptions::default())?;
/// let sizes: Vec<u64> = r.pareto.points().iter().map(|p| p.size).collect();
/// assert_eq!(sizes, vec![6, 8, 9, 10]); // identical to the exhaustive front
/// # Ok(())
/// # }
/// ```
pub fn explore_dependency_guided<M: DataflowSemantics + Sync>(
    model: &M,
    options: &ExploreOptions,
) -> Result<ExplorationResult, ExploreError> {
    let (mut result, _) = guided_search(model, options, None)?;
    if result.pareto.is_empty() && result.completeness.exact {
        return Err(ExploreError::NoPositiveThroughput);
    }
    // Optional thinning / clipping to match the exhaustive explorer's
    // options semantics.
    result.pareto = clip_front(result.pareto, options, result.max_throughput);
    Ok(result)
}

/// The guided search, drained once a point reaches `target` (default: the
/// graph's maximal throughput, with `max_throughput` only ending growth;
/// a given target replaces the throughput window). Returns the unclipped
/// front (empty when no positive throughput was found) and, when the
/// front falls short of the target, the bounds-phase upper-bound point if
/// that phase probed it (no `max_size`) and it fits the channel caps.
///
/// Fails with [`ExploreError::InfeasibleThroughput`] for a target above
/// the maximal throughput, [`ExploreError::NoPositiveThroughput`] when a
/// cap leaves no live distribution, and with the bounds phase's errors.
pub(crate) fn guided_search<M: DataflowSemantics + Sync>(
    model: &M,
    options: &ExploreOptions,
    target: Option<Rational>,
) -> Result<(ExplorationResult, Option<ParetoPoint>), ExploreError> {
    let observed = options
        .observed
        .unwrap_or_else(|| model.default_observed_actor());
    let space = DistributionSpace::for_model(model);
    let lb_size = space.min_size();

    let eval = EvalPipeline::new(model, observed, options)?.collecting_dependencies();
    // Every distribution below the lower bound has a channel below its
    // minimal capacity and deadlocks; so does every distribution within
    // channel caps that hold some channel below its lower bound.
    let start = space.min_distribution();
    let fits_caps = |d: &StorageDistribution| {
        options
            .max_channel_caps
            .as_ref()
            .is_none_or(|caps| caps.dominates(d))
    };
    if options.max_size.is_some_and(|cap| cap < lb_size) || !fits_caps(&start) {
        return Err(ExploreError::NoPositiveThroughput);
    }
    let recorder = buffy_telemetry::active();
    let guided_skip_counter = |reason: &str| {
        recorder.as_ref().map(|r| {
            r.counter(
                &labeled(names::GUIDED_SKIPPED, "reason", reason),
                "Guided-frontier children discarded without evaluation, by reason.",
            )
        })
    };
    let skipped_ub = guided_skip_counter("ub-size");
    let skipped_caps = guided_skip_counter("channel-cap");
    // Bound probes run through the shared memoised evaluator: timed,
    // counted, observed and cached (with their flags) like every other
    // evaluation. Cancellation here leaves nothing to salvage and surfaces
    // as [`ExploreError::Cancelled`]. A size cap is the search's upper end
    // in place of `ub`, so a capped run only needs the maximal throughput,
    // and the cycle-ratio bound gives that without a probe.
    eval.emit(Event::Phase(SearchPhase::Bounds));
    let (ub_size, thr_max_graph, ub_dist) = match options.max_size {
        Some(cap) => (cap, maximal_throughput(model, observed)?, None),
        None => {
            let (ub_dist, thr_max) = eval.upper_bound()?;
            (ub_dist.size(), thr_max, Some(ub_dist))
        }
    };
    // The drain fires at `goal`; a candidate reaching `thr_cap` is a leaf.
    let (goal, thr_cap) = match target {
        Some(t) if t > thr_max_graph => {
            return Err(ExploreError::InfeasibleThroughput {
                requested: t.to_string(),
                maximal: thr_max_graph.to_string(),
            })
        }
        Some(t) => (t, t),
        None => (
            thr_max_graph,
            options
                .max_throughput
                .map_or(thr_max_graph, |cap| cap.min(thr_max_graph)),
        ),
    };

    let steps: Vec<u64> = (0..model.num_channels())
        .map(|i| model.channel_step(ChannelId::new(i)))
        .collect();

    eval.emit(Event::Phase(SearchPhase::GuidedSearch));
    let mut pareto = ParetoSet::new();
    let mut seen: HashSet<StorageDistribution> = HashSet::new();
    let mut frontier: BinaryHeap<Reverse<(u64, StorageDistribution)>> = BinaryHeap::new();
    seen.insert(start.clone());
    frontier.push(Reverse((start.size(), start)));

    let mut truncated: Option<CancelReason> = None;
    // Best throughput accepted so far. The frontier pops candidates in
    // nondecreasing size, so the point achieving `best` has size no
    // larger than any queued candidate. Once `best` reaches the goal the
    // rest of the frontier is drained without analysis: at the graph's
    // maximal throughput no remaining candidate can enter the front
    // (entering requires strictly greater throughput than every
    // no-larger point, and that throughput bounds every distribution),
    // and below it the point that reached the goal is the answer sought.
    let mut best = Rational::ZERO;

    while let Some(Reverse((size, dist))) = frontier.pop() {
        if !best.is_zero() && best >= goal {
            // Ceiling drain: the candidate is dominated (see `best`
            // above), and so are its children.
            continue;
        }
        let Some(entry) = salvage(eval.eval_full(&dist), &mut truncated)? else {
            frontier.push(Reverse((size, dist)));
            break;
        };
        if entry.failed {
            // A panicking analysis degrades to a zero-throughput leaf:
            // recorded and reported by the evaluator, no children
            // expanded.
            continue;
        }

        let thr = entry.throughput;
        if !thr.is_zero() {
            if thr > best {
                best = thr;
            }
            let p = eval.point(dist.clone(), thr);
            if pareto.insert(p.clone()) {
                eval.emit(Event::Accepted(&p));
            }
            if thr >= thr_cap {
                continue; // growing further cannot be Pareto-optimal
            }
        }

        // The storage-dependent channels: from the memo entry, or — for a
        // replayed entry — from one more analysis. A panic there degrades
        // the candidate to a leaf; a cancellation puts it back on the
        // frontier as unexpanded.
        let dependent = match entry.dependent {
            Some(flags) => flags,
            None => match salvage(eval.dependencies(&dist), &mut truncated)? {
                Some(Some(flags)) => flags,
                Some(None) => continue,
                None => {
                    frontier.push(Reverse((size, dist)));
                    break;
                }
            },
        };

        for (i, &dep) in dependent.iter().enumerate() {
            if !dep {
                continue;
            }
            let cid = ChannelId::new(i);
            let step = steps[i];
            let child = dist.grown(cid, step);
            if size + step > ub_size {
                if let Some(c) = &skipped_ub {
                    c.inc();
                }
                continue;
            }
            if let Some(caps) = &options.max_channel_caps {
                if child.get(cid) > caps.get(cid) {
                    if let Some(c) = &skipped_caps {
                        c.inc();
                    }
                    continue; // §8: per-channel capacity constraint
                }
            }
            if seen.insert(child.clone()) {
                frontier.push(Reverse((child.size(), child)));
            }
        }
    }

    // Annotate the unexpanded frontier of a truncated run, grouped by
    // size, under the sound bounds-phase throughput ceiling.
    let (completeness, skipped) = match truncated {
        None => (Completeness::exact(), Vec::new()),
        Some(reason) => {
            let mut by_size: BTreeMap<u64, u64> = BTreeMap::new();
            for Reverse((size, _)) in frontier.iter() {
                *by_size.entry(*size).or_insert(0) += 1;
            }
            let total = by_size.values().sum();
            let skipped = by_size
                .into_iter()
                .map(|(size, distributions)| SkippedSize {
                    size,
                    distributions,
                    throughput_bound: thr_max_graph,
                })
                .collect();
            (Completeness::truncated(reason, total), skipped)
        }
    };

    let bounds_point = ub_dist
        .filter(|d| best < goal && fits_caps(d))
        .map(|d| eval.point(d, thr_max_graph));
    let result = ExplorationResult {
        pareto,
        max_throughput: thr_max_graph,
        lower_bound_size: lb_size,
        upper_bound_size: ub_size,
        completeness,
        skipped,
        failures: eval.take_failures(),
        stats: eval.stats(),
    };
    Ok((result, bounds_point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_design_space;
    use buffy_graph::SdfGraph;

    fn example() -> SdfGraph {
        let mut b = SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        b.build().unwrap()
    }

    fn front(r: &ExplorationResult) -> Vec<(u64, Rational)> {
        r.pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect()
    }

    #[test]
    fn matches_exhaustive_on_example() {
        let g = example();
        let exhaustive = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        let guided = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
        assert_eq!(front(&exhaustive), front(&guided));
        // And the guided search should not evaluate more points.
        assert!(
            guided.stats.evaluations <= exhaustive.stats.evaluations,
            "guided {} vs exhaustive {}",
            guided.stats.evaluations,
            exhaustive.stats.evaluations
        );
    }

    #[test]
    fn disarmed_fault_plan_is_invisible() {
        // The fault layer must be zero-cost when off: a plan with all
        // rates zero (and no plan at all) produce identical fronts and
        // identical deterministic statistics.
        let g = example();
        let clean = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
        let opts = ExploreOptions {
            fault_plan: Some(std::sync::Arc::new(crate::fault::FaultPlan::new(7))),
            ..ExploreOptions::default()
        };
        let disarmed = explore_dependency_guided(&g, &opts).unwrap();
        assert_eq!(front(&clean), front(&disarmed));
        assert_eq!(clean.stats, disarmed.stats);
        assert_eq!(clean.stats.failures, 0);
    }

    #[test]
    fn respects_size_cap() {
        let g = example();
        let opts = ExploreOptions {
            max_size: Some(8),
            ..ExploreOptions::default()
        };
        let guided = explore_dependency_guided(&g, &opts).unwrap();
        assert!(guided.pareto.points().iter().all(|p| p.size <= 8));
        assert_eq!(
            guided.pareto.maximal().unwrap().throughput,
            Rational::new(1, 6)
        );
    }

    #[test]
    fn quantized_front_is_thinner() {
        let g = example();
        let opts = ExploreOptions {
            quantum: Some(Rational::new(1, 10)),
            ..ExploreOptions::default()
        };
        let guided = explore_dependency_guided(&g, &opts).unwrap();
        assert!(guided.pareto.len() <= 2);
        assert!(!guided.pareto.is_empty());
    }

    #[test]
    fn eval_budget_truncates_with_frontier_annotations() {
        use buffy_analysis::{CancelReason, CancelToken};
        use std::sync::Arc;

        let g = example();
        let full = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
        assert!(full.completeness.exact);
        let mut saw_partial = false;
        for budget in 1..full.stats.evaluations {
            let opts = ExploreOptions {
                cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
                ..ExploreOptions::default()
            };
            let r = match explore_dependency_guided(&g, &opts) {
                Err(ExploreError::Cancelled { reason }) => {
                    assert_eq!(reason, CancelReason::EvaluationBudget);
                    continue;
                }
                other => other.unwrap(),
            };
            saw_partial = true;
            assert!(!r.completeness.exact, "budget {budget}");
            // Soundness: every partial point is dominated by (or equal
            // to) a point of the full front.
            for p in r.pareto.points() {
                assert!(
                    full.pareto
                        .points()
                        .iter()
                        .any(|q| q.size <= p.size && q.throughput >= p.throughput),
                    "budget {budget}: stray point {p}"
                );
            }
            for s in &r.skipped {
                assert_eq!(s.throughput_bound, full.max_throughput);
            }
            assert_eq!(
                r.completeness.distributions_skipped,
                r.skipped.iter().map(|s| s.distributions).sum::<u64>()
            );
        }
        assert!(saw_partial, "no budget produced a salvageable partial run");
    }

    /// A budget of exactly the unbudgeted run's evaluations leaves the run
    /// exact: what the frontier holds after the last evaluation is drained
    /// or answered by the memo, and neither needs an analysis.
    #[test]
    fn a_budget_of_the_runs_own_count_leaves_it_exact() {
        use buffy_analysis::CancelToken;
        use std::sync::Arc;

        for g in [
            example(),
            buffy_gen::gallery::modem(),
            buffy_gen::gallery::cd2dat(),
        ] {
            let full = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
            let budget = full.stats.evaluations;
            let opts = ExploreOptions {
                cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
                ..ExploreOptions::default()
            };
            let r = explore_dependency_guided(&g, &opts).unwrap();
            assert!(r.completeness.exact, "{}: budget {budget}", g.name());
            assert_eq!(r.pareto, full.pareto, "{}", g.name());
            assert_eq!(r.stats, full.stats, "{}", g.name());
        }
    }

    #[test]
    fn injected_panic_degrades_one_frontier_candidate() {
        let g = example();
        // Fail the distribution behind the clean run's maximal front
        // point: the run must survive, minus (at most) that point.
        let full = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
        let fail = full.pareto.maximal().unwrap().distribution.clone();
        let r = explore_dependency_guided(
            &g,
            &ExploreOptions {
                fail_distribution: Some(fail.clone()),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.stats.failures, 1);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].distribution, fail);
        assert!(r.completeness.exact);
        assert!(r.pareto.points().iter().all(|p| p.distribution != fail));
        assert!(!r.pareto.is_empty());
    }

    /// Records every finished evaluation as a warm-start entry, the way
    /// a checkpoint does, and how many the bounds phase made.
    #[derive(Default)]
    struct Recorder {
        entries: std::sync::Mutex<crate::explore::WarmStart>,
        bounds_evaluations: std::sync::Mutex<Option<u64>>,
    }

    impl crate::runtime::ExploreObserver for Recorder {
        fn event(&self, event: &Event<'_>) {
            match *event {
                Event::Phase(SearchPhase::GuidedSearch) => {
                    let n = self.entries.lock().unwrap().len() as u64;
                    *self.bounds_evaluations.lock().unwrap() = Some(n);
                }
                Event::Evaluated {
                    dist,
                    throughput,
                    states,
                    ..
                } => {
                    self.entries
                        .lock()
                        .unwrap()
                        .insert(dist.clone(), (throughput, states));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn replayed_entries_get_their_flags_under_the_run_token() {
        use buffy_analysis::{CancelReason, CancelToken};
        use std::sync::Arc;

        let g = example();
        let rec = Arc::new(Recorder::default());
        let clean = explore_dependency_guided(
            &g,
            &ExploreOptions {
                observer: Some(rec.clone()),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let warm = Arc::new(std::mem::take(&mut *rec.entries.lock().unwrap()));
        let bounds_evaluations = rec.bounds_evaluations.lock().unwrap().unwrap();

        // Replayed entries carry no flags; the extra analyses that supply
        // them are uncounted, so a resumed run reproduces the clean one.
        let resumed = explore_dependency_guided(
            &g,
            &ExploreOptions {
                warm_start: Some(warm.clone()),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(front(&resumed), front(&clean));
        assert_eq!(resumed.stats, clean.stats);

        // A budget that runs out on a replayed entry of the search phase
        // trips the token before that candidate's flags are known: the
        // flag analysis is cancelled, and the run still returns a sound
        // partial result. Only a budget spent in the bounds phase leaves
        // nothing to salvage.
        let mut partial_runs = 0;
        for budget in 1..clean.stats.evaluations {
            let opts = ExploreOptions {
                warm_start: Some(warm.clone()),
                cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
                ..ExploreOptions::default()
            };
            let r = match explore_dependency_guided(&g, &opts) {
                Err(ExploreError::Cancelled { reason }) if budget < bounds_evaluations => {
                    assert_eq!(reason, CancelReason::EvaluationBudget);
                    continue;
                }
                other => other.unwrap(),
            };
            partial_runs += 1;
            assert_eq!(
                r.completeness.truncated_by,
                Some(CancelReason::EvaluationBudget),
                "budget {budget}"
            );
            assert!(r.completeness.distributions_skipped > 0, "budget {budget}");
            for p in r.pareto.points() {
                assert!(
                    clean
                        .pareto
                        .points()
                        .iter()
                        .any(|q| q.size <= p.size && q.throughput >= p.throughput),
                    "budget {budget}: stray point {p}"
                );
            }
        }
        assert!(partial_runs > 0, "every budget tripped in the bounds phase");
    }

    #[test]
    fn flag_analysis_honours_the_token_and_the_limits() {
        use buffy_analysis::{
            AnalysisError, CancelReason, CancelToken, ExplorationLimits, LimitKind,
        };
        use std::sync::Arc;

        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let dist = StorageDistribution::from_capacities(vec![4, 2]);
        let run = |options: &ExploreOptions| {
            let eval = EvalPipeline::new(&g, c, options)
                .unwrap()
                .collecting_dependencies();
            eval.dependencies(&dist)
        };
        let flags = run(&ExploreOptions::default()).unwrap().unwrap();
        assert_eq!(&*flags, &[true, false][..]);

        let token = CancelToken::new();
        token.cancel(CancelReason::Interrupt);
        let cancelled = ExploreOptions {
            cancel: Some(Arc::new(token)),
            ..ExploreOptions::default()
        };
        assert_eq!(
            run(&cancelled).unwrap_err(),
            ExploreError::Cancelled {
                reason: CancelReason::Interrupt
            }
        );

        let tight = ExploreOptions {
            limits: ExplorationLimits {
                max_steps: 3,
                ..ExplorationLimits::default()
            },
            ..ExploreOptions::default()
        };
        assert!(matches!(
            run(&tight).unwrap_err(),
            ExploreError::Analysis(AnalysisError::StateLimitExceeded {
                kind: LimitKind::Steps,
                ..
            })
        ));
    }

    #[test]
    fn matches_exhaustive_on_ring() {
        // q = (3, 6, 2): 3·2 = 6·1, 6·1 = 2·3, 2·3 = 3·2.
        let mut b = SdfGraph::builder("ring");
        let x = b.actor("x", 1);
        let y = b.actor("y", 2);
        let z = b.actor("z", 1);
        b.channel("c1", x, 2, y, 1).unwrap();
        b.channel("c2", y, 1, z, 3).unwrap();
        b.channel_with_tokens("c3", z, 3, x, 2, 6).unwrap();
        let g = b.build().unwrap();
        let exhaustive = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        let guided = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
        assert_eq!(front(&exhaustive), front(&guided));
    }
}
