//! The upper-bound search from peak occupancies, and the capacity box.
//!
//! A bound probe records each channel's peak occupancy, and each channel's
//! binary search in the `ub` search starts at the current distribution's
//! peak instead of at its grown capacity. The same analysis records each
//! channel's smallest refused claim, and the exhaustive driver answers
//! every candidate inside an analysis's capacity box `[peak, refused)`
//! from it. Three properties keep that exact:
//!
//! - the box lemma: any capacities inside the box change no firing, so
//!   the report and the peaks re-analysed at its low corner (every
//!   channel at its peak), at its high corner (each finite face at
//!   `refused − 1`, each infinite one at twice the capacity) and at seeded
//!   interior points are identical;
//! - the search returns the distribution of the search from the grown
//!   capacities (a copy of which is kept here as the reference), never
//!   with more probes, and with strictly fewer on h263full and cd2dat;
//! - a run resumed from a checkpoint cut inside the bounds phase, whose
//!   replayed probes carry no peaks, reproduces the uninterrupted run's
//!   front and statistics.

use buffy_analysis::{
    throughput_analysis, throughput_for, AnalysisRequest, AnalysisWorkspace, Capacities,
    DataflowSemantics, ExplorationLimits, ThroughputAnalysis,
};
use buffy_core::{
    explore_dependency_guided, explore_design_space, lower_bound_distribution,
    upper_bound_distribution, CancelReason, CancelToken, Event, ExplorationResult, ExploreError,
    ExploreObserver, ExploreOptions, SearchPhase, WarmStart,
};
use buffy_csdf::CsdfGraph;
use buffy_gen::{gallery, RandomGraphConfig, SplitMix64};
use buffy_graph::{ActorId, ChannelId, Rational, StorageDistribution};
use buffy_integration_tests::{burst_csdf, h263full};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// The 45 graphs of the mixed-step family: 4 to 6 actors, 5 to 7
/// channels, seeds 1 to 5.
fn mixed_step_graphs() -> impl Iterator<Item = buffy_graph::SdfGraph> {
    (4..=6).flat_map(|actors| {
        (5..=7).flat_map(move |channels| {
            (1..=5)
                .map(move |seed| RandomGraphConfig::mixed_step(actors, channels, seed).generate())
        })
    })
}

/// One analysis of `dist` with the peaks (and so the refused claims) on.
fn analyse_with_peaks<M: DataflowSemantics>(
    model: &M,
    dist: &StorageDistribution,
) -> Option<ThroughputAnalysis> {
    let request = AnalysisRequest {
        peaks: true,
        ..AnalysisRequest::default()
    };
    throughput_analysis(
        model,
        Capacities::from_distribution(dist),
        model.default_observed_actor(),
        &request,
        &mut AnalysisWorkspace::new(),
    )
    .ok()
}

/// Analyses `dist` and re-analyses it at points of its capacity box
/// `[peak, refused)`: the low corner, the high corner (each finite face
/// at `refused − 1`, each infinite one at twice the capacity) and three
/// interior points drawn from a seed. Every report must be byte-identical
/// and so must the peaks. Flags and refused claims are not compared: a
/// tighter cap can add space-blocked channels and refusals without
/// changing any firing.
fn assert_box_lemma<M: DataflowSemantics>(label: &str, model: &M, dist: &StorageDistribution) {
    let Some(first) = analyse_with_peaks(model, dist) else {
        return;
    };
    let peaks = first.peaks.clone().expect("peaks were requested");
    let refused = first
        .refused
        .clone()
        .expect("refused claims were requested");
    for (i, (&peak, &refused)) in peaks.iter().zip(&refused).enumerate() {
        let initial = model.initial_tokens(ChannelId::new(i));
        let cap = dist.as_slice()[i];
        assert!(initial <= peak, "{label} {dist}: peak below initial tokens");
        assert!(
            peak <= cap.max(initial),
            "{label} {dist}: peak above the capacity"
        );
        assert!(
            cap < refused,
            "{label} {dist}: refused claim within the capacity"
        );
    }
    // Each channel's box as an inclusive range.
    let faces: Vec<(u64, u64)> = dist
        .as_slice()
        .iter()
        .zip(peaks.iter().zip(&refused))
        .map(|(&cap, (&peak, &refused))| {
            let top = if refused == u64::MAX {
                (2 * cap).max(peak)
            } else {
                refused - 1
            };
            (peak, top)
        })
        .collect();
    if faces.iter().any(|&(lo, hi)| lo > hi) {
        return; // over-full initial tokens can leave the box empty
    }
    let seed = dist
        .as_slice()
        .iter()
        .fold(dist.size(), |h, &c| h.wrapping_mul(31).wrapping_add(c));
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut points = vec![
        faces
            .iter()
            .map(|&(lo, _)| lo)
            .collect::<StorageDistribution>(),
        faces.iter().map(|&(_, hi)| hi).collect(),
    ];
    for _ in 0..3 {
        points.push(
            faces
                .iter()
                .map(|&(lo, hi)| rng.range_u64(lo, hi))
                .collect(),
        );
    }
    for point in points {
        let again = analyse_with_peaks(model, &point)
            .unwrap_or_else(|| panic!("{label}: {dist}'s box point {point} failed to analyse"));
        assert_eq!(
            format!("{:?}", again.report),
            format!("{:?}", first.report),
            "{label}: {dist}'s box point {point}"
        );
        assert_eq!(
            again.peaks, first.peaks,
            "{label}: {dist}'s box point {point}"
        );
    }
}

/// The lower bound, every channel grown by 1 and 3, the lower bound
/// doubled, the upper bound and the upper bound doubled.
fn lemma_distributions<M: DataflowSemantics>(model: &M) -> Vec<StorageDistribution> {
    let lb = lower_bound_distribution(model);
    let scaled = |d: &StorageDistribution, f: &dyn Fn(u64) -> u64| -> StorageDistribution {
        d.as_slice().iter().map(|&c| f(c)).collect()
    };
    let mut dists = vec![
        lb.clone(),
        scaled(&lb, &|c| c + 1),
        scaled(&lb, &|c| c + 3),
        scaled(&lb, &|c| 2 * c),
    ];
    let observed = model.default_observed_actor();
    if let Ok((ub, _)) = upper_bound_distribution(model, observed, ExplorationLimits::default()) {
        dists.push(scaled(&ub, &|c| 2 * c));
        dists.push(ub);
    }
    dists
}

fn assert_model_obeys_box_lemma<M: DataflowSemantics>(label: &str, model: &M) {
    for dist in lemma_distributions(model) {
        assert_box_lemma(label, model, &dist);
    }
}

#[test]
fn capping_at_the_peaks_changes_no_report_on_the_galleries() {
    // Both galleries, h263full and CSDF h263rows among them: their
    // analyses fast-forward repeated windows.
    for g in gallery::all() {
        assert_model_obeys_box_lemma(g.name(), &g);
    }
    for g in buffy_csdf::gallery::all() {
        assert_model_obeys_box_lemma(g.name(), &g);
    }
    let g = h263full();
    assert_model_obeys_box_lemma(g.name(), &g);
    // Zero-production phases: a phase start claims nothing.
    let burst = burst_csdf();
    assert_model_obeys_box_lemma("burst3", &burst);
    for cap in 3..12 {
        assert_box_lemma(
            "burst3",
            &burst,
            &StorageDistribution::from_capacities(vec![cap]),
        );
    }
}

#[test]
fn capping_at_the_peaks_changes_no_report_on_random_graphs() {
    for (i, g) in mixed_step_graphs().enumerate() {
        assert_model_obeys_box_lemma(&format!("mixed-step {i}"), &g);
    }
    for seed in 0..10 {
        let g = RandomGraphConfig::small(seed).generate();
        assert_model_obeys_box_lemma(&format!("small {seed}"), &g);
        let g = CsdfGraph::from_sdf(&g);
        assert_model_obeys_box_lemma(&format!("embedded small {seed}"), &g);
    }
}

/// The upper-bound search before peak occupancies, kept as the reference:
/// grow until the maximal throughput, then bisect every channel from its
/// grown capacity. Returns the distribution and the number of distinct
/// distributions probed (the evaluations a memoized run counts).
fn reference_upper_bound<M: DataflowSemantics>(
    model: &M,
    observed: ActorId,
) -> (StorageDistribution, usize) {
    let mut probed = HashSet::new();
    let mut eval = |dist: &StorageDistribution| -> Rational {
        probed.insert(dist.clone());
        throughput_for(
            model,
            Capacities::from_distribution(dist),
            observed,
            ExplorationLimits::default(),
        )
        .unwrap()
        .throughput
    };
    let q = model.repetition_cycles().unwrap();
    let thr_max = buffy_analysis::maximal_throughput(model, observed).unwrap();
    let mut dist: StorageDistribution = (0..model.num_channels())
        .map(|i| {
            let cid = ChannelId::new(i);
            let iter_room = model.initial_tokens(cid)
                + model.cycle_production(cid) * q[model.channel_source(cid).index()]
                + model.cycle_consumption(cid) * q[model.channel_target(cid).index()];
            iter_room.max(model.channel_lower_bound(cid))
        })
        .collect();
    while eval(&dist) != thr_max {
        dist = dist.as_slice().iter().map(|&c| c * 2).collect();
    }
    for i in 0..model.num_channels() {
        let cid = ChannelId::new(i);
        let step = model.channel_step(cid);
        let lo_cap = model.channel_lower_bound(cid);
        let mut lo = 0u64;
        let mut hi = (dist.get(cid) - lo_cap).div_ceil(step);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut probe = dist.clone();
            probe.set(cid, lo_cap + mid * step);
            if eval(&probe) == thr_max {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        dist.set(cid, lo_cap + hi * step);
    }
    (dist, probed.len())
}

/// Records every evaluation of a run and how many of them fell in the
/// bounds phase; when given a token, cancels the run as the bounds phase
/// ends.
#[derive(Default)]
struct Probes {
    evaluations: Mutex<Vec<(StorageDistribution, Rational, u64)>>,
    bounds: Mutex<Option<usize>>,
    stop_after_bounds: Option<Arc<CancelToken>>,
}

impl ExploreObserver for Probes {
    fn event(&self, event: &Event<'_>) {
        match *event {
            Event::Phase(SearchPhase::Bounds) => {}
            Event::Phase(_) => {
                let mut bounds = self.bounds.lock().unwrap();
                if bounds.is_none() {
                    *bounds = Some(self.evaluations.lock().unwrap().len());
                }
                if let Some(token) = &self.stop_after_bounds {
                    token.cancel(CancelReason::Interrupt);
                }
            }
            Event::Evaluated {
                dist,
                throughput,
                states,
                ..
            } => self
                .evaluations
                .lock()
                .unwrap()
                .push((dist.clone(), throughput, states)),
            _ => {}
        }
    }
}

type Driver<M> = fn(&M, &ExploreOptions) -> Result<ExplorationResult, ExploreError>;

/// The evaluations `driver`'s bounds phase makes on `model`; the run is
/// cancelled as soon as the search begins.
fn bound_probes<M: DataflowSemantics + Sync>(model: &M, driver: Driver<M>) -> usize {
    let token = Arc::new(CancelToken::new());
    let probes = Arc::new(Probes {
        stop_after_bounds: Some(token.clone()),
        ..Probes::default()
    });
    let options = ExploreOptions {
        cancel: Some(token),
        observer: Some(probes.clone()),
        ..ExploreOptions::default()
    };
    let _ = driver(model, &options);
    let bounds = probes.bounds.lock().unwrap().expect("the search began");
    bounds
}

/// The `ub` search returns the reference's distribution with no more
/// probes, through the public function and through both drivers' bounds
/// phases. Returns (reference probes, driver probes).
fn assert_same_upper_bound<M: DataflowSemantics + Sync>(label: &str, model: &M) -> (usize, usize) {
    let observed = model.default_observed_actor();
    let (expected, reference_probes) = reference_upper_bound(model, observed);
    let (ub, _) = upper_bound_distribution(model, observed, ExplorationLimits::default()).unwrap();
    assert_eq!(ub, expected, "{label}: upper-bound distribution");
    let guided = bound_probes(model, explore_dependency_guided::<M>);
    let exhaustive = bound_probes(model, explore_design_space::<M>);
    assert_eq!(
        guided, exhaustive,
        "{label}: the drivers' bounds phases differ"
    );
    assert!(
        guided <= reference_probes,
        "{label}: {guided} bound probes, the reference needs {reference_probes}"
    );
    (reference_probes, guided)
}

#[test]
fn upper_bound_matches_the_grown_capacity_search_on_the_galleries() {
    for g in gallery::all() {
        assert_same_upper_bound(g.name(), &g);
    }
    for g in buffy_csdf::gallery::all() {
        assert_same_upper_bound(g.name(), &g);
    }
    assert_same_upper_bound("burst3", &burst_csdf());
    for g in [h263full(), gallery::cd2dat()] {
        let (reference, probes) = assert_same_upper_bound(g.name(), &g);
        assert!(
            probes < reference,
            "{}: {probes} bound probes, the reference needs {reference}",
            g.name()
        );
    }
}

#[test]
fn upper_bound_matches_the_grown_capacity_search_on_mixed_step_graphs() {
    let (mut reference, mut probes) = (0, 0);
    for (i, g) in mixed_step_graphs().enumerate() {
        let (r, p) = assert_same_upper_bound(&format!("mixed-step {i}"), &g);
        reference += r;
        probes += p;
    }
    assert!(
        probes < reference,
        "{probes} bound probes against {reference}"
    );
}

/// Resumes `driver` on `model` from checkpoints cut inside the bounds
/// phase: the front and the statistics must be the uninterrupted run's.
/// With `stop_after_bounds`, every run is interrupted as its search
/// begins, and the partial results must agree.
fn assert_bounds_phase_resume<M: DataflowSemantics + Sync>(
    label: &str,
    model: &M,
    driver: Driver<M>,
    max_size: Option<u64>,
    stop_after_bounds: bool,
) {
    let run = |warm_start: Option<Arc<WarmStart>>| {
        let token = Arc::new(CancelToken::new());
        let probes = Arc::new(Probes {
            stop_after_bounds: stop_after_bounds.then(|| token.clone()),
            ..Probes::default()
        });
        let result = driver(
            model,
            &ExploreOptions {
                max_size,
                cancel: Some(token),
                warm_start,
                observer: Some(probes.clone()),
                ..ExploreOptions::default()
            },
        );
        (result, probes)
    };
    let (clean, probes) = run(None);
    let clean = clean.unwrap_or_else(|e| panic!("{label}: {e}"));
    let evaluations = probes.evaluations.lock().unwrap().clone();
    let bounds = probes.bounds.lock().unwrap().expect("the search began");
    let mut cuts = vec![1, bounds / 2, bounds - 1];
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts.into_iter().filter(|&c| c > 0 && c < bounds) {
        let warm: WarmStart = evaluations[..cut]
            .iter()
            .map(|(d, t, s)| (d.clone(), (*t, *s)))
            .collect();
        let (resumed, _) = run(Some(Arc::new(warm)));
        let resumed = resumed.unwrap_or_else(|e| panic!("{label} cut {cut}: {e}"));
        assert_eq!(resumed.pareto, clean.pareto, "{label} cut {cut}/{bounds}");
        assert_eq!(resumed.stats, clean.stats, "{label} cut {cut}/{bounds}");
        assert_eq!(
            resumed.upper_bound_size, clean.upper_bound_size,
            "{label} cut {cut}/{bounds}"
        );
    }
}

/// A size cap for the graphs whose full searches are slow in debug
/// builds. The exhaustive driver's bounds phase, which the resume test is
/// about, runs in full under any cap; a capped guided run runs none, so
/// the guided runs of these graphs stop as their search begins instead.
fn search_cap(name: &str) -> Option<u64> {
    match name {
        "satellite" => Some(48),
        "h263decoder" => Some(1195),
        "h263-rows" => Some(700),
        _ => None,
    }
}

#[test]
fn runs_resumed_inside_the_bounds_phase_reproduce_the_clean_run() {
    for g in gallery::all() {
        let cap = search_cap(g.name());
        assert_bounds_phase_resume(g.name(), &g, explore_dependency_guided, None, cap.is_some());
        assert_bounds_phase_resume(g.name(), &g, explore_design_space, cap, false);
    }
    for g in buffy_csdf::gallery::all() {
        let cap = search_cap(g.name());
        assert_bounds_phase_resume(g.name(), &g, explore_dependency_guided, None, cap.is_some());
        assert_bounds_phase_resume(g.name(), &g, explore_design_space, cap, false);
    }
}

/// A size cap is the guided search's upper end, so a capped guided run
/// takes the maximal throughput from the cycle-ratio bound: it runs no
/// bound probe, and charts the part of the uncapped front within the cap.
#[test]
fn capped_guided_runs_run_no_bound_probe() {
    let graphs = [
        gallery::example(),
        gallery::bipartite(),
        gallery::modem(),
        gallery::cd2dat(),
    ];
    for g in graphs {
        let r = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
        let smallest = r.pareto.minimal().unwrap().size;
        let middle = (smallest + r.upper_bound_size) / 2;
        for cap in [smallest, middle, r.upper_bound_size] {
            let probes = Arc::new(Probes::default());
            let capped = explore_dependency_guided(
                &g,
                &ExploreOptions {
                    max_size: Some(cap),
                    observer: Some(probes.clone()),
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(*probes.bounds.lock().unwrap(), Some(0), "{}", g.name());
            assert_eq!(capped.max_throughput, r.max_throughput, "{}", g.name());
            let within: Vec<_> = r.pareto.points().iter().filter(|p| p.size <= cap).collect();
            let front: Vec<_> = capped.pareto.points().iter().collect();
            assert_eq!(front, within, "{} --max-size {cap}", g.name());
        }
    }
}
