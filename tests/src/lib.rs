//! Integration-test-only package; see the tests/ directory. It holds the
//! few models and settings that several test files share.

use buffy_csdf::CsdfGraph;
use buffy_graph::SdfGraph;

/// Thread count for the parallel halves of cross-thread determinism
/// tests: `BUFFY_TEST_THREADS` when set (CI runs the suite with 4),
/// otherwise 4.
pub fn test_threads() -> usize {
    std::env::var("BUFFY_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

/// A genuinely phased CSDF graph (not an embedded-SDF one) whose producer
/// has a zero-production phase.
pub fn burst_csdf() -> CsdfGraph {
    let mut b = CsdfGraph::builder("burst3");
    let p = b.actor("p", vec![1, 1, 1]);
    let c = b.actor("c", vec![2]);
    b.channel("d", p, vec![3, 0, 3], c, vec![2], 0).unwrap();
    b.build().unwrap()
}

/// The H.263 decoder with the authors' cycle counts (26018, 559, 486,
/// 10958; the gallery graph divides them by about 100): every analysis
/// spans more than a million time units.
pub fn h263full() -> SdfGraph {
    let mut b = SdfGraph::builder("h263full");
    let vld = b.actor("vld", 26018);
    let iq = b.actor("iq", 559);
    let idct = b.actor("idct", 486);
    let mc = b.actor("mc", 10958);
    b.channel("vld_iq", vld, 594, iq, 1).unwrap();
    b.channel("iq_idct", iq, 1, idct, 1).unwrap();
    b.channel("idct_mc", idct, 1, mc, 594).unwrap();
    b.build().unwrap()
}
