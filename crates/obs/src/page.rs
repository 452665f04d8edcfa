//! The `/` landing page: one self-contained HTML document (inline CSS
//! and JS, no external assets) that polls `/status` twice a second and
//! renders the live counters and the Pareto front under construction.

/// The complete landing page served at `GET /`.
pub(crate) const INDEX_HTML: &str = r#"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>buffy live</title>
<style>
  body { font-family: ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
         margin: 2rem; background: #101418; color: #d8dee4; }
  h1 { font-size: 1.2rem; } h1 em { color: #7aa2f7; font-style: normal; }
  table { border-collapse: collapse; margin: 1rem 0; }
  td, th { border: 1px solid #2a313a; padding: 0.25rem 0.75rem; text-align: right; }
  th { background: #161b22; color: #9fb3c8; }
  td:first-child, th:first-child { text-align: left; }
  #phase { color: #e0af68; } #state { color: #9ece6a; }
  .muted { color: #626d7a; }
</style>
</head>
<body>
<h1><em>buffy</em> live observability &mdash; <span id="graph">&hellip;</span>
  / <span id="algorithm">&hellip;</span></h1>
<p>phase <span id="phase">&mdash;</span> &middot; <span id="state">running</span>
  &middot; elapsed <span id="elapsed">0</span>s</p>
<table>
  <tbody id="counters"></tbody>
</table>
<h1>Pareto front (<span id="front-size">0</span> points)</h1>
<table>
  <thead><tr><th>size</th><th>throughput</th><th>distribution</th></tr></thead>
  <tbody id="front"></tbody>
</table>
<p class="muted">Endpoints: <a href="/status">/status</a> &middot;
  <a href="/metrics">/metrics</a> &middot; <a href="/events">/events</a> &middot;
  <a href="/healthz">/healthz</a></p>
<script>
const COUNTERS = ["evaluations", "cache_hits", "failures",
  "pareto_accepted", "events_dropped"];
function esc(s) { const d = document.createElement("span");
  d.textContent = String(s); return d.innerHTML; }
async function tick() {
  let s;
  try { s = await (await fetch("/status")).json(); }
  catch (e) { document.getElementById("state").textContent = "unreachable"; return; }
  document.getElementById("graph").textContent = s.graph;
  document.getElementById("algorithm").textContent = s.algorithm;
  document.getElementById("phase").textContent = s.phase ?? "—";
  document.getElementById("state").textContent = s.finished ? "finished" : "running";
  document.getElementById("elapsed").textContent = (s.elapsed_us / 1e6).toFixed(1);
  document.getElementById("counters").innerHTML = COUNTERS.map(k =>
    `<tr><td>${k}</td><td>${esc(s[k])}</td></tr>`).join("") +
    (s.budget_evaluations_remaining == null ? "" :
      `<tr><td>budget remaining</td><td>${esc(s.budget_evaluations_remaining)}</td></tr>`);
  document.getElementById("front-size").textContent = s.front.length;
  document.getElementById("front").innerHTML = s.front.map(p =>
    `<tr><td>${esc(p.size)}</td><td>${esc(p.throughput)}</td><td>[${p.distribution.map(esc).join(", ")}]</td></tr>`).join("");
}
tick();
setInterval(tick, 500);
</script>
</body>
</html>
"#;
