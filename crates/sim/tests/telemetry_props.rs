//! Property tests for the unified telemetry registry: the JSON document
//! produced by [`Registry::to_json`] must reconstruct the exact snapshot
//! after a full render → parse round-trip, for arbitrary registries.

use baryon_sim::check;
use baryon_sim::json;
use baryon_sim::telemetry::Registry;

/// A dotted metric name from a fixed pool of components and fields, with a
/// per-kind suffix so counters, gauges and summaries never share a name
/// (as in the real workspace, where the kind is part of the convention).
fn name(g: &mut check::Gen, kind: &str) -> String {
    let comp = ["ctrl", "cache.l2", "sim", "serve", "mem"][g.choice(5)];
    let field = ["reads", "hits", "bytes", "lat", "stage.fill"][g.choice(5)];
    format!("{comp}.{field}.{kind}")
}

#[test]
fn snapshot_round_trips_through_rendered_json() {
    check::props("telemetry_snapshot_json_round_trip").run(|g| {
        let mut reg = Registry::new();
        // Magnitudes are bounded (2^48) so repeated adds to one name and
        // histogram sums cannot overflow — as in real use, where counters
        // are event counts, not arbitrary bit patterns.
        for _ in 0..g.range(0, 6) {
            let n = name(g, "c");
            reg.add(&n, g.range(0, 1 << 48));
        }
        for _ in 0..g.range(0, 6) {
            let n = name(g, "g");
            // Finite gauges only: JSON has no NaN/Infinity (the emitter
            // renders them as null, which reads back as NaN and would
            // defeat the equality below since NaN != NaN). Whole-valued
            // gauges are the interesting case — they render without a
            // fraction and parse back as integers.
            let v = if g.bool() {
                g.range(0, 1000) as f64
            } else {
                g.f64() * 1e6
            };
            reg.set_gauge(&n, if g.bool() { -v } else { v });
        }
        for _ in 0..g.range(0, 4) {
            let n = name(g, "s");
            for _ in 0..g.range(1, 8) {
                reg.observe(&n, g.range(0, 1 << 48));
            }
        }
        let text = reg.to_json().render();
        let doc = json::parse(&text).expect("registry JSON parses");
        assert_eq!(Registry::snapshot_from_json(&doc), Some(reg.snapshot()));
    });
}
