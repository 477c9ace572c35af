package main

import "fmt"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric: BENCHMARK.json carries the same names,
// units, directions and (for end-to-end metrics) bounds, and the
// self-tests hold the two in step in both directions.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the checker pays per request-to-verdict
// op, measured with tracing off. Operations that error or return a wrong
// verdict are reported through the result's attempted/failed counts, not
// as a metric of their own: the value is 0 on every healthy run. Every
// bound sits at the 25% cap: see "Bounds" in README.md.
var endToEnd = []metricDef{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the single-layer metrics of the traced run, layer =
// module name. A workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "system.apply_ns_per_state", Unit: "ns/state", Better: "lower"},
	{Name: "system.append_fp_ns_per_state", Unit: "ns/state", Better: "lower"},
	{Name: "system.parse_fp_ns_per_state", Unit: "ns/state", Better: "lower"},
	{Name: "system.fp_bytes_per_state", Unit: "B/state", Better: "lower"},
	{Name: "symmetry.canonical_ns_per_state", Unit: "ns/state", Better: "lower"},
	{Name: "symmetry.group_order", Unit: "count", Better: "higher"},
	{Name: "intern.intern_ns_per_key", Unit: "ns/key", Better: "lower"},
	{Name: "intern.lookup_ns_per_key", Unit: "ns/key", Better: "lower"},
	{Name: "explore.build_ns_per_state", Unit: "ns/state", Better: "lower"},
	{Name: "explore.residual_ns_per_state", Unit: "ns/state", Better: "lower"},
	{Name: "explore.replay_coverage", Unit: "ratio", Better: "higher"},
	{Name: "explore.lookup_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "explore.state_read_ns_per_state", Unit: "ns/state", Better: "lower"},
	{Name: "explore.edges_read_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "explore.allocs_per_state", Unit: "allocs/state", Better: "lower"},
	{Name: "explore.alloc_bytes_per_state", Unit: "B/state", Better: "lower"},
	{Name: "explore.retained_bytes_per_state", Unit: "B/state", Better: "lower"},
	{Name: "explore.spill_bytes_per_state", Unit: "B/state", Better: "lower"},
	{Name: "explore.edge_bytes_per_edge", Unit: "B/edge", Better: "lower"},
	{Name: "explore.spill_fp_reads", Unit: "count", Better: "lower"},
	{Name: "explore.spill_edge_reads", Unit: "count", Better: "lower"},
	{Name: "explore.graph_dir_bytes", Unit: "B", Better: "lower"},
	{Name: "explore.durable_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "explore.open_graph_ms", Unit: "ms", Better: "lower"},
	{Name: "explore.classify_ms", Unit: "ms", Better: "lower"},
	{Name: "explore.find_hook_ms", Unit: "ms", Better: "lower"},
	{Name: "explore.refute_ms", Unit: "ms", Better: "lower"},
	{Name: "explore.refute_residual_ms", Unit: "ms", Better: "lower"},
	{Name: "explore.run_batch_us_per_run", Unit: "us", Better: "lower"},
	{Name: "boosting.new_us", Unit: "us", Better: "lower"},
	{Name: "boosting.canonical_fp_us", Unit: "us", Better: "lower"},
	{Name: "server.cold_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.delta_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.explore_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.hit_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "server.ack_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.sse_first_event_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.delta_over_cold", Unit: "ratio", Better: "lower"},
	{Name: "server.delta_explored", Unit: "count", Better: "lower"},
	{Name: "server.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "server.delta_share", Unit: "ratio", Better: "higher"},
	{Name: "server.explorations_per_session", Unit: "count", Better: "lower"},
	{Name: "server.start_ms", Unit: "ms", Better: "lower"},
	{Name: "server.shutdown_ms", Unit: "ms", Better: "lower"},
	{Name: "cmd.boostcheck_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "cmd.boostcheck_peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "cmd.process_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// layerValues collects per-layer measurements by name.
type layerValues map[string]float64

// report renders the declared metrics from measured values, in declaration
// order. End-to-end metrics must all be present; a per-layer metric the
// workload did not exercise reads 0. A value under an undeclared name is a
// harness bug, reported rather than dropped.
func report(defs []metricDef, values map[string]float64, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("bench: measured value %s is not a declared metric", name)
		}
	}
	return out, nil
}
