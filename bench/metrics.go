package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef declares one metric of the benchmark's schema. BENCHMARK.json
// carries the same declarations; the smoke test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics. Every one is reported on every workload
// and is never zero. Each time-derived one is host-normalised (README).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tkaq_p50_ms", "ms", "lower", 0.25},
	{"tkaq_p95_ms", "ms", "lower", 0.25},
	{"ekaq_p50_ms", "ms", "lower", 0.25},
	{"ekaq_p95_ms", "ms", "lower", 0.25},
	{"read_qps", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.2},
}

// perLayer are the layer metrics the driver collects with -trace 1. Every
// one is reported on every workload: a time is measured everywhere (the
// micro-runs run on each workload's own points), and a count or share of a
// layer the workload does not have is truly 0 (lacks, below).
var perLayer = []metricDef{
	{Name: "client.request_us", Unit: "us", Better: "lower"},
	{Name: "client.req_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "client.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "client.writer_late_share", Unit: "ratio", Better: "lower"},
	{Name: "client.hostunit_ms", Unit: "ms", Better: "lower"},
	{Name: "client.hostunit_iqr", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "net.self_us", Unit: "us", Better: "lower"},
	{Name: "net.floor_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.batch_self_us_per_query", Unit: "us", Better: "lower"},
	{Name: "server.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "server.alloc_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "server.pool_clones", Unit: "count", Better: "lower"},
	{Name: "karl.engine_us", Unit: "us", Better: "lower"},
	{Name: "karl.build_us_per_point", Unit: "us", Better: "lower"},
	{Name: "karl.persist_write_us_per_point", Unit: "us", Better: "lower"},
	{Name: "karl.persist_load_us_per_point", Unit: "us", Better: "lower"},
	{Name: "karl.persist_bytes_per_point", Unit: "B", Better: "lower"},
	{Name: "karl.insert_us_per_point", Unit: "us", Better: "lower"},
	{Name: "karl.delete_us", Unit: "us", Better: "lower"},
	{Name: "karl.dynamic_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "karl.segments_mean", Unit: "count", Better: "lower"},
	{Name: "karl.tombstones_mean", Unit: "count", Better: "lower"},
	{Name: "karl.seals", Unit: "count", Better: "lower"},
	{Name: "karl.compactions", Unit: "count", Better: "lower"},
	{Name: "karl.epochs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "core.refine_us", Unit: "us", Better: "lower"},
	{Name: "core.self_us", Unit: "us", Better: "lower"},
	{Name: "core.iterations_per_query", Unit: "count", Better: "lower"},
	{Name: "core.nodes_per_query", Unit: "count", Better: "lower"},
	{Name: "core.points_per_query", Unit: "count", Better: "lower"},
	{Name: "core.fastpath_share", Unit: "ratio", Better: "higher"},
	{Name: "bound.ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "kernel.ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "index.build_us_per_point", Unit: "us", Better: "lower"},
	{Name: "index.nodes_per_point", Unit: "count", Better: "lower"},
	{Name: "segment.seal_us_per_point", Unit: "us", Better: "lower"},
	{Name: "segment.merge_us_per_point", Unit: "us", Better: "lower"},
	{Name: "dualtree.us_per_query", Unit: "us", Better: "lower"},
	{Name: "dualtree.node_pairs_per_query", Unit: "count", Better: "lower"},
	{Name: "dualtree.group_certified_share", Unit: "ratio", Better: "higher"},
	{Name: "dualtree.fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.rounds_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.shard_calls_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.wire_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "cluster.hedges_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.retries_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.partial_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.route_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "replica.lag_seqs_p50", Unit: "count", Better: "lower"},
	{Name: "replica.lag_seqs_max", Unit: "count", Better: "lower"},
	{Name: "replica.catchup_points_per_s", Unit: "1/s", Better: "higher"},
	{Name: "proc.rss_mb.server", Unit: "MB", Better: "lower"},
	{Name: "proc.rss_mb.coordinator", Unit: "MB", Better: "lower"},
	{Name: "proc.rss_mb.leader", Unit: "MB", Better: "lower"},
	{Name: "proc.rss_mb.follower", Unit: "MB", Better: "lower"},
	{Name: "check.verified_ops", Unit: "count", Better: "higher"},
	{Name: "check.ekaq_violations", Unit: "count", Better: "lower"},
	{Name: "check.tkaq_wrong_verdicts", Unit: "count", Better: "lower"},
	{Name: "check.max_err_over_eps", Unit: "ratio", Better: "lower"},
	{Name: "check.unflagged_partials", Unit: "count", Better: "lower"},
	{Name: "check.multiseed_ekaq_violations", Unit: "count", Better: "lower"},
	{Name: "check.multiseed_max_err_over_eps", Unit: "ratio", Better: "lower"},
}

// lacks reports whether the workload's deployment has no such layer, so
// that the metric is 0 by construction and nothing measures it: no
// coordinator or follower behind a single server, no single server behind
// a coordinator, no writer on a static model.
func (w workload) lacks(metric string) bool {
	switch {
	case strings.HasPrefix(metric, "cluster."), strings.HasPrefix(metric, "replica."),
		strings.HasPrefix(metric, "check.multiseed_"),
		metric == "proc.rss_mb.coordinator", metric == "proc.rss_mb.leader", metric == "proc.rss_mb.follower":
		return w.shape != shapeCluster
	case metric == "proc.rss_mb.server":
		return w.shape == shapeCluster
	case metric == "client.writer_late_share":
		return w.writeEvery == 0
	}
	return false
}

// fillLacking completes a per-layer result: a metric of a layer the
// workload lacks becomes 0, and any other metric that no measurement set
// is an error — a layer that silently stops being measured must not read
// as a layer that got cheaper.
func fillLacking(res *result, w workload) error {
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; ok {
			continue
		}
		if !w.lacks(d.Name) {
			return fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = 0
	}
	return nil
}

// reportOnly metrics are printed and written to -out but are not in
// BENCHMARK.json: each is a time that exists on some workloads only (no
// batch endpoint on a coordinator, no writer on a static model, no
// coordinator in front of a single server), and the driver's schema wants
// every declared metric measured on every workload.
var reportOnly = []metricDef{
	{Name: "tkaq_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ekaq_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.writer_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "cluster.handler_us", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.shard_call_us", Unit: "us", Better: "lower"},
	{Name: "cluster.insert_us_per_point", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_us_per_op.server", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_us_per_op.coordinator", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_us_per_op.leader", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_us_per_op.follower", Unit: "us", Better: "lower"},
}

// runSeconds is the timed phase the driver asks for.
const runSeconds = 24

// benchmarkJSON renders the schema the way the driver reads it.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}
