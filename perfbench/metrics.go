package main

import (
	"math"
	"sort"
)

// metricDef is one metric of BENCHMARK.json. Bound is set for end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sweep_s", "s", "lower", 0.25},
	{"last_row_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.2},
}

// perLayer come from the traced run. Each workload lists the ones it
// measures (see tracedLayers below); the others read 0 in its result.
var perLayer = []metricDef{
	{"graph.build_ms", "ms", "lower", 0},
	{"graph.builds", "count", "lower", 0},
	{"core.init_ms", "ms", "lower", 0},
	{"core.init_frac", "ratio", "lower", 0},
	{"core.generic_rounds", "count", "lower", 0},
	{"core.generic_agent_steps_per_s", "1/s", "higher", 0},
	{"kernel.tier_share.generic", "ratio", "lower", 0},
	{"kernel.tier_share.ring", "ratio", "higher", 0},
	{"kernel.tier_share.held", "ratio", "higher", 0},
	{"kernel.tier_share.parallel", "ratio", "higher", 0},
	{"kernel.ring_agent_steps_per_s", "1/s", "higher", 0},
	{"kernel.held_agent_steps_per_s", "1/s", "higher", 0},
	{"kernel.useful_node_frac", "ratio", "higher", 0},
	{"randwalk.counts_agent_steps_per_s", "1/s", "higher", 0},
	{"randwalk.agents_agent_steps_per_s", "1/s", "higher", 0},
	{"engine.expand_ms", "ms", "lower", 0},
	{"engine.job_ms_p50", "ms", "lower", 0},
	{"engine.job_ms_max", "ms", "lower", 0},
	{"engine.critical_path_frac", "ratio", "lower", 0},
	{"engine.worker_busy_frac", "ratio", "higher", 0},
	{"engine.subsweep_s.clustered_sparse", "s", "lower", 0},
	{"engine.subsweep_s.clustered_dense", "s", "lower", 0},
	{"engine.subsweep_s.spread_dense", "s", "lower", 0},
	{"engine.subsweep_s.spread_delay", "s", "lower", 0},
	{"engine.subsweep_s.spread_patrol", "s", "lower", 0},
	{"engine.subsweep_s.spread_walk", "s", "lower", 0},
	{"engine.mission_ms", "ms", "lower", 0},
	{"engine.rowbytes_us", "us", "lower", 0},
	{"engine.sink_us", "us", "lower", 0},
	{"engine.first_row_ms_p50", "ms", "lower", 0},
	{"service.submit_ms_p50", "ms", "lower", 0},
	{"service.first_row_ms_p50", "ms", "lower", 0},
	{"service.row_gap_ms_p50", "ms", "lower", 0},
	{"service.warm_first_row_ms_p50", "ms", "lower", 0},
	{"service.warm_last_row_ms_p50", "ms", "lower", 0},
	{"service.cache_hit_ratio", "ratio", "higher", 0},
	{"service.cache_files_per_row", "count", "lower", 0},
	{"service.spool_bytes_per_row", "B", "lower", 0},
	{"service.first_row_ms_tail", "ms", "lower", 0},
	{"service.first_row_ms_tail_pct", "%", "higher", 0},
	{"service.first_row_ms_tail_n", "count", "higher", 0},
	{"service.last_row_ms_tail", "ms", "lower", 0},
	{"service.last_row_ms_tail_pct", "%", "higher", 0},
	{"service.last_row_ms_tail_n", "count", "higher", 0},
	{"service.warm_last_row_ms_tail", "ms", "lower", 0},
	{"service.warm_last_row_ms_tail_pct", "%", "higher", 0},
	{"service.warm_last_row_ms_tail_n", "count", "higher", 0},
	{"cluster.leases_granted", "count", "lower", 0},
	{"cluster.rows_per_lease", "count", "higher", 0},
	{"cluster.worker_row_share_min", "ratio", "higher", 0},
	{"cluster.lease_retries", "count", "lower", 0},
	{"cluster.jobs_local", "count", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.unattributed_frac", "ratio", "lower", 0},
	{"trace.replays_mismatched", "count", "lower", 0},
	{"bench.host_scale", "ratio", "higher", 0},
}

// The per-layer metrics each kind of workload measures. A traced run
// fails if it leaves one of its workload's metrics unset or sets one that
// is not listed.
var (
	tracedLayers = []string{
		"trace.overhead_frac", "trace.unattributed_frac", "engine.expand_ms", "engine.rowbytes_us", "bench.host_scale",
	}
	libraryLayers = []string{
		"graph.build_ms", "graph.builds",
		"core.init_ms", "core.init_frac", "core.generic_rounds", "core.generic_agent_steps_per_s",
		"kernel.tier_share.generic", "kernel.tier_share.ring", "kernel.tier_share.held", "kernel.tier_share.parallel",
		"kernel.ring_agent_steps_per_s", "kernel.held_agent_steps_per_s", "kernel.useful_node_frac",
		"randwalk.counts_agent_steps_per_s", "randwalk.agents_agent_steps_per_s",
		"engine.job_ms_p50", "engine.job_ms_max", "engine.critical_path_frac", "engine.worker_busy_frac",
		"engine.mission_ms", "engine.sink_us", "engine.first_row_ms_p50", "trace.replays_mismatched",
	}
	serviceLayerSet = []string{
		"service.submit_ms_p50", "service.first_row_ms_p50", "service.row_gap_ms_p50",
		"service.first_row_ms_tail", "service.first_row_ms_tail_pct", "service.first_row_ms_tail_n",
		"service.last_row_ms_tail", "service.last_row_ms_tail_pct", "service.last_row_ms_tail_n",
		"service.cache_hit_ratio", "service.cache_files_per_row", "service.spool_bytes_per_row",
		"cluster.jobs_local",
	}
	warmLayers = []string{
		"service.warm_first_row_ms_p50", "service.warm_last_row_ms_p50",
		"service.warm_last_row_ms_tail", "service.warm_last_row_ms_tail_pct", "service.warm_last_row_ms_tail_n",
	}
	clusterLayers = []string{
		"cluster.leases_granted", "cluster.rows_per_lease", "cluster.worker_row_share_min", "cluster.lease_retries",
	}
)

// libraryLayerSet is what a library workload over subs measures,
// including one engine.subsweep_s metric per sub-sweep.
func libraryLayerSet(subs []subSweep) []string {
	out := concat(tracedLayers, libraryLayers)
	for _, s := range subs {
		out = append(out, "engine.subsweep_s."+s.name)
	}
	return out
}

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tail returns the highest of the percentiles 99.9, 99, 95, 90 and 50 that
// leaves at least ten samples above it, its value, and the sample count.
func tail(xs []float64) (value, pct float64, n int) {
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return quantile(xs, p/100), p, len(xs)
		}
	}
	return 0, 0, len(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
