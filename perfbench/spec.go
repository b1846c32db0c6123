package main

import (
	"encoding/json"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of the API sees; every workload reports
// every one of them (see README.md for what each means per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"latency_p50_ms", "ms", "lower", bound(0.25)},
	{"latency_p99_ms", "ms", "lower", bound(0.25)},
	{"throughput_ops", "1/s", "higher", bound(0.2)},
	{"max_rate_rps", "1/s", "higher", bound(0.25)},
	{"delta_p50_ms", "ms", "lower", bound(0.25)},
	{"delta_p90_ms", "ms", "lower", bound(0.25)},
	{"alloc_kb_per_op", "kb", "lower", bound(0.15)},
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// perLayer are the traced run's metrics: timings and allocation counts
// of each layer's public functions, cache and refresh ratios, runtime
// figures, diagnostics, and each layer's share of the replay's busy
// (self) time.
var perLayer = []metricSpec{
	lower("server.handle_p50_us", "us"),
	lower("server.handle_p99_us", "us"),
	lower("server.handle_allocs", "count"),
	lower("server.http_overhead_us", "us"),
	lower("serving.encode_us", "us"),
	lower("serving.encode_allocs", "count"),
	lower("serving.encode_kb", "kb"),
	lower("serving.evictions_per_op", "count"),
	lower("engine.parse_ns", "ns"),
	lower("engine.run_hit_us", "us"),
	lower("engine.run_hit_allocs", "count"),
	lower("engine.run_miss_p50_ms", "ms"),
	lower("engine.run_miss_p99_ms", "ms"),
	lower("engine.run_miss_allocs", "count"),
	lower("engine.batch_ms", "ms"),
	lower("engine.batch_allocs", "count"),
	higher("engine.hit_ratio", "ratio"),
	lower("engine.apply_delta_us", "us"),
	lower("engine.apply_delta_allocs", "count"),
	higher("engine.migrated_ratio", "ratio"),
	higher("engine.warm_adopted_ratio", "ratio"),
	lower("resilience.admit_ns", "ns"),
	lower("resilience.admit_allocs", "count"),
	lower("resilience.shed_ratio", "ratio"),
	lower("analyses.compute_types_ms", "ms"),
	lower("analyses.compute_types_warm_ms", "ms"),
	lower("analyses.compute_agreement_us", "us"),
	lower("analyses.compute_cluster_us", "us"),
	lower("analyses.compute_course_us", "us"),
	lower("factorize.analyze_ms", "ms"),
	lower("factorize.analyze_allocs", "count"),
	lower("nnmf.factorize_ms", "ms"),
	lower("nnmf.factorize_mb", "mb"),
	lower("nnmf.factorize_allocs", "count"),
	lower("nnmf.factorize_csr_ms", "ms"),
	lower("nnmf.iterations", "count"),
	lower("dataset.put_ms", "ms"),
	lower("dataset.put_allocs", "count"),
	lower("dataset.apply_us", "us"),
	lower("dataset.apply_allocs", "count"),
	lower("agreement.rebase_us", "us"),
	lower("agreement.rebase_allocs", "count"),
	lower("search.index_ms", "ms"),
	lower("search.index_allocs", "count"),
	lower("search.query_us", "us"),
	lower("search.query_allocs", "count"),
	lower("fleet.owner_ns", "ns"),
	lower("fleet.owner_allocs", "count"),
	lower("fleet.forward_us", "us"),
	lower("fleet.fallback_ratio", "ratio"),
	lower("runtime.gc_cpu_pct", "%"),
	lower("runtime.heap_peak_mb", "mb"),
	lower("loadgen.lag_p99_ms", "ms"),
	lower("bench.trace_overhead_pct", "%"),
	lower("busy.server_pct", "%"),
	lower("busy.serving_pct", "%"),
	lower("busy.engine_pct", "%"),
	lower("busy.analyses_pct", "%"),
	lower("busy.resilience_pct", "%"),
	lower("busy.search_pct", "%"),
	lower("busy.dataset_pct", "%"),
	lower("busy.agreement_pct", "%"),
	lower("busy.fleet_pct", "%"),
	lower("busy.nnmf_est_pct", "%"),
}

// runSeconds is the measured-phase length BENCHMARK.json asks for.
const runSeconds = 10

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// writeSpec writes the BENCHMARK.json this program implements, so the
// workload table and the metric lists have one source.
func writeSpec(path string) error {
	f := specFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, specWorkload{Name: w.name, Why: w.why})
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
