package main

import "sort"

// layerMetrics derives the per-call metrics from the traced replay's
// spans. Timings are medians (p99 where named) over every span of that
// name outside the phases noted; allocation counts are means over the
// sampled calls. A layer the workload never calls reports 0.
func layerMetrics(out *output, t *tracer, rp *replayer) {
	replay := t.collect(phaseReplay)
	all := t.collect(phaseSetup, phaseReplay, phaseProbe)
	get := func(m map[string]*spanStats, name string) *spanStats {
		if s := m[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	const (
		ns = 1.0
		us = 1e3
		ms = 1e6
	)
	timing := func(metric string, s *spanStats, q float64, unit float64) {
		out.set(metric, quantile(s.durs, q)/unit)
	}
	allocs := func(metric string, s *spanStats) { out.set(metric, mean(s.allocs)) }

	handle := get(replay, "server.handle")
	timing("server.handle_p50_us", handle, 0.5, us)
	timing("server.handle_p99_us", handle, 0.99, us)
	allocs("server.handle_allocs", handle)

	enc := get(replay, "serving.encode")
	timing("serving.encode_us", enc, 0.5, us)
	allocs("serving.encode_allocs", enc)
	out.set("serving.encode_kb", mean(enc.sizes)/1024)

	timing("engine.parse_ns", get(all, "engine.parse"), 0.5, ns)
	hit := get(all, "engine.run:hit")
	timing("engine.run_hit_us", hit, 0.5, us)
	allocs("engine.run_hit_allocs", hit)
	miss := get(all, "engine.run:miss")
	timing("engine.run_miss_p50_ms", miss, 0.5, ms)
	timing("engine.run_miss_p99_ms", miss, 0.99, ms)
	allocs("engine.run_miss_allocs", miss)
	batch := get(all, "engine.batch")
	timing("engine.batch_ms", batch, 0.5, ms)
	allocs("engine.batch_allocs", batch)
	hits, misses := len(get(replay, "engine.run:hit").durs), len(get(replay, "engine.run:miss").durs)
	out.set("engine.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	delta := get(all, "engine.apply_delta")
	timing("engine.apply_delta_us", delta, 0.5, us)
	allocs("engine.apply_delta_allocs", delta)

	admit := get(replay, "resilience.admit")
	timing("resilience.admit_ns", admit, 0.5, ns)
	allocs("resilience.admit_allocs", admit)

	timing("analyses.compute_types_ms", get(all, "analyses.compute_types"), 0.5, ms)
	timing("analyses.compute_types_warm_ms", get(all, "analyses.compute_types_warm"), 0.5, ms)
	timing("analyses.compute_agreement_us", get(all, "analyses.compute_agreement"), 0.5, us)
	timing("analyses.compute_cluster_us", get(all, "analyses.compute_cluster"), 0.5, us)
	timing("analyses.compute_course_us", get(all, "analyses.compute_course"), 0.5, us)

	analyze := get(all, "factorize.analyze")
	timing("factorize.analyze_ms", analyze, 0.5, ms)
	allocs("factorize.analyze_allocs", analyze)
	nm := get(all, "nnmf.factorize")
	timing("nnmf.factorize_ms", nm, 0.5, ms)
	out.set("nnmf.factorize_mb", mean(nm.bytes)/(1<<20))
	allocs("nnmf.factorize_allocs", nm)
	timing("nnmf.factorize_csr_ms", get(all, "nnmf.factorize_csr"), 0.5, ms)
	out.set("nnmf.iterations", rp.iterations)

	put := get(all, "dataset.put")
	timing("dataset.put_ms", put, 0.5, ms)
	allocs("dataset.put_allocs", put)
	apply := get(all, "dataset.apply")
	timing("dataset.apply_us", apply, 0.5, us)
	allocs("dataset.apply_allocs", apply)
	rebase := get(all, "agreement.rebase")
	timing("agreement.rebase_us", rebase, 0.5, us)
	allocs("agreement.rebase_allocs", rebase)

	index := get(all, "search.index")
	timing("search.index_ms", index, 0.5, ms)
	allocs("search.index_allocs", index)
	query := get(all, "search.query")
	timing("search.query_us", query, 0.5, us)
	allocs("search.query_allocs", query)

	owner := get(replay, "fleet.owner")
	timing("fleet.owner_ns", owner, 0.5, ns)
	allocs("fleet.owner_allocs", owner)
	timing("fleet.forward_us", get(replay, "fleet.forward"), 0.5, us)

	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := all[name]
		out.notef("span %-34s n=%-6d p50 %12.3f us  allocs %8.1f", name, len(s.durs), quantile(s.durs, 0.5)/us, mean(s.allocs))
	}
}
