// Fixture for the metriclabel analyzer; expect.txt pins the exact
// diagnostics. Covers the name conventions, label ordering, the
// module-wide type/label-set agreement, helper resolution, and the
// dataset-label boundedness rules.
package metriclabel

import (
	"net/http"

	"csmaterials/internal/obs"
)

const defaultID = "default"

// goodFamilies follows every convention: namespaced counter name,
// alphabetical labels, dataset values from the caller's (bounded)
// slice.
func goodFamilies(ids []string) []obs.Family {
	reqs := obs.Family{Name: "csm_fixture_requests_total", Help: "h", Type: obs.Counter}
	for _, id := range ids {
		reqs.Samples = append(reqs.Samples, obs.Sample{
			Labels: []obs.Label{{Name: "dataset", Value: id}, {Name: "route", Value: defaultID}},
			Value:  1,
		})
	}
	return []obs.Family{reqs}
}

// badName escapes the module namespace: flagged.
func badName() obs.Family {
	return obs.Family{Name: "fixture_bad", Help: "h", Type: obs.Gauge}
}

// badCounterSuffix is a counter without _total: flagged.
func badCounterSuffix() obs.Family {
	return obs.Family{Name: "csm_fixture_events", Help: "h", Type: obs.Counter}
}

// badGaugeSuffix is a gauge ending _total: flagged.
func badGaugeSuffix() obs.Family {
	return obs.Family{Name: "csm_fixture_depth_total", Help: "h", Type: obs.Gauge}
}

// unsortedLabels breaks the alphabetical contract: flagged.
func unsortedLabels() obs.Family {
	return obs.Family{Name: "csm_fixture_unsorted", Help: "h", Type: obs.Gauge,
		Samples: []obs.Sample{{Labels: []obs.Label{{Name: "route", Value: "/"}, {Name: "dataset", Value: defaultID}}, Value: 1}}}
}

// hardcodedDataset pins a dataset label to a string literal — the
// series would outlive a dataset DELETE: flagged.
func hardcodedDataset() obs.Family {
	return obs.Family{Name: "csm_fixture_pinned", Help: "h", Type: obs.Gauge,
		Samples: []obs.Sample{{Labels: []obs.Label{{Name: "dataset", Value: "workshop"}}, Value: 1}}}
}

// requestDataset mints dataset label values from client input —
// unbounded cardinality: flagged.
func requestDataset(r *http.Request) obs.Family {
	f := obs.Family{Name: "csm_fixture_by_request_total", Help: "h", Type: obs.Counter}
	ds := r.PathValue("dataset")
	f.Samples = append(f.Samples, obs.Sample{
		Labels: []obs.Label{{Name: "dataset", Value: ds}},
		Value:  1,
	})
	return f
}

// forkedLabels registers {dataset} inline, then appends samples shaped
// {analysis, dataset}: the emission site is flagged.
func forkedLabels(ids []string) obs.Family {
	f := obs.Family{Name: "csm_fixture_forked", Help: "h", Type: obs.Gauge,
		Samples: []obs.Sample{{Labels: []obs.Label{{Name: "dataset", Value: defaultID}}, Value: 0}}}
	for _, id := range ids {
		f.Samples = append(f.Samples, obs.Sample{
			Labels: []obs.Label{{Name: "analysis", Value: "pca"}, {Name: "dataset", Value: id}},
			Value:  1,
		})
	}
	return f
}

// typeForkA and typeForkB give one family name two metric types: the
// second site is flagged.
func typeForkA() obs.Family {
	return obs.Family{Name: "csm_fixture_typefork", Help: "h", Type: obs.Gauge}
}

func typeForkB() obs.Family {
	return obs.Family{Name: "csm_fixture_typefork", Help: "h", Type: obs.Histogram}
}

// counterFam mirrors the server's family-builder helper; family names
// flow from the call sites through the helper's return literal.
func counterFam(name, help string, v uint64) obs.Family {
	return obs.Family{Name: name, Help: help, Type: obs.Counter, Samples: []obs.Sample{{Value: float64(v)}}}
}

// viaHelper builds families through the helper: the convention breach
// is flagged at the call site that commits it.
func viaHelper() []obs.Family {
	return []obs.Family{
		counterFam("csm_fixture_helper_total", "h", 1),
		counterFam("csm_fixture_helper_events", "h", 2),
	}
}

// scopeLabels mirrors the server helper; its return literal supplies
// the label keys at emission sites through the call graph.
func scopeLabels(analysis, ds string) []obs.Label {
	return []obs.Label{{Name: "analysis", Value: analysis}, {Name: "dataset", Value: ds}}
}

// viaScope emits through the label helper and stays consistent: legal.
func viaScope(names []string) obs.Family {
	f := obs.Family{Name: "csm_fixture_scoped", Help: "h", Type: obs.Gauge}
	for _, n := range names {
		f.Samples = append(f.Samples, obs.Sample{Labels: scopeLabels(n, defaultID), Value: 1})
	}
	return f
}

// histo emits histogram samples; the shared labels resolve through the
// LatencyHistogram.Samples spread: legal.
func histo(h *obs.LatencyHistogram) obs.Family {
	f := obs.Family{Name: "csm_fixture_latency_seconds", Help: "h", Type: obs.Histogram}
	f.Samples = append(f.Samples, h.Samples([]obs.Label{{Name: "route", Value: "/x"}})...)
	return f
}

// histoForked spreads the same histogram family with another label
// set: flagged.
func histoForked(h *obs.LatencyHistogram) obs.Family {
	f := obs.Family{Name: "csm_fixture_latency_seconds", Help: "h", Type: obs.Histogram}
	f.Samples = append(f.Samples, h.Samples([]obs.Label{{Name: "stage", Value: "x"}})...)
	return f
}
