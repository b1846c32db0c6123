package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/resilience/faultinject"
	"csmaterials/internal/serving"
)

// coldEnvelope is the {"data","meta"} shape encoded in one WriteJSON
// call: the reference every served analysis body must equal.
type coldEnvelope struct {
	Data interface{} `json:"data"`
	Meta interface{} `json:"meta"`
}

// Parameters of the envelope tests: the "ds" group and one of its
// courses, and a course outside the group whose retag migrates every
// queried entry (no group, course or figure result depends on it).
const (
	envGroup    = "ds"
	envCourse   = "uncc-2214-krs"
	envRetagged = "uncc-3112-krs"
)

// envQueries is one request per registered analysis.
func envQueries(t *testing.T, s *Server) map[string]url.Values {
	t.Helper()
	qs := map[string]url.Values{
		"agreement":    {"group": {envGroup}, "threshold": {"2"}},
		"anchors":      {"course": {envCourse}},
		"audit":        {"course": {envCourse}},
		"cluster":      {"group": {envGroup}, "k": {"2"}},
		"figures":      {"id": {"1"}},
		"pdcmaterials": {"course": {envCourse}, "limit": {"5"}},
		"types":        {"group": {envGroup}, "k": {"2"}},
	}
	for _, name := range s.Engine().Registry().Names() {
		if _, ok := qs[name]; !ok {
			t.Fatalf("analysis %q has no envelope test query", name)
		}
	}
	return qs
}

// coldBody recomputes name over ds's current corpus on a fresh dataset
// registry and executor, and encodes it with serving.WriteJSON under
// the meta a served reply carries with the given cache marker.
func coldBody(t *testing.T, s *Server, ds string, scoped bool, name string, values url.Values, marker string) []byte {
	t.Helper()
	snap, ok := s.Datasets().Get(ds)
	if !ok {
		t.Fatalf("unknown dataset %q", ds)
	}
	reg := dataset.NewRegistry(nil)
	if _, err := reg.Put(ds, snap.Repo().Courses()); err != nil {
		t.Fatal(err)
	}
	areg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	ex := engine.NewExecutor(areg, engine.ExecutorOptions{Datasets: reg, Cache: serving.NewCache(-1)})
	v, out, err := ex.RunOn(context.Background(), ds, name, values)
	if err != nil {
		t.Fatalf("cold %s: %v", name, err)
	}
	cm := CacheMeta{Cache: marker, Key: out.Key, Stale: marker == "stale"}
	var meta interface{} = cm
	if scoped {
		meta = DatasetCacheMeta{CacheMeta: cm, Dataset: ds, Revision: snap.Revision()}
	}
	rec := httptest.NewRecorder()
	serving.WriteJSON(rec, http.StatusOK, coldEnvelope{Data: v, Meta: meta})
	return rec.Body.Bytes()
}

// TestAnalysisBodiesMatchColdEncode checks every registered analysis on
// the un-scoped and the dataset-scoped routes: the bodies served on a
// miss, on a hit (the cached bytes), as a stale last-known-good value,
// and on a hit after a PATCH migrated the entry to the next revision
// all equal a cold recompute encoded by serving.WriteJSON, with the
// cache marker the reply reports.
func TestAnalysisBodiesMatchColdEncode(t *testing.T) {
	inj := faultinject.New(1)
	s := newObsServer(t, Options{Faults: inj, BreakerThreshold: -1})
	putDataset(t, s, "alt", 4)
	queries := envQueries(t, s)
	families := []struct {
		ds, prefix, scopePrefix string
		scoped                  bool
	}{
		{dataset.DefaultID, "/api/v1/", "", false},
		{"alt", "/api/v1/datasets/alt/", "alt/", true},
	}
	for _, fam := range families {
		serve := func(name, stage, wantMarker string) {
			t.Helper()
			w := do(t, s, http.MethodGet, fam.prefix+name+"?"+queries[name].Encode(), "")
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s %s: status %d\n%s", fam.ds, name, stage, w.Code, w.Body.Bytes())
			}
			want := coldBody(t, s, fam.ds, fam.scoped, name, queries[name], wantMarker)
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s %s %s: served body differs from the cold encode\nserved: %.300s\ncold:   %.300s",
					fam.ds, name, stage, w.Body.Bytes(), want)
			}
		}
		for name := range queries {
			serve(name, "miss", "miss")
			serve(name, "hit", "hit")
		}

		// Only the stale copies remain, and every compute fails.
		s.Cache().Reset()
		inj.SetRules(faultinject.Rule{Match: "compute/" + fam.scopePrefix, Probability: 1, Status: 500})
		for name := range queries {
			serve(name, "stale", "stale")
		}
		inj.SetRules()
		s.Engine().WaitDetached()

		// Refill the fresh entries, then migrate them with a PATCH that
		// touches none of them.
		s.Cache().Reset()
		for name := range queries {
			serve(name, "refill", "miss")
		}
		w := do(t, s, http.MethodPatch, "/api/v1/datasets/"+fam.ds, retagCourseBody(t, s, fam.ds, envRetagged))
		if w.Code != http.StatusOK {
			t.Fatalf("PATCH %s: status %d\n%s", fam.ds, w.Code, w.Body.Bytes())
		}
		var pe patchEnv
		decode(t, w.Body.Bytes(), &pe)
		if pe.Meta.Refresh.Migrated != len(queries) {
			t.Fatalf("PATCH %s migrated %d entries, want %d", fam.ds, pe.Meta.Refresh.Migrated, len(queries))
		}
		for name := range queries {
			serve(name, "migrated", "hit")
		}
	}
}

// warmHitRequest primes the default dataset's agreement entry and
// returns a request that hits it.
func warmHitRequest(tb testing.TB, s *Server) *http.Request {
	tb.Helper()
	r := httptest.NewRequest(http.MethodGet, "/api/v1/agreement?group=ds&threshold=2", nil)
	for i, want := range []string{"miss", "hit"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		var e env
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusOK || e.Meta.Cache != want {
			tb.Fatalf("priming request %d: status %d cache %q err %v", i, w.Code, e.Meta.Cache, err)
		}
	}
	return r
}

// discardWriter is a reusable ResponseWriter that drops the body, so
// allocation counts see the server and not the recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// BenchmarkServeHTTPWarmHit measures one in-process warm analysis hit
// through the full middleware stack.
func BenchmarkServeHTTPWarmHit(b *testing.B) {
	s, err := NewWithOptions(Options{disableWarmup: true})
	if err != nil {
		b.Fatal(err)
	}
	r := warmHitRequest(b, s)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		s.ServeHTTP(w, r)
	}
}
