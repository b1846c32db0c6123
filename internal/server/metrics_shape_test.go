package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateMetricsShape = flag.Bool("update-metrics-shape", false, "rewrite testdata/metrics_shape_golden.txt from the current server")

const metricsShapePath = "testdata/metrics_shape_golden.txt"

// promShape reduces a /metrics body to its shape: every # HELP/# TYPE
// line verbatim, and every sample line with its value stripped (name
// plus label set, le bounds included), in exposition order.
func promShape(body string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		out = append(out, line)
	}
	return out
}

// jsonShape reduces a /debug/metrics body to the sorted set of its key
// paths: object keys joined with '.', arrays marked "[]".
func jsonShape(t *testing.T, body []byte) []string {
	t.Helper()
	var doc interface{}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decode /debug/metrics: %v\n%s", err, body)
	}
	set := map[string]bool{}
	var walk func(path string, v interface{})
	walk = func(path string, v interface{}) {
		switch x := v.(type) {
		case map[string]interface{}:
			for k, child := range x {
				walk(path+"."+k, child)
			}
		case []interface{}:
			for _, child := range x {
				walk(path+"[]", child)
			}
		default:
			set[path] = true
		}
	}
	walk("", doc)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// scrapeShapes renders both metrics endpoints of s as one golden
// section per endpoint. /debug/metrics is scraped first, so its route
// appears in the /metrics scrape.
func scrapeShapes(t *testing.T, b *strings.Builder, setup string, s *Server) {
	t.Helper()
	dbg := do(t, s, http.MethodGet, "/debug/metrics", "")
	prom := do(t, s, http.MethodGet, "/metrics", "")
	if dbg.Code != http.StatusOK || prom.Code != http.StatusOK {
		t.Fatalf("%s: /debug/metrics %d, /metrics %d", setup, dbg.Code, prom.Code)
	}
	fmt.Fprintf(b, "== %s /debug/metrics %s\n", setup, dbg.Header().Get("Content-Type"))
	for _, p := range jsonShape(t, dbg.Body.Bytes()) {
		b.WriteString(p + "\n")
	}
	fmt.Fprintf(b, "== %s /metrics %s\n", setup, prom.Header().Get("Content-Type"))
	for _, line := range promShape(prom.Body.String()) {
		b.WriteString(line + "\n")
	}
}

// TestMetricsEndpointShapeGolden pins the outside shape of both
// metrics endpoints — family names, types, help text, label sets and
// their order on /metrics; the JSON key layout of /debug/metrics — for
// a single-tenant server, a multi-tenant server after a PATCH, and a
// fleet replica. Values are stripped, so the file changes only when
// the exposition's shape does. Regenerate with
//
//	go test ./internal/server -run TestMetricsEndpointShapeGolden -update-metrics-shape
func TestMetricsEndpointShapeGolden(t *testing.T) {
	var b strings.Builder

	single := newObsServer(t, Options{})
	for _, path := range []string{"/api/v1/types", "/api/v1/types", "/api/v1/courses?limit=2", "/api/v1/courses?limit=banana", "/healthz"} {
		do(t, single, http.MethodGet, path, "")
	}
	scrapeShapes(t, &b, "single-tenant", single)

	multi := newObsServer(t, Options{})
	putDataset(t, multi, "alt", 3)
	do(t, multi, http.MethodGet, "/api/v1/datasets/alt/agreement", "")
	do(t, multi, http.MethodGet, "/api/v1/types", "")
	if w := do(t, multi, http.MethodPatch, "/api/v1/datasets/alt", retagBody(t, multi, "alt")); w.Code != http.StatusOK {
		t.Fatalf("PATCH: status %d\n%s", w.Code, w.Body.Bytes())
	}
	do(t, multi, http.MethodGet, "/api/v1/datasets/alt/agreement", "")
	scrapeShapes(t, &b, "multi-tenant-after-patch", multi)

	replicas, _ := newFleetCluster(t, []string{"a", "b"})
	front := replicas["a"]
	do(t, front, http.MethodGet, agreementPathOwnedBy(t, front, "b"), "")
	do(t, front, http.MethodGet, agreementPathOwnedBy(t, front, "a"), "")
	scrapeShapes(t, &b, "fleet-replica", front)

	got := b.String()
	if *updateMetricsShape {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsShapePath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsShapePath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-metrics-shape): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("metrics shape differs from %s at line %d:\n got: %q\nwant: %q", metricsShapePath, i+1, g, w)
		}
	}
}
