package engine_test

import (
	"context"
	"encoding/json"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/factorize"
	"csmaterials/internal/materials"
	"csmaterials/internal/matrix"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/resilience"
	"csmaterials/internal/serving"
)

// benchRecorder accumulates dataset-benchmark results across b.Run
// invocations so TestMain can emit one BENCH_datasets.json snapshot
// after the run. testing reruns a benchmark with growing b.N; keying
// by scenario keeps only the final (highest-N, most stable) sample.
var benchRecorder = struct {
	sync.Mutex
	scenarios map[string]benchScenario
}{scenarios: map[string]benchScenario{}}

type benchScenario struct {
	Dataset    string `json:"dataset"`
	Mode       string `json:"mode"`
	NsPerOp    int64  `json:"ns_per_op"`
	Iterations int    `json:"iterations"`
}

func recordBench(dataset, mode string, b *testing.B) {
	benchRecorder.Lock()
	defer benchRecorder.Unlock()
	benchRecorder.scenarios[dataset+"/"+mode] = benchScenario{
		Dataset:    dataset,
		Mode:       mode,
		NsPerOp:    b.Elapsed().Nanoseconds() / int64(b.N),
		Iterations: b.N,
	}
}

// TestMain emits the dataset cold/warm perf snapshot when BENCH_JSON
// names an output path (make bench sets it to BENCH_datasets.json).
// Plain `go test` runs leave the environment untouched and write
// nothing.
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_JSON"); path != "" && len(benchRecorder.scenarios) > 0 {
		keys := make([]string, 0, len(benchRecorder.scenarios))
		for k := range benchRecorder.scenarios {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := struct {
			Benchmark string          `json:"benchmark"`
			GoOS      string          `json:"goos"`
			GoArch    string          `json:"goarch"`
			CPUs      int             `json:"cpus"`
			Scenarios []benchScenario `json:"scenarios"`
		}{
			Benchmark: "BenchmarkDatasetServing,BenchmarkNNMFCore,BenchmarkBatchScaling",
			GoOS:      runtime.GOOS,
			GoArch:    runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
		}
		for _, k := range keys {
			out.Scenarios = append(out.Scenarios, benchRecorder.scenarios[k])
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(raw, '\n'), 0o644)
		}
		if err != nil {
			os.Stderr.WriteString("bench snapshot: " + err.Error() + "\n")
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// newDatasetExecutor wires the real analysis registry over a dataset
// registry holding the 20-course seed corpus as "default" and a
// 5-course subset as "alt" — the two corpora the cold/warm scenarios
// compare.
func newDatasetExecutor(b *testing.B, cache *serving.Cache) *engine.Executor {
	b.Helper()
	reg, err := analyses.Default()
	if err != nil {
		b.Fatal(err)
	}
	datasets := dataset.NewRegistry(nil)
	// JSON round-trip the subset so the registry ingests fresh course
	// objects instead of aliasing the shared seed corpus.
	raw, err := json.Marshal(dataset.Document{Courses: dataset.Courses()[:5]})
	if err != nil {
		b.Fatal(err)
	}
	var doc dataset.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		b.Fatal(err)
	}
	if _, err := datasets.Put("alt", doc.Courses); err != nil {
		b.Fatal(err)
	}
	return engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets:   datasets,
		Cache:      cache,
		Breakers:   resilience.NewBreakerSet(resilience.DefaultBreakerThreshold, time.Minute),
		StaleServe: true,
	})
}

// BenchmarkDatasetServing measures the dataset-scoped serving ladder
// end to end at the executor layer: a cold agreement analysis (cache
// invalidated each iteration, full compute) and a warm one (revision-
// scoped cache hit) for both the full seed corpus and a small ingested
// dataset. The cold/warm gap is the cache's value; the default/alt
// cold gap shows how compute cost tracks corpus size.
func BenchmarkDatasetServing(b *testing.B) {
	for _, bc := range []struct {
		dataset string
		mode    string
	}{
		{dataset.DefaultID, "cold"},
		{dataset.DefaultID, "warm"},
		{"alt", "cold"},
		{"alt", "warm"},
	} {
		b.Run(bc.dataset+"/"+bc.mode, func(b *testing.B) {
			exec := newDatasetExecutor(b, serving.NewCache(256))
			run := func(wantHit bool) {
				_, out, err := exec.RunOn(context.Background(), bc.dataset, "agreement", nil)
				if err != nil {
					b.Fatal(err)
				}
				if wantHit && out.Cache != "hit" {
					b.Fatalf("warm iteration served %q, want hit", out.Cache)
				}
			}
			run(false) // populate the cache (discarded for cold runs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.mode == "cold" {
					b.StopTimer()
					exec.InvalidateDataset(bc.dataset, 0)
					b.StartTimer()
				}
				run(bc.mode == "warm")
			}
			b.StopTimer()
			recordBench(bc.dataset, bc.mode, b)
		})
	}

	// Eviction pressure under tenancy: a deliberately small cache
	// partitioned between the two datasets (two-entry budget each) with
	// both tenants cycling through more distinct keys than their budget
	// holds. Every request misses, computes, and evicts inside its own
	// partition — the worst-case multi-tenant steady state, and the
	// scenario that catches budget-enforcement overhead regressions.
	b.Run("mixed/contended", func(b *testing.B) {
		cache := serving.NewCache(4)
		exec := newDatasetExecutor(b, cache)
		cache.Partition([]string{dataset.DefaultID, "alt"}, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds := dataset.DefaultID
			if i%2 == 1 {
				ds = "alt"
			}
			// Four distinct thresholds per tenant against a two-entry
			// budget: every request misses and evicts within its scope.
			v := url.Values{"threshold": []string{strconv.Itoa((i/2)%4 + 1)}}
			if _, _, err := exec.RunOn(context.Background(), ds, "agreement", v); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordBench("mixed", "contended", b)
	})
}

// BenchmarkNNMFCore measures the factorization kernels on the full
// seed-corpus matrix, in the two modes the incremental pipeline
// distinguishes: cold (the paper's 10-restart multiplicative-update
// run) and warm (the same matrix seeded with its own fitted factors —
// the delta-refresh warm-start path, which retains the fixed point
// after a single probe iteration). nnmf/* drives the dense
// nnmf.Factorize; nnmf-csr/* drives nnmf.FactorizeCSR, the sparse
// kernel the types analysis actually serves. nnmf-csr-groups/cold runs
// FactorizeCSR over the shapes the types endpoint serves: one op
// factorizes each course group's matrix (cs1, ds, dsalgo, pdc, all) at
// k = 2 and 3. The dense cold/warm ns gap is the warm start's value;
// benchcheck gates it at -warm-ratio, and every cold mode at
// -max-ratio against the committed baseline.
func BenchmarkNNMFCore(b *testing.B) {
	a, _ := materials.CourseMatrix(dataset.Courses())
	csr := matrix.FromDense(a)
	opts := factorize.PaperOptions()
	opts.K = 4
	seed, err := nnmf.Factorize(a, opts)
	if err != nil {
		b.Fatal(err)
	}
	csrSeed, err := nnmf.FactorizeCSR(csr, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("nnmf/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nnmf.Factorize(a, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordBench("nnmf", "cold", b)
	})
	b.Run("nnmf/warm", func(b *testing.B) {
		warm := opts
		warm.InitW, warm.InitH = seed.W, seed.H
		for i := 0; i < b.N; i++ {
			res, err := nnmf.Factorize(a, warm)
			if err != nil {
				b.Fatal(err)
			}
			if !res.SeedRetained {
				b.Fatal("warm factorize did not retain the converged seed")
			}
		}
		b.StopTimer()
		recordBench("nnmf", "warm", b)
	})
	b.Run("nnmf-csr/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nnmf.FactorizeCSR(csr, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recordBench("nnmf-csr", "cold", b)
	})
	b.Run("nnmf-csr-groups/cold", func(b *testing.B) {
		groups := servedGroupMatrices()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range groups {
				for k := 2; k <= 3; k++ {
					o := factorize.PaperOptions()
					o.K = k
					if _, err := nnmf.FactorizeCSR(a, o); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.StopTimer()
		recordBench("nnmf-csr-groups", "cold", b)
	})
	b.Run("nnmf-csr/warm", func(b *testing.B) {
		warm := opts
		warm.InitW, warm.InitH = csrSeed.W, csrSeed.H
		for i := 0; i < b.N; i++ {
			res, err := nnmf.FactorizeCSR(csr, warm)
			if err != nil {
				b.Fatal(err)
			}
			if !res.SeedRetained {
				b.Fatal("warm CSR factorize did not retain the converged seed")
			}
		}
		b.StopTimer()
		recordBench("nnmf-csr", "warm", b)
	})
}

// servedGroupMatrices returns the seed corpus's course × curriculum
// matrices for the groups the types analysis serves, in CSR form:
// cs1, ds, dsalgo (DS ∪ Algo), pdc and all.
func servedGroupMatrices() []*matrix.CSR {
	var out []*matrix.CSR
	for _, in := range []func(*materials.Course) bool{
		func(c *materials.Course) bool { return c.HasGroup(materials.GroupCS1) },
		func(c *materials.Course) bool { return c.HasGroup(materials.GroupDS) },
		func(c *materials.Course) bool {
			return c.HasGroup(materials.GroupDS) || c.HasGroup(materials.GroupAlgo)
		},
		func(c *materials.Course) bool { return c.HasGroup(materials.GroupPDC) },
		func(*materials.Course) bool { return true },
	} {
		var courses []*materials.Course
		for _, c := range dataset.Courses() {
			if in(c) {
				courses = append(courses, c)
			}
		}
		a, _ := materials.CourseMatrix(courses)
		out = append(out, matrix.FromDense(a))
	}
	return out
}

// BenchmarkBatchScaling measures RunBatch over real analyses with the
// caches invalidated each iteration (every item computes), serial (one
// worker) vs parallel (four workers). The serial/parallel gap is the
// worker pool's value on compute-bound batches.
func BenchmarkBatchScaling(b *testing.B) {
	var items []engine.BatchItem
	for _, ds := range []string{dataset.DefaultID, "alt"} {
		for k := 2; k <= 4; k++ {
			items = append(items, engine.BatchItem{
				Analysis: "agreement", Dataset: ds,
				Params: map[string]string{"threshold": strconv.Itoa(k)},
			})
		}
	}
	for _, bc := range []struct {
		mode    string
		workers int
	}{{"serial", 1}, {"parallel", 4}} {
		b.Run("batch/"+bc.mode, func(b *testing.B) {
			exec := newDatasetExecutor(b, serving.NewCache(256))
			exec.SetBatchWorkers(bc.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				exec.InvalidateDataset(dataset.DefaultID, 0)
				exec.InvalidateDataset("alt", 0)
				b.StartTimer()
				for _, res := range exec.RunBatch(context.Background(), items) {
					if res.Error != nil {
						b.Fatalf("%s: %v", res.Analysis, res.Error)
					}
				}
			}
			b.StopTimer()
			recordBench("batch", bc.mode, b)
		})
	}
}
