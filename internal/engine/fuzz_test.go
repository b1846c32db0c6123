package engine_test

import (
	"errors"
	"net/url"
	"strings"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/serving"
)

// FuzzAnalysisParams drives every registered analysis's parameter
// parsing and validation with arbitrary query strings through
// Executor.FleetKeyOn, which parses and validates without computing.
// No input may panic, every rejection must be a 4xx *engine.Error, and
// the same input must always yield the same key.
func FuzzAnalysisParams(f *testing.F) {
	reg, err := analyses.Default()
	if err != nil {
		f.Fatal(err)
	}
	exec := engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: dataset.NewRegistry(nil),
		Cache:    serving.NewCache(1),
	})
	names := reg.SortedNames()
	for i, q := range []string{
		"group=CS1&threshold=3",
		"group=all&k=4",
		"k=0",
		"k=99999999999999999999",
		"group=oop",
		"course=uncc-2214-krs&limit=5",
		"course=x%7Cy&limit=-1",
		"id=3a",
		"group=ds&group=pdc&k=%20",
		"%zz&k=1",
		"",
	} {
		f.Add(uint8(i), q)
	}
	f.Fuzz(func(t *testing.T, idx uint8, raw string) {
		name := names[int(idx)%len(names)]
		values, _ := url.ParseQuery(raw) // a malformed pair is dropped; the rest still parses
		key, err := exec.FleetKeyOn(dataset.DefaultID, name, values)
		if err != nil {
			var ee *engine.Error
			if !errors.As(err, &ee) || ee.Status < 400 || ee.Status >= 500 {
				t.Fatalf("%s?%s: error %v is not a 4xx *engine.Error", name, raw, err)
			}
			return
		}
		if !strings.HasPrefix(key, dataset.DefaultID+"|"+name) {
			t.Fatalf("%s?%s: key %q does not name the dataset and analysis", name, raw, key)
		}
		again, err := exec.FleetKeyOn(dataset.DefaultID, name, values)
		if err != nil || again != key {
			t.Fatalf("%s?%s: key %q then %q (err %v)", name, raw, key, again, err)
		}
	})
}
