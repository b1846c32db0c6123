// Command perfbench is the repository's benchmark: it runs seeded
// workloads against the real HTTP server on loopback listeners, checks
// every reply's bytes against a cold single-node recompute, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of
// an in-process traced replay) as one JSON object on the last line of
// standard output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
)

// commit is stamped at build time by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	spec := flag.String("write-spec", "", "write the BENCHMARK.json this program implements to the given path and exit")
	flag.Parse()

	if *spec != "" {
		if err := writeSpec(*spec); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		ws = []*workload{w}
	}
	var last result
	ok := true
	for _, w := range ws {
		rng := rand.New(rand.NewSource(*seed))
		p := w.build(rng, float64(*seconds))
		p.limitMS = w.limitMS
		ctx := context.Background()
		var out *output
		var err error
		if *trace == 1 {
			out, err = runTraced(ctx, w, p, float64(*seconds))
		} else {
			before := calibrate()
			out, err = runEndToEnd(ctx, w, p, float64(*seconds))
			if err == nil {
				normalize(out, before, calibrate())
			}
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		specs := endToEnd
		if *trace == 1 {
			specs = perLayer
		}
		res, err := out.result(specs)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		stamp := map[string]interface{}{
			"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
			"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(), "commit": commit,
		}
		b, _ := json.Marshal(stamp)
		fmt.Printf("# %s\n", b)
		for _, line := range out.notes {
			fmt.Printf("# %s %s\n", w.name, line)
		}
		for _, s := range specs {
			fmt.Printf("%-12s %-32s %16.6g %s\n", w.name, s.Name, res.Metrics[s.Name].Value, s.Unit)
		}
		fmt.Printf("%-12s %-32s %16.6g ratio (failed %d of %d attempted)\n", w.name, "failed_ratio",
			ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
		ok = ok && res.Correct
		last = res
	}
	b, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !ok {
		os.Exit(1)
	}
}

// output is one workload run before it is cut down to a metric list.
type output struct {
	values    map[string]float64
	notes     []string
	correct   bool
	attempted int
	failed    int
}

func (o *output) set(name string, v float64) { o.values[name] = v }

func (o *output) notef(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result selects the metrics of specs, failing if the run did not
// produce one of them.
func (o *output) result(specs []metricSpec) (result, error) {
	r := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, s := range specs {
		v, ok := o.values[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return r, fmt.Errorf("metrics not produced: %v", missing)
	}
	return r, nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
