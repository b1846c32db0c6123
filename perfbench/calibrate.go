package main

import (
	"runtime"
	"sync"
	"time"
)

// A shared host's speed drifts — by half for a minute at a time in the
// runs that tuned this benchmark — and every time and rate a run reports
// drifts with it. calibrate measures that speed with a fixed integer
// loop that touches no memory and no part of the program, run on every
// P at once, before and after the workload; the end-to-end times and
// rates are reported scaled to a host whose round takes calibrationRef,
// and the raw values are printed in the notes.

// calibrationRef is the calibration round of the reference host.
const calibrationRef = 5 * time.Millisecond

// calibrationRounds is how many rounds each calibration takes; their
// median drops the rounds a passing stall disturbs.
const calibrationRounds = 40

var calibrationSink []uint64

func spin(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// calibrate returns the median of calibrationRounds timings of the
// loop, each run on GOMAXPROCS goroutines at once, after a collection
// so that no GC worker competes with the loop.
func calibrate() time.Duration {
	runtime.GC()
	procs := runtime.GOMAXPROCS(0)
	rounds := make([]float64, 0, calibrationRounds)
	calibrationSink = make([]uint64, procs)
	for r := 0; r < calibrationRounds; r++ {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				calibrationSink[g] += spin(3_000_000)
			}(g)
		}
		wg.Wait()
		rounds = append(rounds, float64(time.Since(start)))
	}
	return time.Duration(median(rounds))
}

// normalize scales out's end-to-end times and rates to the reference
// host, from the calibrations taken before and after the workload.
func normalize(out *output, before, after time.Duration) {
	cal := (before + after) / 2
	f := float64(calibrationRef) / float64(cal)
	for _, s := range endToEnd {
		v, ok := out.values[s.Name]
		if !ok {
			continue
		}
		switch s.Unit {
		case "s", "ms":
			out.values[s.Name] = v * f
		case "1/s":
			out.values[s.Name] = v / f
		default:
			continue
		}
		out.notef("raw %s %.6g %s", s.Name, v, s.Unit)
	}
	out.notef("calibration round %.3f ms (before %.3f, after %.3f; reference %.3f ms)", ms(cal), ms(before), ms(after), ms(calibrationRef))
}
