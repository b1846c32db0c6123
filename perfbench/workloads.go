package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"csmaterials/internal/fleet"
)

// workload is one traffic mix. Its plan is generated from the seed; the
// same plan is set up on fresh clusters for every set-up repetition and
// every replay pass of a run.
type workload struct {
	name string
	why  string // one line, recorded in BENCHMARK.json
	// nodes is 1 for a single server, 3 for the fleet.
	nodes int
	// cacheSize is the server's result-cache capacity in entries.
	cacheSize int
	// limitMS is the p99 latency limit for max_rate_rps.
	limitMS float64
	// replayOps is how many operations the traced run replays: a fixed
	// count, so a seed's counts do not depend on the host's speed.
	replayOps int
	build     func(rng *rand.Rand, seconds float64) *plan
	measure   func(ctx context.Context, cl *cluster, p *plan, seconds float64) *phaseResult
}

// plan is a workload's generated input.
type plan struct {
	tenants []*tenant
	// setup is sent in order after the tenants are PUT: set-up deltas
	// (to every node) and warming GETs.
	setup []op
	// ops is the measured phase's op list; seq, seqs and writes index it.
	ops []op
	// seq is the open-loop read order; seqs holds one closed-loop cycle
	// per client; writes is the delta order of a concurrent writer.
	seq    []int
	seqs   [][]int
	writes []int
	// replay is the order the traced run replays ops in; a plan without
	// writes replays it cyclically.
	replay []int
	// fronts is, per client, the node it sends to.
	fronts []int
	// limitMS is the workload's p99 latency limit.
	limitMS float64
	// base is the content each tenant holds before the measured phase;
	// the reference of a workload that writes is base plus the deltas
	// acknowledged.
	base []snapshot
}

// phaseResult is what a measured phase produced.
type phaseResult struct {
	reads      []sample // the latency population
	all        []sample // every measured request, reads and writes
	deltas     []sample // PATCH round trips of the measured phase
	check      []sample // the replies the correctness check covers
	throughput float64
	maxRate    float64
	rungs      []rung
}

var workloads = []*workload{
	{
		name: "hot_read", nodes: 1, cacheSize: 256, limitMS: 20, replayOps: 16000,
		why:     "Zipf over 50 warm keys: open-loop 4k-10k rps ladder (p99 limit 20 ms) for max_rate, 2-client closed loop for latency: the cache-hit, admission and JSON-encode path; NNMF idle",
		build:   buildHotRead,
		measure: measureHotRead,
	},
	{
		name: "cold_explore", nodes: 1, cacheSize: 20, limitMS: 500, replayOps: 600,
		why:     "closed loop, 2 clients cycling 4 tenants' types/cluster/agreement/course/batch keys, more than the 4-entry tenant cache budget: every request computes, NNMF-bound",
		build:   buildColdExplore,
		measure: measureClosed,
	},
	{
		name: "refresh_mix", nodes: 1, cacheSize: 256, limitMS: 20,
		why:     "closed loop, 2 clients reading 48 warm keys while one of them PATCHes an add/remove/retag delta every 100 ms: invalidation, migration, agreement rebase, search reindex",
		build:   buildRefreshMix,
		measure: measureRefreshMix,
	},
	{
		name: "fleet_hop", nodes: 3, cacheSize: 256, limitMS: 50, replayOps: 20000,
		why:     "3 fleet replicas on loopback, closed loop, 2 clients each pinned to a replica sending warm reads and small batches owned by the other two: every request forwards one hop",
		build:   buildFleetHop,
		measure: measureClosed,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// addSetupDeltas appends n set-up PATCHes of t to p.
func (p *plan) addSetupDeltas(t *tenant, n int) {
	for i := 0; i < n; i++ {
		p.setup = append(p.setup, t.delta())
	}
}

// --- hot_read -------------------------------------------------------------

const (
	hotClosedShare = 0.6
	hotKeys        = 50
	hotZipfS       = 1.0
)

var hotLadder = []float64{4000, 6000, 8000, 10000}

func buildHotRead(rng *rand.Rand, seconds float64) *plan {
	t := newTenant(rng, "hot", 2, 0.06)
	p := &plan{tenants: []*tenant{t}, fronts: []int{0, 0}}
	p.addSetupDeltas(t, 100)
	types, cluster, agreement, views := t.keySpace()
	var materials []op
	for _, i := range rng.Perm(len(t.model))[:4] {
		materials = append(materials, t.courseView(t.model[i].ID, "materials"))
	}
	var search []op
	for len(search) < 8 {
		search = append(search, t.searchGet())
	}
	// The Zipf ranks follow one fixed pattern of key classes, so every
	// seed puts the same kind of work at the same popularity. The
	// analysis keys come in key-space order, so the most popular ranks
	// hold the same group-level keys whatever the seed; course views,
	// materials and searches draw their courses and tags from it.
	classes := [][]op{types[:10], cluster[:8], agreement[:8], pick(rng, views, 12), materials, search}
	pattern := []int{2, 1, 0, 2, 1, 3, 0, 2, 5, 1, 3, 0, 4, 2, 3, 1, 5, 0, 3, 2, 4, 1, 3, 5, 0}
	for len(p.ops) < hotKeys {
		for _, c := range pattern {
			if len(classes[c]) > 0 && len(p.ops) < hotKeys {
				p.ops = append(p.ops, classes[c][0])
				classes[c] = classes[c][1:]
			}
		}
	}
	p.setup = append(p.setup, p.ops...)
	z := newZipf(len(p.ops), hotZipfS)
	// One draw per request of the ladder; the closed loop cycles through
	// the two halves, one per client.
	n := 0.0
	for _, r := range hotLadder {
		n += r * seconds * (1 - hotClosedShare) / float64(len(hotLadder))
	}
	p.seq = make([]int, int(n)+len(hotLadder))
	for i := range p.seq {
		p.seq[i] = z.draw(rng)
	}
	p.replay = p.seq
	return p
}

func measureHotRead(ctx context.Context, cl *cluster, p *plan, seconds float64) *phaseResult {
	clients := frontClients(cl, p.fronts)
	defer closeClients(clients)
	closedDur := time.Duration(seconds * hotClosedShare * float64(time.Second))
	half := len(p.seq) / 2
	reads := closedLoop(ctx, clients, p.ops, [][]int{p.seq[:half], p.seq[half:]}, closedDur)
	step := time.Duration(seconds * (1 - hotClosedShare) / float64(len(hotLadder)) * float64(time.Second))
	rungs, best := ladder(ctx, clients, p.ops, p.seq, hotLadder, step, p.limitMS)
	res := &phaseResult{reads: reads, rungs: rungs, maxRate: best}
	res.all = append(res.all, reads...)
	for _, g := range rungs {
		res.all = append(res.all, g.samples...)
	}
	res.check = res.all
	res.throughput = float64(countOK(reads)) / closedDur.Seconds()
	return res
}

// --- cold_explore ---------------------------------------------------------

func buildColdExplore(rng *rand.Rand, seconds float64) *plan {
	p := &plan{fronts: []int{0, 0}}
	for i := 0; i < 4; i++ {
		t := newTenant(rng, fmt.Sprintf("c%d", i), 2, 0.06)
		p.tenants = append(p.tenants, t)
		p.addSetupDeltas(t, 30)
	}
	p.seqs = make([][]int, 2)
	for i, t := range p.tenants {
		types, cluster, agreement, views := t.keySpace()
		var mine []op
		mine = append(mine, types...)
		mine = append(mine, cluster...)
		mine = append(mine, agreement...)
		mine = append(mine, pick(rng, views, 12)...)
		small := append(append([]op(nil), cluster...), agreement...)
		for b := 0; b < 4; b++ {
			mine = append(mine, batchOf(t.id, pick(rng, small, 2)))
		}
		c := i % 2
		for _, o := range mine {
			p.seqs[c] = append(p.seqs[c], len(p.ops))
			p.ops = append(p.ops, o)
		}
	}
	for c := range p.seqs {
		rng.Shuffle(len(p.seqs[c]), func(i, j int) { p.seqs[c][i], p.seqs[c][j] = p.seqs[c][j], p.seqs[c][i] })
	}
	p.replay = interleave(p.seqs)
	return p
}

// --- refresh_mix ----------------------------------------------------------

const refreshWriteHz = 10

func buildRefreshMix(rng *rand.Rand, seconds float64) *plan {
	t := newTenant(rng, "mix", 2, 0.06)
	p := &plan{tenants: []*tenant{t}, fronts: []int{0, 0}}
	p.addSetupDeltas(t, 30)
	// Every cluster and agreement key, so each seed invalidates and
	// recomputes the same group-scoped work; seeds vary the courses and
	// tags only.
	_, cluster, agreement, views := t.keySpace()
	var reads []op
	reads = append(reads, cluster...)
	reads = append(reads, agreement...)
	reads = append(reads, pick(rng, views, 12)...)
	for i := 0; i < 6; i++ {
		reads = append(reads, t.searchGet())
	}
	p.setup = append(p.setup, reads...)
	p.ops = append(p.ops, reads...)
	p.base = []snapshot{t.current()}
	// One more delta than the writer can send in the run; the reference
	// replays only the ones acknowledged.
	for i := 0; i <= int(seconds*refreshWriteHz); i++ {
		p.writes = append(p.writes, len(p.ops))
		p.ops = append(p.ops, t.delta())
	}
	p.seqs = make([][]int, 2)
	for c := range p.seqs {
		p.seqs[c] = rng.Perm(len(reads))
	}
	// The replay alternates one delta with one pass over the keys.
	for _, w := range p.writes {
		p.replay = append(p.replay, w)
		p.replay = append(p.replay, p.seqs[0]...)
	}
	return p
}

// measureRefreshMix runs two closed-loop readers; the first also sends
// the writer's deltas, in order, each as soon as it falls due at
// refreshWriteHz, between two of its reads.
func measureRefreshMix(ctx context.Context, cl *cluster, p *plan, seconds float64) *phaseResult {
	clients := frontClients(cl, p.fronts)
	defer closeClients(clients)
	var mu sync.Mutex
	res := &phaseResult{}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			var reads, deltas []sample
			next := 0 // next delta to send
			for j := 0; time.Now().Before(deadline); j++ {
				if ci == 0 && next < len(p.writes) && time.Since(start) >= time.Duration(next)*time.Second/refreshWriteHz {
					deltas = append(deltas, c.do(ctx, p.ops, p.writes[next], time.Time{}))
					next++
					continue
				}
				seq := p.seqs[ci]
				reads = append(reads, c.do(ctx, p.ops, seq[j%len(seq)], time.Time{}))
			}
			mu.Lock()
			res.reads = append(res.reads, reads...)
			res.deltas = append(res.deltas, deltas...)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	res.all = append(append(res.all, res.reads...), res.deltas...)
	res.throughput = float64(countOK(res.reads)) / seconds
	res.maxRate = goodput(res.reads, p.limitMS, seconds)
	// After the last delta, read every key once: these replies are
	// checked against a cold recompute of the final corpus.
	for i := range p.ops {
		if p.ops[i].kind == opGet {
			s := clients[0].do(ctx, p.ops, i, time.Time{})
			res.check = append(res.check, s)
			res.all = append(res.all, s)
		}
	}
	return res
}

// --- fleet_hop ------------------------------------------------------------

func buildFleetHop(rng *rand.Rand, seconds float64) *plan {
	t := newTenant(rng, "fl", 2, 0.06)
	p := &plan{tenants: []*tenant{t}, fronts: []int{0, 1}}
	p.addSetupDeltas(t, 34) // each to all three replicas
	types, cluster, agreement, views := t.keySpace()
	var course []op
	for _, v := range views {
		course = append(course, t.analysisGet(v.analysis, "course", v.course))
	}
	ring := fleet.NewRing([]string{"n0", "n1", "n2"}, fleet.DefaultVirtualNodes)
	owned := func(ops []op, owner string) []op {
		var out []op
		for _, o := range ops {
			if ring.Owner(fleetKey(&o)) == owner {
				out = append(out, o)
			}
		}
		return out
	}
	// Client c sends to node c, so its keys are owned by the two other
	// nodes, half by each. Every client asks for the same mix — per owner
	// one types, two cluster, two agreement and two course keys, and one
	// batch of two of the non-types ones — so seeds differ in which keys
	// they draw more than in how much work they send (an owner can own
	// fewer types keys than asked for).
	p.seqs = make([][]int, 2)
	for c, owners := range [][]string{{"n1", "n2"}, {"n0", "n2"}} {
		for _, owner := range owners {
			var small []op
			small = append(small, pick(rng, owned(cluster, owner), 2)...)
			small = append(small, pick(rng, owned(agreement, owner), 2)...)
			small = append(small, pick(rng, owned(course, owner), 2)...)
			mine := append(pick(rng, owned(types, owner), 1), small...)
			mine = append(mine, batchOf(t.id, pick(rng, small, 2)))
			for _, o := range mine {
				o.front = c
				p.seqs[c] = append(p.seqs[c], len(p.ops))
				p.ops = append(p.ops, o)
				p.setup = append(p.setup, o)
			}
		}
		rng.Shuffle(len(p.seqs[c]), func(i, j int) { p.seqs[c][i], p.seqs[c][j] = p.seqs[c][j], p.seqs[c][i] })
	}
	p.replay = interleave(p.seqs)
	return p
}

// measureClosed runs the closed loop of cold_explore and fleet_hop.
func measureClosed(ctx context.Context, cl *cluster, p *plan, seconds float64) *phaseResult {
	clients := frontClients(cl, p.fronts)
	defer closeClients(clients)
	dur := time.Duration(seconds * float64(time.Second))
	ss := closedLoop(ctx, clients, p.ops, p.seqs, dur)
	res := &phaseResult{reads: ss, all: ss, check: ss}
	res.throughput = float64(countOK(ss)) / seconds
	res.maxRate = goodput(ss, p.limitMS, seconds)
	return res
}

// goodput is the closed-loop stand-in for max_rate_rps: completed
// requests per second that met the latency limit.
func goodput(ss []sample, limitMS, seconds float64) float64 {
	n := 0
	for _, s := range ss {
		if s.ok() && ms(s.latency) <= limitMS {
			n++
		}
	}
	return float64(n) / seconds
}

// --- helpers --------------------------------------------------------------

func frontClients(cl *cluster, fronts []int) []*client {
	out := make([]*client, len(fronts))
	for i, f := range fronts {
		out[i] = newClient(cl.nodes[f].base)
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok() {
			n++
		}
	}
	return n
}

// interleave merges per-client cycles round-robin into one replay order.
func interleave(seqs [][]int) []int {
	var out []int
	for i := 0; ; i++ {
		added := false
		for _, s := range seqs {
			if i < len(s) {
				out = append(out, s[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}
