package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/search"
	"csmaterials/internal/server"
	"csmaterials/internal/serving"
)

// envelope mirrors the server's success envelope field for field, so a
// reference encoded through it is byte-comparable with a served body.
type envelope struct {
	Data interface{} `json:"data"`
	Meta interface{} `json:"meta"`
}

// searchPageSize is the server's default search page.
const searchPageSize = 20

// reference computes the bytes a correct server must send. It holds a
// fresh single-node executor over a fresh dataset registry, loaded by a
// full PUT of each tenant's generated model — the corpus the served
// revision should hold — so delta application, invalidation, migration,
// warm starts and fleet forwarding are all checked against a cold
// recompute. Served revisions are set from the generator's count of
// applied deltas.
type reference struct {
	exec     *engine.Executor
	datasets *dataset.Registry
	rev      map[string]uint64
	search   map[string]*search.Engine
	allowed  map[string]map[uint64]bool
	rounded  map[string]uint64
}

func newReference(snaps []snapshot) (*reference, error) {
	reg, err := analyses.Default()
	if err != nil {
		return nil, err
	}
	ref := &reference{
		datasets: dataset.NewRegistry(time.Now),
		rev:      map[string]uint64{},
		search:   map[string]*search.Engine{},
		allowed:  map[string]map[uint64]bool{},
		rounded:  map[string]uint64{},
	}
	for _, sn := range snaps {
		snap, err := ref.datasets.Put(sn.id, cloneCourses(sn.courses))
		if err != nil {
			return nil, fmt.Errorf("reference PUT %s: %w", sn.id, err)
		}
		ref.rev[sn.id] = sn.rev
		ref.search[sn.id] = search.NewEngine(snap.Repo())
	}
	ref.exec = engine.NewExecutor(reg, engine.ExecutorOptions{Datasets: ref.datasets, Cache: serving.NewCache(1 << 16)})
	return ref, nil
}

// matches reports whether the reply s to o is correct. The only field a
// correct reply may vary in is the cache marker of an engine-backed
// result ("hit" or "miss"), so every combination is allowed; a stale
// serve, a wrong revision or a wrong value is not. A search reply that
// matches only once scores are rounded to 12 significant digits is
// reported as rounding: the search engine sums a material's IDF weights
// in map order, so the last bits of a score vary from call to call.
func (ref *reference) matches(o *op, s sample) (exact, rounding bool, err error) {
	key := o.ds + " " + o.path + " " + string(o.body)
	set, ok := ref.allowed[key]
	if !ok {
		bodies, err := ref.bodies(o)
		if err != nil {
			return false, false, err
		}
		set = map[uint64]bool{}
		for _, b := range bodies {
			set[hashOf(b)] = true
		}
		if o.search != nil {
			ref.rounded[key] = hashOf(roundScores(bodies[0]))
		}
		ref.allowed[key] = set
	}
	if set[s.hash] {
		return true, false, nil
	}
	return false, o.search != nil && ref.rounded[key] == s.rounded, nil
}

func hashOf(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash writes never fail
	return h.Sum64()
}

var scoreField = []byte(`"score": `)

// roundScores rewrites every "score" value of a search reply to 12
// significant digits.
func roundScores(b []byte) []byte {
	var out []byte
	for {
		i := bytes.Index(b, scoreField)
		if i < 0 {
			return append(out, b...)
		}
		i += len(scoreField)
		out = append(out, b[:i]...)
		b = b[i:]
		j := 0
		for j < len(b) && strings.IndexByte("0123456789+-.eE", b[j]) >= 0 {
			j++
		}
		if v, err := strconv.ParseFloat(string(b[:j]), 64); err == nil {
			out = strconv.AppendFloat(out, v, 'g', 12, 64)
		} else {
			out = append(out, b[:j]...)
		}
		b = b[j:]
	}
}

var markers = []string{"hit", "miss"}

func (ref *reference) bodies(o *op) ([][]byte, error) {
	ctx := context.Background()
	snap, ok := ref.datasets.Get(o.ds)
	if !ok {
		return nil, fmt.Errorf("reference: unknown dataset %q", o.ds)
	}
	switch {
	case o.kind == opBatch:
		results := ref.exec.RunBatch(ctx, o.items)
		var out [][]byte
		for combo := 0; combo < 1<<len(results); combo++ {
			rs := append([]engine.BatchResult(nil), results...)
			for i := range rs {
				if rs[i].Error != nil {
					return nil, fmt.Errorf("reference batch item %d: %s", i, rs[i].Error.Message)
				}
				rs[i].Cache = markers[(combo>>i)&1]
			}
			out = append(out, encode(rs, server.BatchMeta{Items: len(rs), Workers: ref.exec.BatchWorkers()}))
		}
		return out, nil
	case o.search != nil:
		q := search.Query{Tags: o.search.tags}
		results := ref.search[o.ds].Search(q)
		return [][]byte{encode(searchHits(results), server.ListMeta{Total: len(results), Limit: searchPageSize})}, nil
	case o.view == "materials":
		c := snap.Repo().Course(o.course)
		if c == nil {
			return nil, fmt.Errorf("reference: unknown course %q", o.course)
		}
		n := len(c.Materials)
		return [][]byte{encode(c.Materials, server.ListMeta{Total: n, Limit: n})}, nil
	default:
		v, out, err := ref.exec.RunOn(ctx, o.ds, o.analysis, o.values)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", o.path, err)
		}
		var bodies [][]byte
		for _, m := range markers {
			meta := server.DatasetCacheMeta{CacheMeta: server.CacheMeta{Cache: m, Key: out.Key}, Dataset: o.ds, Revision: ref.rev[o.ds]}
			bodies = append(bodies, encode(v, meta))
		}
		return bodies, nil
	}
}

// searchHits is the first page of results in the server's reply shape.
func searchHits(results []search.Result) []server.SearchHit {
	if len(results) > searchPageSize {
		results = results[:searchPageSize]
	}
	hits := make([]server.SearchHit, 0, len(results))
	for _, r := range results {
		hits = append(hits, server.SearchHit{ID: r.Material.ID, Title: r.Material.Title, Type: string(r.Material.Type),
			Author: r.Material.Author, Score: r.Score, Matched: r.MatchedTags})
	}
	return hits
}

// encode renders data and meta exactly as the server's writeData does.
func encode(data, meta interface{}) []byte {
	rec := httptest.NewRecorder()
	serving.WriteJSON(rec, 200, envelope{Data: data, Meta: meta})
	return rec.Body.Bytes()
}

// verify checks the replies ss against the reference and returns the
// number of wrong bodies, the number of search replies off only in
// score rounding, and up to five offending paths.
func verify(ref *reference, ops []op, ss []sample) (bad, rounding int, examples []string, err error) {
	for _, s := range ss {
		if !s.ok() {
			continue
		}
		exact, round, err := ref.matches(&ops[s.op], s)
		if err != nil {
			return 0, 0, nil, err
		}
		switch {
		case exact:
		case round:
			rounding++
		default:
			bad++
			if len(examples) < 5 {
				examples = append(examples, ops[s.op].path)
			}
		}
	}
	sort.Strings(examples)
	return bad, rounding, examples, nil
}
