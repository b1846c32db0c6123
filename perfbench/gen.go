package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
)

// The seeded input generator. Everything a workload sends — tenant
// corpora, the delta-event streams that perturb them, and the request
// key sequences — is derived here from the --seed value, so one seed
// always produces the same inputs and the program under test sees only
// the generated documents and requests.

// groups are the course-group selectors every analysis accepts.
var groups = []string{"cs1", "ds", "dsalgo", "pdc", "all"}

// minGroupSize keeps every group large enough for the k and threshold
// ranges the key generators use, so no generated request is a 4xx.
const minGroupSize = 3

// opKind is what one generated operation does.
type opKind int

const (
	opGet   opKind = iota // GET of an analysis, course view or search
	opBatch               // POST /api/v1/batch
	opPatch               // PATCH /api/v1/datasets/{ds} with delta events
)

// op is one generated request plus what the replay and the checker need
// to know about it.
type op struct {
	kind opKind
	ds   string
	path string // path and query, or the POST/PATCH target
	body []byte

	// analysis and values describe an engine-backed GET (analysis
	// routes and per-course views); analysis is "" for search and the
	// inline materials view.
	analysis string
	values   url.Values
	// course names the course of a course view ("materials" included).
	course string
	view   string
	// search is set for search GETs.
	search *searchQuery
	items  []engine.BatchItem
	events []dataset.Event

	// front is the fleet replica the request is sent to (fleet_hop).
	front int
}

// searchQuery is the subset of GET .../search parameters the generator
// emits: a tag list, default pagination.
type searchQuery struct {
	tags []string
}

// family maps an analysis name to the compute family its per-layer
// metric is reported under.
func family(analysis string) string {
	switch analysis {
	case "anchors", "audit", "pdcmaterials":
		return "course"
	}
	return analysis
}

// tenant is one generated dataset: the corpus it is PUT with, the delta
// stream applied during set-up, and a model of its current content that
// the generator keeps in step with every emitted event. The model is
// maintained independently of the dataset package, so the reference
// computed from it is a real check on delta application.
type tenant struct {
	id      string
	initial []*materials.Course
	model   []*materials.Course
	rev     uint64 // revision the server holds once every emitted op is applied
	tagPool []string
	nextMat int
	rng     *rand.Rand
}

// newTenant derives a tenant from the 20-course seed corpus: a subset
// (drop courses removed, never below minGroupSize per group) with each
// material removed with probability thin (never below four per course).
func newTenant(rng *rand.Rand, id string, drop int, thin float64) *tenant {
	base := cloneCourses(dataset.Courses())
	for n := 0; n < drop; n++ {
		idx := rng.Perm(len(base))
		for _, i := range idx {
			rest := append(append([]*materials.Course(nil), base[:i]...), base[i+1:]...)
			if groupsLargeEnough(rest) {
				base = rest
				break
			}
		}
	}
	for _, c := range base {
		kept := c.Materials[:0:0]
		for _, m := range c.Materials {
			if rng.Float64() < thin && len(kept) >= 4 {
				continue
			}
			kept = append(kept, m)
		}
		c.Materials = kept
	}
	t := &tenant{id: id, initial: base, model: cloneCourses(base), rev: 1, rng: rng}
	seen := map[string]bool{}
	for _, c := range base {
		for _, m := range c.Materials {
			for _, tag := range m.Tags {
				if !seen[tag] {
					seen[tag] = true
					t.tagPool = append(t.tagPool, tag)
				}
			}
		}
	}
	sort.Strings(t.tagPool)
	return t
}

func cloneCourses(cs []*materials.Course) []*materials.Course {
	out := make([]*materials.Course, len(cs))
	for i, c := range cs {
		cp := c.Clone()
		for j, m := range cp.Materials {
			cp.Materials[j] = m.Clone()
		}
		out[i] = cp
	}
	return out
}

func groupsLargeEnough(cs []*materials.Course) bool {
	for _, g := range groups {
		if len(groupMembers(cs, g)) < minGroupSize {
			return false
		}
	}
	return true
}

// groupMembers mirrors the analyses' group vocabulary over a course list.
func groupMembers(cs []*materials.Course, group string) []*materials.Course {
	var out []*materials.Course
	for _, c := range cs {
		in := false
		switch group {
		case "cs1":
			in = c.HasGroup(materials.GroupCS1)
		case "ds":
			in = c.HasGroup(materials.GroupDS)
		case "dsalgo":
			in = c.HasGroup(materials.GroupDS) || c.HasGroup(materials.GroupAlgo)
		case "pdc":
			in = c.HasGroup(materials.GroupPDC)
		default:
			in = true
		}
		if in {
			out = append(out, c)
		}
	}
	return out
}

// putBody is the PUT document of the tenant's initial corpus.
func (t *tenant) putBody() []byte {
	b, err := json.Marshal(dataset.Document{Courses: t.initial})
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return b
}

func (t *tenant) randomTags() []string {
	n := 2 + t.rng.Intn(4)
	set := map[string]bool{}
	for len(set) < n {
		set[t.tagPool[t.rng.Intn(len(t.tagPool))]] = true
	}
	out := make([]string, 0, n)
	for tag := range set {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// delta emits one PATCH of 1-2 classification events (add, remove or
// retag, chosen uniformly) against the model, and applies the events to
// the model. Removals keep every course above four materials.
func (t *tenant) delta() op {
	n := 1 + t.rng.Intn(2)
	var events []dataset.Event
	for len(events) < n {
		c := t.model[t.rng.Intn(len(t.model))]
		var ev dataset.Event
		switch t.rng.Intn(3) {
		case 0:
			t.nextMat++
			ev = dataset.Event{Op: dataset.OpAdd, Course: c.ID, Material: &materials.Material{
				ID:    fmt.Sprintf("bench-%s-%d", t.id, t.nextMat),
				Title: fmt.Sprintf("Generated material %d", t.nextMat),
				Type:  materials.Lecture,
				Tags:  t.randomTags(),
			}}
		case 1:
			if len(c.Materials) <= 4 {
				continue
			}
			ev = dataset.Event{Op: dataset.OpRemove, Course: c.ID, MaterialID: c.Materials[t.rng.Intn(len(c.Materials))].ID}
		default:
			ev = dataset.Event{Op: dataset.OpRetag, Course: c.ID, MaterialID: c.Materials[t.rng.Intn(len(c.Materials))].ID, Tags: t.randomTags()}
		}
		events = append(events, ev)
		applyEvent(t.model, ev)
	}
	body, err := json.Marshal(map[string][]dataset.Event{"events": events})
	if err != nil {
		panic(err)
	}
	t.rev++
	return op{kind: opPatch, ds: t.id, path: "/api/v1/datasets/" + t.id, body: body, events: events}
}

// applyEvent applies one event to a course list the way the delta API
// specifies it: an added material is appended to its course, a removed
// one is cut out in place, a retag replaces the material's tag list.
// Materials are replaced, never mutated, so earlier copies stay intact.
func applyEvent(model []*materials.Course, ev dataset.Event) {
	for _, c := range model {
		if c.ID != ev.Course {
			continue
		}
		switch ev.Op {
		case dataset.OpAdd:
			c.Materials = append(c.Materials[:len(c.Materials):len(c.Materials)], ev.Material.Clone())
		default:
			for i, m := range c.Materials {
				if m.ID != ev.MaterialID {
					continue
				}
				if ev.Op == dataset.OpRemove {
					c.Materials = append(c.Materials[:i:i], c.Materials[i+1:]...)
				} else {
					cp := m.Clone()
					cp.Tags = append([]string(nil), ev.Tags...)
					c.Materials = append(c.Materials[:i:i], append([]*materials.Material{cp}, c.Materials[i+1:]...)...)
				}
				return
			}
		}
		return
	}
}

// snapshot is a tenant's content at one revision, the input of the
// correctness reference.
type snapshot struct {
	id      string
	courses []*materials.Course
	rev     uint64
}

// current is the tenant's model after every op generated so far.
func (t *tenant) current() snapshot {
	return snapshot{id: t.id, courses: cloneCourses(t.model), rev: t.rev}
}

// after replays the first n of deltas onto base: the content a server
// holds once exactly those deltas were acknowledged.
func after(base snapshot, deltas []op, n int) snapshot {
	out := snapshot{id: base.id, courses: cloneCourses(base.courses), rev: base.rev + uint64(n)}
	for _, d := range deltas[:n] {
		for _, ev := range d.events {
			applyEvent(out.courses, ev)
		}
	}
	return out
}

// analysisGet is a GET of a registered analysis on the tenant's
// dataset-scoped route.
func (t *tenant) analysisGet(name string, params ...string) op {
	v := url.Values{}
	for i := 0; i+1 < len(params); i += 2 {
		v.Set(params[i], params[i+1])
	}
	return op{kind: opGet, ds: t.id, analysis: name, values: v,
		path: "/api/v1/datasets/" + t.id + "/" + name + "?" + v.Encode()}
}

// courseView is a GET of /courses/{id}/{view}; the per-course analyses
// run through the engine with the course injected, "materials" is
// served inline.
func (t *tenant) courseView(course, view string) op {
	o := op{kind: opGet, ds: t.id, course: course, view: view,
		path: "/api/v1/datasets/" + t.id + "/courses/" + course + "/" + view}
	if view != "materials" {
		o.analysis = view
		o.values = url.Values{"course": {course}}
	}
	return o
}

// searchGet is a tag search for two tags the corpus uses.
func (t *tenant) searchGet() op {
	q := &searchQuery{tags: t.randomTags()[:2]}
	v := url.Values{"tags": {strings.Join(q.tags, ",")}}
	return op{kind: opGet, ds: t.id, search: q, path: "/api/v1/datasets/" + t.id + "/search?" + v.Encode()}
}

// keySpace lists every valid engine-backed GET over the tenant's
// current model: types over groups × k, cluster over groups × k,
// agreement over groups × threshold, and the three per-course analyses
// over every course.
func (t *tenant) keySpace() (types, cluster, agreement, views []op) {
	for _, g := range groups {
		n := len(groupMembers(t.model, g))
		for k := 2; k <= 3 && k <= n; k++ {
			types = append(types, t.analysisGet("types", "group", g, "k", fmt.Sprint(k)))
		}
		for k := 2; k <= 4 && k <= n; k++ {
			cluster = append(cluster, t.analysisGet("cluster", "group", g, "k", fmt.Sprint(k)))
		}
		for th := 1; th <= 3; th++ {
			agreement = append(agreement, t.analysisGet("agreement", "group", g, "threshold", fmt.Sprint(th)))
		}
	}
	for _, c := range t.model {
		for _, view := range []string{"anchors", "audit", "pdcmaterials"} {
			views = append(views, t.courseView(c.ID, view))
		}
	}
	return
}

// pick draws n distinct elements of ops in random order.
func pick(rng *rand.Rand, ops []op, n int) []op {
	idx := rng.Perm(len(ops))
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]op, n)
	for i := range out {
		out[i] = ops[idx[i]]
	}
	return out
}

// batchOf turns engine-backed GETs into one POST /api/v1/batch.
func batchOf(ds string, gets []op) op {
	items := make([]engine.BatchItem, len(gets))
	for i, g := range gets {
		params := map[string]string{}
		for k := range g.values {
			params[k] = g.values.Get(k)
		}
		items[i] = engine.BatchItem{Analysis: g.analysis, Dataset: ds, Params: params}
	}
	body, err := json.Marshal(map[string][]engine.BatchItem{"items": items})
	if err != nil {
		panic(err)
	}
	return op{kind: opBatch, ds: ds, path: "/api/v1/batch", body: body, items: items}
}

// zipf draws ranks 0..n-1 with P(r) ∝ 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}
