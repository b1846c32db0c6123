package search

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/ontology"
)

// bruteEngine is the search engine before indexing, kept as the
// reference the indexed Engine must reproduce: it re-sorts the
// repository's materials and builds each material's tag set on every
// query.
type bruteEngine struct {
	repo    *materials.Repository
	docFreq map[string]int
	numDocs int
}

func newBruteEngine(repo *materials.Repository) *bruteEngine {
	e := &bruteEngine{repo: repo, docFreq: map[string]int{}}
	for _, m := range repo.Materials() {
		e.numDocs++
		for tag := range m.TagSet() {
			e.docFreq[tag]++
		}
	}
	return e
}

func (e *bruteEngine) IDF(tag string) float64 {
	df := e.docFreq[tag]
	return math.Log(float64(e.numDocs+1) / float64(df+1))
}

func (e *bruteEngine) Search(q Query) []Result {
	wanted := map[string]bool{}
	for _, t := range q.Tags {
		wanted[t] = true
	}
	var results []Result
	textWords := strings.Fields(strings.ToLower(q.Text))
	for _, m := range e.repo.Materials() {
		if !matchFacets(m, q) {
			continue
		}
		var matched []string
		score := 0.0
		for tag := range m.TagSet() {
			ok := wanted[tag]
			if !ok {
				for _, p := range q.TagPrefixes {
					if strings.HasPrefix(tag, p) {
						ok = true
						break
					}
				}
			}
			if ok {
				matched = append(matched, tag)
			}
		}
		sort.Strings(matched)
		for _, tag := range matched {
			score += e.IDF(tag)
		}
		if len(textWords) > 0 {
			hay := strings.ToLower(m.Title + " " + m.Description)
			hits := 0
			for _, w := range textWords {
				if strings.Contains(hay, w) {
					hits++
				}
			}
			if hits == 0 && len(matched) == 0 {
				continue
			}
			score += float64(hits)
		} else if len(matched) == 0 {
			if len(q.Tags)+len(q.TagPrefixes) > 0 {
				continue
			}
			score = 1
		}
		results = append(results, Result{Material: m, Score: score, MatchedTags: matched})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Material.ID < results[j].Material.ID
	})
	if q.Limit > 0 && len(results) > q.Limit {
		results = results[:q.Limit]
	}
	return results
}

// corpusGen draws repositories and queries over a small vocabulary, so
// tags collide, nest under shared prefixes, and repeat on one material.
type corpusGen struct {
	rng   *rand.Rand
	vocab []string
}

var (
	genWords     = []string{"recursion", "Sorting", "graphs", "threads", "lab", "big-O", "Parallel", "cache", "lock"}
	genAuthors   = []string{"", "saule", "Saule", "krs", "wahl"}
	genLanguages = []string{"", "C++", "java", "Java", "Python"}
	genLevels    = []string{"", "CS1", "cs2", "CS2", "Grad"}
	genDatasets  = []string{"earthquakes", "Movies", "taxi"}
)

func newCorpusGen(seed int64) *corpusGen {
	g := &corpusGen{rng: rand.New(rand.NewSource(seed))}
	for _, area := range []string{"AL", "PD", "SDF"} {
		for _, unit := range []string{"basic", "basics", "decomp"} {
			for i := 0; i < 3; i++ {
				g.vocab = append(g.vocab, fmt.Sprintf("%s/%s/t%d", area, unit, i))
			}
		}
	}
	return g
}

func (g *corpusGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func (g *corpusGen) tags(max int) []string {
	n := g.rng.Intn(max + 1)
	out := make([]string, n)
	for i := range out {
		out[i] = g.pick(g.vocab)
	}
	return out
}

func (g *corpusGen) text(max int) string {
	words := make([]string, g.rng.Intn(max+1))
	for i := range words {
		words[i] = g.pick(genWords)
	}
	return strings.Join(words, " ")
}

func (g *corpusGen) repo(t *testing.T) *materials.Repository {
	repo := materials.NewRepository(ontology.CS2013(), ontology.PDC12())
	for c := 0; c < 1+g.rng.Intn(3); c++ {
		course := &materials.Course{ID: fmt.Sprintf("c%d", c), Name: "C", Group: materials.GroupCS1}
		for m := 0; m < g.rng.Intn(25); m++ {
			mat := &materials.Material{
				ID: fmt.Sprintf("c%d/m%03d", c, g.rng.Intn(1000)), Title: g.text(3), Description: g.text(4),
				Type: materials.Lecture, Author: g.pick(genAuthors), Language: g.pick(genLanguages),
				CourseLevel: g.pick(genLevels), Tags: g.tags(6),
			}
			if g.rng.Intn(3) == 0 {
				mat.Datasets = []string{g.pick(genDatasets)}
			}
			if repo.Material(mat.ID) == nil && !hasMaterial(course, mat.ID) {
				course.Materials = append(course.Materials, mat)
			}
		}
		if err := repo.AdoptCourse(course); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

func hasMaterial(c *materials.Course, id string) bool {
	for _, m := range c.Materials {
		if m.ID == id {
			return true
		}
	}
	return false
}

func (g *corpusGen) query() Query {
	var q Query
	if g.rng.Intn(4) != 0 {
		q.Tags = g.tags(4)
		if g.rng.Intn(4) == 0 {
			q.Tags = append(q.Tags, "XX/unknown/tag")
		}
		if len(q.Tags) > 0 && g.rng.Intn(3) == 0 {
			q.Tags = append(q.Tags, q.Tags[0]) // duplicate
		}
	}
	if g.rng.Intn(4) == 0 {
		tag := g.pick(g.vocab)
		q.TagPrefixes = []string{tag[:g.rng.Intn(len(tag)+1)]}
	}
	if g.rng.Intn(4) == 0 {
		q.Text = g.text(2)
	}
	if g.rng.Intn(4) == 0 {
		q.Author = g.pick(genAuthors)
	}
	if g.rng.Intn(5) == 0 {
		q.Language = g.pick(genLanguages)
	}
	if g.rng.Intn(5) == 0 {
		q.CourseLevel = g.pick(genLevels)
	}
	if g.rng.Intn(6) == 0 {
		q.Dataset = g.pick(genDatasets)
	}
	if g.rng.Intn(3) == 0 {
		q.Limit = g.rng.Intn(5)
	}
	return q
}

// sameResults compares element by element: the same material, a
// bit-equal score, and the same matched tags.
func sameResults(t *testing.T, q Query, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("query %+v: %d results, reference has %d", q, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Material != w.Material || math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			strings.Join(g.MatchedTags, ",") != strings.Join(w.MatchedTags, ",") || (g.MatchedTags == nil) != (w.MatchedTags == nil) {
			t.Fatalf("query %+v: result %d = {%s %v %q}, reference {%s %v %q}",
				q, i, g.Material.ID, g.Score, g.MatchedTags, w.Material.ID, w.Score, w.MatchedTags)
		}
	}
}

// TestSearchMatchesBruteForce runs generated corpora and queries (exact
// tags with duplicates and unknowns, prefixes, text, facets, limits)
// through the indexed engine and the brute-force reference.
func TestSearchMatchesBruteForce(t *testing.T) {
	queries := 0
	for seed := int64(1); seed <= 200; seed++ {
		g := newCorpusGen(seed)
		repo := g.repo(t)
		e, ref := NewEngine(repo), newBruteEngine(repo)
		for _, tag := range append(g.vocab, "XX/unknown/tag") {
			if math.Float64bits(e.IDF(tag)) != math.Float64bits(ref.IDF(tag)) {
				t.Fatalf("seed %d: IDF(%s) = %v, reference %v", seed, tag, e.IDF(tag), ref.IDF(tag))
			}
		}
		for i := 0; i < 40; i++ {
			q := g.query()
			sameResults(t, q, e.Search(q), ref.Search(q))
			queries++
		}
	}
	t.Logf("%d queries matched", queries)
}

// TestSearchMatchesBruteForceOnSeedCorpus repeats the comparison on the
// seed corpus, with every fourth material's own tag set as a query (the
// server's tag search) and every knowledge-area prefix.
func TestSearchMatchesBruteForceOnSeedCorpus(t *testing.T) {
	repo := dataset.Repository()
	e, ref := NewEngine(repo), newBruteEngine(repo)
	for i, m := range repo.Materials() {
		if i%4 != 0 {
			continue
		}
		q := Query{Tags: m.Tags}
		sameResults(t, q, e.Search(q), ref.Search(q))
		q = Query{Tags: m.Tags[:1], Text: m.Title, Limit: 20}
		sameResults(t, q, e.Search(q), ref.Search(q))
	}
	for _, p := range []string{"AL/", "PD/", "SDF/", "SE/", "PD/parallel-decomposition/"} {
		q := Query{TagPrefixes: []string{p}}
		sameResults(t, q, e.Search(q), ref.Search(q))
	}
}

// BenchmarkSearchTags measures the server's tag search on the seed
// corpus: one material's full tag set as the query.
func BenchmarkSearchTags(b *testing.B) {
	repo := dataset.Repository()
	e := NewEngine(repo)
	ms := repo.Materials()
	q := Query{Tags: ms[len(ms)/2].Tags}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(e.Search(q)) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkNewEngine measures indexing the seed corpus, which the
// server repeats for each new dataset revision.
func BenchmarkNewEngine(b *testing.B) {
	repo := dataset.Repository()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engineSink = NewEngine(repo)
	}
}

// engineSink keeps BenchmarkNewEngine's result alive.
var engineSink *Engine
