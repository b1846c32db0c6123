// Package search implements the CS Materials search of §3.1.2: find
// learning materials matching a set of curriculum topics and learning
// outcomes, with TF-IDF-style scoring (rarer curriculum tags weigh more)
// and facet filters for course level, author, programming language, and
// datasets used.
//
// NewEngine indexes a repository once: the materials in ID order, each
// with its sorted, de-duplicated tags, and a tag → postings index (the
// ID-order positions of the materials that carry the tag, and the tag's
// IDF weight). A query names exact tags, tag prefixes, text, facets, or
// a mix:
//
//   - A tag-only query (exact tags, optionally facets, no prefixes or
//     text) visits only the union of its tags' postings.
//   - Every other query scans the indexed materials.
//
// Either way no query sorts the repository or builds a tag set, and a
// material's score sums the IDF of its matched tags in sorted tag
// order, so scores are bit-identical between the two paths and across
// calls. The index is read-only after NewEngine, so one Engine serves
// concurrent queries; it describes the repository as NewEngine saw it
// (the server builds one per dataset revision).
package search

import (
	"math"
	"slices"
	"sort"
	"strings"

	"csmaterials/internal/materials"
)

// Query describes a search.
type Query struct {
	// Tags are the curriculum entries to match (exact IDs). A material
	// scores by the weighted overlap of its tags with these.
	Tags []string
	// TagPrefixes match whole subtrees, e.g. "AL/basic-analysis/" matches
	// every entry of that knowledge unit.
	TagPrefixes []string
	// Text is matched case-insensitively against material titles and
	// descriptions (any word).
	Text string
	// CourseLevel, Author, Language, Dataset filter exactly when non-empty.
	CourseLevel string
	Author      string
	Language    string
	Dataset     string
	// Limit caps the result count; 0 means no cap.
	Limit int
}

// Result is a scored material.
type Result struct {
	Material *materials.Material
	Score    float64
	// MatchedTags are the query tags present on the material.
	MatchedTags []string
}

// Engine indexes a repository's materials for search.
type Engine struct {
	repo *materials.Repository
	// docs are the materials in ID order.
	docs []doc
	// index maps each tag to its entry in terms.
	index map[string]int32
	terms []term
}

// doc is one indexed material: its tags sorted and de-duplicated, and
// each tag's entry in Engine.terms alongside.
type doc struct {
	m    *materials.Material
	tags []string
	ids  []int32
}

// term is one tag's postings — the ascending positions in docs of the
// materials carrying it, as many as its document frequency — and its
// IDF weight.
type term struct {
	postings []int32
	idf      float64
}

// NewEngine indexes the repository. Every per-material and per-tag
// slice is cut from a few shared buffers, so indexing allocates about
// as often as the repository has distinct tags, not materials.
func NewEngine(repo *materials.Repository) *Engine {
	ms := repo.Materials()
	total := 0
	for _, m := range ms {
		total += len(m.Tags)
	}
	e := &Engine{repo: repo, docs: make([]doc, len(ms)), index: map[string]int32{}}
	tags := make([]string, 0, total)
	ids := make([]int32, 0, total)
	var df []int32
	for i, m := range ms {
		start := len(tags)
		tags = append(tags, m.Tags...)
		slices.Sort(tags[start:])
		tags = tags[:start+len(slices.Compact(tags[start:]))]
		for _, tag := range tags[start:] {
			id, ok := e.index[tag]
			if !ok {
				id = int32(len(df))
				e.index[tag] = id
				df = append(df, 0)
			}
			df[id]++
			ids = append(ids, id)
		}
		e.docs[i] = doc{m: m, tags: tags[start:len(tags):len(tags)], ids: ids[start:len(ids):len(ids)]}
	}
	postings := make([]int32, len(ids))
	e.terms = make([]term, len(df))
	off := int32(0)
	for id, n := range df {
		e.terms[id] = term{postings: postings[off : off : off+n], idf: idf(len(ms), int(n))}
		off += n
	}
	for i, d := range e.docs {
		for _, id := range d.ids {
			e.terms[id].postings = append(e.terms[id].postings, int32(i))
		}
	}
	return e
}

// idf is the weight of a tag carried by df of numDocs materials.
func idf(numDocs, df int) float64 {
	return math.Log(float64(numDocs+1) / float64(df+1))
}

// IDF returns the inverse document frequency weight of a tag: rare tags
// discriminate more. Unknown tags get the maximum weight.
func (e *Engine) IDF(tag string) float64 {
	if id, ok := e.index[tag]; ok {
		return e.terms[id].idf
	}
	return idf(len(e.docs), 0)
}

// Search scores the query's candidate materials and returns matches in
// descending score order (ties broken by material ID for determinism).
func (e *Engine) Search(q Query) []Result {
	wanted := sortedSet(q.Tags)
	textWords := strings.Fields(strings.ToLower(q.Text))
	var results []Result
	if len(wanted) > 0 && len(q.TagPrefixes) == 0 && len(textWords) == 0 {
		// Tag-only: a material without a wanted tag cannot match.
		cands := e.candidates(wanted)
		results = make([]Result, 0, len(cands))
		for _, i := range cands {
			if r, ok := e.score(&e.docs[i], q, wanted, nil); ok {
				results = append(results, r)
			}
		}
	} else {
		for i := range e.docs {
			if r, ok := e.score(&e.docs[i], q, wanted, textWords); ok {
				results = append(results, r)
			}
		}
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

// candidates returns the ascending, de-duplicated union of the postings
// of the sorted, de-duplicated tags in wanted.
func (e *Engine) candidates(wanted []string) []int32 {
	var out []int32
	for _, tag := range wanted {
		id, ok := e.index[tag]
		if !ok {
			continue
		}
		if len(wanted) == 1 {
			return e.terms[id].postings // read-only: never modified below
		}
		out = append(out, e.terms[id].postings...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// score matches one material against the query: facets first, then its
// tags against wanted (sorted) and the prefixes, then the text words.
// The IDF weights are summed in the material's sorted tag order.
func (e *Engine) score(d *doc, q Query, wanted, textWords []string) (Result, bool) {
	if !matchFacets(d.m, q) {
		return Result{}, false
	}
	var matched []string
	score := 0.0
	for j, tag := range d.tags {
		if _, ok := slices.BinarySearch(wanted, tag); ok || hasAnyPrefix(tag, q.TagPrefixes) {
			matched = append(matched, tag)
			score += e.terms[d.ids[j]].idf
		}
	}
	if len(textWords) > 0 {
		hay := strings.ToLower(d.m.Title + " " + d.m.Description)
		hits := 0
		for _, w := range textWords {
			if strings.Contains(hay, w) {
				hits++
			}
		}
		if hits == 0 && len(matched) == 0 {
			return Result{}, false
		}
		score += float64(hits)
	} else if len(matched) == 0 {
		// Tag-only query and no overlap: not a result — unless the
		// query has no tag criteria at all (pure facet browse).
		if len(q.Tags)+len(q.TagPrefixes) > 0 {
			return Result{}, false
		}
		score = 1 // facet-only match
	}
	return Result{Material: d.m, Score: score, MatchedTags: matched}, true
}

// sortedSet returns a sorted, de-duplicated copy of tags.
func sortedSet(tags []string) []string {
	out := slices.Clone(tags)
	slices.Sort(out)
	return slices.Compact(out)
}

func hasAnyPrefix(tag string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(tag, p) {
			return true
		}
	}
	return false
}

func matchFacets(m *materials.Material, q Query) bool {
	if q.CourseLevel != "" && !strings.EqualFold(m.CourseLevel, q.CourseLevel) {
		return false
	}
	if q.Author != "" && !strings.EqualFold(m.Author, q.Author) {
		return false
	}
	if q.Language != "" && !strings.EqualFold(m.Language, q.Language) {
		return false
	}
	if q.Dataset != "" {
		found := false
		for _, d := range m.Datasets {
			if strings.EqualFold(d, q.Dataset) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// SimilarTo returns materials most similar to the given one by weighted
// tag overlap — "find a better set of slides to explain this concept".
// The material itself is excluded.
func (e *Engine) SimilarTo(id string, limit int) []Result {
	src := e.repo.Material(id)
	if src == nil {
		return nil
	}
	results := e.Search(Query{Tags: src.Tags, Limit: 0})
	out := results[:0]
	for _, r := range results {
		if r.Material.ID != id {
			out = append(out, r)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
