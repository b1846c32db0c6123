// Package factorize performs the paper's course-type analysis (§4): it
// turns a set of classified courses into a 0-1 course × curriculum matrix,
// factorizes it with NNMF, and interprets the factors — which course is
// dominated by which type (the W matrix of Figures 2, 5a, 7a), and which
// curriculum entries and knowledge areas characterize each type (the H
// matrix of Figures 5b and 7b).
package factorize

import (
	"context"
	"fmt"
	"sort"

	"csmaterials/internal/materials"
	"csmaterials/internal/matrix"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/ontology"
	"csmaterials/internal/stats"
)

// PaperOptions returns the canonical NNMF configuration used by the
// figure harness, benchmarks, and shape tests: random initialization (as
// in the paper) with a fixed seed and enough restarts to land in a stable
// local optimum.
func PaperOptions() nnmf.Options {
	return nnmf.Options{Seed: 1, Restarts: 10, MaxIter: 500}
}

// Model is a fitted course-type model.
type Model struct {
	Courses []*materials.Course
	// Tags labels the columns of A and H.
	Tags []string
	// A is the 0-1 course × curriculum matrix.
	A *matrix.Dense
	// W maps courses to types (Courses × K), H maps types to curriculum
	// entries (K × Tags).
	W, H *matrix.Dense
	// K is the number of types.
	K int
	// Fit carries the NNMF convergence diagnostics.
	Fit *nnmf.Result

	guidelines []*ontology.Guideline
}

// TagWeight is a curriculum entry with its H weight for some type.
type TagWeight struct {
	Tag    string
	Weight float64
}

// Analyze builds the course matrix and factorizes it with k types.
// Guidelines are used to interpret tags (knowledge-area summaries); pass
// CS2013 and, for PDC courses, PDC12.
func Analyze(courses []*materials.Course, k int, opts nnmf.Options, guidelines ...*ontology.Guideline) (*Model, error) {
	return AnalyzeCtx(context.Background(), courses, k, opts, guidelines...)
}

// AnalyzeCtx is Analyze with cooperative cancellation: the underlying
// NNMF checks ctx between iterations and returns ctx.Err() promptly
// when the caller goes away, so a cancelled request stops burning CPU
// mid-factorization instead of converging for nobody.
func AnalyzeCtx(ctx context.Context, courses []*materials.Course, k int, opts nnmf.Options, guidelines ...*ontology.Guideline) (*Model, error) {
	if len(courses) == 0 {
		return nil, fmt.Errorf("factorize: no courses")
	}
	if len(guidelines) == 0 {
		return nil, fmt.Errorf("factorize: no guidelines for interpretation")
	}
	a, tags := materials.CourseMatrix(courses)
	opts.K = k
	var res *nnmf.Result
	var err error
	if opts.Algorithm == nnmf.MultiplicativeFrobenius && opts.L1W == 0 && opts.L1H == 0 {
		// The 0-1 course matrix is sparse; the CSR path runs the same
		// init and updates with allocation-free iterations that touch
		// only the non-zeros, several times faster than the dense path
		// (DESIGN §3 and BenchmarkSparseNNMF keep the figures). Its
		// trace-identity residual is not bit-equal to the dense one, so
		// the two can stop at different iterations; see FactorizeCSR.
		res, err = nnmf.FactorizeCSRCtx(ctx, matrix.FromDense(a), opts)
	} else {
		res, err = nnmf.FactorizeCtx(ctx, a, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("factorize: %w", err)
	}
	return &Model{
		Courses:    courses,
		Tags:       tags,
		A:          a,
		W:          res.W,
		H:          res.H,
		K:          k,
		Fit:        res,
		guidelines: guidelines,
	}, nil
}

// DominantType returns the type with the largest W weight for course i.
func (m *Model) DominantType(i int) int { return m.W.ArgMaxRow(i) }

// TypeShare returns course i's W row normalized to sum to one — the
// course's composition across types ("20% theory, 40% shared memory...").
func (m *Model) TypeShare(i int) []float64 {
	row := m.W.Row(i)
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if sum == 0 {
		return row
	}
	for j := range row {
		row[j] /= sum
	}
	return row
}

// Evenness returns the normalized entropy of course i's type shares:
// 0 when the course belongs to exactly one type, 1 when it spreads
// uniformly over all types (the paper's "UCF hits all three types
// evenly").
func (m *Model) Evenness(i int) float64 {
	return stats.NormalizedEntropy(m.W.Row(i))
}

// TopTags returns the n curriculum entries with the largest H weight for
// type t, in descending order.
func (m *Model) TopTags(t, n int) []TagWeight {
	row := m.H.RowView(t)
	order := stats.RankDescending(row)
	if n > len(order) {
		n = len(order)
	}
	out := make([]TagWeight, n)
	for i := 0; i < n; i++ {
		out[i] = TagWeight{Tag: m.Tags[order[i]], Weight: row[order[i]]}
	}
	return out
}

// KAShare returns, for type t, the fraction of H mass attributed to each
// knowledge area — the basis for reading the H matrix the way §4.4 does
// ("Type 1 seems to contain primarily topics that fall within the
// Algorithm and Complexity Knowledge Area").
func (m *Model) KAShare(t int) map[string]float64 {
	row := m.H.RowView(t)
	total := 0.0
	shares := map[string]float64{}
	for j, w := range row {
		if w <= 0 {
			continue
		}
		ka := m.areaOf(m.Tags[j])
		shares[ka] += w
		total += w
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}

// DominantKAs returns the knowledge areas of type t sorted by descending
// H mass share, with their shares.
func (m *Model) DominantKAs(t int) []TagWeight {
	shares := m.KAShare(t)
	out := make([]TagWeight, 0, len(shares))
	for ka, s := range shares {
		out = append(out, TagWeight{Tag: ka, Weight: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// TypeLabel produces a short human-readable label for type t from its two
// most massive knowledge areas, e.g. "AL+SDF".
func (m *Model) TypeLabel(t int) string {
	kas := m.DominantKAs(t)
	switch len(kas) {
	case 0:
		return "empty"
	case 1:
		return kas[0].Tag
	default:
		return kas[0].Tag + "+" + kas[1].Tag
	}
}

// areaOf maps a tag to its knowledge-area ID, searching the model's
// guidelines; unknown tags map to "?".
func (m *Model) areaOf(tag string) string {
	for _, g := range m.guidelines {
		if n := g.Lookup(tag); n != nil {
			if a := ontology.AreaOf(n); a != nil {
				// Distinguish PDC12 areas from CS2013 areas by prefixing
				// with the guideline when it is not the first one.
				if g != m.guidelines[0] {
					return g.Name + ":" + a.ID
				}
				return a.ID
			}
		}
	}
	return "?"
}

// CourseIndex returns the row index of the course with the given ID, or
// -1 if absent.
func (m *Model) CourseIndex(id string) int {
	for i, c := range m.Courses {
		if c.ID == id {
			return i
		}
	}
	return -1
}

// TypeOfCourse is shorthand for DominantType(CourseIndex(id)); it panics
// on an unknown ID.
func (m *Model) TypeOfCourse(id string) int {
	i := m.CourseIndex(id)
	if i < 0 {
		panic(fmt.Sprintf("factorize: unknown course %q", id))
	}
	return m.DominantType(i)
}

// Redundancy returns the maximum pairwise cosine similarity between the
// model's H rows (the paper's overfit signal for too-large k).
func (m *Model) Redundancy() float64 { return nnmf.CosineRedundancy(m.H) }

// GroupPurity computes, for each type, which course group its dominant
// courses come from, returning type → group → count. It quantifies the
// reading of Figure 2 ("dimension 4 has a high intensity on courses which
// seem to be about data structures").
func (m *Model) GroupPurity() []map[materials.CourseGroup]int {
	out := make([]map[materials.CourseGroup]int, m.K)
	for t := range out {
		out[t] = map[materials.CourseGroup]int{}
	}
	for i, c := range m.Courses {
		out[m.DominantType(i)][c.Group]++
	}
	return out
}

// Project estimates the type mixture of a course that was NOT part of the
// fitted model: holding H fixed, it solves for the course's W row with
// non-negative multiplicative updates. This is how CS Materials would
// type a newly classified course without refitting — and how an
// instructor can ask "which flavor is my course?" against the paper's
// model. Tags outside the model's vocabulary are ignored.
func (m *Model) Project(c *materials.Course, iterations int) []float64 {
	if iterations <= 0 {
		iterations = 200
	}
	colIdx := make(map[string]int, len(m.Tags))
	for j, t := range m.Tags {
		colIdx[t] = j
	}
	a := matrix.New(1, len(m.Tags))
	for tag := range c.TagSet() {
		if j, ok := colIdx[tag]; ok {
			a.Set(0, j, 1)
		}
	}
	// w ← w ⊙ (aHᵀ) ⊘ (w(HHᵀ)), the W-side Lee-Seung update with H fixed.
	hht := m.H.MulABt(m.H)
	aht := a.MulABt(m.H)
	w := matrix.New(1, m.K)
	for t := 0; t < m.K; t++ {
		w.Set(0, t, 1.0/float64(m.K))
	}
	const eps = 1e-12
	for it := 0; it < iterations; it++ {
		denom := w.Mul(hht)
		w = w.MulElem(aht.DivElem(denom, eps))
	}
	// Normalize to shares.
	row := w.Row(0)
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if sum > 0 {
		for j := range row {
			row[j] /= sum
		}
	}
	return row
}

// ProjectDominant returns the dominant type index of a projected course.
func (m *Model) ProjectDominant(c *materials.Course) int {
	shares := m.Project(c, 0)
	best := 0
	for t, v := range shares {
		if v > shares[best] {
			best = t
		}
	}
	return best
}

// CompareK runs the model-selection procedure of §4.4: factorize for each
// candidate k and report error and redundancy so the analyst can pick the
// most revealing k.
func CompareK(courses []*materials.Course, ks []int, opts nnmf.Options, guidelines ...*ontology.Guideline) ([]nnmf.KDiagnostics, error) {
	if len(courses) == 0 {
		return nil, fmt.Errorf("factorize: no courses")
	}
	a, _ := materials.CourseMatrix(courses)
	return nnmf.SelectK(a, ks, opts)
}
