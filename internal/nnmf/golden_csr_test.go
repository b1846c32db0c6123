package nnmf

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/matrix"
)

var updateCSRGolden = flag.Bool("update", false, "rewrite testdata/csr_golden.txt from the current CSR kernel")

const csrGoldenPath = "testdata/csr_golden.txt"

type csrGoldenCase struct {
	name string
	a    *matrix.CSR
	opts Options
}

// groupMatrix is the 0-1 course × curriculum matrix of the seed-corpus
// courses accepted by keep.
func groupMatrix(keep func(*materials.Course) bool) *matrix.CSR {
	var courses []*materials.Course
	for _, c := range dataset.Courses() {
		if keep(c) {
			courses = append(courses, c)
		}
	}
	a, _ := materials.CourseMatrix(courses)
	return matrix.FromDense(a)
}

// csrGoldenCases are the factorizations whose exact bits the golden
// file locks: the seed corpus's course groups at the paper's settings
// for k = 2..4, seeded generated 0-1 matrices (random restarts and
// NNDSVD), and two warm starts — one that retains its converged seed
// and one seeded from an unconverged run that must keep iterating.
func csrGoldenCases(t *testing.T) []csrGoldenCase {
	groups := []struct {
		name string
		keep func(*materials.Course) bool
	}{
		{"all", func(*materials.Course) bool { return true }},
		{"cs1", func(c *materials.Course) bool { return c.HasGroup(materials.GroupCS1) }},
		{"ds", func(c *materials.Course) bool { return c.HasGroup(materials.GroupDS) }},
		{"dsalgo", func(c *materials.Course) bool {
			return c.HasGroup(materials.GroupDS) || c.HasGroup(materials.GroupAlgo)
		}},
		{"pdc", func(c *materials.Course) bool { return c.HasGroup(materials.GroupPDC) }},
	}
	var cases []csrGoldenCase
	for _, g := range groups {
		a := groupMatrix(g.keep)
		rows, cols := a.Dims()
		for k := 2; k <= 4; k++ {
			if k > rows || k > cols {
				continue
			}
			cases = append(cases, csrGoldenCase{
				name: fmt.Sprintf("group-%s-k%d", g.name, k),
				a:    a,
				opts: Options{K: k, Seed: 1, Restarts: 10, MaxIter: 500},
			})
		}
	}
	for _, g := range []struct {
		rows, cols, k int
		density       float64
		seed          int64
	}{
		{15, 40, 3, 0.15, 51},
		{30, 120, 4, 0.1, 7},
		{12, 25, 2, 0.3, 77},
	} {
		a := matrix.FromDense(random01(g.rows, g.cols, g.density, g.seed))
		cases = append(cases,
			csrGoldenCase{
				name: fmt.Sprintf("gen-%dx%d-s%d-random", g.rows, g.cols, g.seed),
				a:    a,
				opts: Options{K: g.k, Seed: g.seed, Restarts: 3, MaxIter: 300, Tol: 1e-6},
			},
			csrGoldenCase{
				name: fmt.Sprintf("gen-%dx%d-s%d-nndsvd", g.rows, g.cols, g.seed),
				a:    a,
				opts: Options{K: g.k, Init: InitNNDSVD, MaxIter: 300, Tol: 1e-6},
			})
	}

	all := groupMatrix(func(*materials.Course) bool { return true })
	paper := Options{K: 4, Seed: 1, Restarts: 10, MaxIter: 500}
	converged, err := FactorizeCSR(all, paper)
	if err != nil {
		t.Fatal(err)
	}
	short := paper
	short.MaxIter = 5
	unconverged, err := FactorizeCSR(all, short)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		csrGoldenCase{name: "warm-retained", a: all, opts: warmFrom(converged, paper)},
		csrGoldenCase{name: "warm-iterating", a: all, opts: warmFrom(unconverged, paper)})
	return cases
}

// renderCSRGolden writes every float of a result as its IEEE-754 bits,
// so a comparison of the rendering is an exact bit comparison.
func renderCSRGolden(name string, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "case %s\n", name)
	fmt.Fprintf(&b, "iterations %d total %d restart %d converged %t retained %t err %016x\n",
		res.Iterations, res.TotalIterations, res.Restart, res.Converged, res.SeedRetained, math.Float64bits(res.Err))
	b.WriteString("residuals")
	for _, r := range res.Residuals {
		fmt.Fprintf(&b, " %016x", math.Float64bits(r))
	}
	b.WriteByte('\n')
	for _, m := range []struct {
		label string
		d     *matrix.Dense
	}{{"W", res.W}, {"H", res.H}} {
		rows, cols := m.d.Dims()
		fmt.Fprintf(&b, "%s %dx%d\n", m.label, rows, cols)
		for i := 0; i < rows; i++ {
			for j, v := range m.d.RowView(i) {
				if j > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%016x", math.Float64bits(v))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestFactorizeCSRGoldenBits requires FactorizeCSR to reproduce, bit for
// bit, the factors, residual trace, iteration counts and winning restart
// recorded in testdata/csr_golden.txt. Any change to the CSR kernel's
// summation order shows up here; regenerate with -update only for an
// intended numerical change.
func TestFactorizeCSRGoldenBits(t *testing.T) {
	var got strings.Builder
	for _, c := range csrGoldenCases(t) {
		res, err := FactorizeCSR(c.a, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got.WriteString(renderCSRGolden(c.name, res))
	}
	if *updateCSRGolden {
		if err := os.MkdirAll(filepath.Dir(csrGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csrGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(csrGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/nnmf -run CSRGolden -update`): %v", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	current := ""
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if strings.HasPrefix(w, "case ") {
			current = w
		}
		if g != w {
			t.Fatalf("%s: line %d differs from %s\n got: %.200s\nwant: %.200s", current, i+1, csrGoldenPath, g, w)
		}
	}
}
