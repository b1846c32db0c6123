package nnmf

import (
	"math"
	"math/rand"
	"testing"

	"csmaterials/internal/matrix"
)

// generatedCSRCase is one seeded 0-1 input for the CSR property tests.
type generatedCSRCase struct {
	dense *matrix.Dense
	csr   *matrix.CSR
	k     int
	seed  int64
}

// generatedCSRCases spans shapes (wide, tall, square-ish), densities
// and k so the properties are checked beyond hand-picked matrices.
func generatedCSRCases(n int) []generatedCSRCase {
	rng := rand.New(rand.NewSource(2024))
	out := make([]generatedCSRCase, 0, n)
	for i := 0; i < n; i++ {
		rows := 6 + rng.Intn(20)
		cols := 6 + rng.Intn(60)
		density := 0.08 + 0.3*rng.Float64()
		k := 2 + rng.Intn(3)
		seed := int64(100 + i)
		a := random01(rows, cols, density, seed)
		out = append(out, generatedCSRCase{dense: a, csr: matrix.FromDense(a), k: k, seed: seed})
	}
	return out
}

func TestFactorizeCSRAllocsIndependentOfIterations(t *testing.T) {
	// Every buffer the iteration loop touches is allocated once per call,
	// so 8× the iterations must cost exactly the same allocations. Tol
	// is small enough that no run stops early; the check below proves it.
	a := matrix.FromDense(random01(20, 60, 0.15, 3))
	rng := rand.New(rand.NewSource(4))
	seedW, seedH := matrix.Random(20, 3, rng), matrix.Random(3, 60, rng)
	for _, mode := range []struct {
		name     string
		restarts int
		warm     bool
	}{{"cold", 3, false}, {"warm", 1, true}} {
		// AllocsPerRun reports a whole-number average; compare it as one.
		allocs := func(maxIter int) int {
			opts := Options{K: 3, Seed: 1, Restarts: mode.restarts, MaxIter: maxIter, Tol: 1e-300}
			if mode.warm {
				opts.InitW, opts.InitH = seedW, seedH
			}
			res, err := FactorizeCSR(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalIterations != mode.restarts*maxIter {
				t.Fatalf("%s MaxIter=%d: ran %d iterations, want every one of %d",
					mode.name, maxIter, res.TotalIterations, mode.restarts*maxIter)
			}
			return int(testing.AllocsPerRun(3, func() {
				if _, err := FactorizeCSR(a, opts); err != nil {
					t.Fatal(err)
				}
			}))
		}
		short, long := allocs(50), allocs(400)
		if short != long {
			t.Errorf("%s: allocations grow with iterations: %d at MaxIter 50, %d at MaxIter 400",
				mode.name, short, long)
		}
	}
}

func TestRelativeErrorBitIdenticalToMaterialized(t *testing.T) {
	// The fused row-at-a-time residual must equal forming A − W·H and
	// taking its norm, to the last bit — including zero entries of W
	// (skipped in the product) and a size large enough for Mul to take
	// its parallel path.
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][3]int{{8, 12, 3}, {30, 45, 4}, {200, 700, 4}} {
		rows, cols, k := dims[0], dims[1], dims[2]
		a := random01(rows, cols, 0.2, int64(rows))
		w := matrix.Random(rows, k, rng)
		h := matrix.Random(k, cols, rng)
		w.Set(1, 0, 0)
		w.Set(rows-1, k-1, 0)
		normA := a.FrobeniusNorm()
		want := a.Sub(w.Mul(h)).FrobeniusNorm() / normA
		if got := RelativeError(a, w, h, normA); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%dx%d k=%d: fused %v, materialized %v", rows, cols, k, got, want)
		}
	}
}

func TestFactorizeCSRWarmLeavesSeedsUntouched(t *testing.T) {
	a := matrix.FromDense(corpusMatrix())
	paper := paperLike()
	converged, err := FactorizeCSR(a, paper)
	if err != nil {
		t.Fatal(err)
	}
	short := paper
	short.MaxIter = 5
	unconverged, err := FactorizeCSR(a, short)
	if err != nil {
		t.Fatal(err)
	}
	for _, prior := range []*Result{converged, unconverged} {
		wantW, wantH := prior.W.Clone(), prior.H.Clone()
		warm, err := FactorizeCSR(a, warmFrom(prior, paper))
		if err != nil {
			t.Fatal(err)
		}
		if !prior.W.Equal(wantW) || !prior.H.Equal(wantH) {
			t.Fatal("warm start mutated its seed factors")
		}
		if warm.W == prior.W || warm.H == prior.H {
			t.Fatal("warm result aliases its seed factors")
		}
		if warm.SeedRetained != (prior == converged) {
			t.Fatalf("SeedRetained = %v for the %d-iteration seed", warm.SeedRetained, prior.Iterations)
		}
		if warm.SeedRetained && (!warm.W.Equal(wantW) || !warm.H.Equal(wantH)) {
			t.Fatal("retained factors differ from the seeds")
		}
	}
}

// --- Metamorphic properties of the CSR path over generated inputs --------

func TestCSRFactorsNonNegativeAndResidualsMonotone(t *testing.T) {
	for _, c := range generatedCSRCases(24) {
		res, err := FactorizeCSR(c.csr, Options{K: c.k, Seed: c.seed, Restarts: 2, MaxIter: 200})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*matrix.Dense{res.W, res.H} {
			for i := 0; i < m.Rows(); i++ {
				for _, v := range m.RowView(i) {
					if v < 0 || math.IsNaN(v) {
						t.Fatalf("seed %d: factor entry %v", c.seed, v)
					}
				}
			}
		}
		for i := 1; i < len(res.Residuals); i++ {
			if prev, cur := res.Residuals[i-1], res.Residuals[i]; cur > prev*(1+1e-12) {
				t.Fatalf("seed %d: residual rose at iteration %d: %v -> %v", c.seed, i, prev, cur)
			}
		}
	}
}

func TestCSRRowPermutationEquivariance(t *testing.T) {
	// Relabelling the courses (rows of A) and the warm seed's W rows the
	// same way must relabel the fitted W rows and leave H alone. A fixed
	// iteration count (no early stop) keeps summation-order noise from
	// moving the stopping point.
	for _, c := range generatedCSRCases(12) {
		rows, cols := c.dense.Dims()
		rng := rand.New(rand.NewSource(c.seed))
		perm := rng.Perm(rows)
		w0 := matrix.Random(rows, c.k, rng)
		h0 := matrix.Random(c.k, cols, rng)
		pa, pw0 := matrix.New(rows, cols), matrix.New(rows, c.k)
		for i, src := range perm {
			pa.SetRow(i, c.dense.RowView(src))
			pw0.SetRow(i, w0.RowView(src))
		}
		opts := Options{K: c.k, MaxIter: 80, Tol: 1e-300}
		opts.InitW, opts.InitH = w0, h0
		base, err := FactorizeCSR(c.csr, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.InitW = pw0
		permuted, err := FactorizeCSR(matrix.FromDense(pa), opts)
		if err != nil {
			t.Fatal(err)
		}
		if base.Iterations != opts.MaxIter || permuted.Iterations != opts.MaxIter {
			t.Fatalf("seed %d: stopped early (%d, %d iterations)", c.seed, base.Iterations, permuted.Iterations)
		}
		if !permuted.H.EqualTol(base.H, 1e-9) {
			t.Fatalf("seed %d: row permutation changed H", c.seed)
		}
		for i, src := range perm {
			for t2, v := range permuted.W.RowView(i) {
				if math.Abs(v-base.W.At(src, t2)) > 1e-9 {
					t.Fatalf("seed %d: permuted W row %d != base row %d", c.seed, i, src)
				}
			}
		}
	}
}
