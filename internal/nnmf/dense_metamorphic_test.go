package nnmf

import (
	"math"
	"math/rand"
	"testing"

	"csmaterials/internal/matrix"
)

// Metamorphic properties of the dense KL and HALS updates over the same
// generated inputs as the CSR path: non-negative factors, an objective
// that never rises, and row-permutation equivariance.

// generalizedKL is D(A‖WH) = Σ a·log(a/wh) − a + wh, with 0·log 0 = 0:
// the objective the KL multiplicative updates descend.
func generalizedKL(a, w, h *matrix.Dense) float64 {
	wh := w.Mul(h)
	rows, _ := a.Dims()
	d := 0.0
	for i := 0; i < rows; i++ {
		whi := wh.RowView(i)
		for j, aij := range a.RowView(i) {
			if aij > 0 {
				d += aij * math.Log(aij/whi[j])
			}
			d += whi[j] - aij
		}
	}
	return d
}

func assertNonNegative(t *testing.T, what string, ms ...*matrix.Dense) {
	t.Helper()
	for _, m := range ms {
		for i := 0; i < m.Rows(); i++ {
			for _, v := range m.RowView(i) {
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("%s: factor entry %v", what, v)
				}
			}
		}
	}
}

func TestKLUpdatesNonNegativeAndDivergenceMonotone(t *testing.T) {
	for _, c := range generatedCSRCases(16) {
		opts := Options{K: c.k, Algorithm: MultiplicativeKL, Seed: c.seed}.withDefaults()
		w, h := initialize(c.dense, opts, c.seed)
		prev := generalizedKL(c.dense, w, h)
		for it := 0; it < 150; it++ {
			w, h = stepKL(c.dense, w, h, opts.Eps)
			assertNonNegative(t, "KL", w, h)
			d := generalizedKL(c.dense, w, h)
			if d > prev+1e-9*math.Max(1, prev) {
				t.Fatalf("seed %d: KL divergence rose at iteration %d: %v -> %v", c.seed, it, prev, d)
			}
			prev = d
		}
		res, err := Factorize(c.dense, Options{K: c.k, Algorithm: MultiplicativeKL, Seed: c.seed, Restarts: 2, MaxIter: 150})
		if err != nil {
			t.Fatal(err)
		}
		assertNonNegative(t, "KL Factorize", res.W, res.H)
	}
}

func TestHALSNonNegativeAndResidualsMonotone(t *testing.T) {
	for _, c := range generatedCSRCases(16) {
		res, err := Factorize(c.dense, Options{K: c.k, Algorithm: HALS, Seed: c.seed, Restarts: 2, MaxIter: 150})
		if err != nil {
			t.Fatal(err)
		}
		assertNonNegative(t, "HALS", res.W, res.H)
		for i := 1; i < len(res.Residuals); i++ {
			if prev, cur := res.Residuals[i-1], res.Residuals[i]; cur > prev*(1+1e-12) {
				t.Fatalf("seed %d: residual rose at iteration %d: %v -> %v", c.seed, i, prev, cur)
			}
		}
	}
}

func TestDenseRowPermutationEquivariance(t *testing.T) {
	// As TestCSRRowPermutationEquivariance, for the dense KL and HALS
	// updates: relabelling the rows of A and of the warm seed's W the
	// same way relabels the fitted W rows and leaves H alone. The updates
	// are stepped a fixed number of times from the seeds — the Frobenius
	// stopping rule would stop the KL run wherever that error stalls, and
	// summation-order noise could move the stopping point.
	const iterations = 60
	for _, alg := range []Algorithm{MultiplicativeKL, HALS} {
		run := func(a, w, h *matrix.Dense) (*matrix.Dense, *matrix.Dense) {
			w, h = w.Clone(), h.Clone()
			for it := 0; it < iterations; it++ {
				if alg == HALS {
					w, h = stepHALS(a, w, h, 1e-12, 0, 0)
				} else {
					w, h = stepKL(a, w, h, 1e-12)
				}
			}
			return w, h
		}
		for _, c := range generatedCSRCases(8) {
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
			baseW, baseH := run(c.dense, w0, h0)
			permW, permH := run(pa, pw0, h0)
			assertNonNegative(t, alg.String(), baseW, baseH, permW, permH)
			if !permH.EqualTol(baseH, 1e-9) {
				t.Fatalf("%v seed %d: row permutation changed H", alg, c.seed)
			}
			for i, src := range perm {
				for t2, v := range permW.RowView(i) {
					if math.Abs(v-baseW.At(src, t2)) > 1e-9 {
						t.Fatalf("%v seed %d: permuted W row %d != base row %d", alg, c.seed, i, src)
					}
				}
			}
		}
	}
}
