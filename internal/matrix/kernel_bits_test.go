package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The NNMF kernels promise more than agreement with the dense products
// up to rounding: each output scalar sums the same terms in the same
// order as a one-entry-at-a-time definition, so a rewrite of a loop
// nest cannot move a single bit of a factorization. The references
// below are those definitions, written entry by entry in the order the
// kernels document, and the checks compare math.Float64bits.

// kernelCase is one generated input: a sparse A (rows × cols) with
// non-binary values, factors W (rows × k) and H (k × cols), and a
// dense M (rows × k) with exact zeros for the zero-skipping products.
type kernelCase struct {
	name       string
	a          *Dense
	csr        *CSR
	w, h, m    *Dense
	rows, cols int
	k          int
}

func newKernelCase(name string, rows, cols, k int, density float64, emptyRow int, seed int64) kernelCase {
	rng := rand.New(rand.NewSource(seed))
	a := New(rows, cols)
	for i := 0; i < rows; i++ {
		if i == emptyRow {
			continue
		}
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				a.Set(i, j, 0.25+3*rng.Float64())
			}
		}
	}
	m := Random(rows, k, rng)
	for i := 0; i < rows; i += 3 {
		m.Set(i, rng.Intn(k), 0)
	}
	return kernelCase{
		name: name, a: a, csr: FromDense(a),
		w: Random(rows, k, rng), h: Random(k, cols, rng), m: m,
		rows: rows, cols: cols, k: k,
	}
}

// kernelCases are seeded random shapes plus the edge cases: an empty
// CSR row, k = 1, k = 5, a single column, and an all-empty matrix.
func kernelCases() []kernelCase {
	out := []kernelCase{
		newKernelCase("empty row", 7, 19, 3, 0.3, 2, 1),
		newKernelCase("k=1", 9, 31, 1, 0.2, -1, 2),
		newKernelCase("k=5", 12, 40, 5, 0.25, 0, 3),
		newKernelCase("single column", 8, 1, 1, 0.6, 4, 4),
		newKernelCase("all empty", 3, 5, 2, 0, -1, 5),
	}
	rng := rand.New(rand.NewSource(2024))
	for s := 0; s < 40; s++ {
		rows, cols, k := 1+rng.Intn(25), 1+rng.Intn(90), 1+rng.Intn(6)
		emptyRow := -1
		if rng.Intn(2) == 0 {
			emptyRow = rng.Intn(rows)
		}
		out = append(out, newKernelCase(fmt.Sprintf("seed %d", s), rows, cols, k,
			0.05+0.4*rng.Float64(), emptyRow, int64(100+s)))
	}
	return out
}

// sameBits reports the first entry where got and want differ in any bit.
func sameBits(got, want *Dense) error {
	if got.rows != want.rows || got.cols != want.cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for p, v := range got.data {
		if math.Float64bits(v) != math.Float64bits(want.data[p]) {
			return fmt.Errorf("entry (%d,%d) = %v, want %v", p/got.cols, p%got.cols, v, want.data[p])
		}
	}
	return nil
}

// refWtA: (WᵀA)_tj = Σ_i a_ij·w_it over the non-zeros of column j, rows
// ascending.
func refWtA(a, w *Dense) *Dense {
	rows, cols := a.Dims()
	out := New(w.cols, cols)
	for t := 0; t < w.cols; t++ {
		for j := 0; j < cols; j++ {
			s := 0.0
			for i := 0; i < rows; i++ {
				if aij := a.At(i, j); aij != 0 {
					s += aij * w.At(i, t)
				}
			}
			out.Set(t, j, s)
		}
	}
	return out
}

// refAHt: (AHᵀ)_it = Σ_j a_ij·h_tj over the non-zeros of row i, columns
// ascending.
func refAHt(a, h *Dense) *Dense {
	rows, cols := a.Dims()
	out := New(rows, h.rows)
	for i := 0; i < rows; i++ {
		for t := 0; t < h.rows; t++ {
			s := 0.0
			for j := 0; j < cols; j++ {
				if aij := a.At(i, j); aij != 0 {
					s += aij * h.At(t, j)
				}
			}
			out.Set(i, t, s)
		}
	}
	return out
}

// refInner: ⟨A, WH⟩ = Σ a_ij·(Σ_t w_it·h_tj) over the non-zeros in
// row-major order, each dot summed in type order.
func refInner(a, w, h *Dense) float64 {
	rows, cols := a.Dims()
	s := 0.0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			aij := a.At(i, j)
			if aij == 0 {
				continue
			}
			dot := 0.0
			for t := 0; t < w.cols; t++ {
				dot += w.At(i, t) * h.At(t, j)
			}
			s += aij * dot
		}
	}
	return s
}

// refABt: (MNᵀ)_ij = Σ_c m_ic·n_jc, columns ascending.
func refABt(m, n *Dense) *Dense {
	out := New(m.rows, n.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < n.rows; j++ {
			s := 0.0
			for c := 0; c < m.cols; c++ {
				s += m.At(i, c) * n.At(j, c)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// refMul: (MN)_ij = Σ_k m_ik·n_kj over the non-zero m_ik, k ascending.
func refMul(m, n *Dense) *Dense {
	out := New(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < n.cols; j++ {
			s := 0.0
			for k := 0; k < m.cols; k++ {
				if mik := m.At(i, k); mik != 0 {
					s += mik * n.At(k, j)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// refAtB: (MᵀN)_ij = Σ_k m_ki·n_kj over the non-zero m_ki, k ascending.
func refAtB(m, n *Dense) *Dense {
	out := New(m.cols, n.cols)
	for i := 0; i < m.cols; i++ {
		for j := 0; j < n.cols; j++ {
			s := 0.0
			for k := 0; k < m.rows; k++ {
				if mki := m.At(k, i); mki != 0 {
					s += mki * n.At(k, j)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestKernelsBitIdenticalToReference(t *testing.T) {
	for _, c := range kernelCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dot, wtA := csrInnerMulBtA(c.csr, c.w, c.h)
			if err := sameBits(wtA, refWtA(c.a, c.w)); err != nil {
				t.Errorf("InnerMulBtAInto WᵀA: %v", err)
			}
			if want := refInner(c.a, c.w, c.h); math.Float64bits(dot) != math.Float64bits(want) {
				t.Errorf("InnerMulBtAInto ⟨A,WH⟩ = %v, want %v", dot, want)
			}
			if err := sameBits(csrMulABt(c.csr, c.h), refAHt(c.a, c.h)); err != nil {
				t.Errorf("CSR MulABtInto: %v", err)
			}

			// The HHᵀ Gram (mirrored upper triangle), a Gram of a matrix
			// with exact zeros, and a general A·Hᵀ whose entry count
			// leaves a partial group of four.
			for name, mn := range map[string][2]*Dense{
				"HHᵀ":     {c.h, c.h},
				"MMᵀ":     {c.m, c.m},
				"AHᵀ":     {c.a, c.h},
				"M·(MᵀM)": {c.m, c.m.T().Mul(c.m)},
			} {
				got := New(mn[0].rows, mn[1].rows)
				got.data[0] = 99
				mn[0].MulABtInto(got, mn[1])
				if err := sameBits(got, refABt(mn[0], mn[1])); err != nil {
					t.Errorf("Dense MulABtInto %s: %v", name, err)
				}
			}

			// mulRows through MulInto (the workspace form) and Mul, and
			// the transposed product the residual's WᵀW uses.
			mul := New(c.m.rows, c.h.cols)
			mul.data[0] = 99
			c.m.MulInto(mul, c.h)
			if err := sameBits(mul, refMul(c.m, c.h)); err != nil {
				t.Errorf("MulInto: %v", err)
			}
			if err := sameBits(c.m.Mul(c.h), refMul(c.m, c.h)); err != nil {
				t.Errorf("Mul: %v", err)
			}
			atb := New(c.m.cols, c.w.cols)
			atb.data[0] = 99
			c.m.MulAtBInto(atb, c.w)
			if err := sameBits(atb, refAtB(c.m, c.w)); err != nil {
				t.Errorf("MulAtBInto: %v", err)
			}
		})
	}
}

func TestMulParallelBitIdenticalToReference(t *testing.T) {
	// Large enough for Mul to fan out over mulRows; each worker's rows
	// must still match the per-entry reference bit for bit.
	rng := rand.New(rand.NewSource(9))
	m, n := Random(90, 70, rng), Random(70, 60, rng)
	for i := 0; i < 90; i += 7 {
		m.Set(i, i%70, 0)
	}
	for _, workers := range []int{1, 3} {
		if err := sameBits(m.MulParallel(n, workers), refMul(m, n)); err != nil {
			t.Errorf("MulParallel(%d): %v", workers, err)
		}
	}
}
