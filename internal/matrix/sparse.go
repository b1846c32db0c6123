package matrix

import (
	"fmt"
	"math"
)

// CSR is a compressed-sparse-row matrix. The course × curriculum matrices
// of this repository are 0-1 and very sparse (each course covers well
// under a fifth of the ~700 curriculum entries), so the NNMF products
// involving A — WᵀA and AHᵀ — can skip the zeros entirely.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// FromDense compresses a dense matrix, keeping entries with |v| > 0.
func FromDense(a *Dense) *CSR {
	rows, cols := a.Dims()
	c := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		for j, v := range a.RowView(i) {
			if v != 0 {
				c.colIdx = append(c.colIdx, j)
				c.vals = append(c.vals, v)
			}
		}
		c.rowPtr[i+1] = len(c.vals)
	}
	return c
}

// Dims returns (rows, cols).
func (c *CSR) Dims() (int, int) { return c.rows, c.cols }

// NNZ returns the number of stored non-zeros.
func (c *CSR) NNZ() int { return len(c.vals) }

// Density returns NNZ / (rows·cols).
func (c *CSR) Density() float64 {
	return float64(c.NNZ()) / float64(c.rows*c.cols)
}

// ToDense expands the sparse matrix back to dense form.
func (c *CSR) ToDense() *Dense {
	out := New(c.rows, c.cols)
	for i := 0; i < c.rows; i++ {
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			out.Set(i, c.colIdx[p], c.vals[p])
		}
	}
	return out
}

// MulABtInto writes A × Bᵀ into dst (A.rows × B.rows), overwriting it —
// the AHᵀ product of the NNMF W update. A.cols must equal B.cols; dst
// must not alias b.
//
// Each entry is one sum over its row's non-zeros in ascending column
// order, and the inner loop runs over those non-zeros rather than over
// the short B.rows dimension. The entries of a row are taken four at a
// time, each with its own accumulator, so four independent addition
// chains share one pass over the row; a last group of fewer than four
// repeats its final entry.
func (c *CSR) MulABtInto(dst, b *Dense) {
	if c.cols != b.cols || dst.rows != c.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("matrix: CSR MulABtInto shape mismatch %dx%d vs %dx%d into %dx%d",
			c.rows, c.cols, b.rows, b.cols, dst.rows, dst.cols))
	}
	last := b.rows - 1
	for i := 0; i < c.rows; i++ {
		lo, hi := c.rowPtr[i], c.rowPtr[i+1]
		cols := c.colIdx[lo:hi]
		vals := c.vals[lo:hi][:len(cols)]
		oi := dst.data[i*dst.cols : (i+1)*dst.cols]
		for t0 := 0; t0 <= last; t0 += 4 {
			t1, t2, t3 := min(t0+1, last), min(t0+2, last), min(t0+3, last)
			b0 := b.data[t0*b.cols : (t0+1)*b.cols]
			b1 := b.data[t1*b.cols : (t1+1)*b.cols]
			b2 := b.data[t2*b.cols : (t2+1)*b.cols]
			b3 := b.data[t3*b.cols : (t3+1)*b.cols]
			var s0, s1, s2, s3 float64
			for q, j := range cols {
				v := vals[q]
				s0 += v * b0[j]
				s1 += v * b1[j]
				s2 += v * b2[j]
				s3 += v * b3[j]
			}
			oi[t0], oi[t1], oi[t2], oi[t3] = s0, s1, s2, s3
		}
	}
}

// InnerMulBtAInto walks the non-zeros of A once and returns the inner
// product ⟨A, W·H⟩ = Σ a_ij · (W_i · H_:j) while writing WᵀA into wtA
// (W.cols × A.cols), overwriting it — the residual of one NNMF iterate
// and the WᵀA product the next H update needs, which share W. W must be
// A.rows×k, H k×A.cols, and dots a scratch slice of exactly NNZ
// entries; wtA must not alias w.
//
// For each row, the types are taken two at a time outside the loop over
// the row's non-zeros, so the inner loop is the row's non-zeros. Every
// scalar still sums the same terms in the same order as the per-entry
// definition: dots[p] accumulates W_i·H_:j in type order, the inner
// product adds a_ij·dots[p] in non-zero order once the row is done, and
// each WᵀA entry adds a_ij·w_it over rows in ascending order.
func (c *CSR) InnerMulBtAInto(wtA *Dense, dots []float64, w, h *Dense) float64 {
	k := w.cols
	if w.rows != c.rows || h.cols != c.cols || h.rows != k ||
		wtA.rows != k || wtA.cols != c.cols || len(dots) != len(c.vals) {
		panic(fmt.Sprintf("matrix: InnerMulBtAInto shape mismatch A %dx%d (nnz %d), W %dx%d, H %dx%d into %dx%d (dots %d)",
			c.rows, c.cols, len(c.vals), w.rows, w.cols, h.rows, h.cols, wtA.rows, wtA.cols, len(dots)))
	}
	clear(wtA.data)
	clear(dots)
	s := 0.0
	for i := 0; i < c.rows; i++ {
		lo, hi := c.rowPtr[i], c.rowPtr[i+1]
		cols := c.colIdx[lo:hi]
		vals := c.vals[lo:hi][:len(cols)]
		di := dots[lo:hi][:len(cols)]
		wi := w.data[i*k : (i+1)*k]
		t := 0
		for ; t+1 < k; t += 2 {
			w0, w1 := wi[t], wi[t+1]
			h0 := h.data[t*h.cols : (t+1)*h.cols]
			h1 := h.data[(t+1)*h.cols : (t+2)*h.cols]
			a0 := wtA.data[t*wtA.cols : (t+1)*wtA.cols]
			a1 := wtA.data[(t+1)*wtA.cols : (t+2)*wtA.cols]
			for q, j := range cols {
				v := vals[q]
				di[q] = di[q] + w0*h0[j] + w1*h1[j]
				a0[j] += v * w0
				a1[j] += v * w1
			}
		}
		if t < k {
			wt := wi[t]
			ht := h.data[t*h.cols : (t+1)*h.cols]
			at := wtA.data[t*wtA.cols : (t+1)*wtA.cols]
			for q, j := range cols {
				di[q] += wt * ht[j]
				at[j] += vals[q] * wt
			}
		}
		for q, v := range vals {
			s += v * di[q]
		}
	}
	return s
}

// FrobeniusNorm returns the Frobenius norm of the stored entries.
func (c *CSR) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range c.vals {
		s += v * v
	}
	return math.Sqrt(s)
}

// AnyNegative reports whether any stored entry is negative.
func (c *CSR) AnyNegative() bool {
	for _, v := range c.vals {
		if v < 0 {
			return true
		}
	}
	return false
}
