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

// MulBtAInto writes Bᵀ × A into dst (B.cols × A.cols), overwriting it —
// the WᵀA product of the NNMF H update, accumulated directly in that
// k × cols layout. A.rows must equal B.rows; dst must not alias b.
func (c *CSR) MulBtAInto(dst, b *Dense) {
	if c.rows != b.rows || dst.rows != b.cols || dst.cols != c.cols {
		panic(fmt.Sprintf("matrix: CSR MulBtAInto shape mismatch %dx%d vs %dx%d into %dx%d",
			c.rows, c.cols, b.rows, b.cols, dst.rows, dst.cols))
	}
	clear(dst.data)
	for i := 0; i < c.rows; i++ {
		bi := b.data[i*b.cols : (i+1)*b.cols]
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			col := c.colIdx[p]
			v := c.vals[p]
			for t, bit := range bi {
				dst.data[t*dst.cols+col] += v * bit
			}
		}
	}
}

// Mul returns A × B with A sparse and B dense.
func (c *CSR) Mul(b *Dense) *Dense {
	if c.cols != b.Rows() {
		panic(fmt.Sprintf("matrix: CSR Mul shape mismatch %dx%d × %dx%d", c.rows, c.cols, b.Rows(), b.Cols()))
	}
	out := New(c.rows, b.Cols())
	for i := 0; i < c.rows; i++ {
		oi := out.RowView(i)
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			bk := b.RowView(c.colIdx[p])
			v := c.vals[p]
			for j, bkj := range bk {
				oi[j] += v * bkj
			}
		}
	}
	return out
}

// MulABtInto writes A × Bᵀ into dst (A.rows × B.rows), overwriting it —
// the AHᵀ product of the NNMF W update. A.cols must equal B.cols; dst
// must not alias b.
func (c *CSR) MulABtInto(dst, b *Dense) {
	if c.cols != b.cols || dst.rows != c.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("matrix: CSR MulABtInto shape mismatch %dx%d vs %dx%d into %dx%d",
			c.rows, c.cols, b.rows, b.cols, dst.rows, dst.cols))
	}
	for i := 0; i < c.rows; i++ {
		oi := dst.data[i*dst.cols : (i+1)*dst.cols]
		clear(oi)
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			k := c.colIdx[p]
			v := c.vals[p]
			for j := range oi {
				oi[j] += v * b.data[j*b.cols+k]
			}
		}
	}
}

// FrobeniusNorm returns the Frobenius norm of the stored entries.
func (c *CSR) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range c.vals {
		s += v * v
	}
	return math.Sqrt(s)
}

// InnerWithProduct returns ⟨A, W·H⟩ = Σ over the non-zeros of A of
// a_ij · (W_i · H_:j), without forming W·H. W must be rows×k and H k×cols.
func (c *CSR) InnerWithProduct(w, h *Dense) float64 {
	if w.Rows() != c.rows || h.Cols() != c.cols || w.Cols() != h.Rows() {
		panic(fmt.Sprintf("matrix: InnerWithProduct shape mismatch A %dx%d, W %dx%d, H %dx%d",
			c.rows, c.cols, w.Rows(), w.Cols(), h.Rows(), h.Cols()))
	}
	k := w.Cols()
	s := 0.0
	for i := 0; i < c.rows; i++ {
		wi := w.RowView(i)
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			j := c.colIdx[p]
			dot := 0.0
			for t := 0; t < k; t++ {
				dot += wi[t] * h.data[t*h.cols+j]
			}
			s += c.vals[p] * dot
		}
	}
	return s
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
