package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSparse01 builds a random 0-1 dense matrix with the given density.
func randomSparse01(rows, cols int, density float64, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	a := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				a.Set(i, j, 1)
			}
		}
	}
	return a
}

func TestCSRRoundTrip(t *testing.T) {
	a := randomSparse01(13, 29, 0.15, 1)
	c := FromDense(a)
	if !c.ToDense().Equal(a) {
		t.Fatal("CSR round trip lost entries")
	}
	if r, cols := c.Dims(); r != 13 || cols != 29 {
		t.Fatalf("Dims = %d,%d", r, cols)
	}
	// NNZ matches the dense count.
	nnz := 0
	for i := 0; i < 13; i++ {
		for _, v := range a.RowView(i) {
			if v != 0 {
				nnz++
			}
		}
	}
	if c.NNZ() != nnz {
		t.Fatalf("NNZ = %d, want %d", c.NNZ(), nnz)
	}
	if d := c.Density(); d <= 0 || d >= 1 {
		t.Fatalf("Density = %v", d)
	}
}

func TestCSRFrobeniusMatchesDense(t *testing.T) {
	a := randomSparse01(9, 17, 0.2, 2)
	if got, want := FromDense(a).FrobeniusNorm(), a.FrobeniusNorm(); !almostEqual(got, want, 1e-12) {
		t.Fatalf("CSR norm %v, dense %v", got, want)
	}
}

func TestCSRAnyNegative(t *testing.T) {
	a := randomSparse01(4, 4, 0.5, 3)
	if FromDense(a).AnyNegative() {
		t.Fatal("0-1 matrix reported negative")
	}
	a.Set(0, 0, -1)
	if !FromDense(a).AnyNegative() {
		t.Fatal("negative entry missed")
	}
}

// csrInnerMulBtA and csrMulABt wrap the destination-passing CSR
// kernels in fresh, garbage-filled destinations and scratch, so the
// comparisons below also prove the kernels overwrite rather than
// accumulate into them.
func csrInnerMulBtA(c *CSR, w, h *Dense) (float64, *Dense) {
	dst := New(w.Cols(), c.cols)
	dst.data[0] = 99
	dots := make([]float64, c.NNZ())
	for p := range dots {
		dots[p] = 7
	}
	dot := c.InnerMulBtAInto(dst, dots, w, h)
	return dot, dst
}

func csrMulABt(c *CSR, b *Dense) *Dense {
	dst := New(c.rows, b.Rows())
	dst.data[0] = 99
	c.MulABtInto(dst, b)
	return dst
}

func TestCSRMulBtAMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomSparse01(11, 23, 0.2, 7)
	c := FromDense(a)
	w := Random(11, 4, rng)
	h := Random(4, 23, rng)
	_, wtA := csrInnerMulBtA(c, w, h)
	// WᵀA is bit-identical to the transpose of the dense AᵀW: each entry
	// sums the same products in the same row order.
	if !wtA.Equal(a.MulAtB(w).T()) {
		t.Fatal("CSR InnerMulBtAInto's WᵀA differs from dense (AᵀW)ᵀ")
	}
}

func TestCSRInnerWithProductMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomSparse01(10, 15, 0.25, 11)
	c := FromDense(a)
	w := Random(10, 3, rng)
	h := Random(3, 15, rng)
	dot, _ := csrInnerMulBtA(c, w, h)
	if want := a.MulElem(w.Mul(h)).Sum(); !almostEqual(dot, want, 1e-9) {
		t.Fatalf("CSR InnerMulBtAInto's ⟨A,WH⟩ = %v, want %v", dot, want)
	}
}

func TestCSRMulABtMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomSparse01(11, 23, 0.2, 9)
	c := FromDense(a)
	h := Random(4, 23, rng)
	if !csrMulABt(c, h).EqualTol(a.MulABt(h), 1e-10) {
		t.Fatal("CSR MulABtInto differs from dense")
	}
}

func TestCSRShapePanics(t *testing.T) {
	a := FromDense(randomSparse01(3, 4, 0.5, 12))
	dots := make([]float64, a.NNZ())
	for name, f := range map[string]func(){
		"MulABtInto":             func() { a.MulABtInto(New(3, 2), New(2, 3)) },
		"MulABtInto dst":         func() { a.MulABtInto(New(2, 2), New(2, 4)) },
		"InnerMulBtAInto W":      func() { a.InnerMulBtAInto(New(2, 4), dots, New(4, 2), New(2, 4)) },
		"InnerMulBtAInto H":      func() { a.InnerMulBtAInto(New(2, 4), dots, New(3, 2), New(3, 4)) },
		"InnerMulBtAInto H cols": func() { a.InnerMulBtAInto(New(2, 4), dots, New(3, 2), New(2, 3)) },
		"InnerMulBtAInto dst":    func() { a.InnerMulBtAInto(New(2, 3), dots, New(3, 2), New(2, 4)) },
		"InnerMulBtAInto dots":   func() { a.InnerMulBtAInto(New(2, 4), dots[1:], New(3, 2), New(2, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestPropCSREquivalence(t *testing.T) {
	f := func(seed int64, r8, c8, k8 uint8) bool {
		rows, cols := int(r8%8)+2, int(c8%8)+2
		k := int(k8%3) + 1
		a := randomSparse01(rows, cols, 0.3, seed)
		// Ensure non-empty.
		a.Set(0, 0, 1)
		c := FromDense(a)
		rng := rand.New(rand.NewSource(seed + 1))
		w := Random(rows, k, rng)
		h := Random(k, cols, rng)
		dot, wtA := csrInnerMulBtA(c, w, h)
		return wtA.EqualTol(a.MulAtB(w).T(), 1e-9) &&
			csrMulABt(c, h).EqualTol(a.MulABt(h), 1e-9) &&
			almostEqual(dot, a.MulElem(w.Mul(h)).Sum(), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
