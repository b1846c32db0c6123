package matrix

import (
	"math/rand"
	"testing"
)

func TestMulSmall(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(7, 7, rng)
	if !a.Mul(Identity(7)).EqualTol(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Identity(7).Mul(a).EqualTol(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestMulRectangular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	b := NewFromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	want := NewFromRows([][]float64{{7, 16}, {6, 15}})
	if got := a.Mul(b); !got.Equal(want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(97, 65, rng)
	b := Random(65, 83, rng)
	serial := a.MulSerial(b)
	for _, workers := range []int{1, 2, 4, 8, 200} {
		par := a.MulParallel(b, workers)
		if !par.EqualTol(serial, 1e-10) {
			t.Fatalf("MulParallel(workers=%d) differs from serial", workers)
		}
	}
	// workers <= 0 means GOMAXPROCS.
	if !a.MulParallel(b, 0).EqualTol(serial, 1e-10) {
		t.Fatal("MulParallel(0) differs from serial")
	}
}

func TestMulLargeUsesParallelPathCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Random(80, 80, rng) // 80^3 > parallelThreshold
	b := Random(80, 80, rng)
	if !a.Mul(b).EqualTol(a.MulSerial(b), 1e-10) {
		t.Fatal("auto-parallel Mul differs from serial")
	}
}

func TestMulAtB(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	b := NewFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	want := a.T().Mul(b)
	if got := a.MulAtB(b); !got.EqualTol(want, 1e-12) {
		t.Fatalf("MulAtB = %v, want %v", got, want)
	}
}

func TestMulABt(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := NewFromRows([][]float64{{1, 1, 1}, {2, 0, 2}})
	want := a.Mul(b.T())
	if got := a.MulABt(b); !got.EqualTol(want, 1e-12) {
		t.Fatalf("MulABt = %v, want %v", got, want)
	}
}

func TestMulAtBShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).MulAtB(New(3, 2))
}

func TestMulABtShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).MulABt(New(3, 2))
}

func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Random(9, 4, rng)
	a.Set(2, 1, 0) // exercise the zero skips
	b := Random(4, 7, rng)
	c := Random(9, 7, rng)
	// Garbage-filled destinations: the kernels must overwrite, and the
	// sums must match the allocating forms bit for bit.
	garbage := func(r, cols int) *Dense {
		d := New(r, cols)
		for i := range d.data {
			d.data[i] = float64(i) + 0.5
		}
		return d
	}
	mul := garbage(9, 7)
	a.MulInto(mul, b)
	if !mul.Equal(a.Mul(b)) {
		t.Error("MulInto differs from Mul")
	}
	atb := garbage(4, 7)
	a.MulAtBInto(atb, c)
	if !atb.Equal(a.MulAtB(c)) {
		t.Error("MulAtBInto differs from MulAtB")
	}
	abt := garbage(9, 4)
	c.MulABtInto(abt, b)
	if !abt.Equal(c.MulABt(b)) {
		t.Error("MulABtInto differs from MulABt")
	}
	// The mirrored Gram path (n == m) must equal the full computation
	// against an unaliased copy.
	gram, full := garbage(9, 9), garbage(9, 9)
	c.MulABtInto(gram, c)
	c.MulABtInto(full, c.Clone())
	if !gram.Equal(full) {
		t.Error("mirrored Gram MulABtInto differs from the full product")
	}
}

func TestIntoKernelsShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MulInto operands":    func() { New(2, 3).MulInto(New(2, 2), New(2, 2)) },
		"MulInto dst":         func() { New(2, 3).MulInto(New(3, 2), New(3, 2)) },
		"MulAtBInto operands": func() { New(2, 3).MulAtBInto(New(3, 2), New(3, 2)) },
		"MulAtBInto dst":      func() { New(2, 3).MulAtBInto(New(2, 2), New(2, 2)) },
		"MulABtInto operands": func() { New(2, 3).MulABtInto(New(2, 2), New(2, 2)) },
		"MulABtInto dst":      func() { New(2, 3).MulABtInto(New(2, 3), New(2, 3)) },
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

func BenchmarkMulSerial128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := Random(128, 128, rng)
	y := Random(128, 128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulSerial(y)
	}
}

func BenchmarkMulParallel128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := Random(128, 128, rng)
	y := Random(128, 128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulParallel(y, 0)
	}
}
