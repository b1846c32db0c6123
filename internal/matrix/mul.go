package matrix

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum number of multiply-accumulate
// operations before Mul fans out across goroutines. Below this, the
// goroutine scheduling overhead dominates any speedup.
const parallelThreshold = 64 * 64 * 64

// Mul returns the matrix product m × n, parallelizing across rows when
// the problem is large enough to amortize goroutine startup.
func (m *Dense) Mul(n *Dense) *Dense {
	if m.cols != n.rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d × %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	if m.rows*m.cols*n.cols >= parallelThreshold {
		return m.mulParallel(n, runtime.GOMAXPROCS(0))
	}
	return m.mulSerial(n)
}

// MulSerial returns m × n computed on the calling goroutine only. It is
// exported so the benchmark harness can measure the parallel speedup.
func (m *Dense) MulSerial(n *Dense) *Dense {
	if m.cols != n.rows {
		panic(fmt.Sprintf("matrix: MulSerial shape mismatch %dx%d × %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	return m.mulSerial(n)
}

// MulParallel returns m × n using exactly workers goroutines (or
// GOMAXPROCS when workers <= 0). Exported for the ablation benchmarks.
func (m *Dense) MulParallel(n *Dense, workers int) *Dense {
	if m.cols != n.rows {
		panic(fmt.Sprintf("matrix: MulParallel shape mismatch %dx%d × %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return m.mulParallel(n, workers)
}

// mulSerial uses the i-k-j loop order so the inner loop streams through
// contiguous rows of both the output and n, which is cache-friendly for
// row-major storage.
func (m *Dense) mulSerial(n *Dense) *Dense {
	out := New(m.rows, n.cols)
	m.mulRows(n, out, 0, m.rows)
	return out
}

func (m *Dense) mulParallel(n *Dense, workers int) *Dense {
	out := New(m.rows, n.cols)
	if workers > m.rows {
		workers = m.rows
	}
	var wg sync.WaitGroup
	chunk := (m.rows + workers - 1) / workers
	for lo := 0; lo < m.rows; lo += chunk {
		hi := lo + chunk
		if hi > m.rows {
			hi = m.rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.mulRows(n, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// mulRows computes rows [lo, hi) of out = m × n. Each goroutine writes a
// disjoint row range, so no synchronization beyond the WaitGroup is needed.
func (m *Dense) mulRows(n, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			nk := n.data[k*n.cols : (k+1)*n.cols][:len(oi)]
			for j := range oi {
				oi[j] += mik * nk[j]
			}
		}
	}
}

// MulInto writes m × n into dst, overwriting it: the serial,
// allocation-free form of Mul for loops that reuse their scratch
// matrices. dst must be m.rows×n.cols and must not alias m or n. Each
// entry is summed in the same order as Mul's, so the result is
// bit-identical.
func (m *Dense) MulInto(dst, n *Dense) {
	if m.cols != n.rows || dst.rows != m.rows || dst.cols != n.cols {
		panic(fmt.Sprintf("matrix: MulInto shape mismatch %dx%d × %dx%d into %dx%d",
			m.rows, m.cols, n.rows, n.cols, dst.rows, dst.cols))
	}
	clear(dst.data)
	m.mulRows(n, dst, 0, m.rows)
}

// MulAtB returns mᵀ × n without materializing the transpose.
func (m *Dense) MulAtB(n *Dense) *Dense {
	if m.rows != n.rows {
		panic(fmt.Sprintf("matrix: MulAtB shape mismatch %dx%d vs %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	out := New(m.cols, n.cols)
	m.MulAtBInto(out, n)
	return out
}

// MulAtBInto writes mᵀ × n into dst (m.cols×n.cols), overwriting it.
// dst must not alias m or n.
func (m *Dense) MulAtBInto(dst, n *Dense) {
	if m.rows != n.rows || dst.rows != m.cols || dst.cols != n.cols {
		panic(fmt.Sprintf("matrix: MulAtBInto shape mismatch %dx%d vs %dx%d into %dx%d",
			m.rows, m.cols, n.rows, n.cols, dst.rows, dst.cols))
	}
	clear(dst.data)
	for k := 0; k < m.rows; k++ {
		mk := m.data[k*m.cols : (k+1)*m.cols]
		nk := n.data[k*n.cols : (k+1)*n.cols]
		for i, mki := range mk {
			if mki == 0 {
				continue
			}
			oi := dst.data[i*dst.cols : (i+1)*dst.cols][:len(nk)]
			for j, nkj := range nk {
				oi[j] += mki * nkj
			}
		}
	}
}

// MulABt returns m × nᵀ without materializing the transpose.
func (m *Dense) MulABt(n *Dense) *Dense {
	if m.cols != n.cols {
		panic(fmt.Sprintf("matrix: MulABt shape mismatch %dx%d vs %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	out := New(m.rows, n.rows)
	m.MulABtInto(out, n)
	return out
}

// MulABtInto writes m × nᵀ into dst (m.rows×n.rows), overwriting it.
// dst must not alias m or n. The Gram matrix m × mᵀ (n == m) is
// symmetric entry for entry — s_ji multiplies the same pairs in the same
// order as s_ij — so only its upper triangle is computed and mirrored.
//
// The entries to compute are taken four at a time, in row-major order,
// and each group shares one pass over the columns with a separate
// accumulator per entry: every entry is still the same column-order sum
// as a one-at-a-time dot product, bit for bit, but the four independent
// addition chains overlap. The last group repeats its final entry to
// fill the unused lanes.
func (m *Dense) MulABtInto(dst, n *Dense) {
	if m.cols != n.cols || dst.rows != m.rows || dst.cols != n.rows {
		panic(fmt.Sprintf("matrix: MulABtInto shape mismatch %dx%d vs %dx%d into %dx%d",
			m.rows, m.cols, n.rows, n.cols, dst.rows, dst.cols))
	}
	gram := m == n
	var is, js [4]int
	lanes := 0
	for i := 0; i < m.rows; i++ {
		j0 := 0
		if gram {
			j0 = i
		}
		for j := j0; j < n.rows; j++ {
			is[lanes], js[lanes] = i, j
			if lanes++; lanes == len(is) {
				m.dots4Into(dst, n, is, js, gram)
				lanes = 0
			}
		}
	}
	if lanes > 0 {
		for q := lanes; q < len(is); q++ {
			is[q], js[q] = is[lanes-1], js[lanes-1]
		}
		m.dots4Into(dst, n, is, js, gram)
	}
}

// dots4Into writes the four entries (is[q], js[q]) of m × nᵀ into dst,
// and their mirrors when gram is set, from one pass over the columns.
func (m *Dense) dots4Into(dst, n *Dense, is, js [4]int, gram bool) {
	c := m.cols
	m0 := m.data[is[0]*c : (is[0]+1)*c]
	m1 := m.data[is[1]*c : (is[1]+1)*c][:len(m0)]
	m2 := m.data[is[2]*c : (is[2]+1)*c][:len(m0)]
	m3 := m.data[is[3]*c : (is[3]+1)*c][:len(m0)]
	n0 := n.data[js[0]*c : (js[0]+1)*c][:len(m0)]
	n1 := n.data[js[1]*c : (js[1]+1)*c][:len(m0)]
	n2 := n.data[js[2]*c : (js[2]+1)*c][:len(m0)]
	n3 := n.data[js[3]*c : (js[3]+1)*c][:len(m0)]
	var s0, s1, s2, s3 float64
	for k, v := range m0 {
		s0 += v * n0[k]
		s1 += m1[k] * n1[k]
		s2 += m2[k] * n2[k]
		s3 += m3[k] * n3[k]
	}
	for q, s := range [4]float64{s0, s1, s2, s3} {
		dst.data[is[q]*dst.cols+js[q]] = s
		if gram {
			dst.data[js[q]*dst.cols+is[q]] = s
		}
	}
}
