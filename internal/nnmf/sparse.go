package nnmf

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"csmaterials/internal/matrix"
)

// FactorizeCSR computes an NNMF of a sparse non-negative matrix using
// multiplicative Frobenius updates whose A-products skip zeros — the
// right representation for course × curriculum matrices, which are 0-1
// with well under 20% density. It is the kernel the API serves
// (factorize.Analyze routes every multiplicative-Frobenius analysis
// here).
//
// On 0-1 inputs it shares Factorize's initialization and update rules,
// so for a given iteration both produce the same factors up to
// floating-point summation order. It is not bit-equal to Factorize on the dense
// expansion of a: the residual is computed through the trace identity
// ‖A‖² − 2⟨A,WH⟩ + tr(WᵀW·HHᵀ) rather than from A − WH directly, and the
// last-bit differences in the tolerance check can stop the two paths at
// different iterations. What is exact is FactorizeCSR against itself:
// its factors, residual trace, iteration counts and winning restart are
// locked bit for bit by testdata/csr_golden.txt.
//
// One workspace of scratch products is allocated per call and reused by
// every restart and iteration; the iteration loop allocates nothing.
// Each iteration walks the non-zeros of a twice: once for AHᵀ, and once
// for the residual, which in the same pass writes the WᵀA the next
// step's H update reads (the residual scores exactly the W that step
// starts from). The kernels loop over a row's non-zeros innermost and
// keep every output scalar's summation order, so those choices are
// invisible in the bits that csr_golden.txt locks.
//
// Only the Frobenius multiplicative algorithm is implemented sparsely;
// Options.Algorithm is ignored.
func FactorizeCSR(a *matrix.CSR, opts Options) (*Result, error) {
	return FactorizeCSRCtx(context.Background(), a, opts)
}

// FactorizeCSRCtx is FactorizeCSR with cooperative cancellation; see
// FactorizeCtx for the contract.
func FactorizeCSRCtx(ctx context.Context, a *matrix.CSR, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	rows, cols := a.Dims()
	if opts.K <= 0 {
		return nil, fmt.Errorf("nnmf: K must be positive, got %d", opts.K)
	}
	if opts.K > rows || opts.K > cols {
		return nil, fmt.Errorf("nnmf: K=%d exceeds matrix dimensions %dx%d", opts.K, rows, cols)
	}
	if a.AnyNegative() {
		return nil, fmt.Errorf("nnmf: input matrix has negative entries")
	}
	normA := a.FrobeniusNorm()
	if normA == 0 {
		return nil, fmt.Errorf("nnmf: input matrix is all zeros")
	}
	mean := normA * normA / float64(rows*cols) // mean of A for 0-1 matrices equals density; use ‖A‖²/(r·c) which matches for 0-1 entries
	ws := newCSRWorkspace(a, opts.K, normA, opts.Eps)

	if opts.InitW != nil || opts.InitH != nil {
		w, h, exact, err := warmSeeds(opts, rows, cols, mean)
		if err != nil {
			return nil, err
		}
		ws.begin(h) // runWarm scores the seeds before its first step
		return runWarm(ctx, opts, exact, w, h, ws.step, ws.residual)
	}

	restarts := opts.Restarts
	if opts.Init == InitNNDSVD {
		restarts = 1
	}
	var best *Result
	total := 0
	for r := 0; r < restarts; r++ {
		var w, h *matrix.Dense
		if opts.Init == InitNNDSVD {
			w, h = nndsvd(a.ToDense(), opts.K)
		} else {
			w, h = randomInit(rows, cols, opts.K, mean, opts.Seed+int64(r))
		}
		// Each restart owns its freshly initialized factors and updates
		// them in place; only the scratch products are shared, so the
		// best result never aliases the workspace.
		ws.begin(h)
		// iterate's first call is step, which reads the WᵀW and WᵀA that
		// a residual of the starting point leaves.
		ws.residual(w, h)
		res, err := iterate(ctx, opts, w, h, ws.step, ws.residual)
		if err != nil {
			return nil, err
		}
		res.Restart = r
		total += res.Iterations
		if best == nil || res.Err < best.Err {
			best = res
		}
	}
	best.TotalIterations = total
	return best, nil
}

// randomInit mirrors initialize()'s scaling without requiring the dense
// matrix: for 0-1 inputs, mean(A) = ‖A‖²/(rows·cols).
func randomInit(rows, cols, k int, mean float64, seed int64) (*matrix.Dense, *matrix.Dense) {
	rng := rand.New(rand.NewSource(seed))
	scale := math.Sqrt(mean / float64(k))
	w := matrix.Random(rows, k, rng).Scale(scale)
	h := matrix.Random(k, cols, rng).Scale(scale)
	return w, h
}

// csrWorkspace holds the scratch products of the sparse Frobenius
// update, sized once per FactorizeCSRCtx call and overwritten by every
// iteration of every restart. W and H are not part of it: each run owns
// its factors and the workspace updates them in place.
type csrWorkspace struct {
	a          *matrix.CSR
	normA, eps float64
	// wtA is WᵀA of the current W: the residual that scores W leaves it
	// for the next step, which starts from that same W.
	wtA, wtWH *matrix.Dense // k × cols
	aHt, wHHt *matrix.Dense // rows × k
	// wtw is WᵀW of the current W and hht is HHᵀ of the current H; the
	// residual's WᵀW doubles as the next step's.
	wtw, hht *matrix.Dense // k × k
	// dots holds W_i·H_:j for every non-zero a_ij during the residual.
	dots []float64
}

func newCSRWorkspace(a *matrix.CSR, k int, normA, eps float64) *csrWorkspace {
	rows, cols := a.Dims()
	return &csrWorkspace{
		a: a, normA: normA, eps: eps,
		wtA: matrix.New(k, cols), wtWH: matrix.New(k, cols),
		aHt: matrix.New(rows, k), wHHt: matrix.New(rows, k),
		wtw: matrix.New(k, k), hht: matrix.New(k, k),
		dots: make([]float64, a.NNZ()),
	}
}

// begin primes HHᵀ of a run's starting h, which its first residual
// reads.
func (ws *csrWorkspace) begin(h *matrix.Dense) { h.MulABtInto(ws.hht, h) }

// step applies stepFrobenius's update round to w and h in place, with
// the two A-products computed through the CSR structure:
//
//	H ← H ⊙ (WᵀA) ⊘ (WᵀWH)
//	W ← W ⊙ (AHᵀ) ⊘ (WHHᵀ)
//
// It reads WᵀW and WᵀA of the incoming w from the workspace — left there
// by the residual that scored w — and leaves HHᵀ of the
// updated h there for the next residual.
func (ws *csrWorkspace) step(w, h *matrix.Dense) (*matrix.Dense, *matrix.Dense) {
	ws.wtw.MulInto(ws.wtWH, h)
	multiplicativeUpdate(h, ws.wtA, ws.wtWH, ws.eps)

	ws.a.MulABtInto(ws.aHt, h)
	h.MulABtInto(ws.hht, h)
	w.MulInto(ws.wHHt, ws.hht)
	multiplicativeUpdate(w, ws.aHt, ws.wHHt, ws.eps)
	return w, h
}

// residual computes ‖A − WH‖_F / ‖A‖_F without materializing WH:
// ‖A−WH‖² = ‖A‖² − 2·⟨A, WH⟩ + tr((WᵀW)(HHᵀ)). The inner product
// touches only the non-zeros of A, in the same pass that writes WᵀA of
// w for the next step; the trace term is k×k, from the workspace's HHᵀ
// (set by begin or step for this h) and a freshly computed WᵀW of w,
// which the next step also reuses.
func (ws *csrWorkspace) residual(w, h *matrix.Dense) float64 {
	dot := ws.a.InnerMulBtAInto(ws.wtA, ws.dots, w, h)
	w.MulAtBInto(ws.wtw, w)
	trace := 0.0
	for i := 0; i < ws.wtw.Rows(); i++ {
		hi := ws.hht.RowView(i)
		for j, v := range ws.wtw.RowView(i) {
			trace += v * hi[j] // both symmetric
		}
	}
	errSq := ws.normA*ws.normA - 2*dot + trace
	if errSq < 0 {
		errSq = 0
	}
	return math.Sqrt(errSq) / ws.normA
}

// multiplicativeUpdate applies f ← f ⊙ num ⊘ (den + eps) in place.
func multiplicativeUpdate(f, num, den *matrix.Dense, eps float64) {
	for i := 0; i < f.Rows(); i++ {
		fi := f.RowView(i)
		ni, di := num.RowView(i)[:len(fi)], den.RowView(i)[:len(fi)]
		for j := range fi {
			fi[j] *= ni[j] / (di[j] + eps)
		}
	}
}
