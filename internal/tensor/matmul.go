package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// MatMul computes the matrix product of two rank-2 tensors, optionally
// transposing either operand first. Shapes follow the usual contract:
// op(a) is [m,k], op(b) is [k,n], and the result is [m,n].
//
// Large products go through a packed, cache-blocked kernel: op(B) is
// repacked once per column panel into contiguous k-length columns, and the
// panel is then reused by every row of the row-sharded fan-out across
// GOMAXPROCS goroutines. Small products keep the direct row kernels, whose
// setup cost is lower.
func MatMul(a, b *Tensor, transposeA, transposeB bool) (*Tensor, error) {
	return MatMulInto(nil, a, b, transposeA, transposeB)
}

// MatMulInto is MatMul writing into dst, which must be a [m,n] tensor of
// the operands' dtype (its prior contents are ignored). A nil dst
// allocates. It returns the written tensor.
func MatMulInto(dst, a, b *Tensor, transposeA, transposeB bool) (*Tensor, error) {
	return fusedMatMul(dst, a, b, nil, transposeA, transposeB, false)
}

// FusedMatMulBias computes act(op(a)·op(b) + bias) in one kernel: the bias
// row (rank-1, length n; nil for none) and the optional ReLU are applied in
// the matmul's write-out loop, so the intermediate [m,n] products never
// round-trip through memory. This is the kernel behind the FusedMatMul op
// the fusion pass rewrites MatMul+BiasAdd(+Relu) chains onto.
func FusedMatMulBias(dst, a, b, bias *Tensor, transposeA, transposeB, relu bool) (*Tensor, error) {
	return fusedMatMul(dst, a, b, bias, transposeA, transposeB, relu)
}

// MatMulOutShape returns the [m,n] shape MatMul would produce, validating
// ranks, dtypes and the inner-dimension match.
func MatMulOutShape(a, b *Tensor, transposeA, transposeB bool) (Shape, error) {
	m, _, n, err := matmulDims(a, b, transposeA, transposeB)
	if err != nil {
		return nil, err
	}
	return Shape{m, n}, nil
}

func matmulDims(a, b *Tensor, transposeA, transposeB bool) (m, k, n int, err error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, 0, fmt.Errorf("tensor: MatMul needs rank-2 inputs, got %v and %v", a.shape, b.shape)
	}
	if a.dtype != b.dtype || !a.dtype.IsFloat() {
		return 0, 0, 0, fmt.Errorf("tensor: MatMul needs matching float dtypes, got %v and %v", a.dtype, b.dtype)
	}
	m, ka := a.shape[0], a.shape[1]
	if transposeA {
		m, ka = ka, m
	}
	kb, n := b.shape[0], b.shape[1]
	if transposeB {
		kb, n = n, kb
	}
	if ka != kb {
		return 0, 0, 0, fmt.Errorf("tensor: MatMul inner dimensions differ: %v (transpose=%t) x %v (transpose=%t)",
			a.shape, transposeA, b.shape, transposeB)
	}
	return m, ka, n, nil
}

func fusedMatMul(dst, a, b, bias *Tensor, ta, tb, relu bool) (*Tensor, error) {
	m, k, n, err := matmulDims(a, b, ta, tb)
	if err != nil {
		return nil, err
	}
	if bias != nil {
		if bias.Rank() != 1 || bias.shape[0] != n || bias.dtype != a.dtype {
			return nil, fmt.Errorf("tensor: fused MatMul bias must be %v[%d], got %v%v", a.dtype, n, bias.dtype, bias.shape)
		}
	}
	if dst == nil {
		dst = New(a.dtype, Shape{m, n})
	} else if dst.dtype != a.dtype || dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return nil, fmt.Errorf("tensor: MatMul dst must be %v[%d %d], got %v%v", a.dtype, m, n, dst.dtype, dst.shape)
	}
	if a.dtype == Float32 {
		matmul(floats[float32](dst), floats[float32](a), floats[float32](b), m, k, n,
			a.shape[1], b.shape[1], ta, tb, floats[float32](bias), relu)
	} else {
		matmul(floats[float64](dst), floats[float64](a), floats[float64](b), m, k, n,
			a.shape[1], b.shape[1], ta, tb, floats[float64](bias), relu)
	}
	return dst, nil
}

// float is the element-type constraint of the matmul kernels: each kernel
// is written once and instantiated for float32 and float64.
type float interface{ float32 | float64 }

// floats returns t's backing buffer as []T, or nil for a nil tensor.
func floats[T float](t *Tensor) []T {
	if t == nil {
		return nil
	}
	return t.buf.([]T)
}

// matmulParallelThreshold is the output-element count above which the
// kernels shard work across goroutines.
const matmulParallelThreshold = 64 * 64

// Packed-path geometry: products with at least packMinRows output rows and
// packMinK inner extent repay the panel repack; packPanel output columns
// are packed per panel so the panel (packPanel·k elements) stays resident
// in cache while every row streams over it.
const (
	packMinRows = 8
	packMinK    = 16
	packPanel   = 64
)

func usePacked(m, k, n int) bool {
	return m >= packMinRows && k >= packMinK && n >= 4
}

// shardRange fans rangeFn out over [0,count) in contiguous chunks across
// GOMAXPROCS goroutines; work is the total output-element count used to
// decide whether the dispatch is worth it. Too little work — or only one
// unit to shard — runs serially.
func shardRange(count, work int, rangeFn func(i0, i1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if work < matmulParallelThreshold || workers == 1 || count == 1 {
		rangeFn(0, count)
		return
	}
	if workers > count {
		workers = count
	}
	var wg sync.WaitGroup
	chunk := (count + workers - 1) / workers
	for w := 0; w < workers; w++ {
		i0 := w * chunk
		i1 := i0 + chunk
		if i1 > count {
			i1 = count
		}
		if i0 >= i1 {
			break
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			rangeFn(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}

// matmulRows computes output rows [i0,i1) of one matmul with direct
// (unpacked) index arithmetic — the small-product path, also reused by
// BatchMatMul. dst rows are accumulated into and must start zeroed.
func matmulRows[T float](dst, a, b []T, i0, i1, k, n, lda, ldb int, ta, tb bool) {
	switch {
	case !ta && !tb:
		// Hot path: iterate k in the outer position so that the
		// inner loop streams both B and the output row.
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			drow := dst[i*n : i*n+n]
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b[p*ldb : p*ldb+n]
				for j := 0; j < n; j++ {
					drow[j] += av * brow[j]
				}
			}
		}
	case !ta && tb:
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			drow := dst[i*n : i*n+n]
			for j := 0; j < n; j++ {
				brow := b[j*ldb : j*ldb+k]
				var acc T
				for p := 0; p < k; p++ {
					acc += arow[p] * brow[p]
				}
				drow[j] = acc
			}
		}
	default:
		for i := i0; i < i1; i++ {
			drow := dst[i*n : i*n+n]
			for p := 0; p < k; p++ {
				av := a[p*lda+i] // ta is true in both remaining cases
				if av == 0 {
					continue
				}
				if tb {
					for j := 0; j < n; j++ {
						drow[j] += av * b[j*ldb+p]
					}
				} else {
					brow := b[p*ldb : p*ldb+n]
					for j := 0; j < n; j++ {
						drow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

func matmul[T float](dst, a, b []T, m, k, n, lda, ldb int, ta, tb bool, bias []T, relu bool) {
	if usePacked(m, k, n) {
		matmulPacked(dst, a, b, m, k, n, lda, ldb, ta, tb, bias, relu)
		return
	}
	clear(dst[:m*n])
	shardRange(m, m*n, func(i0, i1 int) {
		matmulRows(dst, a, b, i0, i1, k, n, lda, ldb, ta, tb)
	})
	epilogue(dst, m, n, bias, relu)
}

// epilogue applies bias/ReLU in place for the unpacked path (the packed
// path folds both into its write-out loop).
func epilogue[T float](dst []T, m, n int, bias []T, relu bool) {
	if bias == nil && !relu {
		return
	}
	for i := 0; i < m; i++ {
		drow := dst[i*n : i*n+n]
		if bias != nil {
			for j := range drow {
				drow[j] += bias[j]
			}
		}
		if relu {
			for j := range drow {
				if drow[j] < 0 {
					drow[j] = 0
				}
			}
		}
	}
}

// matmulPacked is the cache-blocked kernel: op(A) is made row-contiguous
// once (a copy only when A is transposed), op(B) is packed one packPanel-
// wide column panel at a time, and each panel is consumed by all m rows
// before the next is packed — the panel is written once and read m times,
// which is what makes the repack pay for itself.
func matmulPacked[T float](dst, a, b []T, m, k, n, lda, ldb int, ta, tb bool, bias []T, relu bool) {
	ar, ldar := a, lda
	if ta {
		ar = make([]T, m*k)
		for p := 0; p < k; p++ {
			src := a[p*lda : p*lda+m]
			for i, v := range src {
				ar[i*k+p] = v
			}
		}
		ldar = k
	}
	panel := make([]T, packPanel*k)
	for jc := 0; jc < n; jc += packPanel {
		jw := n - jc
		if jw > packPanel {
			jw = packPanel
		}
		// panel[j*k+p] = op(B)[p][jc+j]
		if tb {
			for j := 0; j < jw; j++ {
				copy(panel[j*k:j*k+k], b[(jc+j)*ldb:(jc+j)*ldb+k])
			}
		} else {
			for p := 0; p < k; p++ {
				brow := b[p*ldb+jc : p*ldb+jc+jw]
				for j, v := range brow {
					panel[j*k+p] = v
				}
			}
		}
		shardRange(m, m*jw, func(i0, i1 int) {
			packedRows(dst, ar, panel, i0, i1, k, n, ldar, jc, jw, bias, relu)
		})
	}
}

// packedRows computes rows [i0,i1) of one packed column panel, with bias
// and ReLU applied as each output is written.
func packedRows[T float](dst, ar, panel []T, i0, i1, k, n, ldar, jc, jw int, bias []T, relu bool) {
	// 1-row × 4-column register block: four independent dot-product
	// accumulators per A row, so the inner loop issues fused multiply-adds
	// with no store. (A 2-row variant was measured slower: eight
	// accumulators spill on amd64.)
	for i := i0; i < i1; i++ {
		arow := ar[i*ldar : i*ldar+k]
		drow := dst[i*n+jc : i*n+jc+jw]
		j := 0
		for ; j+3 < jw; j += 4 {
			b0 := panel[(j+0)*k : (j+0)*k+k]
			b1 := panel[(j+1)*k : (j+1)*k+k]
			b2 := panel[(j+2)*k : (j+2)*k+k]
			b3 := panel[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 T
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			if bias != nil {
				s0 += bias[jc+j]
				s1 += bias[jc+j+1]
				s2 += bias[jc+j+2]
				s3 += bias[jc+j+3]
			}
			if relu {
				s0, s1, s2, s3 = reluOf(s0), reluOf(s1), reluOf(s2), reluOf(s3)
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < jw; j++ {
			bcol := panel[j*k : j*k+k]
			var s T
			for p, av := range arow {
				s += av * bcol[p]
			}
			if bias != nil {
				s += bias[jc+j]
			}
			if relu {
				s = reluOf(s)
			}
			drow[j] = s
		}
	}
}

func reluOf[T float](v T) T {
	if v < 0 {
		return 0
	}
	return v
}

// BatchMatMul multiplies two rank-3 tensors batch-wise: [b,m,k] x [b,k,n] →
// [b,m,n]. Batches are independent, so the work is sharded across
// goroutines at the batch level; each batch runs the serial per-matrix
// kernel, avoiding nested fan-out.
func BatchMatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 3 || b.Rank() != 3 {
		return nil, fmt.Errorf("tensor: BatchMatMul needs rank-3 inputs, got %v and %v", a.shape, b.shape)
	}
	if a.shape[0] != b.shape[0] || a.shape[2] != b.shape[1] {
		return nil, fmt.Errorf("tensor: BatchMatMul shape mismatch %v x %v", a.shape, b.shape)
	}
	if a.dtype != b.dtype || !a.dtype.IsFloat() {
		return nil, fmt.Errorf("tensor: BatchMatMul needs matching float dtypes")
	}
	batch, m, k, n := a.shape[0], a.shape[1], a.shape[2], b.shape[2]
	out := New(a.dtype, Shape{batch, m, n})
	if a.dtype == Float32 {
		batchMatMul(floats[float32](out), floats[float32](a), floats[float32](b), batch, m, k, n)
	} else {
		batchMatMul(floats[float64](out), floats[float64](a), floats[float64](b), batch, m, k, n)
	}
	return out, nil
}

func batchMatMul[T float](out, a, b []T, batch, m, k, n int) {
	shardRange(batch, batch*m*n, func(b0, b1 int) {
		for i := b0; i < b1; i++ {
			matmulRows(out[i*m*n:(i+1)*m*n], a[i*m*k:(i+1)*m*k], b[i*k*n:(i+1)*k*n],
				0, m, k, n, k, n, false, false)
		}
	})
}
