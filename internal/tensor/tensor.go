// Package tensor provides the dense linear algebra needed by the neural
// network layers: row-major float64 matrices with cache-friendly matrix
// multiplication (including the transposed variants used by
// backpropagation) and elementwise kernels.
//
// It replaces the GPU BLAS the paper relies on. Everything here is exact
// and deterministic, which keeps gradient checking and property-based
// tests straightforward. The one row-accumulate primitive, Axpy
// (c += a·b over a row), runs every MatMul and MatMulTransA row update,
// AxpyInPlace, and the CSR SpMM rows in internal/sparse. On amd64 it is
// an SSE2 assembly kernel (axpy_amd64.s) that issues the same rounded
// multiply, then rounded add, per element as the scalar loop
// axpyGeneric, so its results are bit-identical; every other
// architecture, and every race-detector build, runs axpyGeneric itself.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"
)

// Dense is a row-major matrix. Data has length Rows*Cols and element
// (i,j) lives at Data[i*Cols+j].
type Dense struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// Data is the row-major backing array of length Rows*Cols.
	Data []float64
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %d×%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	d := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != d.Cols {
			panic(fmt.Sprintf("tensor: ragged row %d: %d != %d", i, len(r), d.Cols))
		}
		copy(d.Row(i), r)
	}
	return d
}

// At returns element (i,j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i,j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// Row returns a mutable view of row i.
func (d *Dense) Row(i int) []float64 { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.Rows, d.Cols)
	copy(c.Data, d.Data)
	return c
}

// Zero sets every element to 0.
func (d *Dense) Zero() {
	for i := range d.Data {
		d.Data[i] = 0
	}
}

// CopyFrom copies src into d; shapes must match.
func (d *Dense) CopyFrom(src *Dense) {
	if d.Rows != src.Rows || d.Cols != src.Cols {
		panic("tensor: CopyFrom shape mismatch")
	}
	copy(d.Data, src.Data)
}

// AddInPlace adds o elementwise into d.
func (d *Dense) AddInPlace(o *Dense) {
	if d.Rows != o.Rows || d.Cols != o.Cols {
		panic("tensor: AddInPlace shape mismatch")
	}
	for i, v := range o.Data {
		d.Data[i] += v
	}
}

// AxpyInPlace adds alpha*o elementwise into d.
func (d *Dense) AxpyInPlace(alpha float64, o *Dense) {
	if d.Rows != o.Rows || d.Cols != o.Cols {
		panic("tensor: AxpyInPlace shape mismatch")
	}
	Axpy(d.Data, alpha, o.Data)
}

// Scale multiplies every element by alpha.
func (d *Dense) Scale(alpha float64) {
	for i := range d.Data {
		d.Data[i] *= alpha
	}
}

// Dot returns the Frobenius inner product <d, o>.
func (d *Dense) Dot(o *Dense) float64 {
	if d.Rows != o.Rows || d.Cols != o.Cols {
		panic("tensor: Dot shape mismatch")
	}
	var s float64
	for i, v := range d.Data {
		s += v * o.Data[i]
	}
	return s
}

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and distinct from
// both operands; an overlapping dst panics. The kernel is the
// cache-friendly ikj ordering: each output row is a k-ascending sum of
// Axpy row updates, skipping zero entries of a (post-ReLU activations
// are sparse), with the first nonzero product stored rather than added
// to zero so a -0 product stays -0.
func MatMul(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%d×%d)·(%d×%d)->(%d×%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	checkNoAlias("MatMul", dst, a, b)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := dst.Row(i)
		first := true
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			if first {
				for j, bv := range brow {
					crow[j] = av * bv
				}
				first = false
				continue
			}
			axpy(crow, av, brow)
		}
		if first {
			for j := range crow {
				crow[j] = 0
			}
		}
	}
}

// MatMulTransB computes dst = a·bᵀ. dst must be a.Rows×b.Rows and
// distinct from both operands. Each element is a dot product; it stays
// a scalar loop, since splitting its sum across lanes would reorder it.
func MatMulTransB(dst, a, b *Dense) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulTransB shape mismatch")
	}
	checkNoAlias("MatMulTransB", dst, a, b)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			crow[j] = s
		}
	}
}

// MatMulTransA computes dst = aᵀ·b. dst must be a.Cols×b.Cols and
// distinct from both operands.
func MatMulTransA(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulTransA shape mismatch")
	}
	checkNoAlias("MatMulTransA", dst, a, b)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			axpy(dst.Row(k), av, brow)
		}
	}
}

// checkNoAlias panics when dst's storage overlaps either operand's. The
// products write dst while still reading a and b, so an overlap would
// silently corrupt the result instead of failing.
func checkNoAlias(op string, dst, a, b *Dense) {
	if overlaps(dst.Data, a.Data) || overlaps(dst.Data, b.Data) {
		panic("tensor: " + op + " dst overlaps an operand")
	}
}

// overlaps reports whether x and y share any element of storage.
func overlaps(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	const size = unsafe.Sizeof(float64(0))
	xs, ys := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return xs < ys+uintptr(len(y))*size && ys < xs+uintptr(len(x))*size
}

// AddRowVector adds vector v to every row of d (bias addition).
func (d *Dense) AddRowVector(v []float64) {
	if len(v) != d.Cols {
		panic("tensor: AddRowVector length mismatch")
	}
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// ReLUInPlace applies max(x,0) elementwise.
func (d *Dense) ReLUInPlace() {
	for i, v := range d.Data {
		if v < 0 {
			d.Data[i] = 0
		}
	}
}

// ReLUBackwardInPlace zeroes grad entries where the forward activation
// out was zero (the ReLU gradient mask).
func ReLUBackwardInPlace(grad, out *Dense) {
	if grad.Rows != out.Rows || grad.Cols != out.Cols {
		panic("tensor: ReLUBackward shape mismatch")
	}
	for i, v := range out.Data {
		if v <= 0 {
			grad.Data[i] = 0
		}
	}
}

// SoftmaxRowsInPlace turns every row into a softmax distribution using
// the max-subtraction trick for numerical stability.
func (d *Dense) SoftmaxRowsInPlace() {
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - max)
			row[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// ArgmaxRows returns the index of the maximum element in every row.
func (d *Dense) ArgmaxRows() []int {
	out := make([]int, d.Rows)
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// XavierInit fills d with Glorot-uniform values scaled by fan-in/fan-out,
// drawing from rng for determinism.
func (d *Dense) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(d.Rows+d.Cols))
	for i := range d.Data {
		d.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// two equally shaped matrices; used heavily in tests.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}
