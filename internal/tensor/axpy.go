package tensor

// Axpy computes c[j] += a*b[j] for every j < len(c). It and the kernel
// it wraps, axpy, are the single row-accumulate primitive under MatMul,
// MatMulTransA, AxpyInPlace and the CSR SpMM rows in internal/sparse.
// b must hold at least len(c) elements; the reslice turns a short b
// into a bounds panic instead of a read past its end in the kernel.
//
// Every element is one multiply rounded to float64, then one add
// rounded to float64, so the SSE2 kernel and the scalar loop
// axpyGeneric produce the same bits (see DESIGN.md §4, decision 11).
func Axpy(c []float64, a float64, b []float64) {
	axpy(c, a, b[:len(c)])
}

// axpyGeneric is the portable scalar loop: the implementation of axpy
// on every GOARCH except amd64 and in race-detector builds, and the
// oracle the kernel tests compare the amd64 assembly against bit for
// bit.
func axpyGeneric(c []float64, a float64, b []float64) {
	for j := range c {
		c[j] += a * b[j]
	}
}
