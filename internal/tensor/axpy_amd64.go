//go:build amd64 && !race

package tensor

// axpy computes c[j] += a*b[j] for j < len(c) two lanes at a time with
// SSE2 MULPD/ADDPD (axpy_amd64.s). SSE2 is part of the amd64 baseline,
// so no CPU detection is needed. The caller guarantees len(b) >= len(c).
// Race-detector builds use axpyGeneric instead (axpy_other.go): the
// detector does not instrument assembly, and this kernel writes the
// pooled and band-shared buffers that the race tests check.
//
//go:noescape
func axpy(c []float64, a float64, b []float64)
