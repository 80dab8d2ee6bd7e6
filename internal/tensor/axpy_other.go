//go:build !amd64 || race

package tensor

// axpy is the scalar loop on architectures without an assembly kernel,
// and in race-detector builds, where the detector must see every write.
func axpy(c []float64, a float64, b []float64) { axpyGeneric(c, a, b) }
