package tensor

import (
	"math/bits"
	"sync"

	"repro/internal/obs"
)

// Pooled scratch buffers. The incremental OPI loop and the serving stack
// run gather→forward→scatter thousands of times per design; allocating
// dense scratch per call keeps the GC hot and the caches cold. The pools
// below hand out size-classed (power-of-two element count) matrices so a
// buffer released at one shape is reusable at any smaller shape, and
// growth pays at most one reallocation per doubling.
//
// Contract: GetDense returns a matrix whose contents are UNSPECIFIED —
// call Zero (or fully overwrite) before reading. PutDense transfers
// ownership back; the caller must not retain the matrix or views of its
// Data.
// All functions are safe for concurrent use (sync.Pool-backed).

// Pool metrics (no-ops until obs.Enable; see docs/OBSERVABILITY.md).
var (
	poolGets   = obs.GetCounter("pool.gets")
	poolPuts   = obs.GetCounter("pool.puts")
	poolMisses = obs.GetCounter("pool.misses")
)

// poolClasses bounds the size classes at 2^(poolClasses-1) elements per
// buffer (≈1 GiB of float64), far above any graph this repo handles.
const poolClasses = 28

var densePools [poolClasses]sync.Pool

// sizeClass returns the smallest c with 1<<c >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GetDense returns a rows×cols float64 matrix backed by pooled storage.
// Contents are unspecified. Release with PutDense.
func GetDense(rows, cols int) *Dense {
	poolGets.Inc()
	n := rows * cols
	c := sizeClass(n)
	if c >= poolClasses {
		poolMisses.Inc()
		return NewDense(rows, cols)
	}
	d, _ := densePools[c].Get().(*Dense)
	if d == nil {
		poolMisses.Inc()
		d = &Dense{Data: make([]float64, 1<<c)}
	}
	d.Rows, d.Cols = rows, cols
	d.Data = d.Data[:n]
	return d
}

// PutDense returns a matrix obtained from GetDense to the pool.
// Matrices allocated elsewhere are accepted too (their capacity decides
// the class). nil and zero-capacity matrices are ignored.
func PutDense(d *Dense) {
	if d == nil || cap(d.Data) == 0 {
		return
	}
	// Floor class: every Get from class c needs at most 1<<c elements,
	// which cap >= 1<<c satisfies.
	c := bits.Len(uint(cap(d.Data))) - 1
	if c >= poolClasses {
		return
	}
	poolPuts.Inc()
	d.Data = d.Data[:cap(d.Data)]
	d.Rows, d.Cols = 0, 0
	densePools[c].Put(d)
}
