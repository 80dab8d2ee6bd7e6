package tensor

import (
	"sync"
	"testing"
)

// TestPoolReuse checks the size-class round trip: a returned buffer is
// handed out again for any request that fits its class.
func TestPoolReuse(t *testing.T) {
	d := GetDense(10, 10) // class for 100 -> 128
	buf := &d.Data[:1][0]
	PutDense(d)
	e := GetDense(11, 11) // 121 <= 128: same class, should reuse
	if e.Rows != 11 || e.Cols != 11 || len(e.Data) != 121 {
		t.Fatalf("GetDense shape wrong: %d×%d len %d", e.Rows, e.Cols, len(e.Data))
	}
	if &e.Data[:1][0] != buf {
		t.Skip("sync.Pool dropped the buffer (GC); nothing to assert")
	}
	PutDense(e)
}

// TestPoolZeroAndHuge covers the degenerate classes: zero-element
// requests, oversized requests that bypass the pool, and nil puts.
func TestPoolZeroAndHuge(t *testing.T) {
	z := GetDense(0, 5)
	if len(z.Data) != 0 {
		t.Fatal("zero-element GetDense should have empty data")
	}
	PutDense(z) // zero-capacity: ignored
	PutDense(nil)
	if sizeClass(1) != 0 || sizeClass(2) != 1 || sizeClass(3) != 2 || sizeClass(1<<20) != 20 {
		t.Fatal("sizeClass wrong")
	}
}

// TestPoolConcurrent hammers the pools from many goroutines under the
// race detector; each goroutine checks it can fully own its buffer.
func TestPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := GetDense(16, 8)
				for j := range d.Data {
					d.Data[j] = float64(g)
				}
				for _, v := range d.Data {
					if v != float64(g) {
						t.Errorf("buffer shared across goroutines")
						return
					}
				}
				PutDense(d)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkPooledGetPut measures the steady-state pooled path; with a
// warm pool it must not allocate.
func BenchmarkPooledGetPut(b *testing.B) {
	PutDense(GetDense(256, 64)) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := GetDense(256, 64)
		PutDense(d)
	}
}
