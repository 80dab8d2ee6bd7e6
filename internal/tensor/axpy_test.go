package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// specials are the operand values whose bits a reordered or fused
// kernel would change: signed zeros, infinities, NaNs with distinct
// payloads, subnormals and values whose product overflows.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000abc),
	math.Float64frombits(0xfff0000000000001), // signalling NaN, sign set
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 1e-300, 3, 0.1,
}

// valueFromByte decodes one fuzz byte into a matrix element: the
// specials table for small bytes, a small dyadic value otherwise.
func valueFromByte(v byte) float64 {
	if int(v) < len(specials) {
		return specials[v]
	}
	return float64(int8(v)) / 7
}

// refMatMul is the scalar ikj kernel MatMul ran before the assembly
// row update: zero-skip, first product stored, later ones accumulated
// in k order.
func refMatMul(a, b *Dense) *Dense {
	dst := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		crow := dst.Row(i)
		first := true
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			if first {
				for j, bv := range b.Row(k) {
					crow[j] = av * bv
				}
				first = false
				continue
			}
			axpyGeneric(crow, av, b.Row(k))
		}
	}
	return dst
}

// refMatMulTransA is the scalar aᵀ·b kernel: rows of dst accumulated
// from zero in i order, skipping zero entries of a.
func refMatMulTransA(a, b *Dense) *Dense {
	dst := NewDense(a.Cols, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			axpyGeneric(dst.Row(k), av, b.Row(i))
		}
	}
	return dst
}

// sameBits reports the first index where got and want differ in bits.
// Every non-NaN value must match exactly, signed zeros and infinities
// included; a NaN must meet a NaN, but its payload and sign are not
// compared. Go does not define which operand's payload a NaN-meets-NaN
// add or multiply keeps, and the compiler picks the operand roles per
// inlining site: the same scalar loop inlined into two functions keeps
// different payloads, so payload equality is not a property the scalar
// kernel has either.
func sameBits(got, want []float64) (int, bool) {
	for i := range want {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return -1, true
}

// randSpecialDense fills a rows×cols matrix with normal draws, about one
// in five of them exact zeros; withSpecials also draws about one element
// in four from specials.
func randSpecialDense(rng *rand.Rand, rows, cols int, withSpecials bool) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		switch {
		case withSpecials && rng.Intn(4) == 0:
			d.Data[i] = specials[rng.Intn(len(specials))]
		case rng.Intn(5) == 0:
			d.Data[i] = 0
		default:
			d.Data[i] = rng.NormFloat64()
		}
	}
	return d
}

// TestAxpyMatchesGeneric compares the kernel with the scalar loop bit for
// bit at every width up to 130, at every 8-byte misalignment of c and b
// within their backing arrays, and checks that nothing outside c moves.
func TestAxpyMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 130; n++ {
		for off := 0; off < 4; off++ {
			for _, withSpecials := range []bool{false, true} {
				base := randSpecialDense(rng, 1, n+8, withSpecials).Data
				b := randSpecialDense(rng, 1, n+8, withSpecials).Data[off+1 : off+1+n]
				want := append([]float64(nil), base...)
				got := append([]float64(nil), base...)
				a := rng.NormFloat64()
				if withSpecials && rng.Intn(2) == 0 {
					a = specials[rng.Intn(len(specials))]
				}
				axpyGeneric(want[off:off+n], a, b)
				axpy(got[off:off+n], a, b)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d off=%d a=%v: element %d = %x, want %x",
						n, off, a, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestAxpySignedZerosAndNaNs pins the cases where IEEE special rules
// decide the result: -0 + -0 stays -0, +0 + -0 is +0, Inf - Inf and
// 0 · Inf are NaN, an overflowing product is Inf, and NaN operands on
// either side give NaN, at widths that exercise every kernel tail.
func TestAxpySignedZerosAndNaNs(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000abc)
	nanB := math.Float64frombits(0x7ff8000000000def)
	for _, n := range []int{1, 2, 3, 8, 9, 17} {
		for _, tc := range []struct {
			c, a, b float64
		}{
			{negZero, 1, negZero}, {0, 1, negZero}, {negZero, -1, 0},
			{negZero, negZero, 5}, {nanA, 2, nanB}, {nanA, nanB, 1},
			{1, nanA, nanB}, {math.Inf(1), -1, math.Inf(1)},
			{1, 0, math.Inf(1)}, {1, math.MaxFloat64, 2},
		} {
			want := make([]float64, n)
			got := make([]float64, n)
			b := make([]float64, n)
			for j := range want {
				want[j], got[j], b[j] = tc.c, tc.c, tc.b
			}
			axpyGeneric(want, tc.a, b)
			Axpy(got, tc.a, b)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("n=%d c=%v a=%v b=%v: element %d = %x, want %x", n, tc.c, tc.a, tc.b,
					i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestAxpyShortBPanics pins the bounds check that keeps the kernel from
// reading past the end of b.
func TestAxpyShortBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy with len(b) < len(c) should panic")
		}
	}()
	Axpy(make([]float64, 16), 1, make([]float64, 15))
}

// checkMatMul compares MatMul with the scalar kernel bit for bit. dst
// starts poisoned, so every element must be written.
func checkMatMul(t *testing.T, a, b *Dense) {
	t.Helper()
	got := NewDense(a.Rows, b.Cols)
	for i := range got.Data {
		got.Data[i] = math.NaN()
	}
	MatMul(got, a, b)
	if i, ok := sameBits(got.Data, refMatMul(a, b).Data); !ok {
		t.Fatalf("MatMul (%d×%d)·(%d×%d): element %d differs from the scalar kernel",
			a.Rows, a.Cols, b.Rows, b.Cols, i)
	}
}

// checkMatMulTransA is checkMatMul for aᵀ·b.
func checkMatMulTransA(t *testing.T, a, b *Dense) {
	t.Helper()
	got := NewDense(a.Cols, b.Cols)
	for i := range got.Data {
		got.Data[i] = math.NaN()
	}
	MatMulTransA(got, a, b)
	if i, ok := sameBits(got.Data, refMatMulTransA(a, b).Data); !ok {
		t.Fatalf("MatMulTransA (%d×%d)ᵀ·(%d×%d): element %d differs from the scalar kernel",
			a.Rows, a.Cols, b.Rows, b.Cols, i)
	}
}

// TestMatMulBitIdenticalToScalar covers output widths 1–130 (so every
// kernel tail, and the 2-column logits shape), all-zero rows of a (the
// overwrite path), and specials on both sides.
func TestMatMulBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 1; n <= 130; n++ {
		for _, withSpecials := range []bool{false, true} {
			m, k := 1+rng.Intn(6), 1+rng.Intn(9)
			a := randSpecialDense(rng, m, k, withSpecials)
			copy(a.Row(rng.Intn(m)), make([]float64, k)) // one all-zero row
			b := randSpecialDense(rng, k, n, withSpecials)
			checkMatMul(t, a, b)
			checkMatMulTransA(t, a, randSpecialDense(rng, m, n, withSpecials))
		}
	}
}

// TestMatMulNegativeZeroFirstProduct pins the first-product store: a row
// whose only nonzero product is -0 must stay -0, which zero-initialising
// and accumulating would turn into +0.
func TestMatMulNegativeZeroFirstProduct(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 8, 9, 16} {
		a := FromRows([][]float64{{0, -1}})
		b := NewDense(2, n)
		for j := range b.Row(1) {
			b.Row(1)[j] = 0 // -1 · +0 = -0
		}
		dst := NewDense(1, n)
		MatMul(dst, a, b)
		for j, v := range dst.Data {
			if math.Float64bits(v) != math.Float64bits(negZero) {
				t.Fatalf("width %d: element %d = %v, want -0", n, j, v)
			}
		}
	}
}

// TestMatMulAliasingPanics pins the overlap guard on all three products:
// a dst sharing storage with either operand, wholly or in part, panics
// with a message naming the product.
func TestMatMulAliasingPanics(t *testing.T) {
	backing := make([]float64, 64)
	view := func(off, rows, cols int) *Dense {
		return &Dense{Rows: rows, Cols: cols, Data: backing[off : off+rows*cols]}
	}
	other := NewDense(4, 4)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"MatMul", func() { MatMul(view(0, 4, 4), view(0, 4, 4), other) }},
		{"MatMul", func() { MatMul(view(0, 4, 4), other, view(12, 4, 4)) }},
		{"MatMulTransA", func() { MatMulTransA(view(0, 4, 4), view(15, 4, 4), other) }},
		{"MatMulTransB", func() { MatMulTransB(view(16, 4, 4), other, view(20, 4, 4)) }},
	} {
		func() {
			defer func() {
				want := "tensor: " + tc.name + " dst overlaps an operand"
				r := recover()
				if msg, _ := r.(string); msg != want {
					t.Errorf("%s: recovered %v, want panic %q", tc.name, r, want)
				}
			}()
			tc.f()
		}()
	}
	// Adjacent but disjoint views of one backing array are fine.
	MatMul(view(0, 4, 4), view(16, 4, 4), view(32, 4, 4))
	MatMulTransA(view(0, 4, 4), view(16, 4, 4), view(32, 4, 4))
	MatMulTransB(view(0, 4, 4), view(16, 4, 4), view(32, 4, 4))
}

// FuzzMatMul decodes a shape and elements (specials included) from the
// input and holds MatMul and MatMulTransA bitwise to the scalar kernels,
// and the row kernel to axpyGeneric at an offset into c.
func FuzzMatMul(f *testing.F) {
	f.Add([]byte{2, 3, 9, 1, 0, 200, 17, 5, 6, 7, 8, 2, 30, 40, 90, 100, 120, 128, 250})
	f.Add([]byte{1, 1, 130, 3, 1, 4, 6, 7})
	f.Add([]byte{3, 2, 16, 0, 1, 0, 1, 1, 0, 255, 254, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m, k, n := 1+int(data[0]%8), 1+int(data[1]%8), 1+int(data[2]%130)
		vals := data[3:]
		at := 0
		next := func() float64 {
			v := valueFromByte(vals[at%len(vals)] + byte(at/len(vals)))
			at++
			return v
		}
		fill := func(d *Dense) *Dense {
			for i := range d.Data {
				d.Data[i] = next()
			}
			return d
		}
		a, b := fill(NewDense(m, k)), fill(NewDense(k, n))
		checkMatMul(t, a, b)
		checkMatMulTransA(t, a, fill(NewDense(m, n)))
		off := int(data[0] % 3)
		c := fill(NewDense(1, n+off)).Data
		want := append([]float64(nil), c...)
		alpha := next()
		axpy(c[off:], alpha, b.Row(0)[:n])
		axpyGeneric(want[off:], alpha, b.Row(0)[:n])
		if i, ok := sameBits(c, want); !ok {
			t.Fatalf("axpy width %d off %d: element %d differs", n, off, i)
		}
	})
}
