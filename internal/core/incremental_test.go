package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestIncrementalMatchesFullAfterMutations(t *testing.T) {
	g := testGraph(101, 400)
	m := MustNewModel(tinyConfig(7))
	st := m.ForwardFull(g)

	// Baseline agreement.
	full := m.Predict(g)
	for v := range full {
		if math.Abs(st.Probs[v]-full[v]) > 1e-12 {
			t.Fatalf("initial state disagrees at %d", v)
		}
	}

	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 6; step++ {
		var dirty []int32
		if step%2 == 0 {
			// Attribute refresh of a random region.
			for k := 0; k < 5; k++ {
				v := int32(rng.Intn(g.N))
				g.SetAttributes(v, float64(rng.Intn(30)), float64(1+rng.Intn(9)),
					float64(1+rng.Intn(9)), float64(rng.Intn(50)))
				dirty = append(dirty, v)
			}
		} else {
			// Observation point insertion (graph grows).
			target := int32(rng.Intn(g.N))
			for g.N > 0 && !insertableForTest(g, target) {
				target = int32(rng.Intn(g.N))
			}
			g.AddObservationPoint(target)
		}
		m.UpdateIncremental(st, g, dirty)

		want := m.Predict(g)
		for v := range want {
			if math.Float64bits(st.Probs[v]) != math.Float64bits(want[v]) {
				t.Fatalf("step %d: node %d incremental %v full %v", step, v, st.Probs[v], want[v])
			}
		}
	}
}

// insertableForTest avoids double-observing the same node (AddObservationPoint
// allows it on the graph side, but variety is better for the test).
func insertableForTest(g *Graph, v int32) bool {
	for _, s := range g.SuccList(v) {
		if int(s) >= g.N {
			return false
		}
	}
	return true
}

func TestIncrementalNoDirtyIsNoOp(t *testing.T) {
	g := testGraph(102, 200)
	m := MustNewModel(tinyConfig(8))
	st := m.ForwardFull(g)
	before := append([]float64(nil), st.Probs...)
	m.UpdateIncremental(st, g, nil)
	for v := range before {
		if st.Probs[v] != before[v] {
			t.Fatalf("no-op update changed node %d", v)
		}
	}
}

func TestIncrementalStateIsolatedFromGraphEdits(t *testing.T) {
	// Editing g.X without declaring the node dirty must not corrupt the
	// cached E0 (the state copies X).
	g := testGraph(103, 150)
	m := MustNewModel(tinyConfig(9))
	st := m.ForwardFull(g)
	g.X.Set(0, 0, 99)
	m.UpdateIncremental(st, g, []int32{5}) // dirty set excludes node 0
	// Now declare it dirty; only then the edit lands.
	m.UpdateIncremental(st, g, []int32{0})
	want := m.Predict(g)
	if math.Float64bits(st.Probs[0]) != math.Float64bits(want[0]) {
		t.Errorf("node 0 after explicit dirty: %v want %v", st.Probs[0], want[0])
	}
}

func BenchmarkIncrementalUpdateOneInsertion(b *testing.B) {
	g := testGraph(104, 5000)
	m := MustNewModel(DefaultConfig())
	st := m.ForwardFull(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := int32(i % (g.N / 2))
		g.AddObservationPoint(target)
		m.UpdateIncremental(st, g, nil)
	}
}

func BenchmarkFullForwardPerInsertion(b *testing.B) {
	g := testGraph(104, 5000)
	m := MustNewModel(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := int32(i % (g.N / 2))
		g.AddObservationPoint(target)
		m.Forward(g)
	}
}
