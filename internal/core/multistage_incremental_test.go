package core

import (
	"math"
	"math/rand"
	"testing"
)

// testCascade builds an untrained two-stage cascade; parameter values are
// random but deterministic, which is all parity testing needs.
func testCascade(seed int64) *MultiStage {
	return &MultiStage{
		Stages: []*Model{
			MustNewModel(tinyConfig(seed)),
			MustNewModel(tinyConfig(seed + 31)),
		},
		FilterBelow: 0.25,
	}
}

func TestMultiStageIncrementalMatchesFullAfterMutations(t *testing.T) {
	g := testGraph(201, 400)
	ms := testCascade(11)
	st := ms.ForwardFull(g)

	// Baseline agreement with the from-scratch cascade.
	full := ms.PredictProbs(g)
	for v := range full {
		if math.Abs(st.Probs[v]-full[v]) > 1e-12 {
			t.Fatalf("initial cascade state disagrees at %d", v)
		}
	}

	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 6; step++ {
		var dirty []int32
		if step%2 == 0 {
			// Attribute refresh of a random region (the cone refresh the
			// insertion flow performs).
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
		ms.UpdateIncremental(st, g, dirty)

		want := ms.PredictProbs(g)
		for v := range want {
			if math.Float64bits(st.Probs[v]) != math.Float64bits(want[v]) {
				t.Fatalf("step %d: node %d cascade incremental %v full %v",
					step, v, st.Probs[v], want[v])
			}
		}
		if len(st.Probs) != g.N {
			t.Fatalf("step %d: state tracks %d nodes, graph has %d", step, len(st.Probs), g.N)
		}
	}
}

func TestMultiStageIncrementalSingleStage(t *testing.T) {
	// A one-stage cascade must behave exactly like its model.
	g := testGraph(202, 200)
	ms := &MultiStage{Stages: []*Model{MustNewModel(tinyConfig(3))}, FilterBelow: 0.25}
	st := ms.ForwardFull(g)
	g.AddObservationPoint(7)
	ms.UpdateIncremental(st, g, nil)
	want := ms.Stages[0].Predict(g)
	for v := range want {
		if math.Float64bits(st.Probs[v]) != math.Float64bits(want[v]) {
			t.Fatalf("node %d: %v want %v", v, st.Probs[v], want[v])
		}
	}
}

func TestMultiStageNewIncrementalRun(t *testing.T) {
	// The IncrementalRun capability surface used by the insertion flow.
	g := testGraph(203, 150)
	var ip IncrementalPredictor = testCascade(17)
	run := ip.NewIncremental(g)
	g.SetAttributes(3, 4, 2, 2, 9)
	run.Update(g, []int32{3})
	want := ip.PredictProbs(g)
	probs := run.Probs()
	for v := range want {
		if math.Float64bits(probs[v]) != math.Float64bits(want[v]) {
			t.Fatalf("node %d: run %v full %v", v, probs[v], want[v])
		}
	}
}
