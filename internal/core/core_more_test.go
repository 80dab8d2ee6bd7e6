package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestForwardDeterministicAcrossCalls pins that inference buffer reuse
// does not leak state between calls.
func TestForwardDeterministicAcrossCalls(t *testing.T) {
	g := testGraph(71, 250)
	m := MustNewModel(tinyConfig(2))
	a := m.Forward(g).Clone()
	for i := 0; i < 3; i++ {
		b := m.Forward(g)
		if diff := tensor.MaxAbsDiff(a, b); diff != 0 {
			t.Fatalf("call %d differs by %g", i, diff)
		}
	}
}

// TestForwardAcrossDifferentGraphSizes exercises scratch reallocation
// when the same model serves graphs of different sizes (the insertion
// flow grows the graph every iteration).
func TestForwardAcrossDifferentGraphSizes(t *testing.T) {
	m := MustNewModel(tinyConfig(3))
	g1 := testGraph(72, 150)
	g2 := testGraph(73, 300)
	a1 := m.Forward(g1).Clone()
	_ = m.Forward(g2)
	b1 := m.Forward(g1)
	if diff := tensor.MaxAbsDiff(a1, b1); diff != 0 {
		t.Fatalf("re-forward after size change differs by %g", diff)
	}
}

// TestForwardWarmAllocs pins the allocation count of a warm inference
// pass: the per-layer scratch is reused, so what remains is the
// forwardCache bookkeeping (the struct plus the embeds slice growing to
// D+1 entries). AllocsPerRun runs at GOMAXPROCS 1, so the SpMMs take
// their serial path and the count does not depend on the host.
func TestForwardWarmAllocs(t *testing.T) {
	g := testGraph(74, 300)
	m := MustNewModel(DefaultConfig())
	m.Forward(g)
	if n := testing.AllocsPerRun(20, func() { m.Forward(g) }); n > 4 {
		t.Fatalf("warm Forward made %v allocations, want at most 4", n)
	}
}

func TestForwardAfterObservationPoint(t *testing.T) {
	g := testGraph(74, 200)
	m := MustNewModel(tinyConfig(4))
	before := m.Predict(g)
	target := int32(g.N / 2)
	g.AddObservationPoint(target)
	after := m.Predict(g)
	if len(after) != len(before)+1 {
		t.Fatalf("prediction length %d, want %d", len(after), len(before)+1)
	}
	// Nodes far from the insertion (outside its D-hop neighborhood)
	// should be unaffected; check node 0 which is a PI.
	if math.Abs(after[0]-before[0]) > 1e-9 {
		// Node 0 may legitimately be within D hops via successors; only
		// fail when the value changed wildly.
		if math.Abs(after[0]-before[0]) > 0.5 {
			t.Errorf("distant node prediction jumped: %v -> %v", before[0], after[0])
		}
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	g := testGraph(75, 120)
	c := g.Clone()
	c.AddObservationPoint(5)
	c.X.Set(0, 0, 123)
	c.Labels[1] = 1 - c.Labels[1]
	if g.N == c.N {
		t.Error("clone insertion affected source size")
	}
	if g.X.At(0, 0) == 123 {
		t.Error("clone attribute write affected source")
	}
}

func TestEmbeddingsShape(t *testing.T) {
	g := testGraph(76, 100)
	cfg := tinyConfig(5)
	m := MustNewModel(cfg)
	e := m.Embeddings(g)
	if e.Rows != g.N || e.Cols != cfg.Dims[len(cfg.Dims)-1] {
		t.Fatalf("embeddings %d×%d", e.Rows, e.Cols)
	}
}

func TestMultiStageSaveLoadRoundTrip(t *testing.T) {
	graphs := []*Graph{testGraph(77, 250)}
	opt := DefaultMultiStageOptions()
	opt.ModelCfg = tinyConfig(6)
	opt.Train = TrainOptions{Epochs: 5, LR: 0.02, ClipNorm: 5}
	opt.NumStages = 2
	ms, err := TrainMultiStage(graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ms2, err := LoadMultiStage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms2.Stages) != len(ms.Stages) || ms2.FilterBelow != ms.FilterBelow {
		t.Fatalf("cascade metadata lost: %d stages, filter %v", len(ms2.Stages), ms2.FilterBelow)
	}
	g := testGraph(78, 250)
	a, b := ms.Predict(g), ms2.Predict(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs after reload", i)
		}
	}
}

func TestSaveEmptyCascadeFails(t *testing.T) {
	var buf bytes.Buffer
	if err := (&MultiStage{}).Save(&buf); err == nil {
		t.Error("saving an empty cascade should fail")
	}
}

func TestTrainErrors(t *testing.T) {
	m := MustNewModel(tinyConfig(7))
	if _, err := Train(m, nil, nil, TrainOptions{}); err == nil {
		t.Error("no graphs should fail")
	}
	g := testGraph(79, 50)
	if _, err := Train(m, []*Graph{g}, [][]int{{0, 1}}, TrainOptions{}); err == nil {
		t.Error("label length mismatch should fail")
	}
	if _, err := Train(m, []*Graph{g}, [][]int{nil, nil}, TrainOptions{}); err == nil {
		t.Error("label set count mismatch should fail")
	}
}

func TestAttributeVectorMonotone(t *testing.T) {
	a := AttributeVector(1, 2, 3, 4)
	b := AttributeVector(2, 4, 6, 8)
	for j := 0; j < InputDim; j++ {
		if b[j] <= a[j] {
			t.Errorf("attribute %d not monotone: %v vs %v", j, a[j], b[j])
		}
	}
	zero := AttributeVector(0, 0, 0, 0)
	for j, v := range zero {
		if v != 0 {
			t.Errorf("zero attribute %d = %v", j, v)
		}
	}
}

func TestPredictProbsInUnitRange(t *testing.T) {
	g := testGraph(80, 150)
	m := MustNewModel(tinyConfig(8))
	for _, p := range m.PredictProbs(g) {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func TestAddObservationPointOutOfRangePanics(t *testing.T) {
	g := testGraph(81, 50)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range target should panic")
		}
	}()
	g.AddObservationPoint(int32(g.N + 5))
}
