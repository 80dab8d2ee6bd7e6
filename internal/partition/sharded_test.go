package partition

import (
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/core"
)

func smallModel(tb testing.TB, seed int64) *core.Model {
	tb.Helper()
	cfg := core.Config{Dims: []int{6, 8, 10}, FCDims: []int{8}, NumClasses: 2, Seed: seed}
	m, err := core.NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func smallCascade(tb testing.TB, seed int64) *core.MultiStage {
	tb.Helper()
	return &core.MultiStage{
		Stages:      []*core.Model{smallModel(tb, seed), smallModel(tb, seed+101)},
		FilterBelow: 0.25,
	}
}

func exactEqual(tb testing.TB, label string, want, got []float64) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			tb.Fatalf("%s: node %d: whole-graph %v vs sharded %v (bit-exact mismatch)",
				label, i, want[i], got[i])
		}
	}
}

// TestShardedBitIdentical: sharded PredictProbs must equal whole-graph
// PredictProbs with float64 == across strategies, modes and shard
// counts. The exhaustive 60-seed suite lives in internal/refcheck;
// this is the in-package smoke over the full option matrix.
func TestShardedBitIdentical(t *testing.T) {
	for _, cfg := range testConfigs() {
		g := genGraph(t, cfg)
		m := smallModel(t, 42)
		want := m.PredictProbs(g)
		for _, strat := range []Strategy{LevelBand, FanoutCone} {
			for _, mode := range []Mode{Exchange, OneShot} {
				for _, k := range []int{1, 3, 8} {
					sp, err := NewSharded(m, Options{K: k, Strategy: strat, Mode: mode, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					got := sp.PredictProbs(g)
					sp.Close()
					exactEqual(t, strat.String()+"/"+mode.String(), want, got)
				}
			}
		}
	}
}

func TestShardedMultiStageBitIdentical(t *testing.T) {
	g := genGraph(t, testConfigs()[1])
	ms := smallCascade(t, 7)
	want := ms.PredictProbs(g)
	for _, mode := range []Mode{Exchange, OneShot} {
		sp, err := NewSharded(ms, Options{K: 4, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		exactEqual(t, "multistage/"+mode.String(), want, sp.PredictProbs(g))
		sp.Close()
	}
}

// TestShardedIncremental: the stitched incremental state must be
// bit-identical to the one a whole-graph ForwardFull builds, and must
// keep tracking updates (here: an appended observation point) exactly
// like a session started unsharded.
func TestShardedIncremental(t *testing.T) {
	for _, base := range []core.IncrementalPredictor{smallModel(t, 5), smallCascade(t, 5)} {
		g := genGraph(t, testConfigs()[0])
		ref := core.ClonePredictor(base).NewIncremental(g)
		sp, err := NewSharded(base, Options{K: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		run := sp.NewIncremental(g)
		exactEqual(t, "initial probs", ref.Probs(), run.Probs())

		g.AddObservationPoint(int32(g.N / 2))
		ref.Update(g, nil)
		run.Update(g, nil)
		exactEqual(t, "post-insert probs", ref.Probs(), run.Probs())
		sp.Close()
	}
}

func TestShardedCompileCache(t *testing.T) {
	g := genGraph(t, testConfigs()[2])
	sp, err := NewSharded(smallModel(t, 3), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	sp.PredictProbs(g)
	first := sp.cg
	sp.PredictProbs(g)
	if sp.cg != first {
		t.Fatal("unchanged graph recompiled")
	}
	g.AddObservationPoint(0)
	sp.PredictProbs(g)
	if sp.cg == first {
		t.Fatal("grown graph not recompiled")
	}
	if sp.cg.n != g.N {
		t.Fatalf("recompiled for %d nodes, graph has %d", sp.cg.n, g.N)
	}
}

func TestShardedCloneAndClose(t *testing.T) {
	g := genGraph(t, testConfigs()[0])
	sp, err := NewSharded(smallModel(t, 11), Options{K: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := sp.PredictProbs(g)

	clone := core.ClonePredictor(sp)
	cp, ok := clone.(*ShardedPredictor)
	if !ok {
		t.Fatalf("ClonePredictor returned %T", clone)
	}
	if cp == sp || cp.Base() == sp.Base() {
		t.Fatal("clone shares state with the original")
	}
	exactEqual(t, "clone probs", want, cp.PredictProbs(g))
	cp.Close()

	// After Close the predictor still answers (inline execution).
	sp.Close()
	sp.Close() // idempotent
	exactEqual(t, "post-close probs", want, sp.PredictProbs(g))

	if sp.NumShards() != 3 || sp.Workers() != 2 {
		t.Fatalf("NumShards/Workers = %d/%d", sp.NumShards(), sp.Workers())
	}
}

func TestShardedPartitionAccessor(t *testing.T) {
	g := genGraph(t, testConfigs()[0])
	sp, err := NewSharded(smallModel(t, 1), Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	p := sp.Partition(g)
	if p.K != 5 || p.Halo != 3 {
		t.Fatalf("partition K=%d halo=%d, want 5/3 (model depth 3)", p.K, p.Halo)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

type fakePredictor struct{}

func (fakePredictor) PredictProbs(*core.Graph) []float64             { return nil }
func (fakePredictor) NewIncremental(*core.Graph) core.IncrementalRun { return nil }

func TestNewShardedErrors(t *testing.T) {
	m := smallModel(t, 2)
	if _, err := NewSharded(fakePredictor{}, Options{K: 2}); err == nil {
		t.Fatal("unsupported base accepted")
	}
	if _, err := NewSharded(&core.MultiStage{}, Options{K: 2}); err == nil {
		t.Fatal("empty cascade accepted")
	}
	if _, err := NewSharded(m, Options{K: 2, Halo: 1}); err == nil {
		t.Fatal("halo below receptive field accepted")
	}
	if _, err := NewSharded(m, Options{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewSharded(m, Options{K: 2, Halo: 5}); err != nil {
		t.Fatalf("halo above receptive field rejected: %v", err)
	}
}

// TestShardedTinyGraphs: graphs smaller than K, single-node graphs and
// an edgeless graph all stitch correctly.
func TestShardedTinyGraphs(t *testing.T) {
	m := smallModel(t, 9)
	tiny := genGraph(t, circuitgen.Config{Seed: 4, NumGates: 9, NumPIs: 3, Layers: 2, MaxFanin: 2})
	iso := core.NewGraph(4) // disconnected, attribute rows all zero
	for _, g := range []*core.Graph{tiny, iso} {
		want := m.PredictProbs(g)
		for _, mode := range []Mode{Exchange, OneShot} {
			sp, err := NewSharded(m, Options{K: 16, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			exactEqual(t, "tiny/"+mode.String(), want, sp.PredictProbs(g))
			sp.Close()
		}
	}
}
