// Package repro_test hosts the repository-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation
// (each delegating to internal/experiments in Quick mode), plus ablation
// benchmarks for the design decisions DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Full-size regeneration of the paper's numbers is cmd/experiments.
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"repro/internal/circuitgen"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/opi"
	"repro/internal/partition"
	"repro/internal/scoap"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

func quickCfg(i int) experiments.Config {
	return experiments.Config{Quick: true, Seed: int64(100 + i)}
}

// BenchmarkTable1DatasetGeneration regenerates the benchmark suite and
// its statistics (Table 1).
func BenchmarkTable1DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(quickCfg(i))
	}
}

// BenchmarkFig8TrainingDepth runs the search-depth study (Figure 8).
func BenchmarkFig8TrainingDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(quickCfg(i))
	}
}

// BenchmarkTable2Classifiers runs the balanced-set classifier comparison
// (Table 2): LR, RF, SVM, MLP on cone features vs. the GCN.
func BenchmarkTable2Classifiers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(quickCfg(i))
	}
}

// BenchmarkFig9MultiStage runs the imbalanced F1 comparison (Figure 9).
func BenchmarkFig9MultiStage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(quickCfg(i))
	}
}

// BenchmarkFig10MatrixInference times full-graph matrix inference at the
// Figure 10 mid-size point.
func BenchmarkFig10MatrixInference(b *testing.B) {
	n := circuitgen.Generate("f10m", circuitgen.Config{Seed: 1, NumGates: 20000})
	g := core.FromNetlist(n, scoap.Compute(n))
	model := core.MustNewModel(core.DefaultConfig())
	model.Forward(g) // build CSR once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Forward(g)
	}
}

// BenchmarkFig10RecursiveInference times the prior-work recursion [12]
// per node at the same point; multiply by N for the full-graph cost the
// figure plots.
func BenchmarkFig10RecursiveInference(b *testing.B) {
	n := circuitgen.Generate("f10r", circuitgen.Config{Seed: 1, NumGates: 20000})
	g := core.FromNetlist(n, scoap.Compute(n))
	model := core.MustNewModel(core.DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.InferNodeRecursive(g, int32(rng.Intn(g.N)))
	}
}

// BenchmarkTable3OPIFlow runs the full testability comparison (Table 3):
// cascade training, both insertion flows and fault-simulation scoring.
func BenchmarkTable3OPIFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(quickCfg(i))
	}
}

// opiBench lazily builds the insertion-flow workload shared by the
// full/incremental/coarse-refine benchmark family: the 50k-gate
// circuitgen.OPIBench design, an (untrained, deterministic)
// paper-architecture GCN, and the 99.5th-percentile threshold placing
// ~0.5% of fine nodes positive. Generation plus SCOAP takes seconds
// and must not be paid per benchmark.
var opiBench struct {
	once  sync.Once
	n     *netlist.Netlist
	meas  *scoap.Measures
	g     *core.Graph
	model *core.Model
	thr   float64
}

func opiBenchSetup(b *testing.B) {
	b.Helper()
	opiBench.once.Do(func() {
		n := circuitgen.Generate("opif", circuitgen.OPIBench(0))
		meas := scoap.Compute(n)
		g := core.FromNetlist(n, meas)
		model := core.MustNewModel(core.DefaultConfig())
		probs := append([]float64(nil), model.PredictProbs(g)...)
		sort.Float64s(probs)
		opiBench.n, opiBench.meas, opiBench.g, opiBench.model = n, meas, g, model
		opiBench.thr = probs[int(0.995*float64(len(probs)-1))]
	})
}

// opiFlowBench runs the insertion-flow pair on the shared workload. A
// few insertions per round over many rounds is the regime the
// incremental path is built for: the D-hop neighborhood of each
// round's insertions stays small relative to the design, while the
// full variant pays whole-graph inference every round. Both variants
// run the identical predict→rank→insert work; only the inference
// strategy differs, which is exactly the quantity the pair measures.
func opiFlowBench(b *testing.B, disableIncremental bool) {
	b.Helper()
	opiBenchSetup(b)
	cfg := opi.FlowConfig{
		Threshold:          opiBench.thr,
		PerIteration:       2,
		MaxIterations:      16,
		DisableIncremental: disableIncremental,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fn, fm, fg := opiBench.n.Clone(), opiBench.meas.Clone(), opiBench.g.Clone()
		b.StartTimer()
		opi.RunFlow(fn, fm, fg, opiBench.model, cfg)
	}
}

// BenchmarkOPIFlowFull forces a whole-graph forward pass every
// iteration — the flow as the paper's Figure 7 literally states it.
func BenchmarkOPIFlowFull(b *testing.B) { opiFlowBench(b, true) }

// BenchmarkOPIFlowIncremental pays full inference once and feeds each
// round's dirty set into the cached-embedding update (Section 3.4's
// efficiency argument applied to the Section 4 loop).
func BenchmarkOPIFlowIncremental(b *testing.B) { opiFlowBench(b, false) }

// BenchmarkOPIFlowCoarseRefine is the coarse-then-refine flow on the
// identical workload and per-round schedule as the pair above: region
// scoring on the FFR-0.25 supergraph, exact impact ranking and SCOAP
// refresh on the fine netlist. The timed region includes building the
// coarsening — the flow's real entry cost — so the delta against
// BenchmarkOPIFlowIncremental is the end-to-end payoff of predicting
// on ~¼ of the nodes. The threshold is the same 99.5th percentile,
// taken over the coarse score distribution (max-aggregated features
// shift it), so both flows start with comparable positive fractions.
func BenchmarkOPIFlowCoarseRefine(b *testing.B) {
	opiBenchSetup(b)
	copt := coarsen.Options{Strategy: coarsen.FFR, Ratio: 0.25}
	c, err := coarsen.New(opiBench.n, copt)
	if err != nil {
		b.Fatal(err)
	}
	probs := append([]float64(nil), opiBench.model.PredictProbs(c.ProjectGraph(opiBench.g))...)
	sort.Float64s(probs)
	cfg := opi.CoarseRefineConfig{
		Coarsen: copt,
		Flow: opi.FlowConfig{
			Threshold:     probs[int(0.995*float64(len(probs)-1))],
			PerIteration:  2,
			MaxIterations: 16,
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fn, fm, fg := opiBench.n.Clone(), opiBench.meas.Clone(), opiBench.g.Clone()
		b.StartTimer()
		if _, err := opi.RunCoarseRefine(fn, fm, fg, opiBench.model, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarsenBuild is the one-time cost of clustering the 50k
// design into FFR supernodes and emitting the reduced netlist — the
// entry fee every coarse-graph consumer pays once per design.
func BenchmarkCoarsenBuild(b *testing.B) {
	opiBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coarsen.New(opiBench.n, coarsen.Options{Strategy: coarsen.FFR, Ratio: 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarsenFineForward / BenchmarkCoarsenCoarseForward time one
// whole-graph forward pass on the 50k design and on its FFR-0.25
// projection — the per-inference saving that the coarse-then-refine
// flow banks every iteration.
func BenchmarkCoarsenFineForward(b *testing.B) {
	opiBenchSetup(b)
	opiBench.model.Forward(opiBench.g) // build CSR once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opiBench.model.Forward(opiBench.g)
	}
}

func BenchmarkCoarsenCoarseForward(b *testing.B) {
	opiBenchSetup(b)
	c, err := coarsen.New(opiBench.n, coarsen.Options{Strategy: coarsen.FFR, Ratio: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	cg := c.ProjectGraph(opiBench.g)
	opiBench.model.Forward(cg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opiBench.model.Forward(cg)
	}
}

// BenchmarkFig10ShardedForward times the same mid-size point through the
// partitioned executor (8 level-band shards, halo exchange, pool workers
// = GOMAXPROCS). Its output is bit-identical to Forward — the delta vs
// BenchmarkFig10MatrixInference is pure sharding overhead (or speedup,
// on multi-core hosts).
func BenchmarkFig10ShardedForward(b *testing.B) {
	n := circuitgen.Generate("f10m", circuitgen.Config{Seed: 1, NumGates: 20000})
	g := core.FromNetlist(n, scoap.Compute(n))
	sp, err := partition.NewSharded(core.MustNewModel(core.DefaultConfig()), partition.Options{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	sp.PredictProbs(g) // compile the partition once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.PredictProbs(g)
	}
}

// paperScale lazily builds the ≥1M-cell instance shared by the
// paper-scale benchmark pair; generation plus SCOAP takes tens of
// seconds and must not be paid per benchmark.
var paperScale struct {
	once sync.Once
	g    *core.Graph
	m    *core.Model
}

func paperScaleSetup(b *testing.B) (*core.Graph, *core.Model) {
	b.Helper()
	paperScale.once.Do(func() {
		n := circuitgen.Generate("m1", circuitgen.PaperScale(1))
		paperScale.g = core.FromNetlist(n, scoap.Compute(n))
		paperScale.m = core.MustNewModel(core.DefaultConfig())
	})
	return paperScale.g, paperScale.m
}

// BenchmarkPaperScaleForward is whole-graph matrix inference at the
// paper's largest reported scale (Table 1 / the right edge of Figure
// 10): one full forward over ≥1M cells. Skipped under -short — one
// iteration runs for tens of seconds.
func BenchmarkPaperScaleForward(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale benchmark skipped in -short mode")
	}
	g, m := paperScaleSetup(b)
	m.Forward(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(g)
	}
}

// BenchmarkPaperScaleShardedForward is the same forward through the
// sharded executor; cmd/benchjson records it across a worker matrix.
func BenchmarkPaperScaleShardedForward(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale benchmark skipped in -short mode")
	}
	g, m := paperScaleSetup(b)
	sp, err := partition.NewSharded(m, partition.Options{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	sp.PredictProbs(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.PredictProbs(g)
	}
}

// --- Ablation benchmarks -------------------------------------------------

// BenchmarkAblationCOOvsCSR quantifies the COO→CSR conversion payoff for
// the SpMM at the heart of inference (DESIGN.md decision 2).
func BenchmarkAblationCOOMul(b *testing.B) {
	n := circuitgen.Generate("ab1", circuitgen.Config{Seed: 3, NumGates: 20000})
	g := core.FromNetlist(n, scoap.Compute(n))
	x := tensor.NewDense(g.N, 32)
	rng := rand.New(rand.NewSource(1))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dst := tensor.NewDense(g.N, 32)
	coo := g.PredCOO()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coo.MulDense(dst, x)
	}
}

func BenchmarkAblationCSRMul(b *testing.B) {
	n := circuitgen.Generate("ab1", circuitgen.Config{Seed: 3, NumGates: 20000})
	g := core.FromNetlist(n, scoap.Compute(n))
	x := tensor.NewDense(g.N, 32)
	rng := rand.New(rand.NewSource(1))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dst := tensor.NewDense(g.N, 32)
	csr := g.Pred()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulDense(dst, x)
	}
}

// BenchmarkAblationSpMM50k runs the nnz-balanced parallel SpMM over the
// 50k-gate OPI fixture's adjacency at a spread of worker counts
// (workers are clamped to min(GOMAXPROCS, NumCPU) inside the kernel, so
// sub-benchmarks beyond the host's cores measure the clamped reality).
func BenchmarkAblationSpMM50k(b *testing.B) {
	opiBenchSetup(b)
	csr := opiBench.g.Pred()
	x := tensor.NewDense(opiBench.g.N, 32)
	rng := rand.New(rand.NewSource(7))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dst := tensor.NewDense(opiBench.g.N, 32)
	for _, workers := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=numcpu"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				csr.MulDenseParallel(dst, x, workers)
			}
		})
	}
}

// BenchmarkAblationSpMMParallel measures the goroutine-parallel SpMM
// (the multi-GPU stand-in) against the serial kernel.
func BenchmarkAblationSpMMParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	coo := sparse.NewCOO(100000, 100000)
	for i := 0; i < 300000; i++ {
		coo.Append(int32(rng.Intn(100000)), int32(rng.Intn(100000)), 1)
	}
	csr := coo.ToCSR()
	x := tensor.NewDense(100000, 16)
	dst := tensor.NewDense(100000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulDenseParallel(dst, x, 0)
	}
}

// BenchmarkAblationIncrementalSCOAP compares the incremental fan-in-cone
// observability update against a full recompute after one insertion
// (DESIGN.md's incremental-update decision; Section 4 of the paper).
func BenchmarkAblationIncrementalSCOAP(b *testing.B) {
	n := circuitgen.Generate("ab2", circuitgen.Config{Seed: 4, NumGates: 20000})
	m := scoap.Compute(n)
	op, err := n.InsertObservationPoint(int32(n.NumGates() / 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.UpdateAfterObservationPoint(n, op)
	}
}

func BenchmarkAblationFullSCOAPRecompute(b *testing.B) {
	n := circuitgen.Generate("ab2", circuitgen.Config{Seed: 4, NumGates: 20000})
	if _, err := n.InsertObservationPoint(int32(n.NumGates() / 3)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoap.Compute(n)
	}
}

// BenchmarkAblationFaultSimulation measures the 64-way bit-parallel
// simulation batch that underlies labeling and Table 3 scoring.
func BenchmarkAblationFaultSimulation(b *testing.B) {
	n := circuitgen.Generate("ab3", circuitgen.Config{Seed: 5, NumGates: 50000})
	sim := fault.NewSimulator(n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Batch(rng)
	}
}

// --- Serving benchmarks --------------------------------------------------

// serveFanout is the concurrent-client count of the serving benchmark
// pair: enough to make coalescing matter, small enough that the serial
// variant is not dominated by queueing.
const serveFanout = 6

// serveScoreBench measures the serving layer's concurrent-score path.
// Each iteration plays one burst of serveFanout concurrent /v1/score
// requests for a previously-unseen 30k-gate design (a unique leading
// comment line defeats the design cache across iterations, so every
// burst pays a cold compile). With batching the burst coalesces into a
// single parse→SCOAP→forward; the serial variant pays one per request.
// The pair is the measured basis for the ≥2× batched-throughput claim
// in docs/SERVING.md.
func serveScoreBench(b *testing.B, batched bool) {
	b.Helper()
	n := circuitgen.Generate("srv", circuitgen.Config{Seed: 11, NumGates: 30000})
	var buf bytes.Buffer
	if err := netlist.Write(&buf, n); err != nil {
		b.Fatal(err)
	}
	base := buf.String()

	opts := serve.Options{
		Predictor:     core.MustNewModel(core.DefaultConfig()),
		MaxConcurrent: serveFanout,
		MaxQueue:      serveFanout,
		CacheEntries:  2, // bound memory: each entry holds a 30k-node graph + embeddings
	}
	if !batched {
		opts.DisableBatching = true
		opts.CacheEntries = -1
	}
	srv, err := serve.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body, err := json.Marshal(serve.ScoreRequest{Netlist: fmt.Sprintf("# iter%d\n%s", i, base)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var wg sync.WaitGroup
		errs := make(chan error, serveFanout)
		for r := 0; r < serveFanout; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeScoreBatched: concurrent identical requests ride one
// single-flight compile.
func BenchmarkServeScoreBatched(b *testing.B) { serveScoreBench(b, true) }

// BenchmarkServeScoreSerial: batching and caching disabled; every
// request pays its own compile.
func BenchmarkServeScoreSerial(b *testing.B) { serveScoreBench(b, false) }
