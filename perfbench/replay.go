package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/opi"
	"repro/internal/scoap"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The traced replay re-executes a prefix of the run's request sequence
// by calling each layer's public functions directly, in the order the
// handlers call them, with a span around every call. Work the handlers
// do between those calls (HTTP, admission, locks, hashing, the Levels
// copy) is left in the request span's self time.

// denseFlopsPerCell is 2·Σ in·out over one stage's encoders and FC head.
func denseFlopsPerCell(m *core.Model) float64 {
	var f float64
	for _, l := range m.Enc {
		f += 2 * float64(l.In*l.Out)
	}
	for _, l := range m.FC.Layers {
		f += 2 * float64(l.In*l.Out)
	}
	return f
}

// forwardFlops is the computed FLOP count of one cascade forward: the
// dense GEMMs plus the two SpMMs per layer (2 per stored entry and
// column).
func forwardFlops(ms *core.MultiStage, g *core.Graph) float64 {
	var f float64
	nnz := float64(g.NumEdges())
	for _, m := range ms.Stages {
		f += denseFlopsPerCell(m) * float64(g.N)
		in := core.InputDim
		for _, l := range m.Enc {
			f += 2 * 2 * nnz * float64(in)
			in = l.Out
		}
	}
	return f
}

// replayCompile replays a cold /v1/score: decode, parse+validate,
// SCOAP, graph build, the full forward of a fresh predictor clone,
// ranking and encoding. It returns the scores and the compiled state.
func replayCompile(tr *tracer, cascade *core.MultiStage, req int, body []byte, threshold float64) (*compiled, error) {
	tr.req = req
	tr.begin("request.score", 0)
	defer tr.end(-1)
	tr.begin("serve.decode", int64(len(body)))
	var sr serve.ScoreRequest
	err := json.Unmarshal(body, &sr)
	tr.end(-1)
	if err != nil {
		return nil, err
	}
	text := []byte(sr.Netlist)
	sum := sha256.Sum256(text)
	id := hex.EncodeToString(sum[:])
	tr.begin("netlist.read", 0)
	n, err := netlist.Read(bytes.NewReader(text))
	if err == nil {
		err = n.Validate()
	}
	if err != nil {
		tr.end(0)
		return nil, err
	}
	cells := int64(n.NumGates())
	tr.end(cells)
	tr.begin("scoap.compute", cells)
	meas := scoap.Compute(n)
	tr.end(-1)
	tr.begin("core.graph_build", cells)
	g := core.FromNetlist(n, meas)
	tr.end(-1)
	// ForwardFull is the whole body of MultiStage.NewIncremental; the
	// replay keeps the state so that deltas can follow.
	ms := core.ClonePredictor(cascade).(*core.MultiStage)
	tr.beginFlops("core.forward", cells, forwardFlops(ms, g))
	st := ms.ForwardFull(g)
	tr.end(-1)
	tr.noteForward(g, text)
	tr.begin("serve.rank", cells)
	resp := expectedScore(id, n, append([]float64(nil), st.Probs...), threshold, false)
	tr.end(-1)
	tr.begin("serve.encode", cells)
	_, err = json.Marshal(resp)
	tr.end(-1)
	return &compiled{net: n, meas: meas, g: g, ms: ms, st: st}, err
}

// compiled is the replay's copy of one compiled design.
type compiled struct {
	net  *netlist.Netlist
	meas *scoap.Measures
	g    *core.Graph
	ms   *core.MultiStage
	st   *core.MultiStageState
}

// replayEdit replays client 0's edit_session sequence: the setup compile
// of its session design, then deltas and shared-design hits in order.
func replayEdit(tr *tracer, cascade *core.MultiStage, sess, shared *design, hitBody []byte, targets []int32, rng *rand.Rand, run []sample, k int) error {
	c, err := replayCompile(tr, cascade, 0, scoreBody(sess, ""), sess.threshold)
	if err != nil {
		return err
	}
	sharedNet, _, _ := shared.parse()
	cur := sess.id
	for seq := 1; seq <= k && seq <= len(run); seq++ {
		tr.req = seq
		tr.e2e = e2eMs(run[seq-1])
		if seq%4 == 0 {
			replayHit(tr, shared, sharedNet, hitBody)
			continue
		}
		nt := 1 + rng.Intn(4)
		ts := targets[:nt]
		targets = targets[nt:]
		body, _ := json.Marshal(serve.DeltaRequest{Design: cur, Observe: ts, Threshold: sess.threshold})
		cur = deltaID(cur, ts)
		if err := replayDelta(tr, c, body, cur, sess.threshold); err != nil {
			return err
		}
	}
	return nil
}

func replayHit(tr *tracer, shared *design, n *netlist.Netlist, body []byte) {
	tr.begin("request.hit", 0)
	defer tr.end(-1)
	tr.begin("serve.decode", int64(len(body)))
	var sr serve.ScoreRequest
	_ = json.Unmarshal(body, &sr) // the body was built by this harness
	tr.end(-1)
	cells := int64(shared.cells)
	tr.begin("serve.rank", cells)
	resp := expectedScore(shared.id, n, append([]float64(nil), shared.ref...), sr.Threshold, true)
	tr.end(-1)
	tr.begin("serve.encode", cells)
	_, _ = json.Marshal(resp)
	tr.end(-1)
}

func replayDelta(tr *tracer, c *compiled, body []byte, newID string, threshold float64) error {
	tr.begin("request.delta", 0)
	defer tr.end(-1)
	tr.begin("serve.decode", int64(len(body)))
	var dr serve.DeltaRequest
	err := json.Unmarshal(body, &dr)
	tr.end(-1)
	if err != nil {
		return err
	}
	resp, err := applyDelta(tr, c, dr.Observe, newID, threshold)
	if err != nil {
		return err
	}
	tr.begin("serve.encode", int64(resp.Nodes))
	_, err = json.Marshal(resp)
	tr.end(-1)
	return err
}

// applyDelta applies one delta's targets to c as /v1/score/delta does
// (the insertions, then one incremental update over their dirty rows)
// and returns the response the handler builds for it.
func applyDelta(tr *tracer, c *compiled, targets []int32, newID string, threshold float64) (serve.ScoreResponse, error) {
	dirty, err := insertAll(tr, c.net, c.meas, c.g, targets)
	if err != nil {
		return serve.ScoreResponse{}, err
	}
	tr.begin("core.csr_rebuild", 0)
	c.g.Pred()
	c.g.Succ()
	tr.end(-1)
	tr.begin("core.update", 0)
	rows := c.ms.UpdateIncremental(c.st, c.g, dirty)
	tr.end(int64(len(rows)))
	tr.begin("serve.rank", int64(c.net.NumGates()))
	resp := expectedScore(newID, c.net, append([]float64(nil), c.st.Probs...), threshold, true)
	resp.Updated = len(dirty)
	for _, t := range targets {
		resp.Inserted = append(resp.Inserted, serve.NodeScore{ID: t, Name: c.net.Gate(t).Name, Score: c.st.Probs[t]})
	}
	tr.end(-1)
	return resp, nil
}

// flowPredictor wraps the cascade for opi.RunFlow so the replay can
// time and count what the flow asks of the predictor. It implements
// core.IncrementalPredictor exactly as MultiStage does.
type flowPredictor struct {
	tr    *tracer
	ms    *core.MultiStage
	full  int            // PredictProbs + NewIncremental calls
	spans [][2]time.Time // intervals spent inside the predictor
}

func (p *flowPredictor) timed(f func()) {
	t := time.Now()
	f()
	p.spans = append(p.spans, [2]time.Time{t, time.Now()})
}

func (p *flowPredictor) PredictProbs(g *core.Graph) []float64 {
	p.full++
	var out []float64
	p.tr.beginFlops("core.forward", int64(g.N), forwardFlops(p.ms, g))
	p.timed(func() { out = p.ms.PredictProbs(g) })
	p.tr.end(-1)
	return out
}

func (p *flowPredictor) NewIncremental(g *core.Graph) core.IncrementalRun {
	p.full++
	var st *core.MultiStageState
	p.tr.beginFlops("core.forward", int64(g.N), forwardFlops(p.ms, g))
	p.timed(func() { st = p.ms.ForwardFull(g) })
	p.tr.end(-1)
	return &flowRun{p: p, st: st}
}

type flowRun struct {
	p  *flowPredictor
	st *core.MultiStageState
}

func (r *flowRun) Probs() []float64 { return r.st.Probs }

func (r *flowRun) Update(g *core.Graph, dirty []int32) {
	r.p.timed(func() {
		r.p.tr.begin("core.csr_rebuild", 0)
		g.Pred()
		g.Succ()
		r.p.tr.end(-1)
		r.p.tr.begin("core.update", 0)
		rows := r.p.ms.UpdateIncremental(r.st, g, dirty)
		r.p.tr.end(int64(len(rows)))
	})
}

// replayOPI replays one /v1/opi by design id: decode, clone, coverage
// before, the pre-flow forward, the flow, coverage after, rank and
// encode, and returns the response it built. It then re-applies the
// flow's insertions on a fresh copy to time opi.InsertAndRefresh, which
// the flow calls internally. Without spans it is the opi_flow oracle.
func replayOPI(tr *tracer, cascade *core.MultiStage, req int, d *design) (serve.OPIResponse, error) {
	tr.req = req
	body := opiBody(d)
	base, baseMeas, baseG := d.parse() // the server's cached copy
	tr.begin("request.opi", 0)
	tr.begin("serve.decode", int64(len(body)))
	var or serve.OPIRequest
	err := json.Unmarshal(body, &or)
	tr.end(-1)
	if err != nil {
		tr.end(-1)
		return serve.OPIResponse{}, err
	}
	cells := int64(d.cells)
	tr.begin("serve.clone", cells)
	n, meas, g := base.Clone(), baseMeas.Clone(), baseG.Clone()
	tr.end(-1)
	tr.begin("fault.evaluate", cells)
	before := opi.Evaluate(n, fault.TPGConfig{MaxPatterns: or.Patterns}).Coverage
	tr.end(-1)
	pred := &flowPredictor{tr: tr, ms: core.ClonePredictor(cascade).(*core.MultiStage)}
	probs0 := pred.PredictProbs(g)
	var marks []time.Time
	var positives []int
	tr.begin("opi.flow", cells)
	res := opi.RunFlow(n, meas, g, pred, opi.FlowConfig{Threshold: or.Threshold, PerIteration: or.PerIteration,
		MaxInsertions: or.MaxPoints, Progress: func(_, pos, _ int) {
			marks = append(marks, time.Now())
			positives = append(positives, pos)
		}})
	end := time.Now()
	tr.end(-1)
	tr.noteFlow(end, marks, positives, pred)
	tr.begin("fault.evaluate", cells)
	after := opi.Evaluate(n, fault.TPGConfig{MaxPatterns: or.Patterns}).Coverage
	tr.end(-1)
	tr.begin("serve.rank", int64(len(res.Targets)))
	points := make([]serve.NodeScore, len(res.Targets))
	for i, t := range res.Targets {
		points[i] = serve.NodeScore{ID: t, Name: n.Gate(t).Name, Score: probs0[t]}
	}
	tr.end(-1)
	resp := serve.OPIResponse{Design: d.id, Points: points, Iterations: res.Iterations,
		FinalPositives: res.FinalPositives, CoverageBefore: &before, CoverageAfter: &after}
	tr.begin("serve.encode", int64(len(points)))
	_, err = json.Marshal(resp)
	tr.end(-1)
	tr.end(-1) // request.opi
	if err != nil {
		return resp, err
	}

	tr.begin("opi.reinsert", 0)
	defer tr.end(-1)
	_, err = insertAll(tr, base, baseMeas, baseG, res.Targets)
	return resp, err
}

// kernelStats is the tensor/sparse kernel replay of one cascade forward.
type kernelStats struct {
	matmulNs, matmulFlops float64
	spmmNs, spmmBytes     float64
}

// replayKernels runs every stage's layers on g with the public kernels
// the forward uses, timing tensor.MatMul at each encoder and FC shape
// and CSR.MulDenseParallel on Pred and Succ at each layer width. FLOPs
// and bytes are computed from the shapes, not measured.
func replayKernels(ms *core.MultiStage, g *core.Graph) kernelStats {
	var ks kernelStats
	P, S := g.Pred(), g.Succ()
	matmul := func(dst, a *tensor.Dense, w, b []float64, relu bool) {
		t := time.Now()
		tensor.MatMul(dst, a, &tensor.Dense{Rows: a.Cols, Cols: dst.Cols, Data: w})
		ks.matmulNs += float64(time.Since(t))
		ks.matmulFlops += 2 * float64(a.Rows*a.Cols*dst.Cols)
		dst.AddRowVector(b)
		if relu {
			dst.ReLUInPlace()
		}
	}
	for _, m := range ms.Stages {
		cur := g.X
		for _, enc := range m.Enc {
			pe := tensor.NewDense(g.N, cur.Cols)
			se := tensor.NewDense(g.N, cur.Cols)
			t := time.Now()
			P.MulDenseParallel(pe, cur, 0)
			S.MulDenseParallel(se, cur, 0)
			ks.spmmNs += float64(time.Since(t))
			for _, a := range []int{len(P.ColIdx), len(S.ColIdx)} {
				// CSR arrays, the gathered x rows and the dst write.
				ks.spmmBytes += float64(a*12+(g.N+1)*4) + float64(a*cur.Cols*8) + float64(g.N*cur.Cols*8)
			}
			agg := cur.Clone()
			agg.AxpyInPlace(m.Wpr.Data[0], pe)
			agg.AxpyInPlace(m.Wsu.Data[0], se)
			next := tensor.NewDense(g.N, enc.Out)
			matmul(next, agg, enc.W.Data, enc.B.Data, true)
			cur = next
		}
		for i, l := range m.FC.Layers {
			next := tensor.NewDense(g.N, l.Out)
			matmul(next, cur, l.W.Data, l.B.Data, i+1 < len(m.FC.Layers))
			cur = next
		}
	}
	return ks
}

// memoryProbe compiles one design the way the server does and reports
// the bytes allocated by the compile forward and the heap the compiled
// design keeps, both per cell.
func memoryProbe(cascade *core.MultiStage, text []byte) (allocPerCell, heldPerCell float64, err error) {
	var m0, m1, m2, m3 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	src := append([]byte(nil), text...)
	n, meas, g, err := compileText(src)
	if err != nil {
		return 0, 0, err
	}
	ms := core.ClonePredictor(cascade).(*core.MultiStage)
	runtime.ReadMemStats(&m1)
	st := ms.ForwardFull(g)
	runtime.ReadMemStats(&m2)
	runtime.GC()
	runtime.ReadMemStats(&m3)
	// What the server's cached design holds: source, netlist, measures,
	// graph, predictor clone and incremental state.
	runtime.KeepAlive(src)
	runtime.KeepAlive(n)
	runtime.KeepAlive(meas)
	runtime.KeepAlive(g)
	runtime.KeepAlive(ms)
	runtime.KeepAlive(st)
	cells := float64(n.NumGates())
	return float64(m2.TotalAlloc-m1.TotalAlloc) / cells, (float64(m3.HeapInuse) - float64(m0.HeapInuse)) / cells, nil
}
