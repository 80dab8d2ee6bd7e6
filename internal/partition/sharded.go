package partition

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// This file is the sharded execution engine. Each shard carries its
// own sub-CSR adjacency (rows and columns remapped to a local index
// space: interior first, then halo rings outward) and local embedding
// buffers; layers run shard-parallel on the predictor's worker pool
// with a barrier per phase. Bit-identity with the whole-graph Forward
// holds because every kernel in the forward path is row-independent
// and the local matrices preserve the global CSR's per-row entry
// order, so each global row is produced by exactly one shard through
// the exact same sequence of float64 operations.

// ShardedPredictor runs a *core.Model or *core.MultiStage shard-
// parallel over a reused worker pool. It implements
// core.IncrementalPredictor (and therefore opi.Predictor and the
// serving layer's predictor contract): PredictProbs is a sharded full
// pass, and NewIncremental pays the sharded full pass once, stitches
// the per-layer embeddings into whole-graph incremental state, and
// hands the session to core — subsequent Updates are D-hop-local
// already and run unsharded. Like the predictors it wraps, a
// ShardedPredictor is not safe for concurrent use; the serving layer
// gives each slot its own clone via core.ClonePredictor.
type ShardedPredictor struct {
	base  core.IncrementalPredictor // *core.Model or *core.MultiStage
	opt   Options
	depth int // max stage depth D = halo requirement
	pool  *Pool

	cg *compiledGraph // compiled partition of the most recent graph
}

// NewSharded wraps base — a *Model or a *MultiStage — in a sharded
// executor. opt.Halo defaults to the base model's depth (the GCN
// receptive field) and values below it are rejected; larger halos are
// legal but waste memory.
func NewSharded(base core.IncrementalPredictor, opt Options) (*ShardedPredictor, error) {
	depth := 0
	switch p := base.(type) {
	case *core.Model:
		depth = p.Cfg.Depth()
	case *core.MultiStage:
		if len(p.Stages) == 0 {
			return nil, fmt.Errorf("partition: cannot shard an empty cascade")
		}
		for _, s := range p.Stages {
			if d := s.Cfg.Depth(); d > depth {
				depth = d
			}
		}
	default:
		return nil, fmt.Errorf("partition: cannot shard predictor of type %T", base)
	}
	if opt.Halo == 0 {
		opt.Halo = depth
	} else if opt.Halo < depth {
		return nil, fmt.Errorf("partition: halo %d smaller than model receptive field %d", opt.Halo, depth)
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return &ShardedPredictor{base: base, opt: opt, depth: depth, pool: NewPool(opt.Workers)}, nil
}

// Base returns the wrapped predictor.
func (sp *ShardedPredictor) Base() core.IncrementalPredictor { return sp.base }

// NumShards returns the configured shard count K.
func (sp *ShardedPredictor) NumShards() int { return sp.opt.K }

// Workers returns the worker pool size.
func (sp *ShardedPredictor) Workers() int { return sp.pool.Workers() }

// Close releases the worker pool. The predictor remains usable; later
// calls run shards inline on the calling goroutine.
func (sp *ShardedPredictor) Close() { sp.pool.Close() }

// ClonePredictor deep-copies the predictor — cloned base, fresh pool
// and compiled-partition cache — satisfying core.PredictorCloner so
// the serving layer's per-slot cloning isolates sharded predictors
// exactly like plain ones.
func (sp *ShardedPredictor) ClonePredictor() core.IncrementalPredictor {
	return &ShardedPredictor{
		base:  core.ClonePredictor(sp.base),
		opt:   sp.opt,
		depth: sp.depth,
		pool:  NewPool(sp.opt.Workers),
	}
}

// PredictProbs runs sharded inference and returns per-node positive
// probabilities bit-identical to the base predictor's PredictProbs.
func (sp *ShardedPredictor) PredictProbs(g *core.Graph) []float64 {
	cg := sp.compile(g)
	switch p := sp.base.(type) {
	case *core.Model:
		probs, _, _ := cg.runModel(p, sp.pool, sp.opt.Mode, false)
		return probs
	case *core.MultiStage:
		stageProbs := make([][]float64, len(p.Stages))
		for i, m := range p.Stages {
			stageProbs[i], _, _ = cg.runModel(m, sp.pool, sp.opt.Mode, false)
		}
		return p.CombineStageProbs(g.N, stageProbs)
	}
	panic("partition: unreachable base type")
}

// NewIncremental pays one sharded full pass, stitches the per-shard
// embeddings and logits into whole-graph incremental state, and
// returns the base predictor's incremental session over that state.
func (sp *ShardedPredictor) NewIncremental(g *core.Graph) core.IncrementalRun {
	cg := sp.compile(g)
	switch p := sp.base.(type) {
	case *core.Model:
		_, embeds, logits := cg.runModel(p, sp.pool, sp.opt.Mode, true)
		return p.RunFromState(core.NewIncrementalState(embeds, logits))
	case *core.MultiStage:
		states := make([]*core.IncrementalState, len(p.Stages))
		for i, m := range p.Stages {
			_, embeds, logits := cg.runModel(m, sp.pool, sp.opt.Mode, true)
			states[i] = core.NewIncrementalState(embeds, logits)
		}
		return p.RunFromStates(states)
	}
	panic("partition: unreachable base type")
}

// Partition exposes the partition of the most recently compiled graph
// (compiling g if needed) for inspection and tests.
func (sp *ShardedPredictor) Partition(g *core.Graph) *Partition {
	return sp.compile(g).part
}

// haloRef tells the exchange phase where a ring-1 halo row lives in
// its owner shard.
type haloRef struct {
	local      int32 // row in this shard's local index space
	ownerShard int32
	ownerLocal int32 // interior row in the owner's local index space
}

// compiledShard is one shard's execution state: local index space,
// sub-CSR adjacency, and reusable embedding/scratch buffers.
type compiledShard struct {
	locals    []int32 // interior ++ ring1 ++ ... ++ ringH (global ids)
	nInterior int
	cuts      []int // cuts[h] = nInterior + Σ_{i<=h} |ring_i|; cuts[0] = nInterior
	P, S      *sparse.CSR
	halo      []haloRef // ring-1 rows to refresh between layers (Exchange mode)

	embeds      []*tensor.Dense // per-layer local embeddings (full local height)
	pe, se, agg *tensor.Dense
	fcA, fcB    *tensor.Dense
}

// active returns how many local rows (a prefix: interior first, rings
// outward) layer d of a depth-D model computes in the given mode.
func (cs *compiledShard) active(mode Mode, d, D int) int {
	if mode == OneShot {
		return cs.cuts[D-d]
	}
	return cs.nInterior
}

// compiledGraph caches the partition and per-shard execution state for
// one graph, keyed by identity, node count and edge count so OPI-style
// in-place growth recompiles.
type compiledGraph struct {
	g      *core.Graph
	n      int
	edges  int
	part   *Partition
	shards []*compiledShard
}

// compile builds (or reuses) the per-shard execution state for g.
// Option errors were rejected at NewSharded; the only failure left is
// a graph violating the core API's topological-id invariant, which
// panics like any other malformed-input misuse of a predictor.
func (sp *ShardedPredictor) compile(g *core.Graph) *compiledGraph {
	if cg := sp.cg; cg != nil && cg.g == g && cg.n == g.N && cg.edges == g.NumEdges() {
		return cg
	}
	part, err := New(g, sp.opt)
	if err != nil {
		panic(err)
	}
	// interiorPos[v] = index of v in its owner's (sorted) interior;
	// localIdx is the shared global→local scratch, reset after each
	// shard so one allocation serves all K.
	interiorPos := make([]int32, g.N)
	for _, sh := range part.Shards {
		for i, v := range sh.Interior {
			interiorPos[v] = int32(i)
		}
	}
	localIdx := make([]int32, g.N)
	for i := range localIdx {
		localIdx[i] = -1
	}
	cg := &compiledGraph{g: g, n: g.N, edges: g.NumEdges(), part: part}
	for _, sh := range part.Shards {
		locals := make([]int32, 0, len(sh.Interior)+sh.HaloSize())
		locals = append(locals, sh.Interior...)
		cuts := make([]int, len(sh.Rings)+1)
		cuts[0] = len(sh.Interior)
		for h, ring := range sh.Rings {
			locals = append(locals, ring...)
			cuts[h+1] = cuts[h] + len(ring)
		}
		for li, v := range locals {
			localIdx[v] = int32(li)
		}
		// Exchange computes interior rows only; OneShot additionally
		// computes rings 1..D-1 at the early layers. Rows past that
		// never run, so their sub-CSR rows stay empty.
		maxRows := cuts[0]
		if sp.opt.Mode == OneShot {
			maxRows = cuts[sp.depth-1]
		}
		cs := &compiledShard{
			locals:    locals,
			nInterior: len(sh.Interior),
			cuts:      cuts,
			P:         localSubCSR(g.PredEntries, locals, localIdx, maxRows),
			S:         localSubCSR(g.SuccEntries, locals, localIdx, maxRows),
			embeds:    make([]*tensor.Dense, sp.depth+1),
		}
		if sp.opt.Mode == Exchange && sp.depth > 1 && len(sh.Rings) > 0 {
			for _, v := range sh.Rings[0] {
				cs.halo = append(cs.halo, haloRef{
					local:      localIdx[v],
					ownerShard: part.Owner[v],
					ownerLocal: interiorPos[v],
				})
			}
		}
		cg.shards = append(cg.shards, cs)
		for _, v := range locals {
			localIdx[v] = -1
		}
	}
	sp.cg = cg
	return cg
}

// localSubCSR extracts the first maxRows local rows of the global
// adjacency into the shard's local index space, preserving the global
// per-row entry order (the bit-identity requirement). The halo-closure
// invariant guarantees every referenced column is local.
func localSubCSR(rowOf func(int32) ([]int32, []float64), locals []int32, localIdx []int32, maxRows int) *sparse.CSR {
	n := len(locals)
	nnz := 0
	for li := 0; li < maxRows; li++ {
		cols, _ := rowOf(locals[li])
		nnz += len(cols)
	}
	rowPtr := make([]int32, n+1)
	colIdx := make([]int32, 0, nnz)
	vals := make([]float64, 0, nnz)
	for li := 0; li < n; li++ {
		rowPtr[li] = int32(len(colIdx))
		if li >= maxRows {
			continue
		}
		cols, vs := rowOf(locals[li])
		for i, c := range cols {
			lc := localIdx[c]
			if lc < 0 {
				panic("partition: halo closure violated (internal error)")
			}
			colIdx = append(colIdx, lc)
			vals = append(vals, vs[i])
		}
	}
	rowPtr[n] = int32(len(colIdx))
	return &sparse.CSR{NumRows: n, NumCols: n, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
}

// scratch resizes *p to rows×cols, reusing the backing array when
// capacity allows (same pattern as core's incremental buffers).
func scratch(p **tensor.Dense, rows, cols int) *tensor.Dense {
	d := *p
	if d == nil || cap(d.Data) < rows*cols {
		d = &tensor.Dense{Data: make([]float64, rows*cols)}
	}
	d.Rows, d.Cols = rows, cols
	d.Data = d.Data[:rows*cols]
	*p = d
	return d
}

// prefixView returns the first rows rows of d as a shared-storage view.
func prefixView(d *tensor.Dense, rows int) *tensor.Dense {
	return &tensor.Dense{Rows: rows, Cols: d.Cols, Data: d.Data[:rows*d.Cols]}
}

// runModel executes one sharded forward pass of m and returns the
// per-node positive probabilities. With wantStates it additionally
// stitches whole-graph per-layer embeddings and logits (the inputs to
// core.NewIncrementalState); both are nil otherwise.
func (cg *compiledGraph) runModel(m *core.Model, pool *Pool, mode Mode, wantStates bool) ([]float64, []*tensor.Dense, *tensor.Dense) {
	span := obs.StartSpan("infer/sharded")
	defer span.End()
	shardedInferences.Inc()
	D := len(m.Enc)
	wpr, wsu := m.Wpr.Data[0], m.Wsu.Data[0]
	probs := make([]float64, cg.n)
	var ge []*tensor.Dense
	var logitsG *tensor.Dense
	if wantStates {
		ge = make([]*tensor.Dense, D+1)
		ge[0] = cg.g.X.Clone()
		for d := 1; d <= D; d++ {
			ge[d] = tensor.NewDense(cg.n, m.Enc[d-1].Out)
		}
		logitsG = tensor.NewDense(cg.n, m.FC.Layers[len(m.FC.Layers)-1].Out)
	}

	// Phase 0: scatter attribute rows into each shard's local E0.
	tasks := make([]func(), 0, len(cg.shards))
	for _, cs := range cg.shards {
		cs := cs
		if len(cs.locals) == 0 {
			continue
		}
		tasks = append(tasks, func() {
			e0 := scratch(&cs.embeds[0], len(cs.locals), cg.g.X.Cols)
			for li, v := range cs.locals {
				copy(e0.Row(li), cg.g.X.Row(int(v)))
			}
		})
	}
	pool.Run(tasks)

	// Layers: compute (barrier), then in Exchange mode refresh ring-1
	// halo rows from their owners (barrier) before the next layer.
	for d := 1; d <= D; d++ {
		d := d
		enc := m.Enc[d-1]
		tasks = tasks[:0]
		for _, cs := range cg.shards {
			cs := cs
			act := cs.active(mode, d, D)
			if act == 0 {
				continue
			}
			tasks = append(tasks, func() {
				prev := cs.embeds[d-1]
				inCols := prev.Cols
				pe := scratch(&cs.pe, act, inCols)
				se := scratch(&cs.se, act, inCols)
				agg := scratch(&cs.agg, act, inCols)
				cs.P.MulDenseRows(pe, prev, 0, act)
				cs.S.MulDenseRows(se, prev, 0, act)
				copy(agg.Data, prev.Data[:act*inCols])
				agg.AxpyInPlace(wpr, pe)
				agg.AxpyInPlace(wsu, se)
				eD := scratch(&cs.embeds[d], len(cs.locals), enc.Out)
				out := prefixView(eD, act)
				enc.ForwardInto(out, agg)
				out.ReLUInPlace()
				if wantStates {
					gd := ge[d]
					for i := 0; i < cs.nInterior; i++ {
						copy(gd.Row(int(cs.locals[i])), eD.Row(i))
					}
				}
			})
		}
		pool.Run(tasks)
		if mode == Exchange && d < D {
			tasks = tasks[:0]
			for _, cs := range cg.shards {
				cs := cs
				if cs.nInterior == 0 || len(cs.halo) == 0 {
					continue
				}
				tasks = append(tasks, func() {
					dst := cs.embeds[d]
					for _, h := range cs.halo {
						src := cg.shards[h.ownerShard].embeds[d]
						copy(dst.Row(int(h.local)), src.Row(int(h.ownerLocal)))
					}
					exchangedRows.Add(int64(len(cs.halo)))
				})
			}
			pool.Run(tasks)
		}
	}

	// FC head + softmax over each shard's interior rows. The MLP
	// layers are driven directly (not via Infer) so shards can share
	// one base model: ForwardInto only reads layer parameters, and
	// every shard owns its scratch.
	tasks = tasks[:0]
	for _, cs := range cg.shards {
		cs := cs
		if cs.nInterior == 0 {
			continue
		}
		tasks = append(tasks, func() {
			cur := prefixView(cs.embeds[D], cs.nInterior)
			bufs := [2]**tensor.Dense{&cs.fcA, &cs.fcB}
			for i, l := range m.FC.Layers {
				dst := scratch(bufs[i%2], cur.Rows, l.Out)
				l.ForwardInto(dst, cur)
				cur = dst
				if i+1 < len(m.FC.Layers) {
					cur.ReLUInPlace()
				}
			}
			pm := nn.Softmax(cur)
			for i := 0; i < cs.nInterior; i++ {
				v := int(cs.locals[i])
				probs[v] = pm.At(i, 1)
				if wantStates {
					copy(logitsG.Row(v), cur.Row(i))
				}
			}
		})
	}
	pool.Run(tasks)
	return probs, ge, logitsG
}
