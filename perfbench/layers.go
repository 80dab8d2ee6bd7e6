package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// tracedReplay replays the run's request prefix twice, without spans
// and with them, and derives the per-layer metrics from the spans, the
// kernel replay, the memory probe and the run's own samples. A metric
// whose layer is not on the workload's path reads 0.
func tracedReplay(o options, w *workload, cascade *core.MultiStage, samples [][]sample, stats map[string]*classStats, gain float64) (map[string]metric, error) {
	off := newTracer(false)
	t := time.Now()
	if err := w.replay(off, samples); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	offDur := time.Since(t)
	runtime.GC()
	on := newTracer(true)
	t = time.Now()
	if err := w.replay(on, samples); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	onDur := time.Since(t)
	if o.spans != "" {
		if err := on.write(o.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		logf("spans: %d written to %s", len(on.spans), o.spans)
	}
	L := on.layers()
	get := func(name string) *layer {
		if l := L[name]; l != nil {
			return l
		}
		return &layer{}
	}
	// selfPerWork is the layer's self time per unit of work, scaled.
	selfPerWork := func(name string, scale float64) float64 {
		l := get(name)
		if l.workSum() == 0 {
			return 0
		}
		return l.selfSum() / l.workSum() * scale
	}
	selfPerSpan := func(name string, scale float64) float64 {
		l := get(name)
		if len(l.self) == 0 {
			return 0
		}
		return l.selfSum() / float64(len(l.self)) * scale
	}
	workPerSpan := func(name string) float64 {
		l := get(name)
		if len(l.work) == 0 {
			return 0
		}
		return l.workSum() / float64(len(l.work))
	}
	// overhead is, over the replayed requests of a class, the median of
	// each request's end-to-end latency in the run minus the time the
	// replay spent in layers for it.
	overhead := func(class string) float64 {
		l := get("request." + class)
		var d []float64
		for i := range l.total {
			if l.e2e[i] > 0 {
				d = append(d, l.e2e[i]-(l.total[i]-l.self[i])/1e6)
			}
		}
		if len(d) == 0 {
			return 0
		}
		return median(d)
	}
	okOf := func(class string) float64 {
		if st := stats[class]; st != nil {
			return float64(st.ok)
		}
		return 0
	}
	hitRatio := 0.0
	if hits, cold := okOf("hit"), okOf("score"); hits+cold > 0 {
		hitRatio = hits / (hits + cold)
	}
	fwd := get("core.forward")
	g := on.fwdGraph
	if g == nil {
		return nil, fmt.Errorf("traced replay ran no forward")
	}
	ks := replayKernels(cascade, g)
	logf("kernel replay on %d cells: matmul %.1f ms (%.3g GFLOP computed), spmm %.1f ms (%.3g GB computed), traced forward %.1f ms",
		g.N, ks.matmulNs/1e6, ks.matmulFlops/1e9, ks.spmmNs/1e6, ks.spmmBytes/1e9, on.fwdNs/1e6)
	alloc, held, err := memoryProbe(cascade, on.fwdText)
	if err != nil {
		return nil, fmt.Errorf("memory probe: %w", err)
	}

	m := map[string]metric{
		"serve.cache_hit_ratio":             {hitRatio, "ratio"},
		"serve.decode_ms_per_mb":            {selfPerWork("serve.decode", 1), "ms/MB"},
		"serve.encode_ms_per_kcell":         {selfPerWork("serve.encode", 1e-3), "ms/kcell"},
		"serve.overhead_ms":                 {overhead(w.primary), "ms"},
		"serve.hit_overhead_ms":             {overhead("hit"), "ms"},
		"netlist.read_us_per_cell":          {selfPerWork("netlist.read", 1e-3), "us/cell"},
		"scoap.compute_us_per_cell":         {selfPerWork("scoap.compute", 1e-3), "us/cell"},
		"core.graph_build_us_per_cell":      {selfPerWork("core.graph_build", 1e-3), "us/cell"},
		"core.forward_us_per_cell":          {selfPerWork("core.forward", 1e-3), "us/cell"},
		"core.forward_gflops":               {sum(fwd.flops) / sum(fwd.total), "GFLOP/s"},
		"core.update_us_per_delta":          {selfPerSpan("core.update", 1e-3), "us"},
		"core.update_rows_per_delta":        {workPerSpan("core.update"), "count"},
		"core.csr_rebuild_ms":               {selfPerSpan("core.csr_rebuild", 1e-6), "ms"},
		"opi.insert_us_per_op":              {selfPerSpan("opi.insert", 1e-3), "us"},
		"opi.touched_per_op":                {workPerSpan("opi.insert"), "count"},
		"opi.iter_ms":                       {mean(on.iterMs), "ms"},
		"opi.positives_per_iter":            {mean(on.positives), "count"},
		"opi.rank_insert_ms_per_iter":       {mean(on.rankInsertMs), "ms"},
		"opi.full_forwards_per_request":     {mean(on.fullForwards), "count"},
		"fault.evaluate_us_per_cell":        {selfPerWork("fault.evaluate", 1e-3), "us/cell"},
		"fault.coverage_gain_pp":            {gain, "pp"},
		"trace.overhead_frac":               {(onDur.Seconds() - offDur.Seconds()) / offDur.Seconds(), "ratio"},
		"tensor.matmul_gflops":              {ks.matmulFlops / ks.matmulNs, "GFLOP/s"},
		"tensor.matmul_share_of_forward":    {ks.matmulNs / on.fwdNs, "ratio"},
		"sparse.spmm_gbps_computed":         {ks.spmmBytes / ks.spmmNs, "GB/s"},
		"sparse.spmm_share_of_forward":      {ks.spmmNs / on.fwdNs, "ratio"},
		"core.forward_alloc_bytes_per_cell": {alloc, "B/cell"},
		"core.session_bytes_per_cell":       {held, "B/cell"},
	}
	for _, name := range []string{"request." + w.primary, "request.hit"} {
		if l := L[name]; l != nil {
			logf("replayed %s: %d requests, median %.2f ms", name, len(l.total), median(l.total)/1e6)
		}
	}
	logf("replay without spans %.3f s, with spans %.3f s", offDur.Seconds(), onDur.Seconds())
	return m, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
