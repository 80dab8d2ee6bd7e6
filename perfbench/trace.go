package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// span is one harness-side interval around a call into a layer.
type span struct {
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"` // since the tracer was made
	End    int64   `json:"end_ns"`
	Parent int     `json:"parent"`           // index into the span list, -1 for a root
	Req    int     `json:"req"`              // replayed request id
	Work   int64   `json:"work"`             // cells, bytes, ops or rows, per span name
	Flops  float64 `json:"flops,omitempty"`  // computed FLOPs of a forward
	E2EMs  float64 `json:"e2e_ms,omitempty"` // on a request span: the run's latency for it
}

// tracer keeps spans in memory. A tracer with on == false records
// nothing and costs one branch per call, which is what the replay
// without spans runs.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	req   int
	stack []int
	// e2e is the run's latency for the request the next root span
	// replays; begin consumes it.
	e2e float64

	// The largest graph a traced forward ran on, for the kernel replay,
	// and that forward's duration.
	fwdGraph *core.Graph
	fwdText  []byte
	fwdNs    float64
	// Per flow iteration: duration, the part outside the predictor, and
	// the positives found; per flow: full forwards asked for.
	iterMs, rankInsertMs, positives, fullForwards []float64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, work int64) {
	if !t.on {
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req, Work: work})
	if parent < 0 {
		t.spans[len(t.spans)-1].E2EMs, t.e2e = t.e2e, 0
	}
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) beginFlops(name string, work int64, flops float64) {
	t.begin(name, work)
	if t.on {
		t.spans[len(t.spans)-1].Flops = flops
	}
}

// end closes the innermost open span, optionally setting its work
// count when it is only known afterwards (work < 0 keeps it).
func (t *tracer) end(work int64) {
	if !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.t0))
	if work >= 0 {
		t.spans[i].Work = work
	}
}

// noteForward records g as the kernel-replay graph when it is the
// largest so far; call it right after closing that forward's span.
func (t *tracer) noteForward(g *core.Graph, text []byte) {
	if !t.on || (t.fwdGraph != nil && t.fwdGraph.N >= g.N) {
		return
	}
	last := t.spans[len(t.spans)-1]
	t.fwdGraph, t.fwdText, t.fwdNs = g.Clone(), text, float64(last.End-last.Start)
}

// noteFlow splits one opi.RunFlow call into iterations at its Progress
// marks. Progress fires after each iteration's prediction, so an
// interval holds one round of ranking and insertion plus the next
// round's incremental update; the last interval runs to the flow's end.
func (t *tracer) noteFlow(end time.Time, marks []time.Time, positives []int, p *flowPredictor) {
	if !t.on {
		return
	}
	for i, a := range marks {
		b := end
		if i+1 < len(marks) {
			b = marks[i+1]
		}
		var inside time.Duration
		for _, s := range p.spans {
			if !s[0].Before(a) && !s[1].After(b) {
				inside += s[1].Sub(s[0])
			}
		}
		t.iterMs = append(t.iterMs, float64(b.Sub(a))/1e6)
		t.rankInsertMs = append(t.rankInsertMs, float64(b.Sub(a)-inside)/1e6)
		t.positives = append(t.positives, float64(positives[i]))
	}
	t.fullForwards = append(t.fullForwards, float64(p.full))
}

// layer is the aggregate of every span with one name.
type layer struct {
	self  []float64 // self time per span, ns
	total []float64 // duration per span, ns
	work  []float64
	flops []float64
	e2e   []float64 // ms, root spans only
}

func (l *layer) selfSum() float64 { return sum(l.self) }
func (l *layer) workSum() float64 { return sum(l.work) }

// layers aggregates spans by name. A span's self time is its duration
// minus the part its children cover; children never overlap here, so
// that part is the sum of their durations.
func (t *tracer) layers() map[string]*layer {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layer{}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		l.self = append(l.self, float64(s.End-s.Start-child[i]))
		l.total = append(l.total, float64(s.End-s.Start))
		l.work = append(l.work, float64(s.Work))
		l.flops = append(l.flops, s.Flops)
		l.e2e = append(l.e2e, s.E2EMs)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
