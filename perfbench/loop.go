package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/netlist"
	"repro/internal/serve"
)

// script generates one closed-loop client's request sequence. next
// returns the request to send; observe sees its response inside the
// timed loop, so it may only do cheap checks, and reports whether they
// passed, the cells the response covers, and whether the oracle needs
// the body after the run.
type script interface {
	next() (class, path string, body []byte)
	observe(body []byte) (ok bool, cells int, keep bool)
}

// sample is one request as the client saw it.
type sample struct {
	class string
	lat   time.Duration
	ok    bool // 2xx, no transport error, and no oracle mismatch
	cells int
	seq   int    // index within the client's sequence
	warm  bool   // sent during the warm-up: checked, but not in the metrics
	body  []byte // kept only when the oracle asked for it
	err   string
}

// runLoop drives one goroutine per script against the server, first
// for the warm-up and then for the measured interval dur, and returns
// every client's samples plus each client's measured span: from its
// first send after the warm-up to its last response. Requests in flight
// at either boundary run to completion in the phase they started in.
// onMeasure runs as the measured interval begins.
func runLoop(s *server, scripts []script, warmup, dur time.Duration, corrupt string, onMeasure func()) ([][]sample, []time.Duration) {
	out := make([][]sample, len(scripts))
	spans := make([]time.Duration, len(scripts))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, sc := range scripts {
		wg.Add(1)
		go func(c int, sc script) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			corrupted := false
			var first time.Time
			for i := 0; time.Since(t0) < warmup+dur; i++ {
				class, path, body := sc.next()
				start := time.Now()
				status, resp, err := cl.post(s.url+path, body)
				smp := sample{class: class, lat: time.Since(start), seq: i, warm: start.Sub(t0) < warmup}
				if err == nil && c == 0 && class == corrupt && !corrupted {
					resp, corrupted = corruptBody(resp), true
				}
				switch {
				case err != nil:
					smp.err = err.Error()
				case status < 200 || status > 299:
					smp.err = fmt.Sprintf("status %d: %.200s", status, resp)
				default:
					var keep bool
					smp.ok, smp.cells, keep = sc.observe(resp)
					if keep {
						smp.body = resp
					}
					if !smp.ok && !keep {
						smp.err = "response failed the in-loop check"
					}
				}
				out[c] = append(out[c], smp)
				if !smp.warm {
					if first.IsZero() {
						first = start
					}
					spans[c] = start.Add(smp.lat).Sub(first)
				}
			}
		}(c, sc)
	}
	time.Sleep(time.Until(t0.Add(warmup)))
	onMeasure()
	wg.Wait()
	return out, spans
}

// rates returns the measured interval's OK responses and covered cells
// per second: each client's counts over its own measured span, summed
// over the clients. A closed-loop client's span holds only its own
// requests, so a request straddling the warm-up boundary adds no idle
// time.
func rates(samples [][]sample, spans []time.Duration) (rps, cellsPerS float64) {
	for c, cs := range samples {
		if spans[c] <= 0 {
			continue
		}
		var ok, cells int
		for _, s := range cs {
			if !s.warm && s.ok {
				ok++
				cells += s.cells
			}
		}
		rps += float64(ok) / spans[c].Seconds()
		cellsPerS += float64(cells) / spans[c].Seconds()
	}
	return rps, cellsPerS
}

// corruptBody changes one digit in the second half of a response, the
// negative case the oracle must catch.
func corruptBody(b []byte) []byte {
	b = append([]byte(nil), b...)
	for i := len(b) / 2; i < len(b); i++ {
		if b[i] >= '1' && b[i] <= '8' {
			b[i]++
			return b
		}
	}
	return b
}

// classStats summarizes one request class over the measured interval.
type classStats struct {
	sent, ok int
	lats     []float64 // ms; failed requests count as +Inf
}

func summarize(samples [][]sample) map[string]*classStats {
	out := map[string]*classStats{}
	for _, cs := range samples {
		for _, s := range cs {
			if s.warm {
				continue
			}
			st := out[s.class]
			if st == nil {
				st = &classStats{}
				out[s.class] = st
			}
			st.sent++
			if s.ok {
				st.ok++
			}
			st.lats = append(st.lats, latencyMs(s))
		}
	}
	for _, st := range out {
		sort.Float64s(st.lats)
	}
	return out
}

// percentile returns the nearest-rank p-th percentile of sorted xs and
// how many samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

// groupedMedian is the median over groups of each group's median
// latency (ms) of the class's requests, failed requests counting as
// +Inf, over the measured interval. With a fixed pool of designs of different sizes the plain
// median jumps between two adjacent sizes as the per-design counts
// shift by one; weighing each design equally does not.
func groupedMedian(samples [][]sample, class string, group func(client, seq int) int) float64 {
	byGroup := map[int][]float64{}
	for c, cs := range samples {
		for _, s := range cs {
			if s.class == class && !s.warm {
				g := group(c, s.seq)
				byGroup[g] = append(byGroup[g], latencyMs(s))
			}
		}
	}
	var meds []float64
	for _, lats := range byGroup {
		meds = append(meds, median(lats))
	}
	return median(meds)
}

func latencyMs(s sample) float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return float64(s.lat) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// expectedScore is the score response the server must produce for a
// design whose probabilities are probs.
func expectedScore(id string, n *netlist.Netlist, probs []float64, threshold float64, cached bool) serve.ScoreResponse {
	return serve.ScoreResponse{
		Design:    id,
		Nodes:     n.NumGates(),
		Scores:    probs,
		Difficult: difficult(n, probs, threshold),
		Cached:    cached,
	}
}

// difficult lists the cells at or above threshold by descending score,
// ties by ascending id: the documented order of the difficult list.
func difficult(n *netlist.Netlist, probs []float64, threshold float64) []serve.NodeScore {
	out := []serve.NodeScore{}
	for v, p := range probs {
		if p >= threshold {
			out = append(out, serve.NodeScore{ID: int32(v), Name: n.Gate(int32(v)).Name, Score: p})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// encodeLikeServer encodes v the way the server writes a response.
func encodeLikeServer(v any) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// checkScore compares a score response body with the expected one: the
// bytes first, then field by field, so that a pure encoding change is
// not a failure. Updated and Inserted are not compared.
func checkScore(body []byte, want serve.ScoreResponse, wantBytes []byte) error {
	if wantBytes != nil && bytes.Equal(body, wantBytes) {
		return nil
	}
	var got serve.ScoreResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	switch {
	case got.Design != want.Design:
		return fmt.Errorf("design %q, want %q", got.Design, want.Design)
	case got.Nodes != want.Nodes:
		return fmt.Errorf("nodes %d, want %d", got.Nodes, want.Nodes)
	case got.Cached != want.Cached:
		return fmt.Errorf("cached %v, want %v", got.Cached, want.Cached)
	case len(got.Scores) != len(want.Scores):
		return fmt.Errorf("%d scores, want %d", len(got.Scores), len(want.Scores))
	case len(got.Difficult) != len(want.Difficult):
		return fmt.Errorf("%d difficult cells, want %d", len(got.Difficult), len(want.Difficult))
	}
	for i, s := range got.Scores {
		if math.Float64bits(s) != math.Float64bits(want.Scores[i]) {
			return fmt.Errorf("score[%d] = %v, want %v", i, s, want.Scores[i])
		}
	}
	for i, d := range got.Difficult {
		w := want.Difficult[i]
		if d.ID != w.ID || d.Name != w.Name || math.Float64bits(d.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("difficult[%d] = %+v, want %+v", i, d, w)
		}
	}
	return nil
}

// responseNodes extracts the "nodes" field that follows "design" in a
// score response, without decoding the body.
func responseNodes(body []byte) int {
	const key = `,"nodes":`
	i := bytes.Index(body[:min(len(body), 200)], []byte(key))
	if i < 0 {
		return -1
	}
	n := 0
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}
