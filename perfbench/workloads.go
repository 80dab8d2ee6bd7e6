package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/opi"
	"repro/internal/scoap"
	"repro/internal/serve"
)

// sizes holds every design size and phase length a workload uses;
// smoke mode shrinks them so the whole benchmark runs in seconds.
type sizes struct {
	coldPool       int // score_cold base designs
	coldLo, coldHi int
	editGates      int // edit_session designs (two sessions, one shared)
	opiPool        int // opi_flow warm designs
	opiLo, opiHi   int
	replayCold     int // cold requests replayed by the traced run
	replayEdit     int // client-0 edit requests replayed
	replayOPI      int // opi requests replayed
	// warmup is how long the closed loop runs, checked but untimed,
	// before the measured interval.
	warmup time.Duration
	// setupTime is the least time spent on setup repeats: a setup much
	// shorter than it is repeated more than setupRepeats times, so that
	// the median of a sub-second setup rests on more samples.
	setupTime time.Duration
}

var fullSizes = sizes{
	coldPool: 6, coldLo: 4000, coldHi: 24000,
	editGates: 16000,
	opiPool:   3, opiLo: 4000, opiHi: 8000,
	replayCold: 4, replayEdit: 40, replayOPI: 2,
	warmup: 2 * time.Second, setupTime: 3 * time.Second,
}

var smokeSizes = sizes{
	coldPool: 3, coldLo: 300, coldHi: 900,
	editGates: 1500,
	opiPool:   2, opiLo: 400, opiHi: 700,
	replayCold: 2, replayEdit: 8, replayOPI: 1,
	warmup: 500 * time.Millisecond,
}

// OPI request parameters of the opi_flow workload.
const (
	opiMaxPoints    = 32
	opiPerIteration = 2
	opiPatterns     = 2048
)

// workload is one traffic mix: the designs setup keeps warm, the
// client scripts, the post-run oracle and the traced replay.
type workload struct {
	name    string
	primary string // request class behind p50_ms
	// group maps a primary-class request (client, sequence index) to the
	// design it addressed; p50_ms weighs every design equally.
	group   func(client, seq int) int
	warm    []*design // POSTed by every setup repetition
	scripts func() []script
	// verify checks the kept bodies after the run, clearing ok on every
	// sample whose response is wrong, and returns a note per failure.
	verify func(samples [][]sample) []string
	replay func(tr *tracer, samples [][]sample) error
}

func seededRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)))
}

// walk returns client c's endless walk over pool indexes 0..n-1: a
// fixed cyclic order, each client starting at its own offset. The pool
// is sorted by size, so every seed sends the same size sequence and only
// the circuits (and so their structure) change with the seed.
func walk(c, n int) func() int {
	i := c * n / clients
	return func() int {
		q := i % n
		i++
		return q
	}
}

// ---- score_cold ----

type coldScript struct {
	seed   int64
	client int
	pool   []*design
	pick   func() int
	sent   []coldReq
}

type coldReq struct {
	base    int
	comment string
}

func (s *coldScript) next() (string, string, []byte) {
	r := coldReq{base: s.pick(), comment: fmt.Sprintf("cold-%d-%d-%d", s.seed, s.client, len(s.sent))}
	s.sent = append(s.sent, r)
	return "score", "/v1/score", scoreBody(s.pool[r.base], r.comment)
}

func (s *coldScript) observe(body []byte) (bool, int, bool) {
	return true, s.pool[s.sent[len(s.sent)-1].base].cells, true
}

// coldText is the netlist text a cold request submitted.
func coldText(d *design, comment string) []byte {
	return append([]byte("# "+comment+"\n"), d.text...)
}

func scoreCold(cascade *core.MultiStage, seed int64, sz sizes) (*workload, error) {
	pool, err := genDesigns(cascade, "cold", seed, logUniformSizes(sz.coldPool, sz.coldLo, sz.coldHi))
	if err != nil {
		return nil, err
	}
	var scripts []*coldScript
	w := &workload{name: "score_cold", primary: "score", warm: pool[:1]}
	w.group = func(c, seq int) int { return scripts[c].sent[seq].base }
	w.scripts = func() []script {
		scripts = nil
		var out []script
		for c := 0; c < clients; c++ {
			sc := &coldScript{seed: seed, client: c, pool: pool, pick: walk(c, len(pool))}
			scripts = append(scripts, sc)
			out = append(out, sc)
		}
		return out
	}
	w.verify = func(samples [][]sample) []string {
		var notes []string
		nets := make([]*netlist.Netlist, len(pool))
		for c, cs := range samples {
			for i := range cs {
				s := &cs[i]
				if !s.ok {
					continue
				}
				r := scripts[c].sent[s.seq]
				d := pool[r.base]
				if nets[r.base] == nil {
					nets[r.base], _, _ = d.parse()
				}
				sum := sha256.Sum256(coldText(d, r.comment))
				want := expectedScore(hex.EncodeToString(sum[:]), nets[r.base], d.ref, d.threshold, false)
				if err := checkScore(s.body, want, encodeLikeServer(want)); err != nil {
					s.ok = false
					notes = append(notes, fmt.Sprintf("score client %d #%d (%s): %v", c, s.seq, d.name, err))
				}
				s.body = nil
			}
		}
		return notes
	}
	w.replay = func(tr *tracer, samples [][]sample) error {
		for i, at := range interleave(samples, sz.replayCold) {
			r := scripts[at.client].sent[at.seq]
			d := pool[r.base]
			tr.e2e = at.ms
			c, err := replayCompile(tr, cascade, i, scoreBody(d, r.comment), d.threshold)
			if err != nil {
				return err
			}
			if !sameBits(c.st.Probs, d.ref) {
				return fmt.Errorf("replayed compile of %s disagrees with the reference", d.name)
			}
		}
		return nil
	}
	return w, nil
}

// ---- edit_session ----

type editScript struct {
	sess    *design
	shared  *design
	hitBody []byte
	hitWant []byte
	rng     *rand.Rand
	targets []int32 // insertable cells of sess, in seeded order
	cur     string  // design id the next delta chains on
	nodes   int
	seq     int
	pending []int32 // targets of the delta in flight
	// Per delta that passed the in-loop check, in order: its targets,
	// the SHA-256 of its response body and its sequence index.
	applied [][]int32
	digests [][sha256.Size]byte
	seqs    []int
}

func (s *editScript) next() (string, string, []byte) {
	s.seq++
	if s.seq%4 == 0 {
		s.pending = nil
		return "hit", "/v1/score", s.hitBody
	}
	k := 1 + s.rng.Intn(4)
	s.pending = s.targets[:k]
	s.targets = s.targets[k:]
	b, _ := json.Marshal(serve.DeltaRequest{Design: s.cur, Observe: s.pending, Threshold: s.sess.threshold})
	return "delta", "/v1/score/delta", b
}

func (s *editScript) observe(body []byte) (bool, int, bool) {
	if s.pending == nil { // a hit must equal the expected bytes
		if string(body) == string(s.hitWant) {
			return true, s.shared.cells, false
		}
		return true, s.shared.cells, true // the oracle decodes it
	}
	id := deltaID(s.cur, s.pending)
	if headerID(body) != id || responseNodes(body) != s.nodes+len(s.pending) {
		return false, 0, false
	}
	s.cur, s.nodes = id, s.nodes+len(s.pending)
	s.applied = append(s.applied, s.pending)
	s.digests = append(s.digests, sha256.Sum256(body))
	s.seqs = append(s.seqs, s.seq-1)
	return true, s.nodes, false
}

// deltaID mirrors the documented chaining of design ids through a
// delta: SHA-256 over the base id and each target as '+' and 4 LE bytes.
func deltaID(base string, targets []int32) string {
	h := sha256.New()
	h.Write([]byte(base))
	for _, t := range targets {
		h.Write([]byte{'+', byte(t), byte(t >> 8), byte(t >> 16), byte(t >> 24)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func insertableCells(n *netlist.Netlist) []int32 {
	var out []int32
	for v := int32(0); int(v) < n.NumGates(); v++ {
		switch n.Type(v) {
		case netlist.Input, netlist.Output, netlist.Obs:
		default:
			out = append(out, v)
		}
	}
	return out
}

// sessionTargets is client c's seeded order of insertable targets.
func sessionTargets(sess *design, seed int64, c int) ([]int32, *rand.Rand) {
	rng := seededRand(seed, c)
	targets := slices.Clone(sess.insertable)
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	return targets, rng
}

// insertAll applies observation points exactly as /v1/score/delta does
// (levels copied once, extended per insertion), with an opi.insert span
// per insertion, and returns the dirty rows.
func insertAll(tr *tracer, n *netlist.Netlist, meas *scoap.Measures, g *core.Graph, targets []int32) ([]int32, error) {
	lv := append([]int32(nil), n.Levels()...)
	var dirty []int32
	for _, t := range targets {
		tr.begin("opi.insert", 0)
		_, touched, err := opi.InsertAndRefresh(n, meas, g, t, lv)
		tr.end(int64(len(touched)))
		if err != nil {
			return nil, err
		}
		lv = append(lv, lv[t]+1)
		dirty = append(dirty, touched...)
	}
	return dirty, nil
}

func editSession(cascade *core.MultiStage, seed int64, sz sizes) (*workload, error) {
	ds, err := genDesigns(cascade, "edit", seed, []int{sz.editGates, sz.editGates, sz.editGates})
	if err != nil {
		return nil, err
	}
	sessions, shared := ds[:clients], ds[clients]
	hitBody := scoreBody(shared, "")
	sharedNet, _, _ := shared.parse()
	hitResp := expectedScore(shared.id, sharedNet, shared.ref, shared.threshold, true)
	hitWant := encodeLikeServer(hitResp)
	var scripts []*editScript
	w := &workload{name: "edit_session", primary: "delta", warm: ds}
	w.group = func(c, _ int) int { return c }
	w.scripts = func() []script {
		scripts = nil
		var out []script
		for c := 0; c < clients; c++ {
			targets, rng := sessionTargets(sessions[c], seed, c)
			sc := &editScript{sess: sessions[c], shared: shared, hitBody: hitBody, hitWant: hitWant,
				rng: rng, targets: targets, cur: sessions[c].id, nodes: sessions[c].cells}
			scripts = append(scripts, sc)
			out = append(out, sc)
		}
		return out
	}
	w.verify = func(samples [][]sample) []string {
		notes := make([][]string, len(samples))
		parallel(len(samples), func(c int) {
			cs := samples[c]
			for i := range cs {
				s := &cs[i]
				if s.ok && s.body != nil {
					if err := checkScore(s.body, hitResp, hitWant); err != nil {
						s.ok = false
						notes[c] = append(notes[c], fmt.Sprintf("hit client %d #%d: %v", c, s.seq, err))
					}
					s.body = nil
				}
			}
			notes[c] = append(notes[c], verifyChain(cascade, scripts[c], c, cs)...)
		})
		return slices.Concat(notes...)
	}
	w.replay = func(tr *tracer, samples [][]sample) error {
		targets, rng := sessionTargets(sessions[0], seed, 0)
		return replayEdit(tr, cascade, sessions[0], shared, hitBody, targets, rng, samples[0], sz.replayEdit)
	}
	return w, nil
}

// incrementalTolerance is the incremental == full contract the repo's
// own tests hold UpdateIncremental to (internal/core's incremental
// tests): after edits the two agree within 1e-9, not bitwise, because
// the update sums a changed row's neighbours in another order.
const incrementalTolerance = 1e-9

// verifyChain checks every delta of one session. It compiles a private
// copy of the session design and applies the session's deltas to it in
// order through the layers' public functions, as the handler does; each
// returned body must be byte-equal (by SHA-256) to the encoding of the
// response built from that copy: id, size, every score, the difficult
// list, the update count and the inserted points. Then a full forward
// of the edited copy must agree with its incrementally updated scores
// within incrementalTolerance. A mismatch fails that delta's sample.
func verifyChain(cascade *core.MultiStage, sc *editScript, client int, cs []sample) []string {
	if len(sc.applied) == 0 {
		return nil
	}
	off := newTracer(false)
	c, err := replayCompile(off, cascade, 0, scoreBody(sc.sess, ""), sc.sess.threshold)
	if err != nil {
		return []string{fmt.Sprintf("session %d compile: %v", client, err)}
	}
	var notes []string
	fail := func(k int, format string, args ...any) {
		cs[sc.seqs[k]].ok = false
		notes = append(notes, fmt.Sprintf("session %d delta #%d: ", client, sc.seqs[k])+fmt.Sprintf(format, args...))
	}
	id := sc.sess.id
	for k, ts := range sc.applied {
		id = deltaID(id, ts)
		want, err := applyDelta(off, c, ts, id, sc.sess.threshold)
		if err != nil {
			fail(k, "replay: %v", err)
			return notes // the copy no longer follows the server's state
		}
		if sha256.Sum256(encodeLikeServer(want)) != sc.digests[k] {
			fail(k, "response differs from the replayed delta (%d nodes)", want.Nodes)
		}
	}
	full := core.ClonePredictor(cascade).PredictProbs(c.g)
	ulps := 0
	for i, s := range c.st.Probs {
		if math.Float64bits(s) != math.Float64bits(full[i]) {
			ulps++
			if !(math.Abs(s-full[i]) <= incrementalTolerance) {
				fail(len(sc.applied)-1, "score[%d] = %v, full forward %v", i, s, full[i])
				break
			}
		}
	}
	logf("session %d: %d deltas checked against the replayed chain; last vs full forward: %d of %d scores differ bitwise (all within %g)",
		client, len(sc.applied), ulps, len(full), incrementalTolerance)
	return notes
}

// ---- opi_flow ----

type opiScript struct {
	pool []*design
	pick func() int
	sent []int
}

func opiBody(d *design) []byte {
	b, _ := json.Marshal(serve.OPIRequest{Design: d.id, MaxPoints: opiMaxPoints, PerIteration: opiPerIteration,
		Threshold: d.threshold, Evaluate: true, Patterns: opiPatterns})
	return b
}

func (s *opiScript) next() (string, string, []byte) {
	q := s.pick()
	s.sent = append(s.sent, q)
	return "opi", "/v1/opi", opiBody(s.pool[q])
}

func (s *opiScript) observe(body []byte) (bool, int, bool) {
	return true, s.pool[s.sent[len(s.sent)-1]].cells, true
}

func checkOPI(body []byte, want serve.OPIResponse) error {
	var got serve.OPIResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	switch {
	case got.Design != want.Design:
		return fmt.Errorf("design %q, want %q", got.Design, want.Design)
	case got.Iterations != want.Iterations || got.FinalPositives != want.FinalPositives:
		return fmt.Errorf("iterations/final positives %d/%d, want %d/%d",
			got.Iterations, got.FinalPositives, want.Iterations, want.FinalPositives)
	case got.CoverageBefore == nil || got.CoverageAfter == nil ||
		*got.CoverageBefore != *want.CoverageBefore || *got.CoverageAfter != *want.CoverageAfter:
		return fmt.Errorf("coverage %v -> %v, want %v -> %v",
			ptrVal(got.CoverageBefore), ptrVal(got.CoverageAfter), *want.CoverageBefore, *want.CoverageAfter)
	case len(got.Points) != len(want.Points):
		return fmt.Errorf("%d points, want %d", len(got.Points), len(want.Points))
	}
	for i, p := range got.Points {
		if p != want.Points[i] {
			return fmt.Errorf("point %d = %+v, want %+v", i, p, want.Points[i])
		}
	}
	return nil
}

func ptrVal(p *float64) any {
	if p == nil {
		return "absent"
	}
	return *p
}

func opiFlow(cascade *core.MultiStage, seed int64, sz sizes, gain *float64) (*workload, error) {
	pool, err := genDesigns(cascade, "opi", seed, logUniformSizes(sz.opiPool, sz.opiLo, sz.opiHi))
	if err != nil {
		return nil, err
	}
	var scripts []*opiScript
	w := &workload{name: "opi_flow", primary: "opi", warm: pool}
	w.group = func(c, seq int) int { return scripts[c].sent[seq] }
	w.scripts = func() []script {
		scripts = nil
		var out []script
		for c := 0; c < clients; c++ {
			sc := &opiScript{pool: pool, pick: walk(c, len(pool))}
			scripts = append(scripts, sc)
			out = append(out, sc)
		}
		return out
	}
	w.verify = func(samples [][]sample) []string {
		// The expected answer is the flow replayed without spans: a
		// direct RunFlow plus Evaluate on a private copy of the design.
		want := make([]serve.OPIResponse, len(pool))
		errs := make([]error, len(pool))
		parallel(len(pool), func(q int) { want[q], errs[q] = replayOPI(newTracer(false), cascade, 0, pool[q]) })
		var notes []string
		for q, err := range errs {
			if err != nil {
				notes = append(notes, fmt.Sprintf("opi oracle %s: %v", pool[q].name, err))
			}
		}
		var sum float64
		var n int
		for c, cs := range samples {
			for i := range cs {
				s := &cs[i]
				if !s.ok {
					continue
				}
				q := scripts[c].sent[s.seq]
				if errs[q] != nil {
					s.ok = false
				} else if err := checkOPI(s.body, want[q]); err != nil {
					s.ok = false
					notes = append(notes, fmt.Sprintf("opi client %d #%d (%s): %v", c, s.seq, pool[q].name, err))
				} else {
					sum += *want[q].CoverageAfter - *want[q].CoverageBefore
					n++
				}
				s.body = nil
			}
		}
		if n > 0 {
			*gain = 100 * sum / float64(n)
		}
		return notes
	}
	w.replay = func(tr *tracer, samples [][]sample) error {
		for i, at := range interleave(samples, sz.replayOPI) {
			d := pool[scripts[at.client].sent[at.seq]]
			if _, err := replayCompile(tr, cascade, 2*i, scoreBody(d, ""), d.threshold); err != nil {
				return err
			}
			tr.e2e = at.ms
			if _, err := replayOPI(tr, cascade, 2*i+1, d); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}

// replayed names one request of the run by client and sequence index,
// with its end-to-end latency (0 when it failed).
type replayed struct {
	client, seq int
	ms          float64
}

// interleave returns the first k requests of the run in the order the
// clients started them: each client's first, then each client's second.
func interleave(samples [][]sample, k int) []replayed {
	var out []replayed
	for i := 0; len(out) < k; i++ {
		more := false
		for c, cs := range samples {
			if i < len(cs) && len(out) < k {
				out = append(out, replayed{c, i, e2eMs(cs[i])})
				more = true
			}
		}
		if !more {
			break
		}
	}
	return out
}

func e2eMs(s sample) float64 {
	if !s.ok {
		return 0
	}
	return float64(s.lat) / 1e6
}

// parallel runs f(0..n-1) on one goroutine per core and waits.
func parallel(n int, f func(i int)) {
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range next {
				f(i)
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-done
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func newWorkload(name string, cascade *core.MultiStage, seed int64, sz sizes, gain *float64) (*workload, error) {
	switch name {
	case "score_cold":
		return scoreCold(cascade, seed, sz)
	case "edit_session":
		return editSession(cascade, seed, sz)
	case "opi_flow":
		return opiFlow(cascade, seed, sz, gain)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"score_cold", "edit_session", "opi_flow"}
