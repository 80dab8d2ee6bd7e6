// Command perfbench is the repository's benchmark: it serves the
// production cascade from an in-process internal/serve server, drives
// one closed-loop workload against it, checks every answer against an
// independent oracle, and prints the metrics. With -trace 1 it also
// replays the request sequence through the layers' public functions
// with harness-side spans and prints the per-layer metrics.
//
// Usage (normally through perfbench/run.py, which builds it):
//
//	perfbench -workload score_cold|edit_session|opi_flow -seed N -seconds S -trace 0|1
//	          [-smoke] [-corrupt CLASS] [-spans FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	corrupt  string
	spans    string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured interval of the closed loop")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced replay and prints per-layer metrics instead")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny designs, for a quick end-to-end check")
	flag.StringVar(&o.corrupt, "corrupt", "", "negative case: corrupt the first response of this request class")
	flag.StringVar(&o.spans, "spans", "", "file the traced replay writes its spans to")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	obs.Enable() // as cmd/serve does: instrumentation is part of the service
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func run(o options) (*report, error) {
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	cascade := newCascade()
	t := time.Now()
	var gain float64
	w, err := newWorkload(o.workload, cascade, o.seed, sz, &gain)
	if err != nil {
		return nil, err
	}
	logf("workload %s seed %d: inputs and references in %.2f s", w.name, o.seed, time.Since(t).Seconds())

	// Setup: a fresh server warmed with the workload's designs, repeated
	// at least setupRepeats times and until sz.setupTime is spent; the
	// last one serves the run.
	var setups []float64
	var spent time.Duration
	var srv *server
	for r := 0; r < setupRepeats || spent < sz.setupTime; r++ {
		if srv != nil {
			srv.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t := time.Now()
		if srv, err = startServer(cascade); err != nil {
			return nil, err
		}
		if err := warm(srv, w.warm); err != nil {
			srv.close()
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		spent += time.Since(t)
	}
	logf("setup_s repeats: %s", fmtList(setups))

	// The closed loop first runs the same traffic, checked but untimed,
	// for the warm-up, so that the measured interval starts with the
	// process's heap grown and its pages faulted in. peak_rss_mb is the
	// peak of the measured interval: the earlier setups are freed and
	// the high-water mark is reset as the interval begins.
	runtime.GC()
	debug.FreeOSMemory()
	samples, spans := runLoop(srv, w.scripts(), sz.warmup, time.Duration(o.seconds*float64(time.Second)), o.corrupt, func() {
		if err := resetPeakRSS(); err != nil {
			logf("peak_rss_mb includes setup: cannot reset VmHWM: %v", err)
		}
	})
	peakMB := peakRSSMB()
	srv.close()
	notes := w.verify(samples)

	rep := &report{}
	warmups := 0
	for _, cs := range samples {
		for _, s := range cs {
			rep.Attempted++
			if s.warm {
				warmups++
			}
			if !s.ok {
				rep.Failed++
				if s.err != "" {
					notes = append(notes, s.class+": "+s.err)
				}
			}
		}
	}
	rep.Correct = rep.Failed == 0 && len(notes) == 0
	for i, n := range notes {
		if i == 10 {
			logf("FAIL ... %d more", len(notes)-i)
			break
		}
		logf("FAIL %s", n)
	}

	logf("warm-up: %d requests in %.1f s, checked but not timed", warmups, sz.warmup.Seconds())
	stats := summarize(samples)
	classes := make([]string, 0, len(stats))
	for c := range stats {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		st := stats[c]
		line := fmt.Sprintf("class %-5s sent %d ok %d failed %d", c, st.sent, st.ok, st.sent-st.ok)
		for _, p := range []float64{50, 90, 99} {
			v, beyond := percentile(st.lats, p)
			if p == 50 || beyond >= 10 {
				line += fmt.Sprintf(" | p%g %.2f ms (n=%d, %d beyond)", p, v, st.sent, beyond)
			}
		}
		logf("%s", line)
	}
	primary := stats[w.primary]
	if primary == nil || primary.ok == 0 {
		return nil, fmt.Errorf("no successful %s request in %.1f s", w.primary, o.seconds)
	}
	p50 := groupedMedian(samples, w.primary, w.group)
	rps, cellsPerS := rates(samples, spans)
	e2e := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"throughput_rps": {rps, "1/s"},
		"p50_ms":         {p50, "ms"},
		"cells_per_s":    {cellsPerS, "cells/s"},
		"peak_rss_mb":    {peakMB, "MB"},
	}
	printMetrics("e2e", e2e)
	logf("error_frac %.4f (failed %d of %d attempted)", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	if w.name == "opi_flow" {
		logf("coverage_gain_pp %.4f pp (mean coverage after - before over correct responses)", gain)
	}
	if !o.trace {
		rep.Metrics = e2e
		return rep, nil
	}

	layers, err := tracedReplay(o, w, cascade, samples, stats, gain)
	if err != nil {
		return nil, err
	}
	printMetrics("layer", layers)
	rep.Metrics = layers
	return rep, nil
}

func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("%s %-34s %14.6g %s", kind, n, ms[n].Value, ms[n].Unit)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// resetPeakRSS sets this process's VmHWM to its current RSS
// (proc(5), /proc/pid/clear_refs, value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's VmHWM in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
