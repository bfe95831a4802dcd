package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// blockResult is what one child process reports to the parent: raw host
// times plus the calibration that normalizes them.
type blockResult struct {
	Workload    string    `json:"workload"`
	CalibMS     []float64 `json:"calib_ms"` // one kernel run per op
	SetupS      float64   `json:"setup_s"`
	OpMS        []float64 `json:"op_ms"`       // untraced ops
	AllocB      []float64 `json:"alloc_bytes"` // per untraced op
	GC          uint32    `json:"gc"`          // GC cycles during untraced ops
	GCPauseNS   uint64    `json:"gc_pause_ns"`
	CPUS        float64   `json:"cpu_s"` // user+system CPU during untraced ops
	MaxRSSKB    int64     `json:"max_rss_kb"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Failures    []string  `json:"failures,omitempty"`
	Fingerprint string    `json:"fingerprint"`

	// Traced blocks only; times are normalized.
	TracedOpMS []float64          `json:"traced_op_ms,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	SelfMS     map[string]float64 `json:"self_ms,omitempty"` // per traced op
	Spans      []span             `json:"spans,omitempty"`
}

// maxFailures bounds how many failure messages a block keeps.
const maxFailures = 5

func (r *blockResult) fail(err error) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, err.Error())
	}
}

//go:embed expected.json
var expectedJSON []byte

// checkExpected compares a fingerprint with the one stored for the
// default seed. Other seeds and the smoke test's small inputs have no
// stored fingerprint; determinism and the invariants still apply.
func checkExpected(workload string, p params, fp string) error {
	if p.seed != 1 || p.small {
		return nil
	}
	var want map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	if w, ok := want[workload]; !ok || w != fp {
		return fmt.Errorf("fingerprint %s, expected.json has %q", fp, w)
	}
	return nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

// runBlock is one child's work: build the inputs and run the warm-up op
// (set-up), then run timed ops, each preceded by one calibration kernel
// run, until budget is spent. A traced block alternates untraced and
// traced ops and then runs the workload's layer comparisons.
func runBlock(w benchWorkload, p params, budget time.Duration, traced bool) (*blockResult, error) {
	res := &blockResult{Workload: w.name}
	// The first kernel run in a fresh process also faults in its
	// buffers; it is not counted.
	calibKernel()
	var tr *tracer
	if traced {
		tr = newTracer(w.name)
	}

	t0 := time.Now()
	inst, err := w.setup(p, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	warm, err := inst.run(tr)
	res.SetupS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("%s warm-up op: %w", w.name, err)
	}
	res.Attempted++
	fp, err := warm.verify()
	if err == nil {
		err = checkExpected(w.name, p, fp)
	}
	if err != nil {
		res.fail(fmt.Errorf("warm-up op: %w", err))
	}
	res.Fingerprint = fp

	minOps := 1
	if traced {
		minOps = 2
	}
	var spent time.Duration
	for op := 1; op <= minOps || spent < budget; op++ {
		var opTr *tracer
		if traced && op%2 == 0 {
			opTr = tr
			tr.op = op
		}
		res.CalibMS = append(res.CalibMS, calibKernel())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ru0 := rusage()
		start := time.Now()
		end := opTr.begin("bench.op")
		o, err := inst.run(opTr)
		end()
		d := time.Since(start)
		ru1 := rusage()
		runtime.ReadMemStats(&m1)
		spent += d
		res.Attempted++
		if opTr != nil {
			res.TracedOpMS = append(res.TracedOpMS, ms(d))
		} else {
			res.OpMS = append(res.OpMS, ms(d))
			res.AllocB = append(res.AllocB, float64(m1.TotalAlloc-m0.TotalAlloc))
			res.GC += m1.NumGC - m0.NumGC
			res.GCPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
			res.CPUS += cpuSeconds(ru1) - cpuSeconds(ru0)
		}
		if err == nil {
			var got string
			if got, err = o.verify(); err == nil && got != fp {
				err = fmt.Errorf("fingerprint %s differs from the warm-up op's %s", got, fp)
			}
		}
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", op, err))
		}
	}

	var l *layerSet
	if traced {
		tr.op = -1
		l = newLayerSet()
		for k, v := range warm.counts {
			l.put(k, v)
		}
		if err := inst.layers(l, tr, warm, median(res.OpMS)); err != nil {
			res.fail(fmt.Errorf("layer comparison: %w", err))
		}
	}
	res.MaxRSSKB = rusage().Maxrss
	if traced {
		calib := median(res.CalibMS)
		opLayerMetrics(l, res, warm, calib, tr.spans)
		res.Layers = l.scaled(calib)
		res.SelfMS = map[string]float64{}
		var opSpans []span
		for _, s := range tr.spans {
			if s.Op > 0 {
				opSpans = append(opSpans, s)
			}
		}
		for name, d := range selfTimes(opSpans) {
			res.SelfMS[name] = normalize(ms(d), calib) / float64(len(res.TracedOpMS))
		}
		res.Spans = tr.spans
	}
	return res, nil
}

// opLayerMetrics adds the per-layer metrics derived from the block's own
// op timings, spans and runtime counters.
func opLayerMetrics(l *layerSet, res *blockResult, warm outcome, calib float64, spans []span) {
	p50 := median(res.OpMS)
	n := float64(len(res.OpMS))
	norm := normalize(p50, calib)
	wall := 0.0
	for _, d := range res.OpMS {
		wall += d
	}
	l.put("host.calib_ms", calib)
	l.put("host.raw_op_ms_p50", p50)
	l.hostTime("host.op_ms_iqr", iqr(res.OpMS))
	l.put("go.gc_per_op", float64(res.GC)/n)
	l.hostTime("go.gc_pause_ms_per_op", float64(res.GCPauseNS)/1e6/n)
	l.put("netsim.cpu_per_wall", res.CPUS*1000/wall)
	l.put("trace_overhead_frac", median(res.TracedOpMS)/p50-1)
	// The DES rates use the netsim.Run spans, which are the whole op
	// except in trace-analysis, where the DES records the trace.
	if des, _ := spanStats(spans, "netsim.Run"); des > 0 {
		des = normalize(des, calib)
		if ev := l.vals["netsim.events_per_op"]; ev > 0 {
			l.put("netsim.ns_per_event", des*1e6/ev)
		}
		l.put("netsim.sim_frames_per_s", warm.counts["netsim.frames_generated"]/(des/1000))
	}
	if ev := warm.counts["trace.events"]; ev > 0 {
		l.put("trace.events_per_s", ev/(norm/1000))
	}
}
