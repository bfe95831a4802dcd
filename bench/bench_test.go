package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []def
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark emits %d", len(c.json), len(c.code))
		}
		for i, d := range c.json {
			if d.Name != c.code[i].name || d.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, d.Name, d.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// layerWitness is one per-layer metric each workload must measure as
// nonzero, so a comparison that silently stops running shows up.
var layerWitness = map[string][]string{
	"star-ref":       {"netsim.events_per_op", "netsim.ns_per_event", "netsim.sim_frames_per_s"},
	"walker-4k":      {"netsim.sync.rounds", "netsim.sync.mean_lookahead_s", "netsim.shard_speedup", "topo.routes_ms"},
	"mission":        {"faults.hangs", "degrade.phases", "placement.decide_ns", "window.count", "slo.run_ms"},
	"trace-analysis": {"trace.jsonl_bytes", "trace.jsonl_decode_ms", "trace.events_per_s", "latency.frames", "slo.from_trace_ms"},
	"exhibits":       {"experiments.paper_ms", "experiments.ablations_ms", "experiments.e1_e6_ms", "par.speedup", "dse.explore_ms"},
}

// TestSmokeEveryWorkload runs every workload for one op on small inputs
// through the block and report code of a real run, untraced with a
// non-default seed and traced, and checks every metric is emitted with
// its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := runBlock(w, params{seed: 7, small: true}, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed > 0 {
					t.Fatalf("traced=%v: %d failed checks: %v", traced, res.Failed, res.Failures)
				}
				var out, errOut bytes.Buffer
				final := report(&out, &errOut, []string{w.name}, map[string][]*blockResult{w.name: {res}}, traced)
				if !final.Correct || final.Attempted < 2 {
					t.Fatalf("traced=%v: summary %+v", traced, final)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(final.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(final.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := final.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end %s = %v, want > 0", d.name, m.Value)
					}
					if !strings.Contains(out.String(), fmt.Sprintf("%s %s ", w.name, d.name)) {
						t.Errorf("traced=%v: %s not printed", traced, d.name)
					}
				}
				if traced {
					for _, n := range layerWitness[w.name] {
						if v := final.Metrics[n].Value; v <= 0 || math.IsNaN(v) {
							t.Errorf("%s = %v, want > 0", n, v)
						}
					}
					if res.SelfMS["netsim.Run"] <= 0 && res.SelfMS["experiments.RunAll"] <= 0 {
						t.Errorf("no self time for the op's layer call: %v", res.SelfMS)
					}
				}
			}
		})
	}
}

// TestStoredFingerprints runs each workload's default-seed op at full
// size and checks it against bench/expected.json.
func TestStoredFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size ops")
	}
	for _, w := range workloads {
		res, err := runBlock(w, params{seed: 1}, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed > 0 {
			t.Errorf("%s: %v", w.name, res.Failures)
		}
	}
}

func TestCheckExpected(t *testing.T) {
	if err := checkExpected("star-ref", params{seed: 1}, "0000000000000000"); err == nil {
		t.Error("a wrong default-seed fingerprint must fail")
	}
	if err := checkExpected("star-ref", params{seed: 7}, "0000000000000000"); err != nil {
		t.Errorf("other seeds have no stored fingerprint: %v", err)
	}
}

func TestP90NeedsHundredSamples(t *testing.T) {
	xs := make([]float64, minP90Samples-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := p90(xs); ok {
		t.Errorf("p90 reported for n = %d", len(xs))
	}
	xs = append(xs, float64(len(xs)))
	v, ok := p90(xs)
	if !ok || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, %v; want 89.1", v, ok)
	}
	for _, n := range []int{minP90Samples - 1, minP90Samples} {
		b := &blockResult{CalibMS: []float64{calibRefMS}, OpMS: xs[:n]}
		_, host := summarize([]*blockResult{b})
		printed := false
		for _, h := range host {
			printed = printed || h.name == "host.op_ms_p90"
		}
		if printed != (n >= minP90Samples) {
			t.Errorf("n = %d: host.op_ms_p90 printed = %v", n, printed)
		}
	}
}

func TestCalibKernelAllocatesNothing(t *testing.T) {
	calibKernel()
	if n := testing.AllocsPerRun(3, func() { calibKernel() }); n != 0 {
		t.Errorf("calibKernel allocates %v times per run; its garbage would shift the ops' GC cycles", n)
	}
}

func TestCalibrationScaling(t *testing.T) {
	if got := normalize(200, 2*calibRefMS); got != 100 {
		t.Errorf("a block whose kernel ran at half speed: 200 ms normalizes to %v, want 100", got)
	}
	// Two blocks on hosts of different speed report the same op time.
	fast := &blockResult{CalibMS: []float64{calibRefMS / 2}, OpMS: []float64{50, 50, 50}, SetupS: 1}
	slow := &blockResult{CalibMS: []float64{calibRefMS * 1.5}, OpMS: []float64{150, 150}, SetupS: 3}
	e2e, _ := summarize([]*blockResult{fast, slow})
	if e2e["op_ms_p50"] != 100 || e2e["setup_s"] != 2 {
		t.Errorf("normalized op %v ms, setup %v s; want 100 and 2", e2e["op_ms_p50"], e2e["setup_s"])
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(id, parent int, name string, start, end time.Duration) span {
		return span{ID: id, Parent: parent, Name: name, StartNS: int64(start), EndNS: int64(end)}
	}
	spans := []span{
		at(1, 0, "op", 0, 100),
		at(2, 1, "a", 10, 30),
		at(3, 1, "b", 40, 70),
		at(4, 3, "a", 45, 50),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 50, "a": 25, "b": 25}
	for n, d := range want {
		if got[n] != d {
			t.Errorf("self time of %s = %v, want %v", n, got[n], d)
		}
	}

	tr := newTracer("w")
	endOp := tr.begin("op")
	endChild := tr.begin("child")
	endChild()
	endOp()
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Errorf("nested spans recorded as %+v", tr.spans)
	}
	var none *tracer
	none.begin("ignored")()
}
