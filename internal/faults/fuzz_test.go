package faults

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// FuzzBuildModulated fuzzes Scenario×shape inputs through an unmodulated
// BuildModulated and checks the schedule postconditions the DES replay
// relies on: every death beyond the horizon censored to +Inf, hangs
// sorted by (At, Node) and non-overlapping per node and never after
// that node's death, outages sorted by (Start, Edge) and non-overlapping
// per edge. Invalid inputs must error rather than panic or emit a
// malformed schedule, and every schedule must equal the per-stream
// oracle's.
func FuzzBuildModulated(f *testing.F) {
	f.Add(int64(4*time.Hour), int64(30*time.Minute), int64(45*time.Second),
		int64(20*time.Minute), int64(90*time.Second), 8, 2, int64(2*time.Hour), int64(1))
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0), 0, 0, int64(time.Hour), int64(7))
	f.Add(int64(time.Minute), int64(time.Second), int64(time.Second),
		int64(time.Second), int64(time.Second), 3, 5, int64(10*time.Minute), int64(-9))
	f.Fuzz(func(t *testing.T, mttf, mtbe, rec, omtbf, odur int64, nodes, edges int, horizon, seed int64) {
		// Bound the work per input: tiny rates over a huge horizon would
		// generate millions of events and time the fuzzer out.
		if nodes < 0 || nodes > 64 || edges < 0 || edges > 16 {
			t.Skip()
		}
		if horizon > int64(100*time.Hour) {
			t.Skip()
		}
		clamp := func(d int64) time.Duration {
			if d > 0 && d < int64(time.Second) {
				return time.Second
			}
			return time.Duration(d)
		}
		s := Scenario{
			NodeMTTF:          clamp(mttf),
			SEFIMTBE:          clamp(mtbe),
			SEFIRecovery:      clamp(rec),
			ISLOutageMTBF:     clamp(omtbf),
			ISLOutageDuration: clamp(odur),
		}
		sched, err := BuildModulated(s, nodes, edges, time.Duration(horizon), seed, nil)
		if (s.Validate() != nil || horizon <= 0) != (err != nil) {
			t.Fatalf("validity mismatch: scenario err %v, horizon %v, build err %v", s.Validate(), horizon, err)
		}
		if err != nil {
			return
		}
		if want, _ := buildModulatedOracle(s, nodes, edges, time.Duration(horizon), seed, nil); !reflect.DeepEqual(sched, want) {
			t.Fatal("schedule differs from the per-stream oracle")
		}
		h := time.Duration(horizon).Seconds()
		if len(sched.Deaths) != nodes {
			t.Fatalf("got %d deaths, want %d", len(sched.Deaths), nodes)
		}
		for i, d := range sched.Deaths {
			if d <= 0 || (d > h && !math.IsInf(d, 1)) {
				t.Fatalf("death %d = %v must be in (0, horizon] or +Inf", i, d)
			}
		}
		lastHangEnd := make(map[int]float64)
		for i, hg := range sched.Hangs {
			if hg.Node < 0 || hg.Node >= nodes {
				t.Fatalf("hang %d references node %d of %d", i, hg.Node, nodes)
			}
			if hg.At < 0 || hg.At >= h {
				t.Fatalf("hang %d at %v outside [0, %v)", i, hg.At, h)
			}
			if hg.Recovery < 0 {
				t.Fatalf("hang %d negative recovery", i)
			}
			if hg.At >= sched.Deaths[hg.Node] {
				t.Fatalf("hang %d after node %d death", i, hg.Node)
			}
			if i > 0 && (sched.Hangs[i-1].At > hg.At ||
				(sched.Hangs[i-1].At == hg.At && sched.Hangs[i-1].Node >= hg.Node)) {
				t.Fatalf("hangs not sorted by (At, Node) at %d", i)
			}
			if hg.At < lastHangEnd[hg.Node] {
				t.Fatalf("hang %d overlaps node %d's recovery window", i, hg.Node)
			}
			lastHangEnd[hg.Node] = hg.At + hg.Recovery
		}
		lastOutEnd := make(map[int]float64)
		for i, o := range sched.Outages {
			if o.Edge < 0 || o.Edge >= edges {
				t.Fatalf("outage %d references edge %d of %d", i, o.Edge, edges)
			}
			if o.Start < 0 || o.Start >= h || o.Duration < 0 {
				t.Fatalf("outage %d window [%v, +%v) out of range", i, o.Start, o.Duration)
			}
			if i > 0 && (sched.Outages[i-1].Start > o.Start ||
				(sched.Outages[i-1].Start == o.Start && sched.Outages[i-1].Edge >= o.Edge)) {
				t.Fatalf("outages not sorted by (Start, Edge) at %d", i)
			}
			if o.Start < lastOutEnd[o.Edge] {
				t.Fatalf("outage %d overlaps edge %d's previous window", i, o.Edge)
			}
			lastOutEnd[o.Edge] = o.Start + o.Duration
		}
	})
}
