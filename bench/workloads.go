package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"sudc/internal/degrade"
	"sudc/internal/experiments"
	"sudc/internal/faults"
	"sudc/internal/netsim"
	"sudc/internal/obs"
	"sudc/internal/obs/latency"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/placement"
	"sudc/internal/topo"
	"sudc/internal/workload"
)

// params are the knobs the generated inputs depend on. The seed flows
// into every DES config (the exhibits keep their fixed internal seeds);
// small shrinks every horizon for the smoke test.
type params struct {
	seed  int64
	small bool
}

// outcome is one op's product. verify runs after the op's timer has
// stopped: it checks the op's invariants and returns the fingerprint
// every later op of the block must reproduce.
type outcome struct {
	counts map[string]float64 // deterministic per-op layer counts
	verify func() (fingerprint string, err error)
}

// instance is a workload with its inputs built.
type instance struct {
	// run is one op. Spans go to tr, which is nil in untraced ops.
	run func(tr *tracer) (outcome, error)
	// layers measures the traced run's per-layer comparisons, given the
	// warm-up op's outcome and the raw median time of the untraced ops.
	layers func(l *layerSet, tr *tracer, warm outcome, opMS float64) error
}

type benchWorkload struct {
	name, why string
	setup     func(p params, tr *tracer) (*instance, error)
}

var workloads = []benchWorkload{
	{"star-ref", "single-cell DES event core on the paper's 64-satellite reference run; bypasses the synchronizer and every optional layer", setupStarRef},
	{"walker-4k", "4096-satellite, 64-cell Walker at 2 shards: topology compile and the conservative-lookahead synchronizer", setupWalker},
	{"mission", "reference run with faults, COTS degradation, placement, obs registry, windows and SLOs all on", setupMission},
	{"trace-analysis", "record, encode, decode and analyse a flight recording: allocation- and GC-bound, unlike the DES runs", setupTraceAnalysis},
	{"exhibits", "all 44 paper, ablation and extension exhibits on 2 par workers: many short DES runs plus the analytic models", setupExhibits},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// refApp is Table III's first application, the reference scenario's.
var refApp = workload.Suite[0]

// faultedScenario is the fault mix of BenchmarkNetsimFaulted.
var faultedScenario = faults.Scenario{
	NodeMTTF:          8 * time.Hour,
	SEFIMTBE:          30 * time.Minute,
	SEFIRecovery:      30 * time.Second,
	ISLOutageMTBF:     30 * time.Minute,
	ISLOutageDuration: time.Minute,
}

func horizon(p params, full, small time.Duration) time.Duration {
	if p.small {
		return small
	}
	return full
}

func fingerprint(parts ...[]byte) string {
	h := sha256.New()
	for _, b := range parts {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// conserved checks that every generated frame is accounted for.
func conserved(s netsim.Stats) error {
	if got := s.FramesProcessed + s.FramesShed + s.FramesLost + s.Backlog; got != s.FramesGenerated {
		return fmt.Errorf("frame conservation: generated %d != processed %d + shed %d + lost %d + backlog %d",
			s.FramesGenerated, s.FramesProcessed, s.FramesShed, s.FramesLost, s.Backlog)
	}
	return nil
}

// desOutcome wraps a DES op's Stats: fingerprinted, conservation-checked,
// and exported as per-layer counts.
func desOutcome(s netsim.Stats) outcome {
	sy := s.Sync
	counts := map[string]float64{
		"netsim.frames_generated":    float64(s.FramesGenerated),
		"netsim.frames_processed":    float64(s.FramesProcessed),
		"netsim.frames_retried":      float64(s.FramesRetried),
		"netsim.frames_redispatched": float64(s.FramesRedispatched),
		"netsim.frames_shed":         float64(s.FramesShed),
		"netsim.frames_lost":         float64(s.FramesLost),
		"netsim.availability":        s.Availability,
		"netsim.sync.rounds":         float64(sy.Rounds),
		"netsim.sync.cell_runs":      float64(sy.CellRuns),
		"netsim.sync.cross_msgs":     float64(sy.CrossMsgs),
	}
	if sy.Rounds > 0 {
		counts["netsim.sync.cells_per_round"] = float64(sy.CellRuns) / float64(sy.Rounds)
		counts["netsim.sync.mean_lookahead_s"] = sy.LookaheadSum / float64(sy.CellRuns)
	}
	return outcome{
		counts: counts,
		verify: func() (string, error) { return fingerprint([]byte(fmt.Sprintf("%+v", s))), conserved(s) },
	}
}

func runDES(tr *tracer, c netsim.Config) (netsim.Stats, error) {
	end := tr.begin("netsim.Run")
	s, err := netsim.Run(c)
	end()
	return s, err
}

// countEvents reruns the config with an obs registry attached and sums
// its events/* counters. The registry does not change the simulation,
// so the count holds for the op.
func countEvents(l *layerSet, c netsim.Config) error {
	c.Obs = obs.New()
	if _, err := netsim.Run(c); err != nil {
		return err
	}
	var n int64
	for _, cv := range c.Obs.Snapshot().Counters {
		if strings.Contains(cv.Name, "events/") {
			n += cv.Value
		}
	}
	l.put("netsim.events_per_op", float64(n))
	return nil
}

// medianTime runs fn layerReps times and returns its median raw time in
// ms.
func medianTime(fn func() error) (float64, error) {
	ts := make([]float64, layerReps)
	for i := range ts {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts[i] = ms(time.Since(t0))
	}
	return median(ts), nil
}

// layerReps is how often a traced run repeats each standalone layer
// call or comparison it times.
const layerReps = 5

// pairedTimes runs a and b alternately, layerReps times each, so both
// see the same host conditions, and returns their median raw times in
// ms.
func pairedTimes(a, b func() error) (float64, float64, error) {
	var ta, tb []float64
	timed := func(fn func() error, ts *[]float64) error {
		t0 := time.Now()
		err := fn()
		*ts = append(*ts, ms(time.Since(t0)))
		return err
	}
	for i := 0; i < layerReps; i++ {
		if err := timed(a, &ta); err != nil {
			return 0, 0, err
		}
		if err := timed(b, &tb); err != nil {
			return 0, 0, err
		}
	}
	return median(ta), median(tb), nil
}

func setupStarRef(p params, _ *tracer) (*instance, error) {
	c := netsim.DefaultConfig(refApp)
	c.Duration = horizon(p, 24*time.Hour, 10*time.Minute)
	c.Seed = p.seed
	return &instance{
		run: func(tr *tracer) (outcome, error) {
			s, err := runDES(tr, c)
			return desOutcome(s), err
		},
		layers: func(l *layerSet, _ *tracer, _ outcome, _ float64) error { return countEvents(l, c) },
	}, nil
}

func setupWalker(p params, tr *tracer) (*instance, error) {
	planes := 64
	if p.small {
		planes = 4
	}
	walker := func() (*topo.Graph, error) { return topo.Walker(planes, 64, 33, 2, 200*time.Millisecond) }
	end := tr.begin("topo.Walker")
	g, err := walker()
	end()
	if err != nil {
		return nil, err
	}
	c := netsim.TopologyConfig(refApp, g)
	c.Duration = horizon(p, 5*time.Minute, 10*time.Second)
	c.Seed = p.seed
	c.Shards = 2
	return &instance{
		run: func(tr *tracer) (outcome, error) {
			s, err := runDES(tr, c)
			return desOutcome(s), err
		},
		layers: func(l *layerSet, _ *tracer, _ outcome, _ float64) error {
			if err := countEvents(l, c); err != nil {
				return err
			}
			// Shards only schedule cells onto goroutines, so both
			// counts must give identical Stats.
			var stats [2]netsim.Stats
			shards := func(n int) func() error {
				return func() (err error) {
					cc := c
					cc.Shards = n
					stats[n-1], err = netsim.Run(cc)
					return err
				}
			}
			one, two, err := pairedTimes(shards(1), shards(2))
			if err != nil {
				return err
			}
			if stats[0] != stats[1] {
				return fmt.Errorf("shards=1 and shards=2 Stats differ:\n%+v\n%+v", stats[0], stats[1])
			}
			l.put("netsim.shard_speedup", one/two)
			t, err := medianTime(func() error { _, err := walker(); return err })
			if err != nil {
				return err
			}
			l.hostTime("topo.walker_ms", t)
			t, err = medianTime(func() error { _, err := g.Routes(); return err })
			if err != nil {
				return err
			}
			l.hostTime("topo.routes_ms", t)
			return nil
		},
	}, nil
}

func setupMission(p params, _ *tracer) (*instance, error) {
	c := netsim.DefaultConfig(refApp)
	c.Duration = horizon(p, 12*time.Hour, 30*time.Minute)
	c.Seed = p.seed
	c.NeedWorkers = c.Workers
	c.Workers += 4
	c.Faults = faultedScenario
	prof := degrade.COTSProfile(1)
	c.Degrade = &prof
	pc, err := placement.DefaultScenario(refApp).Config(placement.Policy{Kind: placement.Static, StaticTier: placement.TierSpace})
	if err != nil {
		return nil, err
	}
	c.Placement = pc
	sloCfg := slo.DefaultConfig()
	var wins []window.Window
	// instrumented is the mission config with every sink on; each op
	// gets a fresh registry and window stream.
	instrumented := func() netsim.Config {
		cc := c
		cc.Obs = obs.New()
		cc.Window = 10 * time.Minute
		wins = nil
		cc.OnWindow = func(w window.Window) { wins = append(wins, w) }
		cc.SLO = &sloCfg
		return cc
	}
	return &instance{
		run: func(tr *tracer) (outcome, error) {
			s, err := runDES(tr, instrumented())
			return desOutcome(s), err
		},
		layers: func(l *layerSet, _ *tracer, _ outcome, _ float64) error {
			if err := countEvents(l, c); err != nil {
				return err
			}
			with, without, err := pairedTimes(
				func() error { _, err := netsim.Run(instrumented()); return err },
				func() error { _, err := netsim.Run(c); return err })
			if err != nil {
				return err
			}
			l.put("obs.instr_overhead_frac", with/without-1)
			l.put("window.count", float64(len(wins)))

			cfg := sloCfg
			cfg.CostFloor = pc.Model.OracleCost()
			var rep slo.Report
			t, err := medianTime(func() error { rep = slo.Run(cfg, wins); return nil })
			if err != nil {
				return err
			}
			l.hostTime("slo.run_ms", t)
			l.put("slo.alerts", float64(len(rep.Alerts)))

			var deg *degrade.Schedule
			t, err = medianTime(func() (err error) { deg, err = degrade.Build(prof, c.Duration); return err })
			if err != nil {
				return err
			}
			l.hostTime("degrade.build_ms", t)
			l.put("degrade.phases", float64(len(deg.Phases)))
			l.put("degrade.capacity_factor", deg.CapacityFactor())

			var sched faults.Schedule
			t, err = medianTime(func() (err error) {
				sched, err = faults.BuildModulated(c.Faults, c.Workers, 1, c.Duration, c.Seed, deg.FaultEnvelope())
				return err
			})
			if err != nil {
				return err
			}
			l.hostTime("faults.build_ms", t)
			l.put("faults.hangs", float64(len(sched.Hangs)))
			l.put("faults.outages", float64(len(sched.Outages)))

			l.hostTime("placement.decide_ns", decideNS(pc.Model))
			return nil
		},
	}, nil
}

var decideSink placement.Tier

// decideNS times Policy.Decide for every policy kind over a sweep of
// queue states and returns the raw mean ns per decision.
func decideNS(m placement.Model) float64 {
	const n = 1 << 18
	kinds := placement.Kinds()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pol := placement.Policy{Kind: kinds[i%len(kinds)], StaticTier: placement.TierSpace}
		var st placement.State
		for t := range st.QueueLen {
			st.QueueLen[t] = (i >> (2 * t)) & 63
		}
		decideSink = pol.Decide(m, st).Tier
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

func setupTraceAnalysis(p params, _ *tracer) (*instance, error) {
	c := netsim.DefaultConfig(refApp)
	c.Duration = horizon(p, 10*time.Minute, 2*time.Minute)
	c.Seed = p.seed
	c.Faults = faultedScenario
	prof := degrade.COTSProfile(1)
	c.Degrade = &prof
	c.Window = time.Minute
	width, hz := c.Window.Seconds(), c.Duration.Seconds()
	sloCfg := slo.DefaultConfig()

	// record is the recording run of the sudcmon path; rec == nil runs
	// it without a recorder.
	record := func(tr *tracer, rec *trace.Recorder) (netsim.Stats, []window.Window, error) {
		cc := c
		cc.Trace = rec
		var native []window.Window
		cc.OnWindow = func(w window.Window) { native = append(native, w) }
		s, err := runDES(tr, cc)
		return s, native, err
	}
	return &instance{
		run: func(tr *tracer) (outcome, error) {
			rec := trace.New(0)
			s, native, err := record(tr, rec)
			if err != nil {
				return outcome{}, err
			}
			var jsonl bytes.Buffer
			end := tr.begin("trace.WriteJSONL")
			err = rec.WriteJSONL(&jsonl)
			end()
			if err != nil {
				return outcome{}, err
			}
			end = tr.begin("trace.DecodeJSONL")
			dec, err := trace.DecodeJSONL(bytes.NewReader(jsonl.Bytes()))
			end()
			if err != nil {
				return outcome{}, err
			}
			end = tr.begin("latency.DecomposeAll")
			frames := latency.DecomposeAll(dec)
			end()
			end = tr.begin("slo.WindowsFromTrace")
			derived := slo.WindowsFromTrace(dec, width, hz, c.Workers, c.Workers)
			end()
			end = tr.begin("slo.Run")
			rep := slo.Run(sloCfg, derived)
			end()
			var chrome bytes.Buffer
			end = tr.begin("trace.WriteChrome")
			err = dec.WriteChrome(&chrome)
			end()
			if err != nil {
				return outcome{}, err
			}

			o := desOutcome(s)
			events := rec.TotalLen()
			o.counts["trace.events"] = float64(events)
			o.counts["trace.jsonl_bytes"] = float64(jsonl.Len())
			o.counts["trace.chrome_bytes"] = float64(chrome.Len())
			o.counts["latency.frames"] = float64(len(frames))
			o.counts["window.count"] = float64(len(derived))
			o.counts["slo.alerts"] = float64(len(rep.Alerts))
			statsCheck := o.verify
			o.verify = func() (string, error) {
				fp, err := statsCheck()
				if err != nil {
					return "", err
				}
				if rec.Dropped() > 0 || events == 0 {
					return "", fmt.Errorf("recording kept %d events and dropped %d", events, rec.Dropped())
				}
				var again bytes.Buffer
				if err := dec.WriteJSONL(&again); err != nil {
					return "", err
				}
				if !bytes.Equal(again.Bytes(), jsonl.Bytes()) {
					return "", fmt.Errorf("decoded recording re-encodes to %d bytes that differ from the %d recorded", again.Len(), jsonl.Len())
				}
				for _, f := range frames {
					if f.Completed() && math.Abs(f.SumStages()-f.Total()) > 1e-9 {
						return "", fmt.Errorf("frame %d: stages sum to %v, total %v", f.ID, f.SumStages(), f.Total())
					}
				}
				if err := sameWindows(native, derived); err != nil {
					return "", err
				}
				return fingerprint([]byte(fp), jsonl.Bytes(), chrome.Bytes()), nil
			}
			return o, nil
		},
		layers: func(l *layerSet, tr *tracer, _ outcome, _ float64) error {
			for name, span := range map[string]string{
				"trace.record_ms":       "netsim.Run",
				"trace.jsonl_write_ms":  "trace.WriteJSONL",
				"trace.jsonl_decode_ms": "trace.DecodeJSONL",
				"latency.decompose_ms":  "latency.DecomposeAll",
				"slo.from_trace_ms":     "slo.WindowsFromTrace",
				"slo.run_ms":            "slo.Run",
				"trace.chrome_ms":       "trace.WriteChrome",
			} {
				d, _ := spanStats(tr.spans, span)
				l.hostTime(name, d)
			}
			_, a := spanStats(tr.spans, "trace.DecodeJSONL")
			l.put("trace.decode_alloc_mb", a/1e6)
			if err := countEvents(l, c); err != nil {
				return err
			}
			with, without, err := pairedTimes(
				func() error { _, _, err := record(nil, trace.New(0)); return err },
				func() error { _, _, err := record(nil, nil); return err })
			if err != nil {
				return err
			}
			l.put("trace.record_overhead_frac", with/without-1)
			return nil
		},
	}, nil
}

// sameWindows checks the trace-derived window stream against the native
// one on the integer-exact fields.
func sameWindows(native, derived []window.Window) error {
	if len(native) != len(derived) {
		return fmt.Errorf("trace-derived stream has %d windows, native %d", len(derived), len(native))
	}
	for i, n := range native {
		d := derived[i]
		if d.Index != n.Index || d.Counts != n.Counts || d.Lat != n.Lat || d.LatCount != n.LatCount {
			return fmt.Errorf("window %d: trace-derived counts/latency differ from the native stream", n.Index)
		}
	}
	return nil
}

// exhibitSet is the full exhibit list, or the first exhibit of each of
// its three lists for the smoke test.
func exhibitSet(small bool) []experiments.Experiment {
	lists := [][]experiments.Experiment{experiments.All(), experiments.Ablations(), experiments.Extensions()}
	var out []experiments.Experiment
	for _, l := range lists {
		if small {
			l = l[:1]
		}
		out = append(out, l...)
	}
	return out
}

// parWorkers is the par worker count of the exhibits op: the host's two
// vCPUs.
const parWorkers = 2

func tablesFingerprint(tables []experiments.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
	}
	return fingerprint([]byte(b.String()))
}

func setupExhibits(p params, tr *tracer) (*instance, error) {
	// The DSE is memoized per process; paying it here keeps it out of
	// the timed ops, as in any long-lived caller.
	end := tr.begin("dse.Explore")
	_, err := experiments.DSEResult()
	end()
	if err != nil {
		return nil, err
	}
	exps := exhibitSet(p.small)
	return &instance{
		run: func(tr *tracer) (outcome, error) {
			end := tr.begin("experiments.RunAll")
			tables, err := experiments.RunAll(exps, parWorkers)
			end()
			if err != nil {
				return outcome{}, err
			}
			return outcome{verify: func() (string, error) { return tablesFingerprint(tables), nil }}, nil
		},
		layers: func(l *layerSet, tr *tracer, warm outcome, opMS float64) error {
			fp, _ := warm.verify() // an exhibits verify only hashes; it cannot fail
			groups := map[string]float64{}
			var tables []experiments.Table
			for _, e := range exps {
				end := tr.begin("experiments." + e.ID)
				t0 := time.Now()
				t, err := e.Run()
				d := ms(time.Since(t0))
				end()
				if err != nil {
					return fmt.Errorf("%s: %w", e.ID, err)
				}
				tables = append(tables, t)
				groups[exhibitGroup(e.ID)] += d
			}
			if got := tablesFingerprint(tables); got != fp {
				return fmt.Errorf("serial exhibit tables %s differ from the parallel run's %s", got, fp)
			}
			serial := 0.0
			for name, d := range groups {
				l.hostTime(name, d)
				serial += d
			}
			l.put("par.speedup", serial/opMS)
			for _, s := range tr.spans {
				if s.Name == "dse.Explore" {
					l.hostTime("dse.explore_ms", ms(s.dur()))
				}
			}
			return nil
		},
	}, nil
}

// exhibitGroup maps an exhibit ID to the per-layer metric its serial
// time is summed into.
func exhibitGroup(id string) string {
	switch {
	case strings.HasPrefix(id, "Ablation"):
		return "experiments.ablations_ms"
	case strings.HasPrefix(id, "Extension E"):
		n := strings.TrimPrefix(id, "Extension E")
		if len(n) == 1 && n < "7" {
			return "experiments.e1_e6_ms"
		}
		return "experiments.e" + n + "_ms"
	default:
		return "experiments.paper_ms"
	}
}
