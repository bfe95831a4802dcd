// Command sudcmon analyzes a frame-lineage flight recording: where
// each EO frame's end-to-end latency went (queue, ISL transfer, retry
// backoff, compute, downlink wait), which frames were slowest and why,
// and when the SµDC was degraded by faults. It either runs a scenario
// itself (same flags as sudcsim) or loads a recording saved with
// -trace-out.
//
// Usage:
//
//	sudcmon [scenario flags] [analysis flags]
//	sudcmon -load trace.jsonl [analysis flags]
//	sudcmon -diff [-window m] [-workers n -need n] A.jsonl B.jsonl
//
// The scenario flags (application, constellation, topology, faults,
// degradation, placement) are shared with sudcsim and listed once, in
// package sudc/cmd/internal/scenario. With -placement the report also
// counts frames per tier.
//
// Analysis flags:
//
//	-load file       analyze a saved JSONL recording instead of running
//	-top k           detail the k slowest frames (default 5)
//	-jsonl file      save the recording as JSONL
//	-chrome file     save Chrome trace-event JSON (open in Perfetto:
//	                 ui.perfetto.dev, or chrome://tracing)
//	-workers n       worker count for the availability cross-check when
//	                 loading a saved trace (scenario runs know their own)
//	-need n          workers needed for full service in the cross-check
//	-slo-report      rebuild the windowed telemetry from the recording and
//	                 print the per-window SLO table, the burn-rate alert
//	                 timeline with attributed causes, and a drill-down
//	                 into the worst window's slowest frames
//	-window m        tumbling window width in minutes for -slo-report and
//	                 -diff (default 10)
//	-diff            compare two recordings window by window: metric
//	                 deltas, the stage driving each latency delta, and
//	                 the environment cause attribution on the B side
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"sudc/cmd/internal/obsflags"
	"sudc/cmd/internal/scenario"
	"sudc/internal/netsim"
	"sudc/internal/obs/latency"
	"sudc/internal/obs/slo"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sudcmon:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sudcmon", flag.ContinueOnError)
	fs.SetOutput(out)
	sf := scenario.Register(fs)
	load := fs.String("load", "", "analyze a saved JSONL recording instead of running a scenario")
	topK := fs.Int("top", 5, "detail the k slowest frames")
	jsonlOut := fs.String("jsonl", "", "save the recording as JSONL")
	chromeOut := fs.String("chrome", "", "save Chrome trace-event JSON for Perfetto")
	workersFlag := fs.Int("workers", 0, "worker count for the availability cross-check on -load")
	needFlag := fs.Int("need", 0, "workers needed for full service in the cross-check on -load")
	sloReport := fs.Bool("slo-report", false, "print the trace-derived per-window SLO report")
	windowMin := fs.Float64("window", 10, "tumbling window width in minutes for -slo-report and -diff")
	diff := fs.Bool("diff", false, "compare two JSONL recordings window by window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *windowMin <= 0 {
		return fmt.Errorf("window width must be positive, got %v", *windowMin)
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs exactly two recordings, got %d", fs.NArg())
		}
		return runDiff(out, fs.Arg(0), fs.Arg(1), *windowMin*60, *workersFlag, *needFlag)
	}

	var (
		rec     *trace.Recorder
		horizon float64
		workers = *workersFlag
		need    = *needFlag
		desAvty = -1.0 // DES-reported availability (scenario runs only)
	)
	if *load != "" {
		var err error
		rec, err = loadRecording(*load)
		if err != nil {
			return err
		}
		horizon = lastEventTime(rec)
		fmt.Fprintf(out, "loaded %s: %d events\n", *load, rec.TotalLen())
	} else {
		sc, err := sf.Build()
		if err != nil {
			return err
		}
		app, cfg := sc.App, sc.Config
		rec = trace.New(0)
		cfg.Trace = rec
		s, err := netsim.Run(cfg)
		if err != nil {
			return err
		}
		horizon = cfg.Duration.Seconds()
		// On a Walker each per-cell scope holds the full SµDC complement,
		// which is also its need, so the trace cross-check runs per cell.
		workers, need = sc.Workers, cfg.NeedWorkers
		if need == 0 {
			need = workers
		}
		if cfg.Faults.Enabled() {
			desAvty = s.Availability
		}
		if sf.Planes > 0 {
			fmt.Fprintf(out, "%s: %d planes × %d satellites, SµDC every %d planes (%d workers each), %v over %v (seed %d) — %d cross-shard frames, %d events recorded\n",
				app.Name, sf.Planes, sf.SatsPerPlane, sf.SudcEvery, sc.Workers, cfg.ISLRate, cfg.Duration, sf.Seed, s.CrossShardFrames, rec.TotalLen())
		} else {
			fmt.Fprintf(out, "%s: %d satellites, %d workers, %v over %v (seed %d) — %d events recorded\n",
				app.Name, sf.Satellites, cfg.Workers, cfg.ISLRate, cfg.Duration, sf.Seed, rec.TotalLen())
		}
	}

	frames := latency.DecomposeAll(rec)
	analyze(out, rec, frames, horizon, *topK, workers, need, desAvty)
	if *sloReport {
		if err := sloSection(out, rec, frames, *windowMin*60, horizon, workers, need, *topK); err != nil {
			return err
		}
	}

	if *jsonlOut != "" {
		if err := obsflags.WriteFile(*jsonlOut, rec.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote JSONL recording to %s\n", *jsonlOut)
	}
	if *chromeOut != "" {
		if err := obsflags.WriteFile(*chromeOut, rec.WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote Chrome trace to %s — open at ui.perfetto.dev\n", *chromeOut)
	}
	return nil
}

// analyze prints the full report of rec and its decomposed frames:
// outcomes, stage breakdown, slowest frames, and degraded intervals.
// Everything printed derives from simulated time, so the report is
// deterministic for a given recording.
func analyze(out io.Writer, rec *trace.Recorder, frames []latency.Frame, horizon float64, topK, workers, need int, desAvty float64) {
	outcomes := map[string]int{}
	for _, f := range frames {
		outcomes[f.Outcome]++
	}
	fmt.Fprintf(out, "\nframes: %d total", len(frames))
	for _, o := range []string{"downlinked", "processed", "shed", "lost", "in-flight"} {
		if outcomes[o] > 0 {
			fmt.Fprintf(out, ", %d %s", outcomes[o], o)
		}
	}
	fmt.Fprintln(out)
	tiers := map[string]int{}
	for _, f := range frames {
		if f.Tier != "" {
			tiers[f.Tier]++
		}
	}
	if len(tiers) > 0 {
		fmt.Fprintf(out, "placement tiers:")
		for _, name := range []string{"onboard", "space", "ground-edge", "cloud"} {
			if tiers[name] > 0 {
				fmt.Fprintf(out, " %d %s", tiers[name], name)
			}
		}
		fmt.Fprintln(out)
	}
	if dropped := totalDropped(rec); dropped > 0 {
		fmt.Fprintf(out, "WARNING: recorder dropped %d events at its bound; stats below are partial\n", dropped)
	}

	fmt.Fprintf(out, "\nStage breakdown (completed frames):\n")
	fmt.Fprintf(out, "  %-14s %7s %10s %10s %10s %10s %10s\n",
		"stage", "share", "mean", "p50", "p95", "p99", "max")
	for _, sm := range latency.Summarize(frames) {
		name := "end-to-end"
		if sm.Stage < latency.NumStages {
			name = sm.Stage.String()
		}
		fmt.Fprintf(out, "  %-14s %6.1f%% %9.1fms %8.1fms %8.1fms %8.1fms %8.1fms\n",
			name, 100*sm.Share, 1e3*sm.Mean, 1e3*sm.P50, 1e3*sm.P95, 1e3*sm.P99, 1e3*sm.Max)
	}

	slow := latency.TopK(frames, topK)
	if len(slow) > 0 {
		fmt.Fprintf(out, "\nTop %d slowest frames:\n", len(slow))
	}
	for _, f := range slow {
		scope := f.Scope
		if scope == "" {
			scope = "main"
		}
		fmt.Fprintf(out, "  frame %d [%s] %s after %.1fms (queue %.1f, transfer %.1f, backoff %.1f, compute %.1f, downlink-wait %.1f) causes: %s\n",
			f.ID, scope, f.Outcome, 1e3*f.Total(),
			1e3*f.Stages[latency.StageQueue], 1e3*f.Stages[latency.StageTransfer],
			1e3*f.Stages[latency.StageRetryBackoff], 1e3*f.Stages[latency.StageCompute],
			1e3*f.Stages[latency.StageDownlinkWait], latency.FormatCauses(f.Causes))
		for _, e := range f.Events {
			fmt.Fprintf(out, "    +%9.1fms  %s\n", 1e3*(e.T-f.Captured), describe(e))
		}
	}

	printDegraded(out, rec, frames, horizon, workers, need, desAvty)
}

// printDegraded reports the fault windows of every scope, each with the
// count of frames whose causes name it, plus the availability
// cross-check recomputed from fault events alone.
func printDegraded(out io.Writer, rec *trace.Recorder, frames []latency.Frame, horizon float64, workers, need int, desAvty float64) {
	type scopeCause struct{ scope, cause string }
	stalled := map[scopeCause]int{}
	for _, f := range frames {
		for _, c := range f.Causes {
			stalled[scopeCause{f.Scope, c}]++
		}
	}
	scopes := append([]string{""}, rec.Scopes()...)
	header := false
	for _, scope := range scopes {
		r := rec
		if scope != "" {
			r = rec.Child(scope)
		}
		// The fault windows and the availability cross-check read only
		// the scope's few environment events.
		var env []trace.Event
		r.Each(func(e *trace.Event) {
			if latency.Environment(e.Kind) {
				env = append(env, *e)
			}
		})
		ivs := latency.DegradedIntervals(env, horizon)
		if len(ivs) == 0 {
			continue
		}
		if !header {
			fmt.Fprintf(out, "\nDegraded intervals:\n")
			fmt.Fprintf(out, "  %-8s %-12s %10s %10s %5s %7s\n",
				"scope", "kind", "start", "dur", "node", "frames")
			header = true
		}
		name := scope
		if name == "" {
			name = "main"
		}
		for _, iv := range ivs {
			node := "-"
			if iv.Node >= 0 {
				node = fmt.Sprintf("%d", iv.Node)
			}
			fmt.Fprintf(out, "  %-8s %-12s %9.1fs %9.1fs %5s %7d\n",
				name, iv.Kind, iv.Start, iv.Duration(), node, stalled[scopeCause{scope, iv.Cause}])
		}
		if workers > 0 && need > 0 {
			avty := latency.AvailabilityFromTrace(env, workers, need, horizon)
			fmt.Fprintf(out, "  %-8s availability from trace: %.4f%%", name, 100*avty)
			if desAvty >= 0 {
				fmt.Fprintf(out, " (DES reported %.4f%%)", 100*desAvty)
			}
			fmt.Fprintln(out)
		}
	}
	if !header {
		fmt.Fprintf(out, "\nNo degraded intervals: the recording has no fault events.\n")
	}
}

// describe renders one event for a frame timeline.
func describe(e trace.Event) string {
	switch e.Kind {
	case trace.FrameCaptured:
		return fmt.Sprintf("captured by satellite %d", e.Node)
	case trace.ISLSendStart:
		return "ISL transfer start"
	case trace.ISLSendEnd:
		if e.Cause != "" {
			return fmt.Sprintf("ISL transfer aborted (%s)", e.Cause)
		}
		return "ISL transfer done"
	case trace.Retry:
		return fmt.Sprintf("retry #%d, backoff %.3fs (%s)", e.Attempt, e.Backoff, e.Cause)
	case trace.Enqueued:
		if e.Cause != "" {
			return fmt.Sprintf("re-enqueued (%s)", e.Cause)
		}
		return "enqueued at SµDC input"
	case trace.Dispatched:
		return fmt.Sprintf("dispatched to worker %d", e.Node)
	case trace.ComputeEnd:
		return fmt.Sprintf("compute done on worker %d", e.Node)
	case trace.Downlinked:
		return "insight downlinked"
	case trace.Placed:
		return fmt.Sprintf("placed on the %s tier", e.Tier)
	case trace.Shed:
		return "shed from input queue"
	case trace.Lost:
		return fmt.Sprintf("lost after %d attempts (%s)", e.Attempt, e.Cause)
	case trace.Throttle:
		return fmt.Sprintf("thermal throttle ×%.2f for %.1fs", e.Mult, e.Dur)
	case trace.BrownoutStart:
		return fmt.Sprintf("eclipse brownout parks %d workers (%s)", e.N, e.Cause)
	case trace.BrownoutEnd:
		return fmt.Sprintf("brownout ends, %d workers restored", e.N)
	case trace.SLOAlert:
		return fmt.Sprintf("SLO alert %s fires in window %d, fast burn %.1f (cause %s)",
			e.Name, e.N, e.Mult, e.Cause)
	default:
		return e.Kind.String()
	}
}

// checkWindows rejects a window width that cuts a recording's horizon
// into more than window.MaxWindows windows.
func checkWindows(width, horizon float64) error {
	if n := math.Ceil(horizon / width); n > window.MaxWindows {
		return fmt.Errorf("-window %v cuts the %.0f s recording into %.0f windows, above %d", width/60, horizon, n, window.MaxWindows)
	}
	return nil
}

// sloSection rebuilds the windowed telemetry from the recording and
// prints the SLO report plus a drill-down into the worst window's
// slowest frames, taken from the recording's decomposed frames.
func sloSection(out io.Writer, rec *trace.Recorder, frames []latency.Frame, width, horizon float64, workers, need, topK int) error {
	if err := checkWindows(width, horizon); err != nil {
		return err
	}
	wins := slo.WindowsFromTrace(rec, width, horizon, workers, need)
	fmt.Fprintln(out)
	if len(wins) == 0 {
		fmt.Fprintln(out, "SLO report: the recording has no frame events to window")
		return nil
	}
	cfg := slo.DefaultConfig()
	rep := slo.Run(cfg, wins)
	slo.WriteReport(out, cfg, wins, rep)

	// Worst window: the one with the highest summed burn across
	// objectives (earliest on ties).
	worst, worstBurn := -1, 0.0
	burns := map[int]float64{}
	for _, ev := range rep.Evals {
		burns[ev.Window] += ev.Burn
	}
	for _, w := range wins {
		if b := burns[w.Index]; worst < 0 || b > worstBurn {
			worst, worstBurn = w.Index, b
		}
	}
	var ww window.Window
	for _, w := range wins {
		if w.Index == worst {
			ww = w
		}
	}
	var inWin []latency.Frame
	for _, f := range frames {
		if f.Captured >= ww.Start && f.Captured < ww.End {
			inWin = append(inWin, f)
		}
	}
	fmt.Fprintf(out, "\nworst window w%03d [%.1fm, %.1fm): summed burn %.1f, cause %s\n",
		ww.Index, ww.Start/60, ww.End/60, worstBurn, slo.Attribute(&ww.Agg))
	for _, f := range latency.TopK(inWin, topK) {
		fmt.Fprintf(out, "  frame %d %s after %.1fms (queue %.1f, transfer %.1f, backoff %.1f, compute %.1f, downlink-wait %.1f) causes: %s\n",
			f.ID, f.Outcome, 1e3*f.Total(),
			1e3*f.Stages[latency.StageQueue], 1e3*f.Stages[latency.StageTransfer],
			1e3*f.Stages[latency.StageRetryBackoff], 1e3*f.Stages[latency.StageCompute],
			1e3*f.Stages[latency.StageDownlinkWait], latency.FormatCauses(f.Causes))
	}
	return nil
}

// runDiff compares two recordings window by window: counter and metric
// deltas, the latency stage driving each window's shift, and the B
// side's environment attribution.
func runDiff(out io.Writer, pathA, pathB string, width float64, workers, need int) error {
	recA, err := loadRecording(pathA)
	if err != nil {
		return err
	}
	recB, err := loadRecording(pathB)
	if err != nil {
		return err
	}
	hA, hB := lastEventTime(recA), lastEventTime(recB)
	for _, h := range []float64{hA, hB} {
		if err := checkWindows(width, h); err != nil {
			return err
		}
	}
	winsA := slo.WindowsFromTrace(recA, width, hA, workers, need)
	winsB := slo.WindowsFromTrace(recB, width, hB, workers, need)
	fmt.Fprintf(out, "diff %s (%d windows) → %s (%d windows), %.0f s windows\n\n",
		pathA, len(winsA), pathB, len(winsB), width)

	byIdx := func(wins []window.Window) map[int]window.Window {
		m := make(map[int]window.Window, len(wins))
		for _, w := range wins {
			m[w.Index] = w
		}
		return m
	}
	mA, mB := byIdx(winsA), byIdx(winsB)
	last := -1
	for i := range mA {
		if i > last {
			last = i
		}
	}
	for i := range mB {
		if i > last {
			last = i
		}
	}
	stagesA, stagesB := stagesByWindow(recA, width), stagesByWindow(recB, width)

	fmt.Fprintf(out, "  %-6s %11s %11s %10s %9s %10s  %-13s %s\n",
		"window", "gen", "done", "Δavail", "Δp99", "Δloss", "stageΔ", "cause (B)")
	for i := 0; i <= last; i++ {
		a, okA := mA[i]
		b, okB := mB[i]
		switch {
		case !okA && !okB:
			continue
		case !okB:
			fmt.Fprintf(out, "  w%03d   %5d→    - %5d→    -  only in A\n",
				i, a.Counts[window.CntGenerated], a.Counts[window.CntProcessed])
			continue
		case !okA:
			fmt.Fprintf(out, "  w%03d       -→%5d     -→%5d  only in B, cause %s\n",
				i, b.Counts[window.CntGenerated], b.Counts[window.CntProcessed], slo.Attribute(&b.Agg))
			continue
		}
		fmt.Fprintf(out, "  w%03d   %5d→%-5d %5d→%-5d %+8.2fpp %+8.1fs %+8.2fpp  %-13s %s\n",
			i,
			a.Counts[window.CntGenerated], b.Counts[window.CntGenerated],
			a.Counts[window.CntProcessed], b.Counts[window.CntProcessed],
			100*(b.Availability()-a.Availability()),
			b.LatQuantile(0.99)-a.LatQuantile(0.99),
			100*(b.LossRate()-a.LossRate()),
			stageDelta(stagesA[i], stagesB[i]), slo.Attribute(&b.Agg))
	}

	cfg := slo.DefaultConfig()
	repA, repB := slo.Run(cfg, winsA), slo.Run(cfg, winsB)
	fmt.Fprintf(out, "\nattainment %.1f%% → %.1f%%, burn-rate alerts %d → %d\n",
		100*repA.Attainment, 100*repB.Attainment, len(repA.Alerts), len(repB.Alerts))
	for _, a := range repB.Alerts {
		fmt.Fprintf(out, "  B alert w%03d %-14s fast %.1f  cause %s\n", a.Window, a.Objective, a.Fast, a.Cause)
	}
	return nil
}

// stageWindow is one window's per-stage latency sums over the frames
// completed in it.
type stageWindow struct {
	stages [latency.NumStages]float64
	frames int
}

// stagesByWindow buckets each completed frame's stage decomposition
// into the window holding its completion time.
func stagesByWindow(rec *trace.Recorder, width float64) map[int]stageWindow {
	m := map[int]stageWindow{}
	for _, f := range latency.DecomposeAll(rec) {
		if f.Outcome != "processed" && f.Outcome != "downlinked" {
			continue
		}
		i := int((f.Captured + f.Total()) / width)
		sw := m[i]
		for s := range f.Stages {
			sw.stages[s] += f.Stages[s]
		}
		sw.frames++
		m[i] = sw
	}
	return m
}

// stageDelta names the latency stage with the largest mean-seconds
// shift between two windows, signed ("+queue", "-backoff"); "-" when
// neither window completed frames.
func stageDelta(a, b stageWindow) string {
	var best latency.Stage
	var bestD float64
	found := false
	for s := latency.Stage(0); s < latency.NumStages; s++ {
		var am, bm float64
		if a.frames > 0 {
			am = a.stages[s] / float64(a.frames)
		}
		if b.frames > 0 {
			bm = b.stages[s] / float64(b.frames)
		}
		d := bm - am
		if !found || absf(d) > absf(bestD) {
			best, bestD, found = s, d, true
		}
	}
	if !found || (a.frames == 0 && b.frames == 0) || bestD == 0 {
		return "-"
	}
	sign := "+"
	if bestD < 0 {
		sign = "-"
	}
	return sign + best.String()
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// loadRecording opens and decodes one JSONL flight recording.
func loadRecording(path string) (*trace.Recorder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.DecodeJSONL(f)
}

// lastEventTime finds the recording's latest timestamp across scopes.
func lastEventTime(rec *trace.Recorder) float64 {
	var last float64
	rec.Each(func(e *trace.Event) {
		if e.T > last {
			last = e.T
		}
	})
	for _, name := range rec.Scopes() {
		if t := lastEventTime(rec.Child(name)); t > last {
			last = t
		}
	}
	return last
}

// totalDropped sums dropped-event counts across scopes.
func totalDropped(rec *trace.Recorder) int64 {
	n := rec.Dropped()
	for _, name := range rec.Scopes() {
		n += totalDropped(rec.Child(name))
	}
	return n
}
