// Command bench measures the simulator end to end and layer by layer on
// five workloads (see README.md).
//
// Usage:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//
// An untraced run (-trace 0) runs each workload in 5 child processes
// ("blocks"), one after another, each with its own set-up and S/5
// seconds of timed ops, each op preceded by a calibration kernel run;
// it reports the end-to-end metrics. A traced run (-trace 1) runs one
// block per workload that alternates untraced and span-traced ops and
// adds the per-layer comparisons; it reports the per-layer metrics and
// each layer's self time, and writes the spans to FILE if -spans is
// given. Every op is checked; the last line of standard output is a
// JSON summary, and the exit code is 1 if any check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// untracedBlocks is the number of child processes per workload in an
// untraced run; setup_s is their median.
const untracedBlocks = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of every generated DES config")
	seconds := fs.Float64("seconds", 15, "seconds of timed ops per workload")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSONL file")
	child := fs.Bool("child", false, "run one block in this process (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: want -seconds > 0, -trace 0 or 1, and no arguments")
		return 2
	}
	traced := *traceFlag == 1
	p := params{seed: *seed}
	budget := time.Duration(*seconds * float64(time.Second))

	if *child {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		res, err := runBlock(w, p, budget, traced)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := workloadByName(*name); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	blocks := untracedBlocks
	if traced {
		// The traced block spends half its budget on ops, leaving the
		// rest for the layer comparisons.
		blocks, budget = 1, budget/2
	} else {
		budget /= untracedBlocks
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	results := map[string][]*blockResult{}
	for r := 0; r < blocks; r++ {
		// Rotate the workload order so no workload always runs first.
		for i := range names {
			w := names[(i+r)%len(names)]
			res, err := runChild(self, w, *seed, budget, traced, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s block %d: %v\n", w, r+1, err)
				return 1
			}
			results[w] = append(results[w], res)
		}
	}

	if traced && *spansOut != "" {
		if err := writeSpans(*spansOut, names, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	out := bufio.NewWriter(stdout)
	final := report(out, stderr, names, results, traced)
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !final.Correct {
		return 1
	}
	return 0
}

// report prints every metric of every workload as
// "workload metric value unit", plus the host diagnostics (untraced) or
// the layers' self times (traced), and returns the JSON summary. With
// several workloads, its metric keys are "workload/metric".
func report(out, stderr io.Writer, names []string, results map[string][]*blockResult, traced bool) finalResult {
	final := finalResult{Metrics: map[string]metricValue{}}
	for _, w := range names {
		blocks := results[w]
		for _, b := range blocks {
			final.Attempted += b.Attempted
			final.Failed += b.Failed
			for _, f := range b.Failures {
				fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w, f)
			}
		}
		var vals map[string]float64
		defs := endToEnd
		if traced {
			defs, vals = perLayer, blocks[0].Layers
			for _, n := range sortedNames(blocks[0].SelfMS) {
				fmt.Fprintf(out, "%s self %s %.4g ms/op\n", w, n, blocks[0].SelfMS[n])
			}
		} else {
			var host []hostLine
			vals, host = summarize(blocks)
			for _, h := range host {
				fmt.Fprintf(out, "%s %s %.6g %s\n", w, h.name, h.value, h.unit)
			}
		}
		for _, d := range defs {
			v := vals[d.name]
			fmt.Fprintf(out, "%s %s %.6g %s\n", w, d.name, v, d.unit)
			key := d.name
			if len(names) > 1 {
				key = w + "/" + d.name
			}
			final.Metrics[key] = metricValue{Value: v, Unit: d.unit}
		}
	}
	final.Correct = final.Failed == 0
	return final
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalResult is the machine-readable last line of the output.
type finalResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runChild runs one block in a fresh process and decodes its report.
func runChild(self, workload string, seed int64, budget time.Duration, traced bool, stderr io.Writer) (*blockResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(budget.Seconds(), 'g', -1, 64),
		"-trace", trace)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var res blockResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("decoding the child's report: %w", err)
	}
	return &res, nil
}

type hostLine struct {
	name  string
	value float64
	unit  string
}

// summarize pools an untraced run's blocks into the end-to-end metrics
// and the host diagnostics printed beside them.
func summarize(blocks []*blockResult) (map[string]float64, []hostLine) {
	var ops, raw, setups, allocs, calib, rss []float64
	for _, b := range blocks {
		c := median(b.CalibMS)
		calib = append(calib, b.CalibMS...)
		for _, d := range b.OpMS {
			ops = append(ops, normalize(d, c))
		}
		raw = append(raw, b.OpMS...)
		setups = append(setups, normalize(b.SetupS, c))
		allocs = append(allocs, b.AllocB...)
		rss = append(rss, float64(b.MaxRSSKB)*1024/1e6)
	}
	e2e := map[string]float64{
		"op_ms_p50":       median(ops),
		"setup_s":         median(setups),
		"alloc_mb_per_op": median(allocs) / 1e6,
		"peak_rss_mb":     median(rss),
	}
	host := []hostLine{
		{"host.ops", float64(len(ops)), "count"},
		{"host.calib_ms", median(calib), "ms"},
		{"host.raw_op_ms_p50", median(raw), "ms"},
		{"host.op_ms_iqr", iqr(ops), "ms"},
	}
	if v, ok := p90(ops); ok {
		host = append(host, hostLine{"host.op_ms_p90", v, "ms"})
	}
	return e2e, host
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, names []string, results map[string][]*blockResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, n := range names {
		for _, b := range results[n] {
			for _, s := range b.Spans {
				if err := enc.Encode(s); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
