// Package obsflags defines the observability flags that sudcsim,
// sudctool and experiments share — one list, registered identically by
// each command — and owns everything they switch on for one run:
//
//	-metrics         print the run's metric snapshot (counters, gauges,
//	                 time series, histograms, span counts with wall
//	                 times) after the report
//	-trace           stream span trace lines as stages complete
//	-trace-out file  write the flight recording as JSONL: every span,
//	                 plus sudcsim's frame lineage and fault events;
//	                 analyze it with sudcmon -load
//	-pprof addr      serve net/http/pprof and the registry's Prometheus
//	                 text at /metrics on addr (e.g. localhost:6060)
//
// Any of the four creates the run's registry and installs it as the
// process-wide hooks (obs.SetGlobal, par.SetObserver), so the DSE and
// the parallel engine report wherever they run.
package obsflags

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sudc/internal/obs"
	"sudc/internal/obs/trace"
	"sudc/internal/par"
)

// Flags holds the parsed observability flag values.
type Flags struct {
	metrics, trace  bool
	traceOut, pprof string
}

// Register defines the observability flags on fs. The returned Flags
// is populated when fs is parsed.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.metrics, "metrics", false, "print the run's metric snapshot after the report")
	fs.BoolVar(&f.trace, "trace", false, "stream span trace lines as stages complete")
	fs.StringVar(&f.traceOut, "trace-out", "", "write the flight recording to this JSONL file (sudcmon -load reads it)")
	fs.StringVar(&f.pprof, "pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	return f
}

// Session is one run's observability state. Its zero-flag form is
// inert: Registry and Recorder are nil, which every obs and netsim
// hook treats as off.
type Session struct {
	f         *Flags
	out       io.Writer
	reg       *obs.Registry
	rec       *trace.Recorder
	stopPprof func()
}

// Start switches on what the parsed flags ask for: the registry, the
// -trace line writer, the -trace-out recorder, the process-wide hooks
// and the pprof server. Every line the session prints goes to out.
// Callers defer Close.
func (f *Flags) Start(out io.Writer) (*Session, error) {
	s := &Session{f: f, out: out}
	if !f.metrics && !f.trace && f.traceOut == "" && f.pprof == "" {
		return s, nil
	}
	s.reg = obs.New()
	if f.trace {
		s.reg.SetTraceWriter(out)
	}
	if f.traceOut != "" {
		s.rec = trace.New(0)
		s.reg.SetSpanSink(s.rec)
	}
	obs.SetGlobal(s.reg)
	par.SetObserver(obs.NewEngineMetrics(s.reg.Scope("par")))
	if f.pprof != "" {
		addr, stop, err := obs.StartPprof(f.pprof, s.reg)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.stopPprof = stop
		fmt.Fprintf(out, "pprof: serving on http://%s/debug/pprof/\n", addr)
	}
	return s, nil
}

// Registry is the run's metric registry, nil when every flag is off.
func (s *Session) Registry() *obs.Registry { return s.reg }

// Recorder is the -trace-out flight recording, nil without the flag.
func (s *Session) Recorder() *trace.Recorder { return s.rec }

// Finish prints the -metrics snapshot and writes the -trace-out
// recording. Call it on every successful return path, after the
// report.
func (s *Session) Finish() error {
	if s.f.metrics {
		fmt.Fprintf(s.out, "\nmetrics:\n%s", s.reg.Snapshot(obs.WithWall()).String())
	}
	if s.f.traceOut != "" {
		if err := WriteFile(s.f.traceOut, s.rec.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "\ntrace: wrote %d events to %s\n", s.rec.TotalLen(), s.f.traceOut)
	}
	return nil
}

// Close removes the process-wide hooks and stops the pprof server, so
// a command's run function can be called again in the same process.
func (s *Session) Close() {
	if s.reg != nil {
		obs.SetGlobal(nil)
		par.SetObserver(nil)
	}
	if s.stopPprof != nil {
		s.stopPprof()
	}
}

// WriteFile creates path and streams write's output into it.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
