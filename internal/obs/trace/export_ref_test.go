package trace

// The encoding/json reflection codec the schema-specific one in
// export.go replaced, kept as the test oracle that pins its bytes,
// decoded values and error text (export_diff_test.go).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

func refWriteJSONL(r *Recorder, w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var err error
	r.walk("", func(scope string, log eventBlocks) {
		if err != nil {
			return
		}
		for _, e := range flat(log) {
			if encErr := enc.Encode(Line{Scope: scope, Event: e}); encErr != nil {
				err = encErr
				return
			}
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// flat joins a scope's log into one slice: the reference reads events,
// not block boundaries.
func flat(log eventBlocks) []Event {
	var out []Event
	log.each(func(events []Event) { out = append(out, events...) })
	return out
}

// refDecodeJSONL decodes into an unbounded recorder, the contract
// DecodeJSONL keeps: a decoded recording holds every event of the file.
func refDecodeJSONL(rd io.Reader) (*Recorder, error) {
	rec := New(math.MaxInt)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ln Line
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ln); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", n, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("trace: line %d: trailing data after event", n)
		}
		target := rec
		if ln.Scope != "" {
			target = rec.Child(ln.Scope)
		}
		target.Record(ln.Event)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}

// refChromeEvent is one trace-event record. Args is encoded with sorted
// keys by encoding/json, keeping the export deterministic.
type refChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type refChromeFile struct {
	TraceEvents     []refChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

func refWriteChrome(r *Recorder, w io.Writer) error {
	if r == nil {
		return nil
	}
	var out []refChromeEvent
	pid := 0
	r.walk("", func(scope string, log eventBlocks) {
		pid++
		out = append(out, refScopeChrome(pid, scope, flat(log))...)
	})
	b, err := json.Marshal(refChromeFile{TraceEvents: out, DisplayTimeUnit: "ms"})
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func refScopeChrome(pid int, scope string, events []Event) []refChromeEvent {
	if scope == "" {
		scope = "main"
	}
	var out []refChromeEvent
	meta := func(tid int, name string) {
		out = append(out, refChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	out = append(out, refChromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": scope},
	})
	meta(tidFrames, "frames")
	meta(tidISL, "ISL")
	envNamed := false
	env := func() int {
		if !envNamed {
			envNamed = true
			meta(tidEnv, "env")
		}
		return tidEnv
	}
	namedWorkers := map[int]bool{}
	worker := func(node int) int {
		if node >= 0 && !namedWorkers[node] {
			namedWorkers[node] = true
			meta(tidWorker+node, fmt.Sprintf("worker %02d", node))
		}
		return tidWorker + node
	}
	flowID := func(frame int64) string { return fmt.Sprintf("%s/f%d", scope, frame) }

	var (
		sendStart   = map[int64]float64{}
		computeOpen = map[int]openBatch{}
		outages     = map[string]openOutage{}
		brownout    *openBrownout
		lastT       float64
	)
	outageArgs := func(ow openOutage, edge string) map[string]any {
		args := map[string]any{"cause": ow.cause}
		if edge != "" {
			args["edge"] = edge
		}
		return args
	}
	for _, e := range events {
		if e.T > lastT {
			lastT = e.T
		}
		ts := e.T * usPerSec
		switch e.Kind {
		case FrameCaptured:
			out = append(out,
				refChromeEvent{Name: fmt.Sprintf("frame %d", e.Frame), Ph: "i", Ts: ts,
					Pid: pid, Tid: tidFrames, S: "t",
					Args: map[string]any{"satellite": e.Node}},
				refChromeEvent{Name: "frame", Ph: "s", Ts: ts, Pid: pid, Tid: tidFrames,
					ID: flowID(e.Frame)})
		case ISLSendStart:
			sendStart[e.Frame] = e.T
		case ISLSendEnd:
			start, ok := sendStart[e.Frame]
			if !ok {
				break
			}
			delete(sendStart, e.Frame)
			ev := refChromeEvent{Name: fmt.Sprintf("xfer f%d", e.Frame), Ph: "X",
				Ts: start * usPerSec, Dur: (e.T - start) * usPerSec,
				Pid: pid, Tid: tidISL}
			if e.Cause != "" {
				ev.Name = fmt.Sprintf("xfer f%d (aborted)", e.Frame)
				ev.Args = map[string]any{"cause": e.Cause}
			}
			if e.Edge != "" {
				if ev.Args == nil {
					ev.Args = map[string]any{}
				}
				ev.Args["edge"] = e.Edge
			}
			out = append(out, ev)
		case Retry:
			args := map[string]any{"attempt": e.Attempt, "backoff_s": e.Backoff, "cause": e.Cause}
			if e.Edge != "" {
				args["edge"] = e.Edge
			}
			out = append(out, refChromeEvent{Name: fmt.Sprintf("retry f%d", e.Frame),
				Ph: "i", Ts: ts, Pid: pid, Tid: tidISL, S: "t", Args: args})
		case Shed:
			out = append(out, refChromeEvent{Name: fmt.Sprintf("shed f%d", e.Frame),
				Ph: "i", Ts: ts, Pid: pid, Tid: tidFrames, S: "t"})
		case Lost:
			out = append(out, refChromeEvent{Name: fmt.Sprintf("lost f%d", e.Frame),
				Ph: "i", Ts: ts, Pid: pid, Tid: tidFrames, S: "t",
				Args: map[string]any{"attempts": e.Attempt, "cause": e.Cause}})
		case Dispatched:
			out = append(out, refChromeEvent{Name: "frame", Ph: "t", Ts: ts,
				Pid: pid, Tid: worker(e.Node), ID: flowID(e.Frame), BP: "e"})
		case ComputeStart:
			if e.Frame == 0 {
				computeOpen[e.Node] = openBatch{start: e.T, n: e.N}
			}
		case ComputeEnd:
			if e.Frame != 0 {
				out = append(out, refChromeEvent{Name: "frame", Ph: "f", Ts: ts,
					Pid: pid, Tid: worker(e.Node), ID: flowID(e.Frame), BP: "e"})
				break
			}
			ob, ok := computeOpen[e.Node]
			if !ok {
				break
			}
			delete(computeOpen, e.Node)
			out = append(out, refChromeEvent{Name: fmt.Sprintf("batch ×%d", ob.n), Ph: "X",
				Ts: ob.start * usPerSec, Dur: (e.T - ob.start) * usPerSec,
				Pid: pid, Tid: worker(e.Node)})
		case NodeDeath:
			tid := worker(e.Node)
			if ob, ok := computeOpen[e.Node]; ok {
				delete(computeOpen, e.Node)
				out = append(out, refChromeEvent{Name: fmt.Sprintf("batch ×%d (stranded)", ob.n),
					Ph: "X", Ts: ob.start * usPerSec, Dur: (e.T - ob.start) * usPerSec,
					Pid: pid, Tid: tid})
			}
			out = append(out, refChromeEvent{Name: "death", Ph: "i", Ts: ts,
				Pid: pid, Tid: tid, S: "t"})
		case SEFIStart:
			out = append(out, refChromeEvent{Name: "SEFI", Ph: "X", Ts: ts,
				Dur: e.Dur * usPerSec, Pid: pid, Tid: worker(e.Node)})
		case OutageStart:
			outages[e.Edge] = openOutage{start: e.T, cause: e.Cause}
		case OutageEnd:
			ow, ok := outages[e.Edge]
			if !ok {
				break
			}
			delete(outages, e.Edge)
			out = append(out, refChromeEvent{Name: "outage", Ph: "X",
				Ts: ow.start * usPerSec, Dur: (e.T - ow.start) * usPerSec,
				Pid: pid, Tid: tidISL, Args: outageArgs(ow, e.Edge)})
		case SpanDone:
			out = append(out, refChromeEvent{Name: e.Name, Ph: "X",
				Ts: (e.T - e.Dur) * usPerSec, Dur: e.Dur * usPerSec,
				Pid: pid, Tid: tidFrames})
		case Throttle:
			out = append(out, refChromeEvent{Name: fmt.Sprintf("throttle ×%.2f", e.Mult),
				Ph: "X", Ts: ts, Dur: e.Dur * usPerSec, Pid: pid, Tid: env(),
				Args: map[string]any{"rate_mult": e.Mult}})
		case BrownoutStart:
			brownout = &openBrownout{start: e.T, n: e.N, cause: e.Cause}
		case SLOAlert:
			out = append(out, refChromeEvent{Name: fmt.Sprintf("SLO alert: %s", e.Name),
				Ph: "i", Ts: ts, Pid: pid, Tid: env(), S: "t",
				Args: map[string]any{"cause": e.Cause, "fast_burn": e.Mult, "window": e.N}})
		case BrownoutEnd:
			if brownout == nil {
				break
			}
			out = append(out, refChromeEvent{Name: fmt.Sprintf("brownout −%d", brownout.n),
				Ph: "X", Ts: brownout.start * usPerSec, Dur: (e.T - brownout.start) * usPerSec,
				Pid: pid, Tid: env(),
				Args: map[string]any{"cause": brownout.cause, "workers_parked": brownout.n}})
			brownout = nil
		}
	}
	openEdges := make([]string, 0, len(outages))
	for edge := range outages {
		openEdges = append(openEdges, edge)
	}
	sort.Strings(openEdges)
	for _, edge := range openEdges {
		ow := outages[edge]
		out = append(out, refChromeEvent{Name: "outage", Ph: "X",
			Ts: ow.start * usPerSec, Dur: (lastT - ow.start) * usPerSec,
			Pid: pid, Tid: tidISL, Args: outageArgs(ow, edge)})
	}
	if brownout != nil {
		out = append(out, refChromeEvent{Name: fmt.Sprintf("brownout −%d (open)", brownout.n),
			Ph: "X", Ts: brownout.start * usPerSec, Dur: (lastT - brownout.start) * usPerSec,
			Pid: pid, Tid: env(),
			Args: map[string]any{"cause": brownout.cause, "workers_parked": brownout.n}})
	}
	nodes := make([]int, 0, len(computeOpen))
	for n := range computeOpen {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		ob := computeOpen[n]
		out = append(out, refChromeEvent{Name: fmt.Sprintf("batch ×%d (open)", ob.n),
			Ph: "X", Ts: ob.start * usPerSec, Dur: (lastT - ob.start) * usPerSec,
			Pid: pid, Tid: worker(n)})
	}
	return out
}
