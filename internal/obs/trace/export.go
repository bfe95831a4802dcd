package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// The exporters and the decoder are schema-specific append code rather
// than encoding/json reflection, but their bytes are encoding/json's:
// the same field order and omitempty rules, float format, and
// HTML-safe string escaping. Lines the fast decoder does not recognise
// as canonical fall back to encoding/json, so accepted inputs, decoded
// values and error text are encoding/json's too. export_ref_test.go
// keeps the reflection-based codec as the oracle that pins all of this.

// MarshalJSON encodes the kind as its stable wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("trace: unknown kind %d", uint8(k))
	}
	return json.Marshal(kindNames[k])
}

// UnmarshalJSON decodes a wire name back into a Kind, rejecting
// unknown names.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := kindByName[s]
	if !ok {
		return fmt.Errorf("trace: unknown event kind %q", s)
	}
	*k = v
	return nil
}

// Line is one decoded JSONL record: an event plus the scope it was
// recorded under ("" = the root scope).
type Line struct {
	Scope string `json:"scope,omitempty"`
	Event
}

// jsonlFlushAt is the buffered size at which WriteJSONL hands its
// reused line buffer to the writer.
const jsonlFlushAt = 64 << 10

// WriteJSONL writes the recorder — root scope first, then child scopes
// ascending by name — as one JSON object per line. The output is a
// pure function of the recorded events, so deterministic recordings
// export to byte-identical files. A NaN or infinite float or an
// unknown kind fails the export with encoding/json's error, after a
// prefix of the stream may have been written.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	buf := make([]byte, 0, jsonlFlushAt+1024)
	var err error
	r.walk("", func(scope string, events []Event) {
		for i := range events {
			if err != nil {
				return
			}
			var ok bool
			if buf, ok = appendLine(buf, scope, &events[i]); !ok {
				err = lineError(scope, events[i])
				return
			}
			if len(buf) >= jsonlFlushAt {
				_, err = w.Write(buf)
				buf = buf[:0]
			}
		}
	})
	if err == nil && len(buf) > 0 {
		_, err = w.Write(buf)
	}
	return err
}

// appendLine appends one JSONL line; ok is false when the event holds
// a value JSON cannot carry (see lineError).
func appendLine(b []byte, scope string, e *Event) (_ []byte, ok bool) {
	if int(e.Kind) >= len(kindNames) || !finite(e.T) || !finite(e.Backoff) ||
		!finite(e.Dur) || !finite(e.Sim) || !finite(e.Mult) {
		return b, false
	}
	b = append(b, '{')
	if scope != "" {
		b = append(b, `"scope":`...)
		b = appendString(b, scope)
		b = append(b, ',')
	}
	b = append(b, `"t":`...)
	b = appendFloat(b, e.T)
	b = append(b, `,"k":"`...)
	b = append(b, kindNames[e.Kind]...)
	b = append(b, '"')
	b = appendIntField(b, `,"f":`, e.Frame)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = appendIntField(b, `,"sz":`, int64(e.N))
	b = appendIntField(b, `,"a":`, int64(e.Attempt))
	b = appendFloatField(b, `,"b":`, e.Backoff)
	b = appendFloatField(b, `,"d":`, e.Dur)
	b = appendFloatField(b, `,"sim":`, e.Sim)
	b = appendFloatField(b, `,"m":`, e.Mult)
	b = appendStringField(b, `,"c":`, e.Cause)
	b = appendStringField(b, `,"e":`, e.Edge)
	b = appendStringField(b, `,"tr":`, e.Tier)
	b = appendStringField(b, `,"name":`, e.Name)
	return append(b, '}', '\n'), true
}

// lineError returns encoding/json's error for an event appendLine
// rejects, so a failed export reports exactly what the reflection
// encoder would.
func lineError(scope string, e Event) error {
	if _, err := json.Marshal(Line{Scope: scope, Event: e}); err != nil {
		return err
	}
	return fmt.Errorf("trace: cannot encode %v event", e.Kind)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// appendFloat appends a finite float64 exactly as encoding/json does:
// the shortest round-trip decimal, in exponent form (with "e-07"
// trimmed to "e-7") only below 1e-6 or from 1e21 up.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendFloatField(b []byte, key string, v float64) []byte {
	if v == 0 {
		return b
	}
	return appendFloat(append(b, key...), v)
}

func appendStringField(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return appendString(append(b, key...), v)
}

// appendString appends s as a quoted JSON string.
func appendString(b []byte, s string) []byte {
	return append(appendEscaped(append(b, '"'), s), '"')
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends the body of s as a JSON string the way
// encoding/json escapes it by default: quote, backslash and control
// bytes escaped, plus the HTML-sensitive <, > and &, U+2028 and U+2029,
// and every invalid UTF-8 byte replaced by \ufffd.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// DecodeJSONL reads a WriteJSONL stream back into a recorder (scopes
// become children of the root), rejecting malformed lines and unknown
// event kinds. Blank lines are skipped, so hand-edited traces with a
// trailing newline still load. The recorder keeps every event in the
// stream — the input's size already bounds its memory — so a decoded
// recording never reports drops.
func DecodeJSONL(rd io.Reader) (*Recorder, error) {
	rec := New(math.MaxInt)
	d := lineDecoder{strs: map[string]string{}}
	var (
		scopes = map[*Recorder]*eventBlocks{}
		scope  string
		blocks *eventBlocks // the current scope's
	)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ln, ok := d.decode(raw)
		if !ok {
			var err error
			if ln, err = decodeLineJSON(raw); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", n, err)
			}
		}
		if blocks == nil || ln.Scope != scope {
			scope = ln.Scope
			target := rec
			if scope != "" {
				target = rec.Child(scope)
			}
			if blocks = scopes[target]; blocks == nil {
				blocks = &eventBlocks{}
				scopes[target] = blocks
			}
		}
		blocks.add(ln.Event)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Nothing else can reach rec before it is returned, so fill the
	// scopes without their locks.
	for target, b := range scopes {
		target.events = b.events()
	}
	return rec, nil
}

// eventBlocks collects one scope's decoded events in blocks that never
// move once allocated, then joins them once at the end. A growing slice
// would instead re-copy its events on every growth step, allocating
// several times their final size in total.
type eventBlocks struct {
	full [][]Event
	cur  []Event
	n    int
}

func (b *eventBlocks) add(e Event) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]Event, 0, min(max(2*cap(b.cur), 256), 1<<15))
	}
	b.cur = append(b.cur, e)
	b.n++
}

// events returns the collected events as one slice; a single block is
// returned as it is.
func (b *eventBlocks) events() []Event {
	if len(b.full) == 0 {
		return b.cur
	}
	out := make([]Event, 0, b.n)
	for _, blk := range b.full {
		out = append(out, blk...)
	}
	return append(out, b.cur...)
}

// decodeLineJSON decodes one line with encoding/json — the path for
// every line the fast decoder declines.
func decodeLineJSON(raw []byte) (Line, error) {
	var ln Line
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ln); err != nil {
		return Line{}, err
	}
	if dec.More() {
		return Line{}, errors.New("trailing data after event")
	}
	return ln, nil
}

// lineDecoder is DecodeJSONL's fast path: a strict single-pass parser
// for canonical lines. It accepts one object with no whitespace whose
// keys are known and distinct, whose strings are ASCII without escapes
// or bytes below space, and whose numbers follow the JSON grammar and
// fit their field.
// Everything it accepts, encoding/json decodes to the same Line; it
// declines everything else.
type lineDecoder struct {
	strs map[string]string // interned string values
}

// Presence bits of the fields of a line, for duplicate detection.
const (
	fScope uint16 = 1 << iota
	fT
	fK
	fF
	fN
	fSz
	fA
	fB
	fD
	fSim
	fM
	fC
	fE
	fTr
	fName
)

func (d *lineDecoder) decode(b []byte) (ln Line, ok bool) {
	if len(b) < 2 || b[0] != '{' {
		return ln, false
	}
	if b[1] == '}' {
		return ln, len(b) == 2
	}
	e := &ln.Event
	var seen uint16
	for i := 1; ; {
		key, j, ok := scanString(b, i)
		if !ok || j >= len(b) || b[j] != ':' {
			return ln, false
		}
		i = j + 1
		var (
			bit uint16
			sp  *string
			fp  *float64
			ip  *int
		)
		switch string(key) {
		case "scope":
			bit, sp = fScope, &ln.Scope
		case "t":
			bit, fp = fT, &e.T
		case "k":
			bit = fK
		case "f":
			bit = fF
		case "n":
			bit, ip = fN, &e.Node
		case "sz":
			bit, ip = fSz, &e.N
		case "a":
			bit, ip = fA, &e.Attempt
		case "b":
			bit, fp = fB, &e.Backoff
		case "d":
			bit, fp = fD, &e.Dur
		case "sim":
			bit, fp = fSim, &e.Sim
		case "m":
			bit, fp = fM, &e.Mult
		case "c":
			bit, sp = fC, &e.Cause
		case "e":
			bit, sp = fE, &e.Edge
		case "tr":
			bit, sp = fTr, &e.Tier
		case "name":
			bit, sp = fName, &e.Name
		default:
			return ln, false
		}
		if seen&bit != 0 {
			return ln, false
		}
		seen |= bit
		switch {
		case sp != nil || bit == fK:
			var s []byte
			if s, i, ok = scanString(b, i); !ok {
				return ln, false
			}
			if sp != nil {
				*sp = d.intern(s)
			} else if e.Kind, ok = kindByName[string(s)]; !ok {
				return ln, false
			}
		case fp != nil:
			j := scanNumber(b, i)
			if j < 0 {
				return ln, false
			}
			v, err := strconv.ParseFloat(string(b[i:j]), 64)
			if err != nil {
				return ln, false
			}
			*fp, i = v, j
		default:
			v, j, ok := scanInt(b, i)
			if !ok {
				return ln, false
			}
			if ip == nil {
				e.Frame = v
			} else if *ip = int(v); int64(*ip) != v {
				return ln, false
			}
			i = j
		}
		if i >= len(b) {
			return ln, false
		}
		switch b[i] {
		case '}':
			return ln, i+1 == len(b)
		case ',':
			i++
		default:
			return ln, false
		}
	}
}

// intern returns b as a string, sharing one allocation per distinct
// value across the decode.
func (d *lineDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// scanString returns the body of the JSON string starting at b[i] and
// the index just past its closing quote, provided the body is ASCII
// without escapes or bytes below space.
func scanString(b []byte, i int) (_ []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanNumber returns the index just past the JSON number starting at
// b[i], or -1 when none does.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return -1
		}
		i = skipDigits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return -1
		}
		i = skipDigits(b, i)
	}
	return i
}

// scanInt parses the JSON integer (no fraction or exponent, at most 18
// digits so it cannot overflow) starting at b[i].
func scanInt(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	j := skipDigits(b, i)
	if j == i || j-i > 18 || (b[i] == '0' && j-i > 1) {
		return 0, 0, false
	}
	if j < len(b) && (b[j] == '.' || b[j] == 'e' || b[j] == 'E') {
		return 0, 0, false
	}
	for _, c := range b[i:j] {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, j, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// Chrome trace-event export. Format reference: the Trace Event Format
// spec consumed by Perfetto and chrome://tracing. Each recorder scope
// becomes one process; inside a process, tid 1 is the frame timeline
// (flow anchors, sheds, losses), tid 2 the ISL (transfer slices,
// outage windows, retries), and tid 10+w worker w (batch slices, SEFI
// windows, deaths). Frames are flow events ("s"/"t"/"f" with a
// per-frame id) threading capture → dispatch → compute end.
const (
	tidFrames = 1
	tidISL    = 2
	tidEnv    = 3  // degradation phases (throttle slices, brownout windows)
	tidWorker = 10 // + worker index
)

const usPerSec = 1e6

// WriteChrome writes the recorder as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Deterministic for
// deterministic recordings, like WriteJSONL. Each record is
// {"name","ph","ts","dur","pid","tid","id","bp","s","args"} with the
// empty optional fields omitted and args keys sorted. A NaN or
// infinite time fails the export, with nothing written.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		return nil
	}
	c := chromeWriter{buf: make([]byte, 0, chromeBlock)}
	c.buf = append(c.buf, `{"traceEvents":[`...)
	r.walk("", func(scope string, events []Event) {
		if c.err == nil {
			c.pid++
			c.writeScope(scope, events)
		}
	})
	if c.err != nil {
		return c.err
	}
	c.buf = append(c.buf, `],"displayTimeUnit":"ms"}`...)
	for _, b := range append(c.full, c.buf) {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// chromeBlock is the size of the blocks WriteChrome buffers the whole
// export in before writing it, so the buffered export is not re-copied
// every time it outgrows its buffer.
const chromeBlock = 64 << 10

// chromeWriter appends trace-event records to a list of buffer blocks.
type chromeWriter struct {
	full    [][]byte // filled blocks
	buf     []byte   // the block being filled
	err     error    // the first non-finite float, as encoding/json reports it
	records int
	pid     int
	flow    []byte // escaped "<scope>/f" prefix of this scope's flow IDs
}

// writeScope renders one scope's events as one process.
func (c *chromeWriter) writeScope(scope string, events []Event) {
	if scope == "" {
		scope = "main"
	}
	c.flow = append(appendEscaped(c.flow[:0], scope), "/f"...)
	c.meta("process_name", 0, scope)
	c.meta("thread_name", tidFrames, "frames")
	c.meta("thread_name", tidISL, "ISL")
	// The environment track is named lazily, like worker tracks, so
	// recordings without degradation events export byte-identically to
	// before the track existed.
	envNamed := false
	env := func() int {
		if !envNamed {
			envNamed = true
			c.meta("thread_name", tidEnv, "env")
		}
		return tidEnv
	}
	namedWorkers := map[int]bool{}
	worker := func(node int) int {
		if node >= 0 && !namedWorkers[node] {
			namedWorkers[node] = true
			c.meta("thread_name", tidWorker+node, fmt.Sprintf("worker %02d", node))
		}
		return tidWorker + node
	}

	var (
		sendStart   = map[int64]float64{}     // frame -> in-flight transfer start
		computeOpen = map[int]openBatch{}     // node -> open batch slice
		outages     = map[string]openOutage{} // edge label ("" = legacy ISL) -> open window
		brownout    *openBrownout             // open eclipse-brownout window
		lastT       float64
	)
	for _, e := range events {
		if e.T > lastT {
			lastT = e.T
		}
		ts := e.T * usPerSec
		switch e.Kind {
		case FrameCaptured:
			c.open()
			c.nameInt("frame ", e.Frame, "")
			c.head("i", ts, 0, tidFrames)
			c.buf = append(c.buf, `,"s":"t","args":{"satellite":`...)
			c.buf = append(strconv.AppendInt(c.buf, int64(e.Node), 10), '}')
			c.close()
			c.flowEvent("s", ts, tidFrames, e.Frame)
		case ISLSendStart:
			sendStart[e.Frame] = e.T
		case ISLSendEnd:
			start, ok := sendStart[e.Frame]
			if !ok {
				break
			}
			delete(sendStart, e.Frame)
			c.open()
			if e.Cause != "" {
				c.nameInt("xfer f", e.Frame, " (aborted)")
			} else {
				c.nameInt("xfer f", e.Frame, "")
			}
			c.head("X", start*usPerSec, (e.T-start)*usPerSec, tidISL)
			if e.Cause != "" || e.Edge != "" {
				c.buf = append(c.buf, `,"args":{`...)
				if e.Cause != "" {
					c.buf = appendString(append(c.buf, `"cause":`...), e.Cause)
					if e.Edge != "" {
						c.buf = append(c.buf, ',')
					}
				}
				if e.Edge != "" {
					c.buf = appendString(append(c.buf, `"edge":`...), e.Edge)
				}
				c.buf = append(c.buf, '}')
			}
			c.close()
		case Retry:
			c.open()
			c.nameInt("retry f", e.Frame, "")
			c.head("i", ts, 0, tidISL)
			c.buf = append(c.buf, `,"s":"t","args":{"attempt":`...)
			c.buf = strconv.AppendInt(c.buf, int64(e.Attempt), 10)
			c.buf = append(c.buf, `,"backoff_s":`...)
			c.float(e.Backoff)
			c.buf = appendString(append(c.buf, `,"cause":`...), e.Cause)
			c.buf = append(appendStringField(c.buf, `,"edge":`, e.Edge), '}')
			c.close()
		case Shed:
			c.open()
			c.nameInt("shed f", e.Frame, "")
			c.head("i", ts, 0, tidFrames)
			c.buf = append(c.buf, `,"s":"t"`...)
			c.close()
		case Lost:
			c.open()
			c.nameInt("lost f", e.Frame, "")
			c.head("i", ts, 0, tidFrames)
			c.buf = append(c.buf, `,"s":"t","args":{"attempts":`...)
			c.buf = strconv.AppendInt(c.buf, int64(e.Attempt), 10)
			c.buf = append(appendString(append(c.buf, `,"cause":`...), e.Cause), '}')
			c.close()
		case Dispatched:
			c.flowEvent("t", ts, worker(e.Node), e.Frame)
		case ComputeStart:
			if e.Frame == 0 {
				computeOpen[e.Node] = openBatch{start: e.T, n: e.N}
			}
		case ComputeEnd:
			if e.Frame != 0 {
				c.flowEvent("f", ts, worker(e.Node), e.Frame)
				break
			}
			ob, ok := computeOpen[e.Node]
			if !ok {
				break
			}
			delete(computeOpen, e.Node)
			c.batch(ob, "", e.T, worker(e.Node))
		case NodeDeath:
			tid := worker(e.Node)
			if ob, ok := computeOpen[e.Node]; ok {
				// The batch died with its worker: close the slice here.
				delete(computeOpen, e.Node)
				c.batch(ob, " (stranded)", e.T, tid)
			}
			c.open()
			c.buf = append(c.buf, `"death"`...)
			c.head("i", ts, 0, tid)
			c.buf = append(c.buf, `,"s":"t"`...)
			c.close()
		case SEFIStart:
			tid := worker(e.Node)
			c.open()
			c.buf = append(c.buf, `"SEFI"`...)
			c.head("X", ts, e.Dur*usPerSec, tid)
			c.close()
		case OutageStart:
			outages[e.Edge] = openOutage{start: e.T, cause: e.Cause}
		case OutageEnd:
			ow, ok := outages[e.Edge]
			if !ok {
				break
			}
			delete(outages, e.Edge)
			c.outage(ow, e.Edge, e.T)
		case SpanDone:
			c.open()
			c.buf = appendString(c.buf, e.Name)
			c.head("X", (e.T-e.Dur)*usPerSec, e.Dur*usPerSec, tidFrames)
			c.close()
		case Throttle:
			tid := env()
			c.open()
			c.buf = append(c.buf, `"throttle ×`...)
			c.buf = append(strconv.AppendFloat(c.buf, e.Mult, 'f', 2, 64), '"')
			c.head("X", ts, e.Dur*usPerSec, tid)
			c.buf = append(c.buf, `,"args":{"rate_mult":`...)
			c.float(e.Mult)
			c.buf = append(c.buf, '}')
			c.close()
		case BrownoutStart:
			brownout = &openBrownout{start: e.T, n: e.N, cause: e.Cause}
		case SLOAlert:
			tid := env()
			c.open()
			c.buf = append(appendEscaped(append(c.buf, `"SLO alert: `...), e.Name), '"')
			c.head("i", ts, 0, tid)
			c.buf = appendString(append(c.buf, `,"s":"t","args":{"cause":`...), e.Cause)
			c.buf = append(c.buf, `,"fast_burn":`...)
			c.float(e.Mult)
			c.buf = append(c.buf, `,"window":`...)
			c.buf = append(strconv.AppendInt(c.buf, int64(e.N), 10), '}')
			c.close()
		case BrownoutEnd:
			if brownout == nil {
				break
			}
			c.brownout(*brownout, "", e.T, env())
			brownout = nil
		}
	}
	// Close windows still open at the end of the recording, edges in
	// sorted order for a deterministic export.
	openEdges := make([]string, 0, len(outages))
	for edge := range outages {
		openEdges = append(openEdges, edge)
	}
	sort.Strings(openEdges)
	for _, edge := range openEdges {
		c.outage(outages[edge], edge, lastT)
	}
	if brownout != nil {
		c.brownout(*brownout, " (open)", lastT, env())
	}
	nodes := make([]int, 0, len(computeOpen))
	for n := range computeOpen {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		tid := worker(n)
		c.batch(computeOpen[n], " (open)", lastT, tid)
	}
}

// open starts a record, up to its name.
func (c *chromeWriter) open() {
	if cap(c.buf)-len(c.buf) < 1024 {
		c.full = append(c.full, c.buf)
		c.buf = make([]byte, 0, chromeBlock)
	}
	if c.records > 0 {
		c.buf = append(c.buf, ',')
	}
	c.records++
	c.buf = append(c.buf, `{"name":`...)
}

func (c *chromeWriter) close() { c.buf = append(c.buf, '}') }

// head appends the fields after the name: ph, ts, dur (omitted when
// zero), pid and tid.
func (c *chromeWriter) head(ph string, ts, dur float64, tid int) {
	c.buf = append(append(append(c.buf, `,"ph":"`...), ph...), `","ts":`...)
	c.float(ts)
	if dur != 0 {
		c.buf = append(c.buf, `,"dur":`...)
		c.float(dur)
	}
	c.buf = append(c.buf, `,"pid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(c.pid), 10)
	c.buf = append(c.buf, `,"tid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(tid), 10)
}

// float appends a JSON number, keeping encoding/json's error for the
// first NaN or infinity as the export's error.
func (c *chromeWriter) float(v float64) {
	if !finite(v) {
		if c.err == nil {
			_, c.err = json.Marshal(v)
		}
		return
	}
	c.buf = appendFloat(c.buf, v)
}

// nameInt appends the quoted name prefix<v>suffix; prefix and suffix
// are literals that need no escaping.
func (c *chromeWriter) nameInt(prefix string, v int64, suffix string) {
	c.buf = append(append(c.buf, '"'), prefix...)
	c.buf = append(append(strconv.AppendInt(c.buf, v, 10), suffix...), '"')
}

// meta appends a metadata record naming a process or thread.
func (c *chromeWriter) meta(kind string, tid int, name string) {
	c.open()
	c.buf = appendString(c.buf, kind)
	c.head("M", 0, 0, tid)
	c.buf = append(appendString(append(c.buf, `,"args":{"name":`...), name), '}')
	c.close()
}

// flowEvent appends one step of a frame's flow: the start anchor ("s")
// on the frame track, or the dispatch ("t") and compute-end ("f") steps
// bound to the enclosing worker slice.
func (c *chromeWriter) flowEvent(ph string, ts float64, tid int, frame int64) {
	c.open()
	c.buf = append(c.buf, `"frame"`...)
	c.head(ph, ts, 0, tid)
	c.buf = append(append(c.buf, `,"id":"`...), c.flow...)
	c.buf = append(strconv.AppendInt(c.buf, frame, 10), '"')
	if ph != "s" {
		c.buf = append(c.buf, `,"bp":"e"`...)
	}
	c.close()
}

// batch appends a compute-batch slice ending at end.
func (c *chromeWriter) batch(ob openBatch, suffix string, end float64, tid int) {
	c.open()
	c.nameInt("batch ×", int64(ob.n), suffix)
	c.head("X", ob.start*usPerSec, (end-ob.start)*usPerSec, tid)
	c.close()
}

// outage appends an ISL outage slice ending at end.
func (c *chromeWriter) outage(ow openOutage, edge string, end float64) {
	c.open()
	c.buf = append(c.buf, `"outage"`...)
	c.head("X", ow.start*usPerSec, (end-ow.start)*usPerSec, tidISL)
	c.buf = appendString(append(c.buf, `,"args":{"cause":`...), ow.cause)
	c.buf = append(appendStringField(c.buf, `,"edge":`, edge), '}')
	c.close()
}

// brownout appends an eclipse-brownout slice ending at end.
func (c *chromeWriter) brownout(bw openBrownout, suffix string, end float64, tid int) {
	c.open()
	c.nameInt("brownout −", int64(bw.n), suffix)
	c.head("X", bw.start*usPerSec, (end-bw.start)*usPerSec, tid)
	c.buf = appendString(append(c.buf, `,"args":{"cause":`...), bw.cause)
	c.buf = append(c.buf, `,"workers_parked":`...)
	c.buf = append(strconv.AppendInt(c.buf, int64(bw.n), 10), '}')
	c.close()
}

type openBatch struct {
	start float64
	n     int
}

type openOutage struct {
	start float64
	cause string
}

type openBrownout struct {
	start float64
	n     int
	cause string
}
