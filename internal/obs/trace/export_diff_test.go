package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// scopeView is a recorder's comparable content: everything but its
// lock, its creation time and where its log's blocks end.
type scopeView struct {
	Limit    int
	Events   []Event
	Dropped  int64
	Children map[string]scopeView
}

func view(r *Recorder) scopeView {
	v := scopeView{Limit: r.limit, Events: r.Events(), Dropped: r.dropped}
	for name, c := range r.children {
		if v.Children == nil {
			v.Children = map[string]scopeView{}
		}
		v.Children[name] = view(c)
	}
	return v
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkDecode decodes data with both codecs and requires equal
// recorders or equal errors; it returns the decoded recorder.
func checkDecode(t *testing.T, data []byte) *Recorder {
	t.Helper()
	got, gotErr := DecodeJSONL(bytes.NewReader(data))
	want, wantErr := refDecodeJSONL(bytes.NewReader(data))
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("decode error %q, reference %q\ninput: %q", errText(gotErr), errText(wantErr), data)
	}
	if wantErr != nil {
		return nil
	}
	if g, w := view(got), view(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("decoded recorder differs from the reference\ninput: %q\ngot:  %+v\nwant: %+v", data, g, w)
	}
	return got
}

// checkEncode requires both encoders of the recorder to write the
// reference's bytes and fail with its error.
func checkEncode(t *testing.T, r *Recorder) {
	t.Helper()
	for _, enc := range []struct {
		name      string
		got, want func(io *bytes.Buffer) error
	}{
		{"WriteJSONL", func(b *bytes.Buffer) error { return r.WriteJSONL(b) },
			func(b *bytes.Buffer) error { return refWriteJSONL(r, b) }},
		{"WriteChrome", func(b *bytes.Buffer) error { return r.WriteChrome(b) },
			func(b *bytes.Buffer) error { return refWriteChrome(r, b) }},
	} {
		var got, want bytes.Buffer
		gotErr, wantErr := enc.got(&got), enc.want(&want)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s error %q, reference %q", enc.name, errText(gotErr), errText(wantErr))
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s bytes differ from the reference\ngot:  %s\nwant: %s", enc.name, got.Bytes(), want.Bytes())
		}
	}
}

// edgeEvents reaches every branch of both exporters: each kind, paired
// and aborted transfers, closed, stranded and still-open batches, and
// outage and brownout windows both closed and still open at the end.
func edgeEvents() []Event {
	return []Event{
		{T: 0, Kind: FrameCaptured, Frame: 1, Node: 2},
		{T: 0.1, Kind: Placed, Frame: 1, Node: -1, Tier: "space", Cause: "spill"},
		{T: 0.5, Kind: OutageStart, Node: -1, Dur: 3, Cause: "isl-outage#1", Edge: "0-1"},
		{T: 0.5, Kind: Retry, Frame: 1, Node: -1, Attempt: 1, Backoff: 2, Cause: "isl-outage#1", Edge: "0-1"},
		{T: 1, Kind: ISLSendStart, Frame: 1, Node: -1},
		{T: 1.5, Kind: ISLSendEnd, Frame: 1, Node: -1, Cause: "isl-outage#1"},
		{T: 2.5, Kind: ISLSendStart, Frame: 1, Node: -1},
		{T: 2.6, Kind: ISLSendEnd, Frame: 1, Node: -1, Edge: "0-1"},
		{T: 2.6, Kind: Enqueued, Frame: 1, Node: -1, Cause: "node-death#3"},
		{T: 3, Kind: Dispatched, Frame: 1, Node: 0},
		{T: 3, Kind: ComputeStart, Node: 0, N: 1},
		{T: 3, Kind: ComputeStart, Node: 12, N: 4},
		{T: 3, Kind: ComputeStart, Node: 3, N: 2},
		{T: 3.5, Kind: OutageEnd, Node: -1, Cause: "isl-outage#1", Edge: "0-1"},
		{T: 4, Kind: ComputeEnd, Node: 0, N: 1},
		{T: 4, Kind: ComputeEnd, Frame: 1, Node: 0},
		{T: 4, Kind: Downlinked, Frame: 1, Node: 0},
		{T: 5, Kind: Shed, Frame: 2, Node: -1},
		{T: 5, Kind: Lost, Frame: 3, Node: -1, Attempt: 4, Cause: "isl-outage#1"},
		{T: 6, Kind: NodeDeath, Node: 12},
		{T: 6, Kind: SEFIStart, Node: 9, Dur: 30},
		{T: 36, Kind: SEFIEnd, Node: 9},
		{T: 7, Kind: SpanDone, Node: -1, Dur: 0.5, Sim: 60, Name: "run"},
		{T: 8, Kind: Throttle, Node: -1, Mult: 0.75, Dur: 60},
		{T: 9, Kind: BrownoutStart, Node: -1, N: 3, Dur: 20, Cause: "brownout#1"},
		{T: 29, Kind: BrownoutEnd, Node: -1, N: 3},
		{T: 30, Kind: SLOAlert, Node: -1, N: 4, Mult: 14.4, Dur: 60, Cause: "eclipse", Name: "availability"},
		{T: 31, Kind: BrownoutStart, Node: -1, N: 1, Cause: "brownout#2"},
		{T: 31, Kind: OutageStart, Node: -1, Cause: "isl-outage#2"},
		{T: 31, Kind: OutageStart, Node: -1, Cause: "isl-outage#3", Edge: "2-3"},
	}
}

// edgeRecorder records events in the root scope and again in a child
// scope named scope.
func edgeRecorder(scope string, events []Event) *Recorder {
	r := New(0)
	for _, e := range events {
		r.Record(e)
		r.Child(scope).Record(e)
	}
	return r
}

// checkRoundTrip pins both encoders and, when the JSONL export
// succeeds, the decode of its bytes to the reference codec.
func checkRoundTrip(t *testing.T, r *Recorder) {
	t.Helper()
	checkEncode(t, r)
	var jsonl bytes.Buffer
	if err := r.WriteJSONL(&jsonl); err == nil {
		checkEncode(t, checkDecode(t, jsonl.Bytes()))
	}
}

var (
	edgeFloats = []float64{math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e20, 1e21, -1e21, 5e-324,
		math.MaxFloat64, 0.1, 123456.789, math.NaN(), math.Inf(1), math.Inf(-1)}
	edgeStrings = []string{"<a>&b", "\"\\\n\b\f\r\t", "\x00\x1f\x7f", "line\u2028sep\u2029",
		"bad\xffutf8", "\xe2\x80", "\u00d7\u2212", "isl-outage#1", ""}
)

// TestCodecEdgeValuesMatchReference drives every float and string field
// through edge values and pins both encoders and the decoder to the
// encoding/json reference, including the NaN and infinity errors. T is
// set one event at a time, so the differences the Chrome export takes
// between events reach the edge values too; the other fields are set
// on every event at once.
func TestCodecEdgeValuesMatchReference(t *testing.T) {
	check := func(name string, set func(ev []Event)) {
		t.Run(name, func(t *testing.T) {
			ev := edgeEvents()
			set(ev)
			checkRoundTrip(t, edgeRecorder("r000", ev))
		})
	}
	for _, v := range edgeFloats {
		for i := range edgeEvents() {
			check(fmt.Sprintf("event%d/t=%g", i, v), func(ev []Event) { ev[i].T = v })
		}
		for field, set := range map[string]func(*Event){
			"b": func(e *Event) { e.Backoff = v }, "d": func(e *Event) { e.Dur = v },
			"sim": func(e *Event) { e.Sim = v }, "m": func(e *Event) { e.Mult = v },
		} {
			check(fmt.Sprintf("%s=%g", field, v), func(ev []Event) {
				for i := range ev {
					set(&ev[i])
				}
			})
		}
	}
	for _, v := range edgeStrings {
		for field, set := range map[string]func(*Event){
			"c": func(e *Event) { e.Cause = v }, "e": func(e *Event) { e.Edge = v },
			"tr": func(e *Event) { e.Tier = v }, "name": func(e *Event) { e.Name = v },
		} {
			check(fmt.Sprintf("%s=%q", field, v), func(ev []Event) {
				for i := range ev {
					set(&ev[i])
				}
			})
		}
		t.Run(fmt.Sprintf("scope=%q", v), func(t *testing.T) {
			checkRoundTrip(t, edgeRecorder(v, edgeEvents()))
		})
	}
	check("unknown-kind", func(ev []Event) { ev[3].Kind = numKinds })
}

// nonCanonicalLines are inputs the fast decoder must hand to
// encoding/json: whitespace, escapes, case-folded and duplicate keys,
// nulls, numbers it does not parse itself, and outright errors.
var nonCanonicalLines = []string{
	`{ "t":1,"k":"shed","n":-1}`,
	`{"t" :1,"k":"shed","n":-1}`,
	`{"t":1, "k":"shed","n":-1}`,
	`{"t":1,"k":"shed","n":-1 }`,
	`{"T":1,"K":"shed","N":-1}`,
	`{"t":1,"t":2,"k":"shed","n":-1}`,
	`{"t":1,"k":"shed","k":"lost","n":-1}`,
	`{"t":null,"k":"shed","n":-1}`,
	`{"t":1,"k":null,"n":-1}`,
	`{"t":1,"k":"shed","n":-1,"c":null}`,
	`{"\u0074":1,"k":"shed","n":-1}`,
	`{"t":1,"k":"shed","n":-1,"c":"a\"b"}`,
	`{"t":1,"k":"shed","n":-1,"c":"a` + "\u2028" + `b"}`,
	`{"t":1,"k":"shed","n":-1,"c":"caf` + "\xc3\xa9" + `"}`,
	`{"t":1,"k":"shed","n":-1,"c":"bad` + "\xff" + `"}`,
	`{"t":1,"k":"shed","n":-1,"c":"tab` + "\t" + `"}`,
	`{"t":1,"k":"shed","f":1234567890123456789,"n":-1}`,
	`{"t":1,"k":"shed","f":12345678901234567890,"n":-1}`,
	`{"t":1,"k":"shed","f":9999999999999999999,"n":-1}`,
	`{"t":1,"k":"shed","f":-9223372036854775808,"n":-1}`,
	`{"t":1,"k":"shed","f":1.5,"n":-1}`,
	`{"t":1,"k":"shed","f":1e3,"n":-1}`,
	`{"t":1,"k":"shed","f":-0,"n":-0}`,
	`{"t":1,"k":"shed","f":01,"n":-1}`,
	`{"t":1e400,"k":"shed","n":-1}`,
	`{"t":1e-400,"k":"shed","n":-1}`,
	`{"t":-0.0e+0,"k":"shed","n":-1}`,
	`{"t":1.,"k":"shed","n":-1}`,
	`{"t":.5,"k":"shed","n":-1}`,
	`{"t":+1,"k":"shed","n":-1}`,
	`{"t":"1","k":"shed","n":-1}`,
	`{"t":1,"k":1,"n":-1}`,
	`{"t":1,"k":"warp_drive","n":-1}`,
	`{"t":1,"k":"shed","n":"x"}`,
	`{"t":1,"k":"shed","n":-1,"mystery":true}`,
	`{"t":1,"k":"shed","n":-1} {"t":2}`,
	`{"t":1,"k":"shed","n":-1}}`,
	`{"t":1,"k":"shed","n":-1,}`,
	`{"t":1,"k":"shed","n":-1`,
	`{}`,
	`{"scope":"","t":1,"k":"shed","n":-1}`,
	`[]`,
	`not json at all`,
}

// TestDecodeNonCanonicalMatchesReference pins the encoding/json
// fallback: every non-canonical line decodes (or fails) exactly as the
// reference decoder does.
func TestDecodeNonCanonicalMatchesReference(t *testing.T) {
	for _, line := range nonCanonicalLines {
		checkDecode(t, []byte(`{"t":0,"k":"shed","f":7,"n":-1}`+"\n"+line+"\n"))
	}
}

// FuzzCodecMatchesReference pins the codec to the encoding/json
// reference: for any input, both decoders return equal recorders or the
// same error, and for every recorder they accept, both encoders write
// the reference's bytes.
func FuzzCodecMatchesReference(f *testing.F) {
	var seed bytes.Buffer
	if err := edgeRecorder("r000", edgeEvents()).WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for _, line := range nonCanonicalLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec := checkDecode(t, data); rec != nil {
			checkEncode(t, rec)
		}
	})
}
