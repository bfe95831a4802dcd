package trace_test

import (
	"bytes"
	"testing"
	"unsafe"

	"sudc/internal/obs/trace"
	"sudc/internal/obs/trace/tracetest"
)

// allocEvents is the size of the recordings the allocation guards
// measure, about the reference recording's.
const allocEvents = 25_000

const eventSize = uint64(unsafe.Sizeof(trace.Event{}))

// TestRecordAllocatesOnlyBlocks bounds what recording costs: the log's
// blocks, which hold the events without re-copying them, and at most
// one block not yet filled. A growing slice allocates several times its
// final size instead.
func TestRecordAllocatesOnlyBlocks(t *testing.T) {
	var rec *trace.Recorder
	got := tracetest.AllocBytes(3, func() {
		rec = trace.New(0)
		for i := 0; i < allocEvents; i++ {
			rec.Record(trace.Event{T: float64(i), Kind: trace.Enqueued, Frame: int64(i + 1), Node: -1})
		}
	})
	if limit := (allocEvents + trace.MaxBlock) * eventSize; got > limit {
		t.Errorf("recording %d events allocated %d bytes, want at most %d: (events + one block) × %d bytes",
			allocEvents, got, limit, eventSize)
	}
	if rec.Len() != allocEvents {
		t.Fatalf("recorded %d events, want %d", rec.Len(), allocEvents)
	}
}

// TestDecodeJSONLAllocatesNoJoinCopy bounds what decoding costs: the
// decoded scope's log, the scanner's 64 KB line buffer and a few small
// tables. Decoding must install its blocks as the recorder's log, not
// join them into one more copy of every event.
func TestDecodeJSONLAllocatesNoJoinCopy(t *testing.T) {
	src := trace.New(0)
	for i := 0; i < allocEvents; i++ {
		src.Record(trace.Event{T: float64(i) / 8, Kind: trace.Retry, Frame: int64(i + 1), Node: -1,
			Attempt: 1, Backoff: 2, Cause: "isl-outage#1"})
	}
	var jsonl bytes.Buffer
	if err := src.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	var rec *trace.Recorder
	got := tracetest.AllocBytes(3, func() {
		var err error
		if rec, err = trace.DecodeJSONL(bytes.NewReader(jsonl.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	const tables = 80 << 10 // the line buffer, the string and scope tables
	if limit := (allocEvents+trace.MaxBlock)*eventSize + tables; got > limit {
		t.Errorf("decoding %d events allocated %d bytes, want at most %d: (events + one block) × %d bytes + %d",
			allocEvents, got, limit, eventSize, tables)
	}
	if rec.Len() != allocEvents {
		t.Fatalf("decoded %d events, want %d", rec.Len(), allocEvents)
	}
}
