package slo_test

import (
	"testing"
	"time"
	"unsafe"

	"sudc/internal/obs/slo"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/trace/tracetest"
	"sudc/internal/obs/window"
)

// TestWindowsFromTraceAllocatesNoRecordingCopy pins that
// WindowsFromTrace reads the recording in place: padding the reference
// recording with span events, which add no frame, fault or window
// count, must not make it allocate more. A copy of each scope's events
// would grow with the padding.
func TestWindowsFromTraceAllocatesNoRecordingCopy(t *testing.T) {
	const pad = 20_000
	plain, padded := tracetest.Padded(t, 0), tracetest.Padded(t, pad)
	width, horizon := time.Minute.Seconds(), (10 * time.Minute).Seconds()
	var wins []window.Window
	base := tracetest.AllocBytes(3, func() { wins = slo.WindowsFromTrace(plain, width, horizon, 33, 33) })
	got := tracetest.AllocBytes(3, func() { wins = slo.WindowsFromTrace(padded, width, horizon, 33, 33) })
	if len(wins) == 0 {
		t.Fatal("the reference recording rebuilt no windows")
	}
	t.Logf("WindowsFromTrace allocated %d bytes, %d with %d span events of padding", base, got, pad)
	// A copy would add the padding's pad × 144 bytes; a quarter of that
	// leaves room for the map layouts, which vary with the hash seed.
	if got > base+pad*uint64(unsafe.Sizeof(trace.Event{}))/4 {
		t.Errorf("WindowsFromTrace allocated %d bytes for the recording padded with %d span events, %d without: it copies the recording",
			got, pad, base)
	}
}
