package netsim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sudc/internal/degrade"
	"sudc/internal/obs"
	"sudc/internal/obs/trace"
	"sudc/internal/obs/window"
	"sudc/internal/placement"
	"sudc/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/star.golden")

// TestStarGolden pins every observable byte of one nil-Topology run —
// the paper's Figure 14 star — with faults, COTS degradation,
// queue-aware placement, a spare worker, 10-minute windows, and load
// shedding all active: its Stats, obs snapshot, window stream, and the
// digests of its JSONL and Chrome exports. Regenerate with:
// go test ./internal/netsim -run TestStarGolden -update
func TestStarGolden(t *testing.T) {
	c := DefaultConfig(workload.Suite[0])
	c.Constellation.Satellites = 16
	c.Seed = 10
	c.Faults = topoFaults
	c.RetryLimit = 4
	c.ShedThreshold = 200
	c.NeedWorkers = c.Workers - 1
	p := degrade.COTSProfile(0.75)
	c.Degrade = &p
	c.Placement = placeConfig(placement.Policy{Kind: placement.QueueAware})
	c.Window = 10 * time.Minute
	var wins []window.Window
	c.OnWindow = func(w window.Window) { wins = append(wins, w) }
	reg := obs.New()
	rec := trace.New(0)
	c.Obs = reg
	c.Trace = rec

	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.ThrottledTime == 0 || s.BrownoutTime == 0 || s.FramesRetried == 0 ||
		s.FramesRedispatched == 0 || s.TierFrames[placement.TierOnboard] == 0 {
		t.Errorf("scenario does not exercise degradation, faults, and placement: %+v", s)
	}
	var jsonl, chrome bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "stats %+v\n", s)
	for _, w := range wins {
		fmt.Fprintf(&b, "window %+v\n", w)
	}
	fmt.Fprintf(&b, "jsonl sha256 %x (%d bytes)\n", sha256.Sum256(jsonl.Bytes()), jsonl.Len())
	fmt.Fprintf(&b, "chrome sha256 %x (%d bytes)\n", sha256.Sum256(chrome.Bytes()), chrome.Len())
	fmt.Fprintf(&b, "obs\n%s", reg.Snapshot().String())
	got := b.String()

	golden := filepath.Join("testdata", "star.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("star run differs from %s at line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("star run differs from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
