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

var update = flag.Bool("update", false, "rewrite the testdata/*.golden run pins")

// starConfig is the paper's Figure 14 star with faults, COTS
// degradation, queue-aware placement, a spare worker, 10-minute windows,
// and load shedding all active. Its batches strand through node deaths.
func starConfig() Config {
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
	return c
}

// brownoutConfig is the reference 64-satellite Flood Detection run
// under severity-1 COTS degradation with eclipse deferral, the heavy
// fault mix, tight retry and shed limits, and queue-aware placement.
// Its batches strand through both eclipse brownouts and node deaths,
// and it defers, spills, sheds, loses, and retries frames.
func brownoutConfig() Config {
	c := DefaultConfig(workload.Suite[2])
	c.Faults = degradeFaults
	c.RetryLimit = 3
	c.ShedThreshold = 40
	p := degrade.COTSProfile(1)
	c.Degrade = &p
	c.DeferInEclipse = true
	c.Placement = placeConfig(placement.Policy{Kind: placement.QueueAware})
	c.Window = 10 * time.Minute
	return c
}

// TestStarGolden pins every observable byte of nil-Topology runs: their
// Stats, obs snapshot, window stream, and the digests of their JSONL
// and Chrome exports. Regenerate with:
// go test ./internal/netsim -run TestStarGolden -update
func TestStarGolden(t *testing.T) {
	for _, tc := range []struct {
		golden   string
		config   func() Config
		exercise func(Stats) bool
	}{
		{"star.golden", starConfig, func(s Stats) bool {
			return s.ThrottledTime > 0 && s.BrownoutTime > 0 && s.FramesRetried > 0 &&
				s.FramesRedispatched > 0 && s.TierFrames[placement.TierOnboard] > 0
		}},
		{"brownout.golden", brownoutConfig, func(s Stats) bool {
			return s.BrownoutTime > 0 && s.FramesRedispatched > 0 && s.BatchesDeferred > 0 &&
				s.FramesShed > 0 && s.FramesLost > 0 && s.FramesRetried > 0 &&
				s.TierFrames[placement.TierOnboard] > 0
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			c := tc.config()
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
			if !tc.exercise(s) {
				t.Errorf("scenario does not exercise the paths it pins: %+v", s)
			}
			if rec.Dropped() != 0 {
				t.Errorf("recorder dropped %d events", rec.Dropped())
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

			golden := filepath.Join("testdata", tc.golden)
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
						t.Fatalf("run differs from %s at line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("run differs from %s: %d lines, want %d", golden, len(gl), len(wl))
			}
		})
	}
}
