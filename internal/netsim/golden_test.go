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
	"sudc/internal/topo"
	"sudc/internal/units"
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

// cellsConfig runs a multi-cell graph for two hours under every fault
// process, COTS degradation, tight retry and shed limits, and 10-minute
// windows — the degraded scenario of the shard-count invariance pin.
// Its frames cross cells, strand, retry, and shed.
func cellsConfig(g *topo.Graph) Config {
	c := TopologyConfig(workload.Suite[0], g)
	c.BatchSize = 4
	c.BatchTimeout = 30 * time.Second
	c.Duration = 2 * time.Hour
	c.Seed = 9
	c.Faults = degradeFaults
	c.RetryLimit = 3
	c.ShedThreshold = 40
	p := degrade.COTSProfile(0.75)
	c.Degrade = &p
	c.Window = 10 * time.Minute
	return c
}

// TestRunGolden pins every observable byte of four runs: their Stats,
// obs snapshot, window stream, and the digests of their JSONL and
// Chrome exports. Two are nil-Topology stars; two are multi-cell graphs
// whose cross-cell messages pass through the shard runner's barrier: a
// 4-plane Walker with uniform 250 ms ring ISLs, and a cluster ring with
// 2 ms hops inside each cluster and 400 ms ISLs between them.
// Regenerate with:
// go test ./internal/netsim -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	walker, err := topo.Walker(4, 8, 5, 2, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topo.ClustersRing(6, 8, 4, 2, 10*units.Gbps, 2*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	crossCell := func(s Stats) bool {
		return s.CrossShardFrames > 0 && s.FramesRetried > 0 && s.FramesRedispatched > 0 &&
			s.FramesShed > 0
	}
	for _, tc := range []struct {
		golden   string
		config   Config
		exercise func(Stats) bool
	}{
		{"star.golden", starConfig(), func(s Stats) bool {
			return s.ThrottledTime > 0 && s.BrownoutTime > 0 && s.FramesRetried > 0 &&
				s.FramesRedispatched > 0 && s.TierFrames[placement.TierOnboard] > 0
		}},
		{"brownout.golden", brownoutConfig(), func(s Stats) bool {
			return s.BrownoutTime > 0 && s.FramesRedispatched > 0 && s.BatchesDeferred > 0 &&
				s.FramesShed > 0 && s.FramesLost > 0 && s.FramesRetried > 0 &&
				s.TierFrames[placement.TierOnboard] > 0
		}},
		{"walker.golden", cellsConfig(walker), crossCell},
		{"ring.golden", cellsConfig(ring), crossCell},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			c := tc.config
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
