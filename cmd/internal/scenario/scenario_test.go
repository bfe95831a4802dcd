package scenario

import (
	"flag"
	"strings"
	"testing"
)

// build parses args on a fresh flag set and builds the scenario.
func build(t *testing.T, args ...string) *Scenario {
	t.Helper()
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sc, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestPlanesRejectSatellites: a -planes run simulates the graph's
// capture satellites, so an explicit -satellites beside it is an error
// naming both flags — at the default value too — and a -planes run
// without it still builds.
func TestPlanesRejectSatellites(t *testing.T) {
	planes := []string{"-planes", "4", "-sats-per-plane", "16", "-placement", "queue", "-hours", "0.5"}
	for _, sats := range []string{"16", "64"} {
		fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
		f := Register(fs)
		if err := fs.Parse(append(planes, "-satellites", sats)); err != nil {
			t.Fatal(err)
		}
		_, err := f.Build()
		if err == nil || !strings.Contains(err.Error(), "-satellites") || !strings.Contains(err.Error(), "-planes") {
			t.Errorf("-planes with -satellites %s: Build error %v, want one naming both flags", sats, err)
		}
	}
	sc := build(t, planes...)
	if sc.Config.Placement == nil {
		t.Fatal("-placement built no placement config")
	}
	if got := sc.Config.Topology.Sats(); got != 64 {
		t.Errorf("-planes 4 -sats-per-plane 16 simulates %d capture satellites, want 64", got)
	}
	if build(t, "-satellites", "16").Config.Constellation.Satellites != 16 {
		t.Error("-satellites without -planes no longer sizes the star")
	}
}
