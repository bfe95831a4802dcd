package scenario

import (
	"flag"
	"reflect"
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

// TestPlanesIgnoreSatellites: a -planes run simulates the graph's
// capture satellites whatever -satellites says, so the placement tiers
// must be priced for the graph's stream too.
func TestPlanesIgnoreSatellites(t *testing.T) {
	planes := func(sats string) []string {
		return []string{"-planes", "4", "-sats-per-plane", "16", "-placement", "queue",
			"-hours", "0.5", "-satellites", sats}
	}
	a, b := build(t, planes("64")...), build(t, planes("16")...)
	if a.Config.Placement == nil || b.Config.Placement == nil {
		t.Fatal("-placement built no placement config")
	}
	if !reflect.DeepEqual(a.Config, b.Config) {
		t.Errorf("-satellites changed a -planes run:\nplacement at 64: %+v\nplacement at 16: %+v",
			*a.Config.Placement, *b.Config.Placement)
	}
}
