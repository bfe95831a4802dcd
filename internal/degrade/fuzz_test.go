package degrade

import (
	"math"
	"testing"
	"time"
)

// FuzzBuildSchedule throws arbitrary profiles and horizons at Build and
// checks the schedule invariants every consumer relies on: the phase
// list covers [0, Horizon) with strictly ascending starts, every
// multiplier stays in its documented range, severity 0 compiles to the
// identity, and the capacity factor is a true time average.
func FuzzBuildSchedule(f *testing.F) {
	f.Add(0.5, 0.38, 70.0, 20.0, 7200.0)
	f.Add(0.0, -1.0, 70.0, 20.0, 3600.0)
	f.Add(1.0, 0.0, 120.0, -40.0, 86400.0)
	f.Add(0.25, 0.99, 25.0, 25.0, 60.0)
	f.Fuzz(func(t *testing.T, sev, ef, sunC, eclC, horizonS float64) {
		if math.IsNaN(horizonS) || horizonS <= 0 || horizonS > 1e9 {
			return
		}
		p := COTSProfile(sev)
		p.EclipseFraction = ef
		p.SunlitTempC = sunC
		p.EclipseTempC = eclC
		s, err := Build(p, time.Duration(horizonS*float64(time.Second)))
		if err != nil {
			return // invalid profile or over-long horizon: rejection is fine
		}
		if len(s.Phases) == 0 || s.Phases[0].Start != 0 {
			t.Fatalf("schedule must start a phase at 0: %+v", s.Phases)
		}
		for i := range s.Phases {
			ph := &s.Phases[i]
			if i > 0 && ph.Start <= s.Phases[i-1].Start {
				t.Fatalf("phase starts not ascending at %d: %v after %v", i, ph.Start, s.Phases[i-1].Start)
			}
			if ph.Start >= s.Horizon {
				t.Fatalf("phase %d starts at %v beyond horizon %v", i, ph.Start, s.Horizon)
			}
			if !(ph.RateMult > 0 && ph.RateMult <= 1) {
				t.Fatalf("phase %d rate multiplier %v out of (0,1]", i, ph.RateMult)
			}
			if !(ph.PowerFrac > 0 && ph.PowerFrac <= 1) {
				t.Fatalf("phase %d power fraction %v out of (0,1]", i, ph.PowerFrac)
			}
			if ph.FaultMult < 1 || math.IsNaN(ph.FaultMult) {
				t.Fatalf("phase %d fault multiplier %v below 1", i, ph.FaultMult)
			}
			if end := s.End(i); end <= ph.Start {
				t.Fatalf("phase %d empty: start %v end %v", i, ph.Start, end)
			}
		}
		if sev == 0 && !s.Identity() {
			t.Fatal("severity 0 must compile to the identity schedule")
		}
		if cf := s.CapacityFactor(); !(cf > 0 && cf <= 1) {
			t.Fatalf("capacity factor %v out of (0,1]", cf)
		}
	})
}
