package workload

import (
	"strings"
	"testing"

	"sudc/internal/units"
)

func TestSuiteMatchesTableIII(t *testing.T) {
	if len(Suite) != 10 {
		t.Fatalf("suite has %d apps, want 10 (Table III)", len(Suite))
	}
	// Spot-check the published rows.
	flood, err := ByName("Flood Detection")
	if err != nil {
		t.Fatal(err)
	}
	if flood.GPUPower != 325 || flood.GPUUtilization != 0.88 ||
		flood.InferTime != 5.53 || flood.KPixelPerJoule != 307 {
		t.Errorf("Flood Detection row mismatch: %+v", flood)
	}
	traffic, _ := ByName("Traffic Monitoring")
	if traffic.KPixelPerJoule != 2597 {
		t.Errorf("Traffic Monitoring kpixel/J = %v, want 2597", traffic.KPixelPerJoule)
	}
}

func TestSuiteAllValid(t *testing.T) {
	for _, a := range Suite {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestValidateCatchesBadRows(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*App)
	}{
		{"empty name", func(a *App) { a.Name = "" }},
		{"zero power", func(a *App) { a.GPUPower = 0 }},
		{"util > 1", func(a *App) { a.GPUUtilization = 1.5 }},
		{"zero time", func(a *App) { a.InferTime = 0 }},
		{"zero kpixJ", func(a *App) { a.KPixelPerJoule = 0 }},
		{"zero frame", func(a *App) { a.FrameMPixels = 0 }},
	}
	for _, tt := range tests {
		a := Suite[0]
		tt.mutate(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tt.name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("Whale Counting"); err == nil {
		t.Error("unknown app must error")
	}
}

// lightest returns the app with the highest kpixel/J — the one that
// saturates compute with the least ISL-delivered data per joule spent,
// and therefore needs the highest ISL rate ("the most lightweight
// application", paper §III).
func lightest() App {
	best := Suite[0]
	for _, a := range Suite[1:] {
		if a.KPixelPerJoule > best.KPixelPerJoule {
			best = a
		}
	}
	return best
}

func TestLightestIsTrafficMonitoring(t *testing.T) {
	if got := lightest().Name; got != "Traffic Monitoring" {
		t.Errorf("lightest app = %q, want Traffic Monitoring (2597 kpixel/J)", got)
	}
}

func TestSaturationRateAnchor(t *testing.T) {
	// Paper Fig. 8 anchor: "a 500 W SµDC needs no more than 25 Gbit/s ISL
	// to support even the most lightweight applications."
	r, err := lightest().SaturationRate(units.KW(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if g := r.Gigabits(); g > 25 || g < 15 {
		t.Errorf("lightest-app saturation at 500 W = %.1f Gbit/s, want (15,25]", g)
	}
	// Every other app needs less.
	for _, a := range Suite {
		ra, err := a.SaturationRate(units.KW(0.5))
		if err != nil {
			t.Fatal(err)
		}
		if ra > r {
			t.Errorf("%s needs %.1f Gbit/s > lightest app", a.Name, ra.Gigabits())
		}
	}
}

func TestSaturationRateScalesLinearly(t *testing.T) {
	a := Suite[0]
	r1, _ := a.SaturationRate(units.KW(0.5))
	r8, _ := a.SaturationRate(units.KW(4))
	if !units.ApproxEqual(float64(r8), 8*float64(r1), 1e-12) {
		t.Error("saturation rate must be linear in compute power")
	}
}

func TestSaturationRateNegativeBudget(t *testing.T) {
	if _, err := Suite[0].SaturationRate(units.Power(-1)); err == nil {
		t.Error("negative budget must error")
	}
}

func TestFrameBits(t *testing.T) {
	a, _ := ByName("Aircraft Detection")
	want := 30e6 * 16
	if got := a.FrameBits(); got != want {
		t.Errorf("FrameBits = %v, want %v", got, want)
	}
}

func TestTaskString(t *testing.T) {
	for task, want := range map[Task]string{
		Classification: "classification", Segmentation: "segmentation",
		PanopticSeg: "panoptic", Clustering: "clustering",
		ObjectRecognition: "object", Regression: "regression",
	} {
		if !strings.Contains(task.String(), want) {
			t.Errorf("Task(%d).String() = %q, want contains %q", task, task, want)
		}
	}
	if !strings.Contains(Task(99).String(), "99") {
		t.Error("unknown task should include its number")
	}
}
