package units

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPowerConversions(t *testing.T) {
	if got := KW(4).Watts(); got != 4000 {
		t.Errorf("KW(4).Watts() = %v, want 4000", got)
	}
	if got := Power(2500).Kilowatts(); got != 2.5 {
		t.Errorf("Power(2500).Kilowatts() = %v, want 2.5", got)
	}
}

func TestPowerString(t *testing.T) {
	tests := []struct {
		p    Power
		want string
	}{
		{Power(5), "5 W"},
		{KW(4), "4 kW"},
		{Megawatt * 2, "2 MW"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Power(%v).String() = %q, want %q", float64(tt.p), got, tt.want)
		}
	}
}

func TestTemperature(t *testing.T) {
	if got := Celsius(45).Kelvin(); math.Abs(got-318.15) > 1e-9 {
		t.Errorf("Celsius(45) = %v K, want 318.15", got)
	}
	if got := Temperature(273.15).ToCelsius(); math.Abs(got) > 1e-9 {
		t.Errorf("273.15K in Celsius = %v, want 0", got)
	}
}

func TestEnergyOver(t *testing.T) {
	e := EnergyOver(KW(1), time.Hour)
	if got := e.WattHours(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("1 kW over 1h = %v Wh, want 1000", got)
	}
	if got := e.Joules(); math.Abs(got-3.6e6) > 1e-3 {
		t.Errorf("1 kW over 1h = %v J, want 3.6e6", got)
	}
}

func TestDollarsString(t *testing.T) {
	tests := []struct {
		d    Dollars
		want string
	}{
		{Dollars(12), "$12"},
		{Dollars(4500), "$4.5k"},
		{MUSD(3.2), "$3.2M"},
		{Dollars(2.5e9), "$2.5B"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("Dollars(%v).String() = %q, want %q", float64(tt.d), got, tt.want)
		}
	}
}

func TestDataRate(t *testing.T) {
	if got := GbpsOf(25).Gigabits(); got != 25 {
		t.Errorf("GbpsOf(25).Gigabits() = %v, want 25", got)
	}
	if got := (100 * Mbps).String(); got != "100 Mbit/s" {
		t.Errorf("100 Mbps String = %q", got)
	}
}

func TestQuantityStrings(t *testing.T) {
	tests := []struct {
		v    fmt.Stringer
		want string
	}{
		{Kg(250), "250 kg"},
		{Kg(1500), "1.5 t"},
		{Area(4), "4 m²"},
		{Temperature(300), "300 K"},
		{9 * BitPerSecond, "9 bit/s"},
		{100 * Kbps, "100 kbit/s"},
		{GbpsOf(25), "25 Gbit/s"},
		{Dose(2.5), "2.5 krad(Si)"},
		{Velocity(7590), "7590 m/s"},
		{Years(15), "15 yr"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("%T(%v).String() = %q, want %q", tt.v, tt.v, got, tt.want)
		}
	}
}

func TestAccessorsReturnBaseUnits(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"Kg(2).Kilograms", Kg(2).Kilograms(), 2},
		{"Area(3).SquareMeters", Area(3).SquareMeters(), 3},
		{"Dose(4).Krad", Dose(4).Krad(), 4},
		{"Velocity(5).MetersPerSecond", Velocity(5).MetersPerSecond(), 5},
		{"MUSD(6).Millions", MUSD(6).Millions(), 6},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestSpecificPowerMassFor(t *testing.T) {
	// An NVIDIA A40-class server at 35 W/kg: 3500 W of servers weigh 100 kg.
	s := SpecificPower(35)
	if got := s.MassFor(Power(3500)).Kilograms(); math.Abs(got-100) > 1e-9 {
		t.Errorf("35 W/kg for 3.5 kW = %v kg, want 100", got)
	}
	if got := SpecificPower(0).MassFor(Power(100)); got != 0 {
		t.Errorf("zero specific power must yield zero mass, got %v", got)
	}
}

func TestArealDensityMassFor(t *testing.T) {
	d := ArealDensity(6)
	if got := d.MassFor(Area(4)).Kilograms(); math.Abs(got-24) > 1e-9 {
		t.Errorf("6 kg/m² × 4 m² = %v kg, want 24", got)
	}
}

func TestYears(t *testing.T) {
	y := Years(5)
	if got := y.Seconds(); math.Abs(got-5*365.25*86400) > 1 {
		t.Errorf("5 yr = %v s", got)
	}
	if got := y.Duration().Hours(); math.Abs(got-5*365.25*24) > 1e-6 {
		t.Errorf("5 yr = %v h", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(10, 20, 0.5); got != 15 {
		t.Errorf("Lerp(10,20,0.5) = %v, want 15", got)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(100, 100.5, 0.01) {
		t.Error("100 vs 100.5 should be within 1%")
	}
	if ApproxEqual(100, 105, 0.01) {
		t.Error("100 vs 105 should not be within 1%")
	}
	if !ApproxEqual(0, 1e-13, 0.0) {
		t.Error("values within absolute epsilon should compare equal")
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerpEndpointsProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e100 || math.Abs(b) > 1e100 {
			return true // avoid overflow in b-a
		}
		// t=0 is exact; t=1 cancels (b-a) so the error bound is relative
		// to the larger operand, not to b.
		scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
		return Lerp(a, b, 0) == a && math.Abs(Lerp(a, b, 1)-b) <= 1e-9*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
