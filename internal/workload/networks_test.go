package workload

import (
	"testing"
	"testing/quick"
)

// totalWeights sums weights over all of n's layers.
func totalWeights(n Network) int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.Weights()
	}
	return t
}

func TestAllNetworksValid(t *testing.T) {
	nets := Networks()
	if len(nets) != 9 {
		t.Fatalf("have %d networks, want 9", len(nets))
	}
	for name, n := range nets {
		if len(n.Layers) == 0 {
			t.Errorf("%s has no layers", name)
		}
		for _, l := range n.Layers {
			if err := l.Validate(); err != nil {
				t.Errorf("%s/%s: %v", name, l.Name, err)
			}
		}
		if n.Name != name {
			t.Errorf("map key %q != network name %q", name, n.Name)
		}
	}
}

func TestEveryAppHasANetwork(t *testing.T) {
	for _, a := range Suite {
		n, err := NetworkFor(a)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if n.TotalMACs() <= 0 {
			t.Errorf("%s: network %s has no MACs", a.Name, n.Name)
		}
	}
}

func TestNetworkForUnknown(t *testing.T) {
	if _, err := NetworkFor(App{Name: "x", Network: "lenet-99"}); err == nil {
		t.Error("unknown network must error")
	}
}

func TestVGG16KnownCounts(t *testing.T) {
	n := VGG16()
	// VGG-16 is the classic ~15.5 GMAC / ~138 M parameter network.
	gmacs := float64(n.TotalMACs()) / 1e9
	if gmacs < 15 || gmacs > 16 {
		t.Errorf("VGG-16 = %.2f GMACs, want ≈15.5", gmacs)
	}
	mw := float64(totalWeights(n)) / 1e6
	if mw < 130 || mw > 145 {
		t.Errorf("VGG-16 = %.1f M weights, want ≈138", mw)
	}
}

func TestResNet50KnownCounts(t *testing.T) {
	n := ResNet50()
	// ResNet-50 is ~4 GMACs, ~25 M params (conv+fc slightly above shortcut-free count).
	gmacs := float64(n.TotalMACs()) / 1e9
	if gmacs < 3.5 || gmacs > 4.8 {
		t.Errorf("ResNet-50 = %.2f GMACs, want ≈4", gmacs)
	}
	mw := float64(totalWeights(n)) / 1e6
	if mw < 20 || mw > 30 {
		t.Errorf("ResNet-50 = %.1f M weights, want ≈25", mw)
	}
}

func TestMobileNetV2IsLight(t *testing.T) {
	n := MobileNetV2()
	// MobileNet-V2: ~0.3 GMACs, ~3.5 M params.
	gmacs := float64(n.TotalMACs()) / 1e9
	if gmacs < 0.2 || gmacs > 0.6 {
		t.Errorf("MobileNet-V2 = %.2f GMACs, want ≈0.3", gmacs)
	}
	if n.TotalMACs() >= ResNet50().TotalMACs()/5 {
		t.Error("MobileNet-V2 must be far lighter than ResNet-50")
	}
}

func TestUNetIsHeavy(t *testing.T) {
	// U-Net at 256×256 runs tens of GMACs — heavier than classification nets.
	n := UNet()
	if n.TotalMACs() < VGG16().TotalMACs() {
		t.Error("U-Net at 256² should out-MAC VGG-16 at 224²")
	}
}

func TestPanopticIsHeaviest(t *testing.T) {
	nets := Networks()
	pan := nets["panoptic-fpn"].TotalMACs()
	for name, n := range nets {
		if name == "panoptic-fpn" || name == "unet" {
			continue
		}
		if n.TotalMACs() >= pan {
			t.Errorf("%s (%d MACs) out-MACs panoptic (%d)", name, n.TotalMACs(), pan)
		}
	}
}

func TestDepthwiseAccounting(t *testing.T) {
	d := dwConv("dw", 32, 3, 3, 10, 10, 1)
	full := conv("full", 32, 32, 3, 3, 10, 10, 1)
	if d.MACs()*int64(d.C) != full.MACs() {
		t.Errorf("depthwise MACs %d × C must equal full conv %d", d.MACs(), full.MACs())
	}
	if d.Weights()*int64(d.C) != full.Weights() {
		t.Error("depthwise weights must be 1/C of full conv")
	}
}

func TestLayerValidate(t *testing.T) {
	good := conv("ok", 3, 8, 3, 3, 10, 10, 1)
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := good
	bad.K = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero K must error")
	}
	dwBad := dwConv("dw", 8, 3, 3, 10, 10, 1)
	dwBad.K = 4
	if err := dwBad.Validate(); err == nil {
		t.Error("depthwise with C != K must error")
	}
}

func TestInputGeometry(t *testing.T) {
	l := conv("c", 3, 8, 3, 3, 112, 112, 2)
	if l.InputH() != 225 || l.InputW() != 225 {
		t.Errorf("input = %d×%d, want 225×225", l.InputH(), l.InputW())
	}
	if l.Inputs() != 3*225*225 {
		t.Errorf("Inputs() = %d", l.Inputs())
	}
	if l.Outputs() != 8*112*112 {
		t.Errorf("Outputs() = %d", l.Outputs())
	}
}

func TestMACsPositiveProperty(t *testing.T) {
	f := func(c, k, r, p uint8) bool {
		l := conv("x", int(c%64)+1, int(k%64)+1, int(r%7)+1, int(r%7)+1, int(p%56)+1, int(p%56)+1, 1)
		return l.MACs() > 0 && l.Weights() > 0 && l.MACs() >= l.Weights()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFCLayersAreOneByOne(t *testing.T) {
	l := fc("fc", 2048, 1000)
	if l.MACs() != 2048*1000 {
		t.Errorf("fc MACs = %d, want %d", l.MACs(), 2048*1000)
	}
	if l.Inputs() != 2048 || l.Outputs() != 1000 {
		t.Error("fc geometry wrong")
	}
}
