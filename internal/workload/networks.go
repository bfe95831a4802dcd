package workload

import (
	"errors"
	"fmt"
)

// Layer is one convolutional (or fully-connected, R=S=P=Q=1) layer in the
// Timeloop-style 7-dimensional nested-loop notation: K output channels,
// C input channels, R×S filter, P×Q output feature map.
type Layer struct {
	Name string
	// C and K are input and output channel counts.
	C, K int
	// R and S are filter height and width.
	R, S int
	// P and Q are output feature-map height and width.
	P, Q int
	// Stride of the convolution.
	Stride int
	// Depthwise marks a depthwise convolution (one filter per channel;
	// K must equal C and per-output MACs drop by a factor of C).
	Depthwise bool
}

// Validate reports dimension errors.
func (l Layer) Validate() error {
	if l.C <= 0 || l.K <= 0 || l.R <= 0 || l.S <= 0 || l.P <= 0 || l.Q <= 0 || l.Stride <= 0 {
		return fmt.Errorf("workload: layer %q has non-positive dimension", l.Name)
	}
	if l.Depthwise && l.C != l.K {
		return fmt.Errorf("workload: depthwise layer %q must have C == K", l.Name)
	}
	return nil
}

// MACs returns multiply-accumulate operations for one inference.
func (l Layer) MACs() int64 {
	m := int64(l.K) * int64(l.R) * int64(l.S) * int64(l.P) * int64(l.Q)
	if l.Depthwise {
		return m // one input channel per output channel
	}
	return m * int64(l.C)
}

// Weights returns the layer's weight count.
func (l Layer) Weights() int64 {
	if l.Depthwise {
		return int64(l.K) * int64(l.R) * int64(l.S)
	}
	return int64(l.K) * int64(l.C) * int64(l.R) * int64(l.S)
}

// InputH and InputW give the input feature-map size implied by the output
// size, stride and filter (no-padding arithmetic: H = (P-1)·stride + R).
func (l Layer) InputH() int { return (l.P-1)*l.Stride + l.R }

// InputW mirrors InputH for width.
func (l Layer) InputW() int { return (l.Q-1)*l.Stride + l.S }

// Inputs returns the input activation count.
func (l Layer) Inputs() int64 { return int64(l.C) * int64(l.InputH()) * int64(l.InputW()) }

// Outputs returns the output activation count.
func (l Layer) Outputs() int64 { return int64(l.K) * int64(l.P) * int64(l.Q) }

// Network is a named sequence of layers (branching topologies are
// flattened: each branch's convolutions appear as consecutive layers,
// which is exact for MAC/energy accounting).
type Network struct {
	Name   string
	Task   Task
	Layers []Layer
}

// TotalMACs sums MACs over all layers.
func (n Network) TotalMACs() int64 {
	var t int64
	for _, l := range n.Layers {
		t += l.MACs()
	}
	return t
}

func conv(name string, c, k, r, s, p, q, stride int) Layer {
	return Layer{Name: name, C: c, K: k, R: r, S: s, P: p, Q: q, Stride: stride}
}

func dwConv(name string, c, r, s, p, q, stride int) Layer {
	return Layer{Name: name, C: c, K: c, R: r, S: s, P: p, Q: q, Stride: stride, Depthwise: true}
}

func fc(name string, c, k int) Layer {
	return Layer{Name: name, C: c, K: k, R: 1, S: 1, P: 1, Q: 1, Stride: 1}
}

// VGG16 builds the 13-conv + 3-FC VGG-16 network at 224×224 input.
func VGG16() Network {
	mk := func(stage, idx, c, k, hw int) Layer {
		return conv(fmt.Sprintf("conv%d_%d", stage, idx), c, k, 3, 3, hw, hw, 1)
	}
	return Network{Name: "vgg-16", Task: Classification, Layers: []Layer{
		mk(1, 1, 3, 64, 224), mk(1, 2, 64, 64, 224),
		mk(2, 1, 64, 128, 112), mk(2, 2, 128, 128, 112),
		mk(3, 1, 128, 256, 56), mk(3, 2, 256, 256, 56), mk(3, 3, 256, 256, 56),
		mk(4, 1, 256, 512, 28), mk(4, 2, 512, 512, 28), mk(4, 3, 512, 512, 28),
		mk(5, 1, 512, 512, 14), mk(5, 2, 512, 512, 14), mk(5, 3, 512, 512, 14),
		fc("fc6", 512*7*7, 4096), fc("fc7", 4096, 4096), fc("fc8", 4096, 1000),
	}}
}

// resNetStage appends n bottleneck (or basic) blocks.
func resNetBottleneck(layers []Layer, stage string, cIn, mid, cOut, hw, n int, firstStride int) []Layer {
	for b := 0; b < n; b++ {
		stride := 1
		inC := cOut
		if b == 0 {
			stride = firstStride
			inC = cIn
			// projection shortcut
			layers = append(layers, conv(stage+"_proj", inC, cOut, 1, 1, hw, hw, stride))
		}
		layers = append(layers,
			conv(fmt.Sprintf("%s_b%d_1x1a", stage, b), inC, mid, 1, 1, hw, hw, stride),
			conv(fmt.Sprintf("%s_b%d_3x3", stage, b), mid, mid, 3, 3, hw, hw, 1),
			conv(fmt.Sprintf("%s_b%d_1x1b", stage, b), mid, cOut, 1, 1, hw, hw, 1),
		)
	}
	return layers
}

// ResNet50 builds ResNet-50 at 224×224 input.
func ResNet50() Network {
	layers := []Layer{conv("conv1", 3, 64, 7, 7, 112, 112, 2)}
	layers = resNetBottleneck(layers, "res2", 64, 64, 256, 56, 3, 1)
	layers = resNetBottleneck(layers, "res3", 256, 128, 512, 28, 4, 2)
	layers = resNetBottleneck(layers, "res4", 512, 256, 1024, 14, 6, 2)
	layers = resNetBottleneck(layers, "res5", 1024, 512, 2048, 7, 3, 2)
	layers = append(layers, fc("fc1000", 2048, 1000))
	return Network{Name: "resnet-50", Task: Regression, Layers: layers}
}

// ResNet18 builds ResNet-18 (basic blocks) at 224×224 input.
func ResNet18() Network {
	layers := []Layer{conv("conv1", 3, 64, 7, 7, 112, 112, 2)}
	basic := func(ls []Layer, stage string, cIn, c, hw, n, firstStride int) []Layer {
		for b := 0; b < n; b++ {
			stride, inC := 1, c
			if b == 0 {
				stride, inC = firstStride, cIn
				if cIn != c {
					ls = append(ls, conv(stage+"_proj", cIn, c, 1, 1, hw, hw, stride))
				}
			}
			ls = append(ls,
				conv(fmt.Sprintf("%s_b%d_3x3a", stage, b), inC, c, 3, 3, hw, hw, stride),
				conv(fmt.Sprintf("%s_b%d_3x3b", stage, b), c, c, 3, 3, hw, hw, 1))
		}
		return ls
	}
	layers = basic(layers, "res2", 64, 64, 56, 2, 1)
	layers = basic(layers, "res3", 64, 128, 28, 2, 2)
	layers = basic(layers, "res4", 128, 256, 14, 2, 2)
	layers = basic(layers, "res5", 256, 512, 7, 2, 2)
	layers = append(layers, fc("fc1000", 512, 1000))
	return Network{Name: "resnet-18", Task: Clustering, Layers: layers}
}

// UNet builds the classic 256×256 U-Net encoder/decoder.
func UNet() Network {
	var layers []Layer
	dbl := func(stage string, c, k, hw int) {
		layers = append(layers,
			conv(stage+"_a", c, k, 3, 3, hw, hw, 1),
			conv(stage+"_b", k, k, 3, 3, hw, hw, 1))
	}
	dbl("enc1", 3, 64, 256)
	dbl("enc2", 64, 128, 128)
	dbl("enc3", 128, 256, 64)
	dbl("enc4", 256, 512, 32)
	dbl("bottleneck", 512, 1024, 16)
	// Decoder: up-convolutions then double convs on concatenated features.
	up := func(stage string, c, k, hw int) {
		layers = append(layers, conv(stage+"_up", c, k, 2, 2, hw, hw, 1))
		dbl(stage, 2*k, k, hw)
	}
	up("dec4", 1024, 512, 32)
	up("dec3", 512, 256, 64)
	up("dec2", 256, 128, 128)
	up("dec1", 128, 64, 256)
	layers = append(layers, conv("head", 64, 2, 1, 1, 256, 256, 1))
	return Network{Name: "unet", Task: Segmentation, Layers: layers}
}

// InceptionV3 builds a flattened Inception-v3 at 299×299: the full stem
// plus each inception module's branches as consecutive convolutions.
func InceptionV3() Network {
	var layers []Layer
	add := func(name string, c, k, r, s, p, q, stride int) {
		layers = append(layers, conv(name, c, k, r, s, p, q, stride))
	}
	// Stem.
	add("stem1", 3, 32, 3, 3, 149, 149, 2)
	add("stem2", 32, 32, 3, 3, 147, 147, 1)
	add("stem3", 32, 64, 3, 3, 147, 147, 1)
	add("stem4", 64, 80, 1, 1, 73, 73, 1)
	add("stem5", 80, 192, 3, 3, 71, 71, 1)
	// 3× inception-A at 35×35 (branch convs flattened).
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("incA%d", i)
		in := 288
		if i == 0 {
			in = 192
		}
		add(p+"_1x1", in, 64, 1, 1, 35, 35, 1)
		add(p+"_5x5a", in, 48, 1, 1, 35, 35, 1)
		add(p+"_5x5b", 48, 64, 5, 5, 35, 35, 1)
		add(p+"_3x3a", in, 64, 1, 1, 35, 35, 1)
		add(p+"_3x3b", 64, 96, 3, 3, 35, 35, 1)
		add(p+"_3x3c", 96, 96, 3, 3, 35, 35, 1)
		add(p+"_pool", in, 64, 1, 1, 35, 35, 1)
	}
	// Reduction-A.
	add("redA_3x3", 288, 384, 3, 3, 17, 17, 2)
	add("redA_dbl_a", 288, 64, 1, 1, 35, 35, 1)
	add("redA_dbl_b", 64, 96, 3, 3, 35, 35, 1)
	add("redA_dbl_c", 96, 96, 3, 3, 17, 17, 2)
	// 4× inception-B at 17×17 with factorized 7×7 (as 1×7 + 7×1).
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("incB%d", i)
		mid := 128 + 32*i // 128,160,160,192 in the real net; monotone stand-in
		if mid > 192 {
			mid = 192
		}
		add(p+"_1x1", 768, 192, 1, 1, 17, 17, 1)
		add(p+"_7x7a", 768, mid, 1, 1, 17, 17, 1)
		add(p+"_7x7b", mid, mid, 1, 7, 17, 17, 1)
		add(p+"_7x7c", mid, 192, 7, 1, 17, 17, 1)
		add(p+"_d7a", 768, mid, 1, 1, 17, 17, 1)
		add(p+"_d7b", mid, mid, 7, 1, 17, 17, 1)
		add(p+"_d7c", mid, mid, 1, 7, 17, 17, 1)
		add(p+"_d7d", mid, mid, 7, 1, 17, 17, 1)
		add(p+"_d7e", mid, 192, 1, 7, 17, 17, 1)
		add(p+"_pool", 768, 192, 1, 1, 17, 17, 1)
	}
	// Reduction-B.
	add("redB_a", 768, 192, 1, 1, 17, 17, 1)
	add("redB_b", 192, 320, 3, 3, 8, 8, 2)
	add("redB_c", 768, 192, 1, 1, 17, 17, 1)
	add("redB_d", 192, 192, 1, 7, 17, 17, 1)
	add("redB_e", 192, 192, 7, 1, 17, 17, 1)
	add("redB_f", 192, 192, 3, 3, 8, 8, 2)
	// 2× inception-C at 8×8.
	for i := 0; i < 2; i++ {
		p := fmt.Sprintf("incC%d", i)
		in := 2048
		if i == 0 {
			in = 1280
		}
		add(p+"_1x1", in, 320, 1, 1, 8, 8, 1)
		add(p+"_3x3a", in, 384, 1, 1, 8, 8, 1)
		add(p+"_3x3b1", 384, 384, 1, 3, 8, 8, 1)
		add(p+"_3x3b2", 384, 384, 3, 1, 8, 8, 1)
		add(p+"_d3a", in, 448, 1, 1, 8, 8, 1)
		add(p+"_d3b", 448, 384, 3, 3, 8, 8, 1)
		add(p+"_d3c1", 384, 384, 1, 3, 8, 8, 1)
		add(p+"_d3c2", 384, 384, 3, 1, 8, 8, 1)
		add(p+"_pool", in, 192, 1, 1, 8, 8, 1)
	}
	layers = append(layers, fc("fc1000", 2048, 1000))
	return Network{Name: "inception-v3", Task: Regression, Layers: layers}
}

// DenseNet121 builds DenseNet-121 (growth 32) at 224×224 with its four
// dense blocks of 6/12/24/16 layers and the intervening transitions.
func DenseNet121() Network {
	const growth = 32
	layers := []Layer{conv("conv1", 3, 64, 7, 7, 112, 112, 2)}
	ch := 64
	blocks := []int{6, 12, 24, 16}
	hw := 56
	for bi, n := range blocks {
		for li := 0; li < n; li++ {
			p := fmt.Sprintf("dense%d_%d", bi+1, li)
			layers = append(layers,
				conv(p+"_1x1", ch, 4*growth, 1, 1, hw, hw, 1),
				conv(p+"_3x3", 4*growth, growth, 3, 3, hw, hw, 1))
			ch += growth
		}
		if bi < len(blocks)-1 {
			layers = append(layers,
				conv(fmt.Sprintf("trans%d", bi+1), ch, ch/2, 1, 1, hw, hw, 1))
			ch /= 2
			hw /= 2
		}
	}
	layers = append(layers, fc("fc1000", ch, 1000))
	return Network{Name: "densenet-121", Task: Classification, Layers: layers}
}

// Darknet19 builds the Darknet-19 detection backbone at 416×416.
func Darknet19() Network {
	var layers []Layer
	add := func(name string, c, k, r, hw int) {
		layers = append(layers, conv(name, c, k, r, r, hw, hw, 1))
	}
	add("c1", 3, 32, 3, 416)
	add("c2", 32, 64, 3, 208)
	add("c3", 64, 128, 3, 104)
	add("c4", 128, 64, 1, 104)
	add("c5", 64, 128, 3, 104)
	add("c6", 128, 256, 3, 52)
	add("c7", 256, 128, 1, 52)
	add("c8", 128, 256, 3, 52)
	add("c9", 256, 512, 3, 26)
	add("c10", 512, 256, 1, 26)
	add("c11", 256, 512, 3, 26)
	add("c12", 512, 256, 1, 26)
	add("c13", 256, 512, 3, 26)
	add("c14", 512, 1024, 3, 13)
	add("c15", 1024, 512, 1, 13)
	add("c16", 512, 1024, 3, 13)
	add("c17", 1024, 512, 1, 13)
	add("c18", 512, 1024, 3, 13)
	add("c19", 1024, 425, 1, 13) // detection head
	return Network{Name: "darknet-19", Task: ObjectRecognition, Layers: layers}
}

// MobileNetV2 builds MobileNet-V2 at 224×224: inverted residual blocks of
// expand (1×1) / depthwise (3×3) / project (1×1).
func MobileNetV2() Network {
	layers := []Layer{conv("conv1", 3, 32, 3, 3, 112, 112, 2)}
	type block struct{ t, c, n, s int }
	cfg := []block{{1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2}, {6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1}}
	ch, hw := 32, 112
	for bi, b := range cfg {
		for i := 0; i < b.n; i++ {
			stride := 1
			if i == 0 {
				stride = b.s
				hw /= b.s
			}
			p := fmt.Sprintf("ir%d_%d", bi+1, i)
			mid := ch * b.t
			if b.t != 1 {
				layers = append(layers, conv(p+"_expand", ch, mid, 1, 1, hw*stride/stride, hw, 1))
			}
			layers = append(layers,
				dwConv(p+"_dw", mid, 3, 3, hw, hw, stride),
				conv(p+"_project", mid, b.c, 1, 1, hw, hw, 1))
			ch = b.c
		}
	}
	layers = append(layers,
		conv("conv_last", 320, 1280, 1, 1, 7, 7, 1),
		fc("fc1000", 1280, 1000))
	return Network{Name: "mobilenet-v2", Task: ObjectRecognition, Layers: layers}
}

// PanopticFPN builds a panoptic-segmentation network: a ResNet-50 backbone
// plus FPN lateral/output convolutions and semantic + instance heads at a
// 512×512 input scale (resolutions scaled from the 224 backbone).
func PanopticFPN() Network {
	backbone := ResNet50()
	layers := make([]Layer, 0, len(backbone.Layers)+24)
	// Rescale the backbone from 224 to 512 input (×16/7 spatial).
	for _, l := range backbone.Layers {
		if l.P == 1 { // drop the classification FC
			continue
		}
		l.P = l.P * 16 / 7
		l.Q = l.Q * 16 / 7
		layers = append(layers, l)
	}
	// FPN laterals and outputs at strides 4..32.
	fpn := []struct {
		c, hw int
	}{{256, 128}, {512, 64}, {1024, 32}, {2048, 16}}
	for i, s := range fpn {
		layers = append(layers,
			conv(fmt.Sprintf("fpn_lat%d", i+2), s.c, 256, 1, 1, s.hw, s.hw, 1),
			conv(fmt.Sprintf("fpn_out%d", i+2), 256, 256, 3, 3, s.hw, s.hw, 1))
	}
	// Semantic head: 4 convs at 128×128 + upsample head.
	for i := 0; i < 4; i++ {
		layers = append(layers, conv(fmt.Sprintf("sem%d", i), 256, 256, 3, 3, 128, 128, 1))
	}
	layers = append(layers, conv("sem_logits", 256, 54, 1, 1, 128, 128, 1))
	// Instance head (RPN + box/mask convs, flattened).
	layers = append(layers,
		conv("rpn", 256, 256, 3, 3, 128, 128, 1),
		conv("rpn_cls", 256, 3, 1, 1, 128, 128, 1),
		conv("rpn_box", 256, 12, 1, 1, 128, 128, 1))
	for i := 0; i < 4; i++ {
		layers = append(layers, conv(fmt.Sprintf("mask%d", i), 256, 256, 3, 3, 14, 14, 1))
	}
	layers = append(layers, conv("mask_logits", 256, 80, 1, 1, 28, 28, 1))
	return Network{Name: "panoptic-fpn", Task: PanopticSeg, Layers: layers}
}

// Networks returns the full Figure 13 network suite keyed by name.
func Networks() map[string]Network {
	nets := []Network{
		VGG16(), ResNet50(), ResNet18(), UNet(), InceptionV3(),
		DenseNet121(), Darknet19(), MobileNetV2(), PanopticFPN(),
	}
	out := make(map[string]Network, len(nets))
	for _, n := range nets {
		out[n.Name] = n
	}
	return out
}

// NetworkFor returns the network an app runs.
func NetworkFor(a App) (Network, error) {
	n, ok := Networks()[a.Network]
	if !ok {
		return Network{}, errors.New("workload: no network " + a.Network + " for app " + a.Name)
	}
	return n, nil
}
