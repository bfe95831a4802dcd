// Package workload defines the paper's Earth-observation application suite
// (Table III) and the convolutional neural networks behind it (Figure 13).
// The Table III rows are the paper's published RTX 3090 measurements and
// serve as the commodity-GPU baseline everywhere: ISL saturation rates
// (Fig. 8), constellation sizing (# SµDC column), and the accelerator
// design-space exploration's reference energy (Fig. 17).
package workload

import (
	"errors"
	"fmt"

	"sudc/internal/units"
)

// Task is the image-processing task class (Figure 13, middle column).
type Task int

// Task classes.
const (
	Classification Task = iota
	ObjectRecognition
	Regression
	Segmentation
	Clustering
	PanopticSeg
)

func (t Task) String() string {
	switch t {
	case Classification:
		return "image classification"
	case ObjectRecognition:
		return "object recognition"
	case Regression:
		return "image regression"
	case Segmentation:
		return "image segmentation"
	case Clustering:
		return "clustering"
	case PanopticSeg:
		return "panoptic segmentation"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// BitsPerPixel is the raw sensor data volume per pixel crossing the ISL:
// a 12-bit sensor padded to two bytes. With this value a 500 W SµDC
// running the most lightweight app saturates at under 25 Gbit/s, matching
// the paper's Figure 8 anchor.
const BitsPerPixel = 16

// App is one row of Table III plus the network it runs (Fig. 13) and the
// per-frame size used for constellation sizing.
type App struct {
	Name    string
	Task    Task
	Network string
	// GPUPower is the measured average RTX 3090 draw (Table III "P(W)").
	GPUPower units.Power
	// GPUUtilization is the measured GPU utilization (0–1).
	GPUUtilization float64
	// InferTime is the measured batch inference time in seconds.
	InferTime float64
	// KPixelPerJoule is the measured energy efficiency (Table III).
	KPixelPerJoule float64
	// FrameMPixels is the app's scene size in megapixels; chosen so the
	// Table III "# SµDC" column reproduces for a 64-satellite
	// constellation at six frames/minute.
	FrameMPixels float64
}

// Suite is Table III, in the paper's row order.
var Suite = []App{
	{Name: "Air Pollution", Task: Regression, Network: "inception-v3",
		GPUPower: 119, GPUUtilization: 0.25, InferTime: 0.59, KPixelPerJoule: 1168, FrameMPixels: 45},
	{Name: "Crop Monitoring", Task: Classification, Network: "densenet-121",
		GPUPower: 222, GPUUtilization: 0.42, InferTime: 1.57, KPixelPerJoule: 395, FrameMPixels: 45},
	{Name: "Flood Detection", Task: Segmentation, Network: "unet",
		GPUPower: 325, GPUUtilization: 0.88, InferTime: 5.53, KPixelPerJoule: 307, FrameMPixels: 45},
	{Name: "Aircraft Detection", Task: ObjectRecognition, Network: "darknet-19",
		GPUPower: 124, GPUUtilization: 0.26, InferTime: 0.26, KPixelPerJoule: 74, FrameMPixels: 30},
	{Name: "Forage Quality Estimation", Task: Regression, Network: "resnet-50",
		GPUPower: 129, GPUUtilization: 0.27, InferTime: 0.56, KPixelPerJoule: 843, FrameMPixels: 45},
	{Name: "Urban Emergency Detection", Task: Classification, Network: "vgg-16",
		GPUPower: 266, GPUUtilization: 0.72, InferTime: 2.04, KPixelPerJoule: 569, FrameMPixels: 45},
	{Name: "Oil Spill Monitoring", Task: Segmentation, Network: "unet",
		GPUPower: 347, GPUUtilization: 0.98, InferTime: 3.84, KPixelPerJoule: 231, FrameMPixels: 45},
	{Name: "Traffic Monitoring", Task: ObjectRecognition, Network: "mobilenet-v2",
		GPUPower: 19, GPUUtilization: 0.009, InferTime: 2.72, KPixelPerJoule: 2597, FrameMPixels: 20},
	{Name: "Land Surface Clustering", Task: Clustering, Network: "resnet-18",
		GPUPower: 108, GPUUtilization: 0.02, InferTime: 0.35, KPixelPerJoule: 2175, FrameMPixels: 45},
	{Name: "Panoptic Segmentation", Task: PanopticSeg, Network: "panoptic-fpn",
		GPUPower: 160, GPUUtilization: 0.80, InferTime: 7.81, KPixelPerJoule: 20, FrameMPixels: 45},
}

// ByName finds a suite app by exact name.
func ByName(name string) (App, error) {
	for _, a := range Suite {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("workload: unknown app %q", name)
}

// PixelThroughput returns the pixel processing rate (pixels/s) this app
// sustains on a compute budget of the given power: budget × kpixel/J.
func (a App) PixelThroughput(budget units.Power) (float64, error) {
	if budget < 0 {
		return 0, errors.New("workload: negative power budget")
	}
	return float64(budget) * a.KPixelPerJoule * 1e3, nil
}

// SaturationRate returns the ISL data rate needed to keep a compute budget
// fully fed with raw imagery for this app (Figure 8).
func (a App) SaturationRate(budget units.Power) (units.DataRate, error) {
	px, err := a.PixelThroughput(budget)
	if err != nil {
		return 0, err
	}
	return units.DataRate(px * BitsPerPixel), nil
}

// FrameBits returns the raw size of one frame on the wire.
func (a App) FrameBits() float64 { return a.FrameMPixels * 1e6 * BitsPerPixel }

// Validate checks an app row for internal consistency.
func (a App) Validate() error {
	switch {
	case a.Name == "":
		return errors.New("workload: app without name")
	case a.GPUPower <= 0:
		return fmt.Errorf("workload: %s: non-positive power", a.Name)
	case a.GPUUtilization < 0 || a.GPUUtilization > 1:
		return fmt.Errorf("workload: %s: utilization out of [0,1]", a.Name)
	case a.InferTime <= 0:
		return fmt.Errorf("workload: %s: non-positive inference time", a.Name)
	case a.KPixelPerJoule <= 0:
		return fmt.Errorf("workload: %s: non-positive kpixel/J", a.Name)
	case a.FrameMPixels <= 0:
		return fmt.Errorf("workload: %s: non-positive frame size", a.Name)
	}
	return nil
}
