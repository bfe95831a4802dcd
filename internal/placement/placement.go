// Package placement decides, per frame, where Earth-observation compute
// runs: on the capturing satellite's flight computer, in an orbital SµDC
// reached over the ISL, at a ground-station edge site, or in the
// terrestrial cloud behind it — the four-tier choice of Thummala &
// Falco's "when to compute in space", priced end to end with the models
// this repo already has. The space side reuses the SµDC TCO closure
// (internal/core) amortized over the offered frame stream; the ground
// side combines the bent-pipe downlink budget (internal/downlink), the
// terrestrial TCO share gross-up (internal/terrestrial), and optional
// on-board compression (internal/compress) that shrinks what must come
// down.
//
// Policies are deterministic pure functions — Decide draws no
// randomness — so the DES stays byte-identical for any worker or shard
// count. The Oracle policy reports the analytic per-frame lower bound
// min over tiers of StaticCost; since realized latency can only add
// queueing on top of the transport+service floor, every policy's
// realized mean cost is provably ≥ the Oracle's.
package placement

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"sudc/internal/compress"
	"sudc/internal/core"
	"sudc/internal/downlink"
	"sudc/internal/orbit"
	"sudc/internal/terrestrial"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// Tier is a compute location, ordered space-to-ground.
type Tier int

// The four tiers. NumTiers sizes per-tier arrays.
const (
	// TierOnboard is the capturing satellite's own flight computer.
	TierOnboard Tier = iota
	// TierSpace is the orbital SµDC reached over the ISL.
	TierSpace
	// TierGroundEdge is a compute site co-located with a ground station.
	TierGroundEdge
	// TierCloud is the terrestrial cloud behind the ground network.
	TierCloud
	NumTiers
)

var tierNames = [NumTiers]string{"onboard", "space", "ground-edge", "cloud"}

func (t Tier) String() string {
	if t < 0 || t >= NumTiers {
		return fmt.Sprintf("Tier(%d)", int(t))
	}
	return tierNames[t]
}

// Valid reports whether t names one of the four tiers.
func (t Tier) Valid() bool { return t >= 0 && t < NumTiers }

// TierCost prices one tier for one frame.
type TierCost struct {
	// DollarsPerFrame is the amortized cost of processing one frame at
	// this tier.
	DollarsPerFrame float64
	// TransportDelay is the unloaded time to move the frame to the tier
	// (ISL transmit, downlink access + transmit, WAN), seconds.
	TransportDelay float64
	// ServiceTime is the unloaded compute time per frame, seconds.
	ServiceTime float64
	// Servers is the tier's parallel server count; 0 means effectively
	// unbounded (the elastic cloud).
	Servers int
}

// Model prices all four tiers under one latency/cost exchange rate.
type Model struct {
	Tiers [NumTiers]TierCost
	// LatencyWeight converts seconds of frame latency into dollars
	// ($/frame-second), folding the latency objective into one scalar
	// cost.
	LatencyWeight float64
}

// Validate reports model errors.
func (m Model) Validate() error {
	if m.LatencyWeight < 0 {
		return errors.New("placement: negative latency weight")
	}
	for t, tc := range m.Tiers {
		switch {
		case tc.DollarsPerFrame < 0:
			return fmt.Errorf("placement: %s: negative $/frame", Tier(t))
		case tc.TransportDelay < 0:
			return fmt.Errorf("placement: %s: negative transport delay", Tier(t))
		case tc.ServiceTime <= 0:
			return fmt.Errorf("placement: %s: non-positive service time", Tier(t))
		case tc.Servers < 0:
			return fmt.Errorf("placement: %s: negative server count", Tier(t))
		}
	}
	return nil
}

// StaticCost is the load-free per-frame cost of a tier: dollars plus the
// latency-weighted transport+service floor. Realized latency can only
// add queueing on top of that floor, so StaticCost under-estimates
// realized cost by construction.
func (m Model) StaticCost(t Tier) float64 {
	tc := m.Tiers[t]
	return tc.DollarsPerFrame + m.LatencyWeight*(tc.TransportDelay+tc.ServiceTime)
}

// OracleCost is the analytic per-frame lower bound: the cheapest tier's
// StaticCost.
func (m Model) OracleCost() float64 {
	best := math.Inf(1)
	for t := Tier(0); t < NumTiers; t++ {
		if c := m.StaticCost(t); c < best {
			best = c
		}
	}
	return best
}

// Kind selects a placement policy.
type Kind int

// Policy kinds.
const (
	// Static routes every frame to one fixed tier.
	Static Kind = iota
	// GreedyCost routes each frame to the tier with the lowest
	// load-free StaticCost.
	GreedyCost
	// QueueAware augments StaticCost with an estimated queueing wait
	// from the tier's current backlog.
	QueueAware
	// Oracle is the offline lower bound: it routes like GreedyCost but
	// reports the analytic per-frame floor min StaticCost, which no
	// realized policy can beat.
	Oracle
	numKinds
)

var kindNames = [numKinds]string{"static", "greedy", "queue", "oracle"}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds returns the policy kinds in order.
func Kinds() []Kind { return []Kind{Static, GreedyCost, QueueAware, Oracle} }

// KindByName finds a policy kind by its flag name.
func KindByName(name string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("placement: unknown policy %q", name)
}

// PolicyByName parses a CLI policy name: "greedy", "queue", "oracle",
// or "static-<tier>" with the name of any tier ("static-edge" is
// accepted for "static-ground-edge").
func PolicyByName(name string) (Policy, error) {
	if rest, ok := strings.CutPrefix(name, "static-"); ok {
		if rest == "edge" {
			rest = "ground-edge"
		}
		for t := Tier(0); t < NumTiers; t++ {
			if tierNames[t] == rest {
				return Policy{Kind: Static, StaticTier: t}, nil
			}
		}
		return Policy{}, fmt.Errorf("placement: unknown static tier %q", rest)
	}
	k, err := KindByName(name)
	if err != nil || k == Static {
		return Policy{}, fmt.Errorf("placement: unknown policy %q (want static-<tier>, greedy, queue, or oracle)", name)
	}
	return Policy{Kind: k}, nil
}

// Policy is a placement strategy.
type Policy struct {
	Kind Kind
	// StaticTier is the fixed destination for the Static kind.
	StaticTier Tier
}

// Validate reports policy errors.
func (p Policy) Validate() error {
	if p.Kind < 0 || p.Kind >= numKinds {
		return fmt.Errorf("placement: invalid policy kind %d", int(p.Kind))
	}
	if p.Kind == Static && !p.StaticTier.Valid() {
		return fmt.Errorf("placement: static tier %d out of range", int(p.StaticTier))
	}
	return nil
}

// State is the observable load at decision time.
type State struct {
	// QueueLen counts frames waiting or in service at each tier.
	QueueLen [NumTiers]int
}

// Decision is one routing choice.
type Decision struct {
	Tier Tier
	// EstCost is the policy's own per-frame cost estimate for the
	// chosen tier (the analytic floor for Oracle).
	EstCost float64
}

// queueWait estimates the wait a new arrival sees at a tier: backlog
// drained by the tier's servers. Unbounded tiers (Servers = 0) never
// queue.
func queueWait(tc TierCost, backlog int) float64 {
	if tc.Servers <= 0 || backlog <= 0 {
		return 0
	}
	return float64(backlog) * tc.ServiceTime / float64(tc.Servers)
}

// Decide routes one frame. Pure and deterministic: no randomness, ties
// broken toward the lowest tier index, so DES byte-identity is
// preserved for any worker or shard count.
func (p Policy) Decide(m Model, st State) Decision {
	switch p.Kind {
	case Static:
		return Decision{Tier: p.StaticTier, EstCost: m.StaticCost(p.StaticTier)}
	case QueueAware:
		best, bestCost := Tier(0), math.Inf(1)
		for t := Tier(0); t < NumTiers; t++ {
			c := m.StaticCost(t) + m.LatencyWeight*queueWait(m.Tiers[t], st.QueueLen[t])
			if c < bestCost {
				best, bestCost = t, c
			}
		}
		return Decision{Tier: best, EstCost: bestCost}
	case Oracle:
		best, bestCost := Tier(0), math.Inf(1)
		for t := Tier(0); t < NumTiers; t++ {
			if c := m.StaticCost(t); c < bestCost {
				best, bestCost = t, c
			}
		}
		return Decision{Tier: best, EstCost: bestCost}
	default: // GreedyCost
		best, bestCost := Tier(0), math.Inf(1)
		for t := Tier(0); t < NumTiers; t++ {
			if c := m.StaticCost(t); c < bestCost {
				best, bestCost = t, c
			}
		}
		return Decision{Tier: best, EstCost: bestCost}
	}
}

// Config is the DES-facing placement configuration: the policy, the
// priced model it consults, and the ground-path mechanics the simulator
// needs to replay downlink contention.
type Config struct {
	Policy Policy
	Model  Model
	// DownlinkRate is the constellation-aggregate deliverable downlink
	// rate ground-bound frames share (split evenly across topology
	// cells).
	DownlinkRate units.DataRate
	// AccessDelay is the mean wait for a usable ground-station pass,
	// applied to every ground-bound frame before transmission.
	AccessDelay time.Duration
	// WANDelay is the extra backhaul latency cloud-bound frames pay on
	// top of the ground-edge path.
	WANDelay time.Duration
	// EdgeServers is the ground-edge tier's finite server pool.
	EdgeServers int
	// Compression is applied on board before downlink, shrinking the
	// transmitted bits by its ratio. The zero value means uncompressed.
	Compression compress.Algorithm
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.DownlinkRate <= 0 {
		return errors.New("placement: downlink rate must be positive")
	}
	if c.AccessDelay < 0 || c.WANDelay < 0 {
		return errors.New("placement: negative delay")
	}
	if c.EdgeServers < 1 {
		return errors.New("placement: need at least one edge server")
	}
	if c.Compression.Name != "" {
		if err := c.Compression.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Ratio is the effective compression ratio (1 when unconfigured).
func (c *Config) Ratio() float64 {
	if c == nil || c.Compression.Name == "" || c.Compression.Ratio < 1 {
		return 1
	}
	return c.Compression.Ratio
}

// Scenario derives a priced four-tier model from the repo's existing
// cost anchors, for one application stream.
type Scenario struct {
	App   workload.App
	Orbit orbit.Orbit
	// FramesPerMinute and Satellites define the offered stream the
	// space tier's TCO is amortized over.
	FramesPerMinute float64
	Satellites      int
	// SpacePower is the SµDC compute budget; Workers its GPU count.
	SpacePower units.Power
	Workers    int
	// ISLRate is the crosslink rate to the SµDC.
	ISLRate units.DataRate
	// Downlink is the shared ground-station network.
	Downlink downlink.Network
	// Compression is applied before downlink (zero value = raw).
	Compression compress.Algorithm
	// EdgeServers is the ground-edge GPU pool size.
	EdgeServers int
	// LatencyWeight is the latency price in $/frame-second.
	LatencyWeight float64

	// OnboardPower is the flight computer's compute budget (default
	// 40 W) and OnboardDerate its efficiency relative to the SµDC GPU
	// (default 0.25 — embedded silicon, no radiator).
	OnboardPower  units.Power
	OnboardDerate float64
	// OnboardUnitCost is the flight computer's amortizable unit cost
	// (default $80k).
	OnboardUnitCost units.Dollars

	// CloudDollarsPerGPUHour is the rented GPU price the cloud tier's
	// $/frame derives from (default $2.0/h, grossed up by the
	// terrestrial server TCO share). EdgePremium scales it for the
	// ground-edge site (default 1.8×).
	CloudDollarsPerGPUHour float64
	EdgePremium            float64
	// DownlinkDollarsPerGB is the ground-station network's price for
	// delivering one gigabyte (default $5/GB, the going rate for
	// pay-per-use EO downlink). Every ground-bound frame pays it on its
	// transmitted (post-compression) bits — the bent pipe's data bill,
	// and the demand-side reason computing in space can win.
	DownlinkDollarsPerGB float64
	// WANDelay is the ground-station-to-cloud backhaul (default 60 ms).
	WANDelay time.Duration
}

// Scenario defaults.
const (
	defaultOnboardPower    = units.Power(40)
	defaultOnboardDerate   = 0.25
	defaultOnboardUnitCost = units.Dollars(80e3)
	defaultCloudGPUHour    = 2.0
	defaultEdgePremium     = 1.8
	defaultDownlinkPerGB   = 5.0
	defaultWANDelay        = 60 * time.Millisecond
	// electricity price charged for receiver-side decompression.
	dollarsPerJoule = 0.10 / 3.6e6 // $0.10/kWh
)

// DefaultScenario is the reference placement scenario: the paper's
// 64-satellite EO constellation imaging at 6 frames/min, a 4 kW SµDC
// with enough GPUs to absorb the stream, the default 3-station
// X-band network, and a latency price of 1e-4 $/frame-second.
func DefaultScenario(app workload.App) Scenario {
	power := units.KW(4)
	return Scenario{
		App:             app,
		Orbit:           orbit.DefaultEO,
		FramesPerMinute: 6,
		Satellites:      64,
		SpacePower:      power,
		Workers:         int(float64(power) / float64(app.GPUPower)),
		ISLRate:         100 * units.Gbps,
		Downlink:        downlink.DefaultNetwork,
		EdgeServers:     8,
		LatencyWeight:   1e-4,
	}
}

// withDefaults fills zero-valued optional fields.
func (s Scenario) withDefaults() Scenario {
	if s.OnboardPower == 0 {
		s.OnboardPower = defaultOnboardPower
	}
	if s.OnboardDerate == 0 {
		s.OnboardDerate = defaultOnboardDerate
	}
	if s.OnboardUnitCost == 0 {
		s.OnboardUnitCost = defaultOnboardUnitCost
	}
	if s.CloudDollarsPerGPUHour == 0 {
		s.CloudDollarsPerGPUHour = defaultCloudGPUHour
	}
	if s.EdgePremium == 0 {
		s.EdgePremium = defaultEdgePremium
	}
	if s.DownlinkDollarsPerGB == 0 {
		s.DownlinkDollarsPerGB = defaultDownlinkPerGB
	}
	if s.WANDelay == 0 {
		s.WANDelay = defaultWANDelay
	}
	return s
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	if err := s.App.Validate(); err != nil {
		return err
	}
	switch {
	case s.FramesPerMinute <= 0:
		return errors.New("placement: frames/minute must be positive")
	case s.Satellites < 1:
		return errors.New("placement: need at least one satellite")
	case s.SpacePower <= 0:
		return errors.New("placement: space power must be positive")
	case s.Workers < 1:
		return errors.New("placement: need at least one space worker")
	case s.ISLRate <= 0:
		return errors.New("placement: ISL rate must be positive")
	case s.EdgeServers < 1:
		return errors.New("placement: need at least one edge server")
	case s.LatencyWeight < 0:
		return errors.New("placement: negative latency weight")
	}
	return s.Downlink.Validate()
}

// gpuSeconds is the unloaded per-frame compute time on the app's
// reference GPU.
func (s Scenario) gpuSeconds() float64 {
	return s.App.FrameMPixels * 1e6 / (s.App.KPixelPerJoule * 1e3 * float64(s.App.GPUPower))
}

// Model prices the four tiers from the repo's cost anchors: the SµDC
// TCO closure for space, the bent-pipe downlink budget plus the
// terrestrial server-share gross-up for the ground, and a derated
// flight computer for onboard.
func (s Scenario) Model() (Model, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Model{}, err
	}
	var m Model
	m.LatencyWeight = s.LatencyWeight

	frameRate := s.FramesPerMinute / 60 * float64(s.Satellites) // frames/s offered
	coreCfg := core.DefaultConfig(s.SpacePower)
	lifetimeSec := coreCfg.Lifetime.Seconds()
	gpuSec := s.gpuSeconds()

	// Onboard: the satellite's own flight computer — zero transport,
	// derated embedded compute, unit cost amortized over the frames one
	// satellite captures in a mission lifetime.
	onboardPixSec := s.OnboardDerate * s.App.KPixelPerJoule * 1e3 * float64(s.OnboardPower)
	perSatFrames := s.FramesPerMinute / 60 * lifetimeSec
	m.Tiers[TierOnboard] = TierCost{
		DollarsPerFrame: float64(s.OnboardUnitCost) / perSatFrames,
		TransportDelay:  0,
		ServiceTime:     s.App.FrameMPixels * 1e6 / onboardPixSec,
		Servers:         s.Satellites,
	}

	// Space: the SµDC TCO amortized over the constellation's offered
	// frame stream — demand amortization is what creates the
	// traffic-intensity crossover.
	tco, err := coreCfg.TCO()
	if err != nil {
		return Model{}, err
	}
	m.Tiers[TierSpace] = TierCost{
		DollarsPerFrame: float64(tco) / (frameRate * lifetimeSec),
		TransportDelay:  s.App.FrameBits() / float64(s.ISLRate),
		ServiceTime:     gpuSec,
		Servers:         s.Workers,
	}

	// Ground path: the bent-pipe budget gives access + drain latency for
	// the (possibly compressed) stream; decode energy at the receiver is
	// charged at grid electricity prices.
	dlApp := s.App
	ratio := 1.0
	decodeDollars := 0.0
	if s.Compression.Name != "" {
		if err := s.Compression.Validate(); err != nil {
			return Model{}, err
		}
		ratio = s.Compression.Ratio
		dlApp.FrameMPixels /= ratio
		decodeDollars = s.App.FrameBits() * s.Compression.DecodeEnergyPerBit * dollarsPerJoule
	}
	budget, err := downlink.Plan(s.Orbit, s.Downlink, dlApp, s.FramesPerMinute, s.Satellites)
	if err != nil {
		return Model{}, err
	}

	// Every ground-bound frame pays the downlink data bill on its
	// transmitted (post-compression) bits.
	dlDollars := s.App.FrameBits() / ratio / 8e9 * s.DownlinkDollarsPerGB

	// Cloud: rented GPU seconds grossed up by the terrestrial server
	// TCO share (renting a server implicitly buys its share of the
	// facility), elastic capacity, WAN on top of the downlink.
	cloudCompute := gpuSec*s.CloudDollarsPerGPUHour/3600/terrestrial.Hardy.Share(terrestrial.Servers) + decodeDollars
	m.Tiers[TierCloud] = TierCost{
		DollarsPerFrame: cloudCompute + dlDollars,
		TransportDelay:  budget.MeanLatency + s.WANDelay.Seconds(),
		ServiceTime:     gpuSec,
		Servers:         0,
	}

	// Ground edge: the same stream terminated at the station — no WAN,
	// but a finite premium-priced GPU pool.
	m.Tiers[TierGroundEdge] = TierCost{
		DollarsPerFrame: cloudCompute*s.EdgePremium + dlDollars,
		TransportDelay:  budget.MeanLatency,
		ServiceTime:     gpuSec,
		Servers:         s.EdgeServers,
	}
	return m, nil
}

// Config lowers the scenario into the DES-facing configuration for the
// given policy.
func (s Scenario) Config(p Policy) (*Config, error) {
	s = s.withDefaults()
	m, err := s.Model()
	if err != nil {
		return nil, err
	}
	dlApp := s.App
	if s.Compression.Name != "" {
		dlApp.FrameMPixels /= s.Compression.Ratio
	}
	budget, err := downlink.Plan(s.Orbit, s.Downlink, dlApp, s.FramesPerMinute, s.Satellites)
	if err != nil {
		return nil, err
	}
	rate := budget.DeliverableRate
	if offered := budget.OfferedRate; offered < rate {
		// An underloaded network still serves each frame at the station
		// rate; the deliverable cap only binds under contention.
		rate = offered
	}
	if rate <= 0 {
		rate = s.Downlink.Station.Rate
	}
	return &Config{
		Policy:       p,
		Model:        m,
		DownlinkRate: rate,
		AccessDelay:  time.Duration(budget.MeanGapToPass / 2 * float64(time.Second)),
		WANDelay:     s.WANDelay,
		EdgeServers:  s.EdgeServers,
		Compression:  s.Compression,
	}, nil
}

// MMcWait returns the mean queueing delay (excluding service) of an
// M/M/c queue with arrival rate lambda, per-server service rate mu, and
// c servers — the Erlang-C formula. It returns +Inf for an unstable
// queue (lambda ≥ c·mu) and is the analytic anchor the E11 experiment
// cross-checks the DES against at low load.
func MMcWait(lambda, mu float64, c int) float64 {
	if lambda < 0 || mu <= 0 || c < 1 {
		return math.NaN()
	}
	if lambda == 0 {
		return 0
	}
	a := lambda / mu // offered load in Erlangs
	if a >= float64(c) {
		return math.Inf(1)
	}
	// Erlang-C via the numerically stable recurrence on the Erlang-B
	// blocking probability: B(0)=1, B(k)=a·B(k−1)/(k+a·B(k−1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	pw := b / (1 - rho + rho*b) // probability an arrival waits
	return pw / (float64(c)*mu - lambda)
}
