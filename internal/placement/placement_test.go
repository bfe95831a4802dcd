package placement

import (
	"math"
	"strings"
	"testing"
	"time"

	"sudc/internal/compress"
	"sudc/internal/units"
	"sudc/internal/workload"
)

// testModel is a hand-priced model with a clear ordering: onboard is
// cheapest but slow, cloud is cheap but far, edge is expensive, space
// sits in the middle.
func testModel() Model {
	return Model{
		LatencyWeight: 1e-3,
		Tiers: [NumTiers]TierCost{
			TierOnboard:    {DollarsPerFrame: 0.001, TransportDelay: 0, ServiceTime: 10, Servers: 4},
			TierSpace:      {DollarsPerFrame: 0.010, TransportDelay: 0.1, ServiceTime: 1, Servers: 8},
			TierGroundEdge: {DollarsPerFrame: 0.050, TransportDelay: 30, ServiceTime: 1, Servers: 2},
			TierCloud:      {DollarsPerFrame: 0.020, TransportDelay: 60, ServiceTime: 1, Servers: 0},
		},
	}
}

func TestTierNames(t *testing.T) {
	want := []string{"onboard", "space", "ground-edge", "cloud"}
	for tier := Tier(0); tier < NumTiers; tier++ {
		if tier.String() != want[tier] {
			t.Errorf("tier %d = %q, want %q", tier, tier.String(), want[tier])
		}
		if !tier.Valid() {
			t.Errorf("tier %v must be valid", tier)
		}
	}
	if Tier(-1).Valid() || NumTiers.Valid() {
		t.Error("out-of-range tiers must be invalid")
	}
}

func TestModelValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := testModel()
	bad.LatencyWeight = -1
	if bad.Validate() == nil {
		t.Error("negative latency weight accepted")
	}
	bad = testModel()
	bad.Tiers[TierSpace].ServiceTime = 0
	if bad.Validate() == nil {
		t.Error("zero service time accepted")
	}
	bad = testModel()
	bad.Tiers[TierCloud].DollarsPerFrame = -0.01
	if bad.Validate() == nil {
		t.Error("negative $/frame accepted")
	}
	bad = testModel()
	bad.Tiers[TierGroundEdge].Servers = -1
	if bad.Validate() == nil {
		t.Error("negative server count accepted")
	}
}

func TestOracleCostIsMinStaticCost(t *testing.T) {
	m := testModel()
	oracle := m.OracleCost()
	best := math.Inf(1)
	for tier := Tier(0); tier < NumTiers; tier++ {
		if c := m.StaticCost(tier); c < best {
			best = c
		}
		if oracle > m.StaticCost(tier)+1e-15 {
			t.Errorf("oracle %v exceeds static cost of %v (%v)", oracle, tier, m.StaticCost(tier))
		}
	}
	if oracle != best {
		t.Errorf("oracle %v != min static cost %v", oracle, best)
	}
}

func TestDecideDeterministicAndValid(t *testing.T) {
	m := testModel()
	st := State{QueueLen: [NumTiers]int{3, 1, 7, 0}}
	for _, k := range Kinds() {
		p := Policy{Kind: k, StaticTier: TierSpace}
		d1 := p.Decide(m, st)
		d2 := p.Decide(m, st)
		if d1 != d2 {
			t.Errorf("%v: Decide not deterministic: %+v vs %+v", k, d1, d2)
		}
		if !d1.Tier.Valid() {
			t.Errorf("%v: invalid tier %d", k, int(d1.Tier))
		}
	}
}

func TestDecideTieBreaksLowestTier(t *testing.T) {
	// All tiers identical: every argmin policy must pick tier 0.
	var m Model
	for i := range m.Tiers {
		m.Tiers[i] = TierCost{DollarsPerFrame: 1, ServiceTime: 1}
	}
	for _, k := range []Kind{GreedyCost, QueueAware, Oracle} {
		if d := (Policy{Kind: k}).Decide(m, State{}); d.Tier != TierOnboard {
			t.Errorf("%v: tie broke to %v, want %v", k, d.Tier, TierOnboard)
		}
	}
}

func TestStaticPolicyRoutesFixedTier(t *testing.T) {
	m := testModel()
	for tier := Tier(0); tier < NumTiers; tier++ {
		p := Policy{Kind: Static, StaticTier: tier}
		d := p.Decide(m, State{})
		if d.Tier != tier {
			t.Errorf("static-to-%v routed to %v", tier, d.Tier)
		}
		if d.EstCost != m.StaticCost(tier) {
			t.Errorf("static-to-%v cost %v, want %v", tier, d.EstCost, m.StaticCost(tier))
		}
	}
}

func TestQueueAwareAvoidsBackloggedTier(t *testing.T) {
	m := testModel()
	// Greedy picks the global static argmin regardless of load.
	greedy := (Policy{Kind: GreedyCost}).Decide(m, State{}).Tier
	// Pile a deep backlog onto the greedy choice: queue-aware must
	// route elsewhere once the estimated wait dominates.
	var st State
	st.QueueLen[greedy] = 1 << 20
	d := (Policy{Kind: QueueAware}).Decide(m, st)
	if d.Tier == greedy {
		t.Errorf("queue-aware stayed on saturated tier %v", greedy)
	}
}

func TestQueueWaitUnboundedTiersNeverQueue(t *testing.T) {
	m := testModel()
	var st State
	st.QueueLen[TierCloud] = 1 << 20
	d := (Policy{Kind: QueueAware}).Decide(m, st)
	// Cloud has Servers == 0 (elastic): its estimated wait stays zero,
	// so a huge cloud backlog must not change its cost.
	cloudCost := m.StaticCost(TierCloud)
	if got := m.StaticCost(TierCloud) + m.LatencyWeight*queueWait(m.Tiers[TierCloud], st.QueueLen[TierCloud]); got != cloudCost {
		t.Errorf("elastic cloud accrued queue wait: %v vs %v", got, cloudCost)
	}
	if !d.Tier.Valid() {
		t.Errorf("invalid tier %d", int(d.Tier))
	}
}

func TestKindByName(t *testing.T) {
	for _, k := range Kinds() {
		got, err := KindByName(k.String())
		if err != nil || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := KindByName("nope"); err == nil {
		t.Error("unknown policy name accepted")
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]Policy{
		"greedy":             {Kind: GreedyCost},
		"queue":              {Kind: QueueAware},
		"oracle":             {Kind: Oracle},
		"static-onboard":     {Kind: Static, StaticTier: TierOnboard},
		"static-space":       {Kind: Static, StaticTier: TierSpace},
		"static-edge":        {Kind: Static, StaticTier: TierGroundEdge},
		"static-ground-edge": {Kind: Static, StaticTier: TierGroundEdge},
		"static-cloud":       {Kind: Static, StaticTier: TierCloud},
	} {
		got, err := PolicyByName(name)
		if err != nil || got != want {
			t.Errorf("PolicyByName(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "static", "static-moon", "random"} {
		if _, err := PolicyByName(bad); err == nil {
			t.Errorf("PolicyByName(%q) accepted", bad)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := (Policy{Kind: Static, StaticTier: TierCloud}).Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	if (Policy{Kind: numKinds}).Validate() == nil {
		t.Error("out-of-range kind accepted")
	}
	if (Policy{Kind: Static, StaticTier: NumTiers}).Validate() == nil {
		t.Error("out-of-range static tier accepted")
	}
}

func TestScenarioModel(t *testing.T) {
	s := DefaultScenario(workload.Suite[0])
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("derived model invalid: %v", err)
	}
	// The derated onboard computer must be slower than the SµDC GPU.
	if m.Tiers[TierOnboard].ServiceTime <= m.Tiers[TierSpace].ServiceTime {
		t.Errorf("onboard service %v not slower than space %v",
			m.Tiers[TierOnboard].ServiceTime, m.Tiers[TierSpace].ServiceTime)
	}
	// Ground tiers pay the bent-pipe latency; space pays only the ISL.
	if m.Tiers[TierCloud].TransportDelay <= m.Tiers[TierSpace].TransportDelay {
		t.Errorf("cloud transport %v not above space transport %v",
			m.Tiers[TierCloud].TransportDelay, m.Tiers[TierSpace].TransportDelay)
	}
	// The WAN puts the cloud strictly behind the edge.
	if m.Tiers[TierCloud].TransportDelay <= m.Tiers[TierGroundEdge].TransportDelay {
		t.Error("cloud transport must exceed ground-edge transport")
	}
	// The edge premium prices the edge above the cloud per frame.
	if m.Tiers[TierGroundEdge].DollarsPerFrame <= m.Tiers[TierCloud].DollarsPerFrame {
		t.Error("ground-edge $/frame must exceed cloud $/frame")
	}
}

func TestScenarioCompressionShrinksDownlinkLatency(t *testing.T) {
	raw := DefaultScenario(workload.Suite[0])
	zipped := raw
	zipped.Compression = compress.Neural
	mRaw, err := raw.Model()
	if err != nil {
		t.Fatal(err)
	}
	mZip, err := zipped.Model()
	if err != nil {
		t.Fatal(err)
	}
	if mZip.Tiers[TierCloud].TransportDelay >= mRaw.Tiers[TierCloud].TransportDelay {
		t.Errorf("4:1 compression did not cut cloud transport: %v vs %v",
			mZip.Tiers[TierCloud].TransportDelay, mRaw.Tiers[TierCloud].TransportDelay)
	}
	// The downlink data bill shrinks with the transmitted bits and
	// dwarfs the decode energy, so the compressed frame is cheaper.
	if mZip.Tiers[TierCloud].DollarsPerFrame >= mRaw.Tiers[TierCloud].DollarsPerFrame {
		t.Error("4:1 compression must cut the cloud $/frame via the downlink bill")
	}
}

func TestScenarioSpaceAmortization(t *testing.T) {
	// The space tier's $/frame amortizes a fixed TCO over the offered
	// stream: doubling traffic must halve it.
	lo := DefaultScenario(workload.Suite[0])
	hi := lo
	hi.FramesPerMinute *= 2
	mLo, err := lo.Model()
	if err != nil {
		t.Fatal(err)
	}
	mHi, err := hi.Model()
	if err != nil {
		t.Fatal(err)
	}
	ratio := mLo.Tiers[TierSpace].DollarsPerFrame / mHi.Tiers[TierSpace].DollarsPerFrame
	if !units.ApproxEqual(ratio, 2, 1e-9) {
		t.Errorf("space $/frame amortization ratio %v, want 2", ratio)
	}
}

func TestScenarioValidate(t *testing.T) {
	if _, err := DefaultScenario(workload.Suite[0]).Model(); err != nil {
		t.Fatalf("default scenario rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Scenario)
		want   string // substring of the error
	}{
		{"invalid app", func(s *Scenario) { s.App.GPUPower = 0 }, "non-positive power"},
		{"zero frame rate", func(s *Scenario) { s.FramesPerMinute = 0 }, "frames/minute"},
		{"zero satellites", func(s *Scenario) { s.Satellites = 0 }, "satellite"},
		{"zero space power", func(s *Scenario) { s.SpacePower = 0 }, "space power"},
		{"zero space workers", func(s *Scenario) { s.Workers = 0 }, "space worker"},
		{"zero ISL rate", func(s *Scenario) { s.ISLRate = 0 }, "ISL rate"},
		{"zero edge servers", func(s *Scenario) { s.EdgeServers = 0 }, "edge server"},
		{"negative latency weight", func(s *Scenario) { s.LatencyWeight = -1 }, "latency weight"},
		{"no ground stations", func(s *Scenario) { s.Downlink.Count = 0 }, "station"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := DefaultScenario(workload.Suite[0])
			tc.mutate(&bad)
			_, err := bad.Model()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Model() error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

func TestScenarioConfig(t *testing.T) {
	s := DefaultScenario(workload.Suite[0])
	cfg, err := s.Config(Policy{Kind: GreedyCost})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("derived config invalid: %v", err)
	}
	if cfg.DownlinkRate <= 0 {
		t.Error("non-positive downlink rate")
	}
	if cfg.AccessDelay <= 0 {
		t.Error("non-positive access delay")
	}
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config must validate clean: %v", err)
	}
	if nilCfg.Ratio() != 1 {
		t.Error("nil config ratio must be 1")
	}
}

func TestConfigValidateErrors(t *testing.T) {
	base := Config{
		Policy:       Policy{Kind: GreedyCost},
		Model:        testModel(),
		DownlinkRate: units.GbpsOf(1),
		AccessDelay:  time.Minute,
		EdgeServers:  4,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.DownlinkRate = 0
	if bad.Validate() == nil {
		t.Error("zero downlink rate accepted")
	}
	bad = base
	bad.AccessDelay = -time.Second
	if bad.Validate() == nil {
		t.Error("negative access delay accepted")
	}
	bad = base
	bad.EdgeServers = 0
	if bad.Validate() == nil {
		t.Error("zero edge servers accepted")
	}
	bad = base
	bad.Compression = compress.Algorithm{Name: "bad", Ratio: 0.5}
	if bad.Validate() == nil {
		t.Error("sub-unity compression ratio accepted")
	}
}

func TestMMcWait(t *testing.T) {
	// M/M/1 closed form: W_q = rho / (mu - lambda).
	lambda, mu := 0.5, 1.0
	want := (lambda / mu) / (mu - lambda)
	if got := MMcWait(lambda, mu, 1); !units.ApproxEqual(got, want, 1e-12) {
		t.Errorf("M/M/1 wait %v, want %v", got, want)
	}
	// Erlang-C anchor: c=2, a=1 (rho=0.5) → P(wait)=1/3, W_q=1/3.
	if got := MMcWait(1, 1, 2); !units.ApproxEqual(got, 1.0/3, 1e-12) {
		t.Errorf("M/M/2 wait %v, want 1/3", got)
	}
	if !math.IsInf(MMcWait(2, 1, 2), 1) {
		t.Error("unstable queue must return +Inf")
	}
	if MMcWait(0, 1, 3) != 0 {
		t.Error("empty arrival stream must wait 0")
	}
	if !math.IsNaN(MMcWait(1, 0, 1)) || !math.IsNaN(MMcWait(-1, 1, 1)) || !math.IsNaN(MMcWait(1, 1, 0)) {
		t.Error("invalid arguments must return NaN")
	}
	// Waits shrink monotonically in the server count.
	prev := math.Inf(1)
	for c := 1; c <= 8; c++ {
		w := MMcWait(0.9, 1, c)
		if w > prev {
			t.Errorf("wait increased adding a server: c=%d %v > %v", c, w, prev)
		}
		prev = w
	}
}
