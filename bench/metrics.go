package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's output contract and must match BENCHMARK.json
// (TestMetricListsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd metrics come from the untraced run, on every workload.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from the traced run. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"netsim.events_per_op", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.sim_frames_per_s", "1/s"},
	{"netsim.sync.rounds", "count"},
	{"netsim.sync.cell_runs", "count"},
	{"netsim.sync.cross_msgs", "count"},
	{"netsim.sync.cells_per_round", "count"},
	{"netsim.sync.mean_lookahead_s", "s"},
	{"netsim.shard_speedup", "x"},
	{"netsim.cpu_per_wall", "x"},
	{"netsim.frames_generated", "count"},
	{"netsim.frames_processed", "count"},
	{"netsim.frames_retried", "count"},
	{"netsim.frames_redispatched", "count"},
	{"netsim.frames_shed", "count"},
	{"netsim.frames_lost", "count"},
	{"netsim.availability", "frac"},
	{"topo.walker_ms", "ms"},
	{"topo.routes_ms", "ms"},
	{"faults.build_ms", "ms"},
	{"faults.hangs", "count"},
	{"faults.outages", "count"},
	{"degrade.build_ms", "ms"},
	{"degrade.phases", "count"},
	{"degrade.capacity_factor", "frac"},
	{"placement.decide_ns", "ns"},
	{"obs.instr_overhead_frac", "frac"},
	{"window.count", "count"},
	{"slo.alerts", "count"},
	{"slo.run_ms", "ms"},
	{"slo.from_trace_ms", "ms"},
	{"trace.record_ms", "ms"},
	{"trace.record_overhead_frac", "frac"},
	{"trace.events_per_s", "1/s"},
	{"trace.jsonl_write_ms", "ms"},
	{"trace.jsonl_bytes", "bytes"},
	{"trace.jsonl_decode_ms", "ms"},
	{"trace.decode_alloc_mb", "MB"},
	{"trace.chrome_ms", "ms"},
	{"trace.chrome_bytes", "bytes"},
	{"latency.decompose_ms", "ms"},
	{"latency.frames", "count"},
	{"experiments.paper_ms", "ms"},
	{"experiments.ablations_ms", "ms"},
	{"experiments.e1_e6_ms", "ms"},
	{"experiments.e7_ms", "ms"},
	{"experiments.e8_ms", "ms"},
	{"experiments.e9_ms", "ms"},
	{"experiments.e10_ms", "ms"},
	{"experiments.e11_ms", "ms"},
	{"experiments.e12_ms", "ms"},
	{"par.speedup", "x"},
	{"dse.explore_ms", "ms"},
	{"go.gc_per_op", "count"},
	{"go.gc_pause_ms_per_op", "ms"},
	{"host.calib_ms", "ms"},
	{"host.raw_op_ms_p50", "ms"},
	{"host.op_ms_iqr", "ms"},
	{"trace_overhead_frac", "frac"},
}

// layerSet collects a traced block's per-layer metrics. Host times are
// stored raw and scaled to reference-host units once the block's
// calibration is known.
type layerSet struct {
	vals  map[string]float64
	times map[string]bool // names whose value is a host time
}

func newLayerSet() *layerSet {
	return &layerSet{vals: map[string]float64{}, times: map[string]bool{}}
}

// put records a count or ratio.
func (l *layerSet) put(name string, v float64) { l.vals[name] = v }

// hostTime records a raw host time, in the metric's own unit.
func (l *layerSet) hostTime(name string, v float64) {
	l.vals[name] = v
	l.times[name] = true
}

// scaled returns the metrics with every host time normalized by the
// block calibration median.
func (l *layerSet) scaled(calibMS float64) map[string]float64 {
	out := make(map[string]float64, len(l.vals))
	for n, v := range l.vals {
		if l.times[n] {
			v = normalize(v, calibMS)
		}
		out[n] = v
	}
	return out
}
