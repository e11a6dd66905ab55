package edn

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// equalResults is reflect.DeepEqual with NaN == NaN (lifetime results
// carry NaN for "no recovery event observed", which is an equal
// outcome, not a divergent one).
func equalResults(a, b any) bool {
	return equalValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func equalValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.IsNaN(a.Float()) && math.IsNaN(b.Float()) {
			return true
		}
		return a.Float() == b.Float()
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			af, bf := a.Field(i), b.Field(i)
			if !af.CanInterface() {
				// Unexported field (histograms, time series): fall back
				// to DeepEqual on the whole struct via unsafe-free
				// comparison of the exported views is impossible here,
				// so compare the containing structs directly.
				return reflect.DeepEqual(forceInterface(a), forceInterface(b))
			}
			if !equalValue(af, bf) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && (a.IsNil() != b.IsNil()) {
			return false
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		return reflect.DeepEqual(forceInterface(a), forceInterface(b))
	default:
		return reflect.DeepEqual(forceInterface(a), forceInterface(b))
	}
}

func forceInterface(v reflect.Value) any {
	if v.CanInterface() {
		return v.Interface()
	}
	return nil
}

// jobspec_test.go pins the JobSpec layer three ways: JSON round-trips
// for every mode/engine combination (a spec is a wire format; losing a
// field silently would corrupt replayed jobs), Run-vs-facade
// bit-for-bit equivalence (a spec run through the dispatcher is the
// same measurement the facade function performs), and geometry-cache
// transparency (cached artifacts change nothing, including across
// UpdateFaults churn).

// testSpecs enumerates one representative JobSpec per mode/engine
// combination, all on daemon-smoke-sized geometries.
func testSpecs() map[string]JobSpec {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	dil := &DilatedGeometrySpec{B: 2, D: 2, L: 3}
	sim := SimSpec{Cycles: 300, Warmup: 40, Seed: 7, Shards: 2}
	queue := &QueueSpec{Depth: 2, Policy: "drop", Arbiter: "roundrobin"}
	return map[string]JobSpec{
		"latency-edn": {
			Mode: JobLatency, Geometry: geo, Load: 0.8,
			Traffic: &TrafficSpec{Kind: "bursty", MeanBurst: 4},
			Queue:   queue, Sim: sim,
		},
		"latency-dilated-faulty": {
			Mode: JobLatency, Engine: EngineDilated, Dilated: dil, Load: 0.9,
			Queue: queue, Faults: &FaultsSpec{Fraction: 0.1, Seed: 3}, Sim: sim,
		},
		"saturation-edn": {
			Mode: JobSaturation, Geometry: geo, Loads: []float64{0.4, 0.8},
			Queue: &QueueSpec{Depth: 4}, Sim: sim,
		},
		"saturation-dilated": {
			Mode: JobSaturation, Engine: EngineDilated, Geometry: geo,
			Loads: []float64{0.5, 1}, Queue: queue, Sim: sim,
		},
		"drain-edn": {
			Mode: JobDrain, Geometry: geo, DrainQ: 2,
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
		"drain-dilated": {
			Mode: JobDrain, Engine: EngineDilated, Dilated: dil, DrainQ: 2,
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
		"availability-edn": {
			Mode: JobAvailability, Geometry: geo,
			Avail: &AvailabilitySpec{Fractions: []float64{0.05, 0.2}, Mode: "mixed", Load: 0.9, WithExpected: true},
			Queue: queue, Sim: sim,
		},
		"availability-dilated": {
			Mode: JobAvailability, Engine: EngineDilated, Geometry: geo,
			Avail: &AvailabilitySpec{Fractions: []float64{0.1}},
			Queue: queue, Sim: sim,
		},
		"lifetime-edn": {
			Mode: JobLifetime, Geometry: geo,
			Lifetime: &LifetimeSpec{Epochs: 4, EpochCycles: 60, MTBF: 30, MTTR: 4,
				Mode: "switches", Timing: "deterministic", BlastRate: 0.2, BlastRadius: 1, RepairWindow: 2},
			Queue: queue, Sim: sim,
		},
		"lifetime-dilated": {
			Mode: JobLifetime, Engine: EngineDilated, Dilated: dil,
			Lifetime: &LifetimeSpec{Epochs: 3, EpochCycles: 50, MTBF: 20, MTTR: 3},
			Queue:    queue, Sim: sim,
		},
		"closedloop-edn": {
			Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.2, 0.5},
			Loop: &ClosedLoopSpec{Window: 2, Timeout: 32, MaxAttempts: 3, Retry: "backoff",
				BackoffBase: 2, BackoffCap: 16, SLAZero: 8, SLADeadline: 40},
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
		"closedloop-dilated": {
			Mode: JobClosedLoop, Engine: EngineDilated, Geometry: geo,
			Rates: []float64{0.3}, Loop: &ClosedLoopSpec{Window: 4},
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
		"closedloop-pair": {
			Mode: JobClosedLoop, Engine: EnginePair, Geometry: geo,
			Rates: []float64{0.4}, Loop: &ClosedLoopSpec{Window: 2},
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
		"closedloop-lifetime-edn": {
			Mode: JobClosedLoopLifetime, Geometry: geo,
			Lifetime: &LifetimeSpec{Epochs: 3, EpochCycles: 60, MTBF: 25, MTTR: 4, Load: 0.4},
			Loop:     &ClosedLoopSpec{Window: 2, Timeout: 32},
			Queue:    &QueueSpec{Depth: 2, Policy: "drop"}, Sim: sim,
		},
		"closedloop-lifetime-dilated": {
			Mode: JobClosedLoopLifetime, Engine: EngineDilated, Geometry: geo,
			Lifetime: &LifetimeSpec{Epochs: 3, EpochCycles: 60, MTBF: 25, MTTR: 4, Load: 0.4},
			Loop:     &ClosedLoopSpec{Window: 2},
			Queue:    &QueueSpec{Depth: 2, Policy: "drop"}, Sim: sim,
		},
		"estimate-edn": {
			Mode: JobEstimate, Geometry: geo, Load: 0.7,
			Estimate: &EstimateSpec{Src: 1, Dst: 5},
			Faults:   &FaultsSpec{Mode: "wires", Fraction: 0.05, Seed: 9},
			Queue:    &QueueSpec{Depth: 2}, Sim: sim,
		},
		"probe-saturation": {
			Mode: JobSaturation, Geometry: geo, Loads: []float64{0.9},
			Probe: &ProbeSpec{SampleEvery: 4, TraceCap: 64, Bins: 8, Seed: 2},
			Queue: &QueueSpec{Depth: 2}, Sim: sim,
		},
	}
}

// TestJobSpecRoundTrip pins that every spec survives a JSON round trip
// field for field: marshal, unmarshal, compare, and re-marshal to the
// identical bytes.
func TestJobSpecRoundTrip(t *testing.T) {
	for name, spec := range testSpecs() {
		t.Run(name, func(t *testing.T) {
			blob, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var back JobSpec
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Fatalf("round trip changed the spec:\n  out: %+v\n  back: %+v", spec, back)
			}
			blob2, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if string(blob) != string(blob2) {
				t.Fatalf("re-marshal differs:\n  %s\n  %s", blob, blob2)
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("spec does not validate: %v", err)
			}
		})
	}
}

// TestRunMatchesFacade pins Run(spec) bit-for-bit against the facade
// function each mode/engine wraps, for every deterministic spec (the
// random arbiter is excluded by construction — testSpecs uses
// roundrobin, whose state is per-switch and replayable).
func TestRunMatchesFacade(t *testing.T) {
	ctx := context.Background()
	for name, spec := range testSpecs() {
		t.Run(name, func(t *testing.T) {
			got, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			want := facadeRun(t, spec)
			if !equalResults(got, want) {
				t.Fatalf("Run diverges from facade:\n  got:  %+v\n  want: %+v", got, want)
			}
		})
	}
}

// facadeRun evaluates spec through the pre-JobSpec facade functions —
// the reference the dispatcher must reproduce exactly.
func facadeRun(t *testing.T, spec JobSpec) *JobResult {
	t.Helper()
	j, err := compileJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.wireCache(nil, nil); err != nil {
		t.Fatal(err)
	}
	res := &JobResult{Spec: spec}
	load := spec.Load
	if load <= 0 {
		load = 1
	}
	switch spec.Mode {
	case JobLatency:
		var pts []LatencyResult
		if j.engine == EngineDilated {
			pts, err = DilatedSaturationSweep(j.dcfg, []float64{load}, j.src, j.dopts, j.opts, j.shards)
		} else {
			pts, err = SaturationSweep(j.cfg, []float64{load}, j.src, j.qopts, j.opts, j.shards)
		}
		res.Points = pts
	case JobSaturation:
		if j.engine == EngineDilated {
			res.Points, err = DilatedSaturationSweep(j.dcfg, spec.Loads, j.src, j.dopts, j.opts, j.shards)
		} else {
			res.Points, err = SaturationSweep(j.cfg, spec.Loads, j.src, j.qopts, j.opts, j.shards)
		}
	case JobDrain:
		var r DrainResult
		if j.engine == EngineDilated {
			r, err = DilatedDrainPermutations(j.dcfg, spec.DrainQ, j.dopts, j.opts)
		} else {
			r, err = DrainPermutations(j.cfg, spec.DrainQ, j.qopts, j.opts)
		}
		res.Drain = &r
	case JobAvailability:
		if j.engine == EngineDilated {
			res.DilatedAvailability, err = DilatedAvailabilitySweep(j.dcfg, j.aopts, j.src, j.dopts, j.opts, j.shards)
		} else {
			res.Availability, err = AvailabilitySweep(j.cfg, j.aopts, j.src, j.qopts, j.opts, j.shards)
		}
	case JobLifetime:
		if j.engine == EngineDilated {
			var r DilatedLifetimeResult
			r, err = DilatedLifetimeSweep(j.dcfg, j.lopts, j.src, j.dopts, j.opts, j.shards)
			res.DilatedLifetime = &r
		} else {
			var r LifetimeResult
			r, err = LifetimeSweep(j.cfg, j.lopts, j.src, j.qopts, j.opts, j.shards)
			res.Lifetime = &r
		}
	case JobClosedLoop:
		switch j.engine {
		case EnginePair:
			res.ClosedLoop, res.DilatedClosedLoop, err = MeasureClosedLoopPair(j.cfg, j.dcfg, spec.Rates, j.lo, j.qopts, j.dopts, j.opts, j.shards)
		case EngineDilated:
			res.ClosedLoop, err = MeasureDilatedClosedLoop(j.dcfg, spec.Rates, j.lo, j.dopts, j.opts, j.shards)
		default:
			res.ClosedLoop, err = MeasureClosedLoop(j.cfg, spec.Rates, j.lo, j.qopts, j.opts, j.shards)
		}
	case JobClosedLoopLifetime:
		var r ClosedLoopLifetimeResult
		if j.engine == EngineDilated {
			r, err = DilatedClosedLoopLifetimeSweep(j.dcfg, j.lopts, j.lo, j.dopts, j.opts, j.shards)
		} else {
			r, err = ClosedLoopLifetimeSweep(j.cfg, j.lopts, j.lo, j.qopts, j.opts, j.shards)
		}
		res.ClosedLoopLifetime = &r
	case JobEstimate:
		// The estimate's measured half is pinned to the saturation
		// facade; the analytic half is deterministic arithmetic. Just
		// reproduce runEstimate's measurement through the facade.
		pts, serr := SaturationSweep(j.cfg, []float64{load}, j.src, j.qopts, j.opts, j.shards)
		if serr != nil {
			t.Fatal(serr)
		}
		r := pts[0]
		out := &EstimateResult{
			Config: j.cfg, Src: spec.Estimate.Src, Dst: spec.Estimate.Dst, Load: load,
			SrcLive: true, DstReachable: true, Hops: j.cfg.Stages(), AnalyticPA: PA(j.cfg, load),
		}
		if m := j.qopts.Faults; m != nil && !m.Empty() {
			if li := m.LiveInputs(); li != nil {
				out.SrcLive = li[spec.Estimate.Src]
			}
			live := make([]bool, j.cfg.Outputs())
			m.ReachableOutputsInto(live)
			out.DstReachable = live[spec.Estimate.Dst]
		}
		if out.SrcLive && out.DstReachable {
			out.Cycles, out.Throughput = r.Cycles, r.Throughput
			out.LatencyMean, out.LatencyP50 = r.LatencyMean, r.LatencyP50
			out.LatencyP95, out.LatencyP99, out.LatencyMax = r.LatencyP95, r.LatencyP99, r.LatencyMax
		}
		res.Estimate = out
	default:
		t.Fatalf("unknown mode %q", spec.Mode)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunStreamsPoints pins the OnPoint contract: every sweep point is
// delivered in order, with the same value the final result carries.
func TestRunStreamsPoints(t *testing.T) {
	spec := testSpecs()["saturation-edn"]
	var streamed []LatencyResult
	var indices []int
	res, err := RunJob(context.Background(), spec, RunOptions{
		OnPoint: func(i, total int, point any) {
			if total != len(spec.Loads) {
				t.Errorf("total = %d, want %d", total, len(spec.Loads))
			}
			indices = append(indices, i)
			streamed = append(streamed, point.(LatencyResult))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indices, []int{0, 1}) {
		t.Fatalf("indices = %v", indices)
	}
	if !reflect.DeepEqual(streamed, res.Points) {
		t.Fatalf("streamed points differ from final result")
	}
}

// TestRunCancellation pins that a cancelled context stops a sweep
// between points with the context's error.
func TestRunCancellation(t *testing.T) {
	spec := testSpecs()["saturation-edn"]
	ctx, cancel := context.WithCancel(context.Background())
	_, err := RunJob(ctx, spec, RunOptions{
		OnPoint: func(i, total int, point any) { cancel() },
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCacheTransparent is the cache-correctness property test: for
// every spec, a Run through a shared GeometryCache is bit-identical to
// an uncached Run — including the lifetime modes, whose engines mutate
// fault state via UpdateFaults between epochs on top of the shared
// cached tables, and a second pass over the warm cache.
func TestRunCacheTransparent(t *testing.T) {
	cache := NewGeometryCache(0)
	ctx := context.Background()
	for name, spec := range testSpecs() {
		t.Run(name, func(t *testing.T) {
			fresh, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := RunJob(ctx, spec, RunOptions{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if !equalResults(fresh, cold) {
				t.Fatalf("cold cached run diverges from fresh run")
			}
			warm, err := RunJob(ctx, spec, RunOptions{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if !equalResults(fresh, warm) {
				t.Fatalf("warm cached run diverges from fresh run")
			}
		})
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache never hit: %+v", st)
	}
}

// TestJobSpecValidation pins the error surface: bad specs fail fast in
// Validate, before any cycles run.
func TestJobSpecValidation(t *testing.T) {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	bad := map[string]JobSpec{
		"unknown-mode":      {Mode: "warp", Geometry: geo},
		"unknown-engine":    {Mode: JobLatency, Engine: "quantum", Geometry: geo},
		"pair-non-loop":     {Mode: JobLatency, Engine: EnginePair, Geometry: geo},
		"missing-geometry":  {Mode: JobLatency},
		"negative-shards":   {Mode: JobLatency, Geometry: geo, Sim: SimSpec{Shards: -1}},
		"empty-loads":       {Mode: JobSaturation, Geometry: geo},
		"empty-rates":       {Mode: JobClosedLoop, Geometry: geo, Loop: &ClosedLoopSpec{}},
		"missing-avail":     {Mode: JobAvailability, Geometry: geo},
		"missing-lifetime":  {Mode: JobLifetime, Geometry: geo},
		"drain-no-q":        {Mode: JobDrain, Geometry: geo},
		"bad-traffic":       {Mode: JobLatency, Geometry: geo, Traffic: &TrafficSpec{Kind: "adversarial"}},
		"bad-policy":        {Mode: JobLatency, Geometry: geo, Queue: &QueueSpec{Policy: "teleport"}},
		"bad-arbiter":       {Mode: JobLatency, Geometry: geo, Queue: &QueueSpec{Arbiter: "coin"}},
		"bad-fault-mode":    {Mode: JobLatency, Geometry: geo, Faults: &FaultsSpec{Mode: "gremlins"}},
		"fault-frac-range":  {Mode: JobLatency, Geometry: geo, Faults: &FaultsSpec{Fraction: 1.5}},
		"estimate-no-sect":  {Mode: JobEstimate, Geometry: geo},
		"estimate-dilated":  {Mode: JobEstimate, Engine: EngineDilated, Geometry: geo, Estimate: &EstimateSpec{}},
		"estimate-src-oob":  {Mode: JobEstimate, Geometry: geo, Estimate: &EstimateSpec{Src: 99}},
		"estimate-dst-oob":  {Mode: JobEstimate, Geometry: geo, Estimate: &EstimateSpec{Dst: -1}},
		"bad-geometry":      {Mode: JobLatency, Geometry: &GeometrySpec{A: 0, B: 2, C: 2, L: 2}},
		"bad-retry":         {Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.5}, Loop: &ClosedLoopSpec{Retry: "pray"}},
		"bad-timing":        {Mode: JobLifetime, Geometry: geo, Lifetime: &LifetimeSpec{Epochs: 2, MTBF: 10, MTTR: 2, Timing: "lunar"}},
		"dilated-no-config": {Mode: JobLatency, Engine: EngineDilated},
	}
	for name, spec := range bad {
		t.Run(name, func(t *testing.T) {
			if err := spec.Validate(); err == nil {
				t.Fatalf("spec validated but should not have: %+v", spec)
			}
		})
	}
}

// TestJobSpecRanges pins the numeric range checks: loads and rates
// are probabilities, the queue depth is at least -1, and cycle counts,
// histogram shapes, SLA bounds and the probe, explain and loop knobs
// cannot be negative. The first two specs used to pass Validate and
// then panic in the analytic model ("request rate 3 out of [0,1]"),
// which killed an edn-serve worker and with it the daemon; the
// negative probe bins, trace_cap and max_hops specs used to panic in
// makeslice on a shard goroutine, killing the process; queue.depth -2
// failed only at run time; the rest used to run silently with the value
// clamped or defaulted. Each must now fail in Validate with an error
// naming the field.
func TestJobSpecRanges(t *testing.T) {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	life := func(l LifetimeSpec) *LifetimeSpec {
		l.Epochs, l.MTBF, l.MTTR = 2, 10, 2
		return &l
	}
	probed := func(p ProbeSpec) JobSpec {
		return JobSpec{Mode: JobLatency, Geometry: geo, Load: 0.5, Queue: &QueueSpec{Depth: 2}, Probe: &p}
	}
	explained := func(e ExplainSpec) JobSpec {
		return JobSpec{Mode: JobLatency, Geometry: geo, Load: 0.5, Queue: &QueueSpec{Depth: 2}, Explain: &e}
	}
	looped := func(l ClosedLoopSpec) JobSpec {
		return JobSpec{Mode: JobClosedLoop, Geometry: geo, Rates: []float64{0.3}, Queue: &QueueSpec{Depth: 2}, Loop: &l}
	}
	bad := []struct {
		name  string
		spec  JobSpec
		field string
	}{
		{"lifetime-load-3", JobSpec{Mode: JobLifetime, Geometry: geo, Lifetime: life(LifetimeSpec{Load: 3})}, "lifetime.load"},
		{"lifetime-load-3-dilated", JobSpec{Mode: JobLifetime, Engine: EngineDilated, Geometry: geo, Lifetime: life(LifetimeSpec{Load: 3})}, "lifetime.load"},
		{"estimate-load-3", JobSpec{Mode: JobEstimate, Geometry: geo, Load: 3, Estimate: &EstimateSpec{Src: 1, Dst: 2}}, "load"},
		{"loads-negative", JobSpec{Mode: JobSaturation, Geometry: geo, Loads: []float64{-0.5}}, "loads[0]"},
		{"loads-above-1", JobSpec{Mode: JobSaturation, Geometry: geo, Loads: []float64{0.5, 1.7}}, "loads[1]"},
		{"rates-above-1", JobSpec{Mode: JobClosedLoop, Geometry: geo, Rates: []float64{1.2}, Loop: &ClosedLoopSpec{}}, "rates[0]"},
		{"avail-load-4", JobSpec{Mode: JobAvailability, Geometry: geo, Avail: &AvailabilitySpec{Fractions: []float64{0.1}, Load: 4}}, "avail.load"},
		{"cycles-negative", JobSpec{Mode: JobLatency, Geometry: geo, Sim: SimSpec{Cycles: -100}}, "sim.cycles"},
		{"warmup-negative", JobSpec{Mode: JobLatency, Geometry: geo, Sim: SimSpec{Warmup: -10}}, "sim.warmup"},
		{"epoch-cycles-negative", JobSpec{Mode: JobLifetime, Geometry: geo, Lifetime: life(LifetimeSpec{EpochCycles: -20})}, "lifetime.epoch_cycles"},
		{"latency-buckets-negative", JobSpec{Mode: JobLatency, Geometry: geo, Queue: &QueueSpec{LatencyBuckets: -3}}, "queue.latency_buckets"},
		{"latency-bucket-width-negative", JobSpec{Mode: JobLatency, Geometry: geo, Queue: &QueueSpec{LatencyBucketWidth: -1}}, "queue.latency_bucket_width"},
		{"queue-depth-minus-2", JobSpec{Mode: JobLatency, Geometry: geo, Queue: &QueueSpec{Depth: -2}}, "queue.depth"},
		{"probe-sample-every-negative", probed(ProbeSpec{SampleEvery: -1}), "probe.sample_every"},
		{"probe-trace-cap-negative", probed(ProbeSpec{SampleEvery: 1, TraceCap: -1}), "probe.trace_cap"},
		{"probe-max-hops-negative", probed(ProbeSpec{SampleEvery: 1, MaxHops: -1}), "probe.max_hops"},
		{"probe-bins-negative", probed(ProbeSpec{Bins: -1}), "probe.bins"},
		{"explain-top-k-negative", explained(ExplainSpec{TopK: -1}), "explain.top_k"},
		{"explain-hist-buckets-negative", explained(ExplainSpec{HistBuckets: -1}), "explain.hist_buckets"},
		{"explain-hist-bucket-width-negative", explained(ExplainSpec{HistBucketWidth: -1}), "explain.hist_bucket_width"},
		{"loop-window-negative", looped(ClosedLoopSpec{Window: -1}), "loop.window"},
		{"loop-service-cycles-negative", looped(ClosedLoopSpec{ServiceCycles: -1}), "loop.service_cycles"},
		{"loop-timeout-negative", looped(ClosedLoopSpec{Timeout: -1}), "loop.timeout"},
		{"loop-max-attempts-negative", looped(ClosedLoopSpec{MaxAttempts: -1}), "loop.max_attempts"},
		{"loop-backoff-base-negative", looped(ClosedLoopSpec{BackoffBase: -1}), "loop.backoff_base"},
		{"loop-backoff-cap-negative", looped(ClosedLoopSpec{BackoffCap: -1}), "loop.backoff_cap"},
		{"loop-max-backlog-negative", looped(ClosedLoopSpec{MaxBacklog: -1}), "loop.max_backlog"},
		{"loop-sla-zero-negative", looped(ClosedLoopSpec{SLAZero: -1}), "loop.sla_zero"},
		{"loop-sla-deadline-negative", looped(ClosedLoopSpec{SLADeadline: -1}), "loop.sla_deadline"},
		{"loop-latency-buckets-negative", looped(ClosedLoopSpec{LatencyBuckets: -1}), "loop.latency_buckets"},
		{"loop-latency-bucket-width-negative", looped(ClosedLoopSpec{LatencyBucketWidth: -1}), "loop.latency_bucket_width"},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), "edn: "+c.field+" ") {
				t.Fatalf("Validate = %v, want an error naming %q", err, c.field)
			}
		})
	}
	// The boundaries are valid, and zero keeps meaning "default".
	for _, s := range []JobSpec{
		{Mode: JobSaturation, Geometry: geo, Loads: []float64{0, 1}},
		{Mode: JobLifetime, Engine: EngineDilated, Geometry: geo, Lifetime: life(LifetimeSpec{Load: 1})},
		{Mode: JobLatency, Geometry: geo, Load: 1, Queue: &QueueSpec{}, Sim: SimSpec{}},
		{Mode: JobLatency, Geometry: geo, Load: 1, Queue: &QueueSpec{Depth: -1}},
		probed(ProbeSpec{}),
		explained(ExplainSpec{}),
		looped(ClosedLoopSpec{}),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("in-range spec %+v rejected: %v", s, err)
		}
	}
}

// fuzzKnobs are the JobSpec integer fields FuzzJobSpecValidate drives,
// in the order its knob bytes fill them.
var fuzzKnobs = []func(s *JobSpec, v int){
	func(s *JobSpec, v int) { s.Queue.Depth = v },
	func(s *JobSpec, v int) { s.Queue.LatencyBuckets = v },
	func(s *JobSpec, v int) { s.Queue.LatencyBucketWidth = float64(v) },
	func(s *JobSpec, v int) { s.Probe.SampleEvery = v },
	func(s *JobSpec, v int) { s.Probe.TraceCap = v },
	func(s *JobSpec, v int) { s.Probe.MaxHops = v },
	func(s *JobSpec, v int) { s.Probe.Bins = v },
	func(s *JobSpec, v int) { s.Explain.TopK = v },
	func(s *JobSpec, v int) { s.Explain.HistBuckets = v },
	func(s *JobSpec, v int) { s.Explain.HistBucketWidth = float64(v) },
	func(s *JobSpec, v int) { s.Loop.Window = v },
	func(s *JobSpec, v int) { s.Loop.ServiceCycles = v },
	func(s *JobSpec, v int) { s.Loop.Timeout = v },
	func(s *JobSpec, v int) { s.Loop.MaxAttempts = v },
	func(s *JobSpec, v int) { s.Loop.BackoffBase = v },
	func(s *JobSpec, v int) { s.Loop.BackoffCap = v },
	func(s *JobSpec, v int) { s.Loop.MaxBacklog = v },
	func(s *JobSpec, v int) { s.Loop.SLAZero = float64(v) },
	func(s *JobSpec, v int) { s.Loop.SLADeadline = float64(v) },
	func(s *JobSpec, v int) { s.Loop.LatencyBuckets = v },
	func(s *JobSpec, v int) { s.Loop.LatencyBucketWidth = float64(v) },
}

// fuzzSpec builds the EDN(4,2,2,2) job FuzzJobSpecValidate runs: mode
// picks saturation, closed loop or lifetime, and knob byte k, read as a
// signed integer wrapped into [-64, 64], fills fuzzKnobs[k] (missing
// bytes leave the field zero, its default).
func fuzzSpec(mode uint8, knobs []byte) JobSpec {
	s := JobSpec{
		Geometry: &GeometrySpec{A: 4, B: 2, C: 2, L: 2},
		Queue:    &QueueSpec{},
		Probe:    &ProbeSpec{Seed: 5},
		Explain:  &ExplainSpec{},
		Loop:     &ClosedLoopSpec{},
		Sim:      SimSpec{Cycles: 50, Warmup: 10, Seed: 3, Shards: 2},
	}
	for k, b := range knobs {
		if k < len(fuzzKnobs) {
			fuzzKnobs[k](&s, int(int8(b))%65)
		}
	}
	switch mode % 3 {
	case 0:
		s.Mode, s.Loads = JobSaturation, []float64{0.5}
	case 1:
		s.Mode, s.Rates = JobClosedLoop, []float64{0.3}
	default:
		// Lifetime runs Epochs x EpochCycles = 50 cycles and takes no
		// explain section.
		s.Mode, s.Explain, s.Sim.Cycles = JobLifetime, nil, 0
		s.Lifetime = &LifetimeSpec{Epochs: 2, EpochCycles: 25, Load: 0.5, MTBF: 4, MTTR: 2}
	}
	return s
}

// FuzzJobSpecValidate checks that Validate is the only gate a spec's
// numeric knobs need: whatever small signed values fill the queue,
// probe, explain and loop sections, either Validate rejects the spec or
// Run completes without panicking. The seeds are the three specs that
// used to pass Validate and then kill the process with a makeslice
// panic on a shard goroutine.
func FuzzJobSpecValidate(f *testing.F) {
	knobs := func(kv map[int]int8) []byte {
		b := make([]byte, len(fuzzKnobs))
		for k, v := range kv {
			b[k] = byte(v)
		}
		return b
	}
	f.Add(uint8(0), knobs(map[int]int8{0: 2, 6: -1}))        // probe bins -1
	f.Add(uint8(0), knobs(map[int]int8{0: 2, 3: 1, 4: -1}))  // probe trace_cap -1
	f.Add(uint8(1), knobs(map[int]int8{0: 2, 3: 1, 5: -1}))  // probe max_hops -1
	f.Add(uint8(2), knobs(map[int]int8{0: -1, 3: 2, 4: 16})) // unbounded lifetime, traced
	f.Fuzz(func(t *testing.T, mode uint8, knobs []byte) {
		s := fuzzSpec(mode, knobs)
		if s.Validate() != nil {
			return
		}
		// A run may still fail cleanly (an error, not a panic); the
		// property is only that a validated spec cannot crash it.
		_, _ = RunJob(context.Background(), s, RunOptions{OnExplain: func(*AnatomyReport) {}})
	})
}

// TestTrafficHotRange pins the hotspot range checks: the traffic
// sources reduce Hot modulo the output count, so Validate must reject a
// hot output that does not exist (and a hot fraction that is not a
// probability) with an error naming the field, on every engine's own
// output space.
func TestTrafficHotRange(t *testing.T) {
	geo := &GeometrySpec{A: 64, B: 16, C: 4, L: 2}
	cfg, err := geo.Compile()
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := DilatedCounterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(engine string, tr TrafficSpec) JobSpec {
		s := JobSpec{Mode: JobLatency, Engine: engine, Geometry: geo, Load: 0.5, Traffic: &tr}
		if engine == EnginePair {
			s.Mode, s.Rates, s.Loop = JobClosedLoop, []float64{0.3}, &ClosedLoopSpec{Window: 2}
		}
		return s
	}
	bad := []struct {
		name  string
		tr    TrafficSpec
		field string
	}{
		{"hot-99999", TrafficSpec{Kind: "hotspot", Hot: 99999, HotFraction: 0.3}, "traffic hot "},
		{"hot-negative", TrafficSpec{Kind: "moving-hotspot", Hot: -1, HotFraction: 0.3}, "traffic hot "},
		{"hot-fraction-1.5", TrafficSpec{Kind: "hotspot", Hot: 3, HotFraction: 1.5}, "traffic hot_fraction"},
		{"hot-fraction-negative", TrafficSpec{Kind: "hotspot", Hot: 3, HotFraction: -0.1}, "traffic hot_fraction"},
	}
	for _, engine := range []string{EngineEDN, EngineDilated, EnginePair} {
		for _, c := range bad {
			t.Run(engine+"/"+c.name, func(t *testing.T) {
				err := spec(engine, c.tr).Validate()
				if err == nil || !strings.Contains(err.Error(), c.field) {
					t.Fatalf("Validate = %v, want an error naming %q", err, c.field)
				}
			})
		}
	}
	// The boundaries are valid, each against its engine's output count.
	for engine, outputs := range map[string]int{EngineEDN: cfg.Outputs(), EngineDilated: dcfg.Ports(), EnginePair: min(cfg.Outputs(), dcfg.Ports())} {
		for _, tr := range []TrafficSpec{
			{Kind: "hotspot", Hot: 0, HotFraction: 0},
			{Kind: "moving-hotspot", Hot: outputs - 1, HotFraction: 1, Period: 10},
		} {
			if err := spec(engine, tr).Validate(); err != nil {
				t.Errorf("%s: in-range traffic %+v rejected: %v", engine, tr, err)
			}
		}
		if err := spec(engine, TrafficSpec{Kind: "hotspot", Hot: outputs}).Validate(); err == nil {
			t.Errorf("%s: hot %d accepted on %d outputs", engine, outputs, outputs)
		}
	}
}

// TestNegativeShardsUniform pins satellite semantics: every sharded
// facade entry point now rejects negative shard counts with an error
// instead of silently reinterpreting them.
func TestNegativeShardsUniform(t *testing.T) {
	cfg, err := New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := DilatedCounterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{Cycles: 100}
	lopts := LifetimeOptions{Epochs: 2, Spec: LifecycleSpec{MTBF: 10, MTTR: 2}}
	if _, err := SaturationSweep(cfg, []float64{1}, nil, QueueOptions{}, opts, -1); err == nil {
		t.Error("SaturationSweep accepted negative shards")
	}
	if _, err := DilatedSaturationSweep(dcfg, []float64{1}, nil, DilatedQueueOptions{}, opts, -2); err == nil {
		t.Error("DilatedSaturationSweep accepted negative shards")
	}
	if _, err := AvailabilitySweep(cfg, AvailabilityOptions{Fractions: []float64{0.1}}, nil, QueueOptions{}, opts, -1); err == nil {
		t.Error("AvailabilitySweep accepted negative shards")
	}
	if _, err := DilatedAvailabilitySweep(dcfg, AvailabilityOptions{Fractions: []float64{0.1}}, nil, DilatedQueueOptions{}, opts, -1); err == nil {
		t.Error("DilatedAvailabilitySweep accepted negative shards")
	}
	if _, err := LifetimeSweep(cfg, lopts, nil, QueueOptions{}, opts, -1); err == nil {
		t.Error("LifetimeSweep accepted negative shards")
	}
	if _, err := DilatedLifetimeSweep(dcfg, lopts, nil, DilatedQueueOptions{}, opts, -1); err == nil {
		t.Error("DilatedLifetimeSweep accepted negative shards")
	}
	if _, err := MeasureClosedLoop(cfg, []float64{0.5}, ClosedLoopOptions{}, QueueOptions{}, opts, -1); err == nil {
		t.Error("MeasureClosedLoop accepted negative shards")
	}
	if _, err := MeasureDilatedClosedLoop(dcfg, []float64{0.5}, ClosedLoopOptions{}, DilatedQueueOptions{}, opts, -1); err == nil {
		t.Error("MeasureDilatedClosedLoop accepted negative shards")
	}
	if _, err := ClosedLoopLifetimeSweep(cfg, lopts, ClosedLoopOptions{}, QueueOptions{}, opts, -1); err == nil {
		t.Error("ClosedLoopLifetimeSweep accepted negative shards")
	}
	if _, err := DilatedClosedLoopLifetimeSweep(dcfg, lopts, ClosedLoopOptions{}, DilatedQueueOptions{}, opts, -1); err == nil {
		t.Error("DilatedClosedLoopLifetimeSweep accepted negative shards")
	}
}

// TestJobResultMarshals pins that every mode's JobResult is valid JSON
// — the contract the serve daemon and the -spec replay path depend on.
// Lifetime results carry a NaN RecoveryHalfLife when no degradation
// event was observed; the JSON face encodes it as null (encoding/json
// rejects NaN outright), and the per-epoch series marshal as
// means/ci95 arrays rather than opaque accumulators.
func TestJobResultMarshals(t *testing.T) {
	ctx := context.Background()
	for name, spec := range testSpecs() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("JobResult does not marshal: %v", err)
			}
			var m map[string]any
			if err := json.Unmarshal(blob, &m); err != nil {
				t.Fatalf("JobResult JSON does not parse back: %v", err)
			}
			if spec.Mode == JobLifetime {
				key := "lifetime"
				if spec.Engine == EngineDilated {
					key = "dilated_lifetime"
				}
				lr, ok := m[key].(map[string]any)
				if !ok {
					t.Fatalf("missing %q in marshaled result", key)
				}
				bw, ok := lr["Bandwidth"].(map[string]any)
				if !ok {
					t.Fatalf("Bandwidth series lost in JSON: %v", lr["Bandwidth"])
				}
				if _, ok := bw["means"].([]any); !ok {
					t.Fatalf("Bandwidth series has no means array: %v", bw)
				}
			}
		})
	}
}
