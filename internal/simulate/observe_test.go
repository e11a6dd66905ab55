package simulate

import (
	"math"
	"reflect"
	"testing"

	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

func observeProbeOptions() *probe.Options {
	return &probe.Options{SampleEvery: 4, TraceCap: 256, Bins: 8}
}

// sameTraces asserts two reports retained the identical trace set —
// same IDs, endpoints and hop-for-hop flight records.
func sameTraces(t *testing.T, a, b *probe.Report) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("missing report: %v vs %v", a, b)
	}
	if a.Sampled != b.Sampled {
		t.Fatalf("sampled diverged: %d vs %d", a.Sampled, b.Sampled)
	}
	if !reflect.DeepEqual(a.Traces, b.Traces) {
		t.Fatalf("trace sets diverged: %d vs %d traces", len(a.Traces), len(b.Traces))
	}
}

// TestObservedSweepShardInvariant pins the shard-merge determinism
// contract: because rate sweeps collect their report from shard 0's
// full-budget observation run (seeded by the first root draw, which
// does not depend on the shard split), the same Options produce the
// identical trace set whether the measured sweep ran on 1 shard or 3 —
// and the measured results stay bit-identical to an unprobed sweep
// (TestObservedSplitShardInvariant checks that at every split shard
// count).
func TestObservedSweepShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.8}
	qopts := queuesim.Options{Depth: 4}
	run := func(shards int, po *probe.Options) LatencyResult {
		opts := Options{Cycles: 1200, Warmup: 100, Seed: 9, Probe: po}
		res, err := SaturationSweep(EDN(cfg, qopts), loads, nil, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}

	plain1 := run(1, nil)
	probed1 := run(1, observeProbeOptions())
	probed3 := run(3, observeProbeOptions())

	// Attaching a probe must not move any measured number.
	stripped := probed1
	stripped.Observed = nil
	if !reflect.DeepEqual(plain1, stripped) {
		t.Fatalf("probed sweep changed measured results:\n%+v\nvs\n%+v", plain1, stripped)
	}
	// And the observation itself must not depend on the shard count.
	sameTraces(t, probed1.Observed, probed3.Observed)
}

// TestObservedDilatedSweepShardInvariant pins the same contract for the
// dilated engine: its sweeps route through the same shard-0 observation
// machinery, so traces and heat must not depend on the shard split, and
// a probed sweep must not move the measured numbers.
func TestObservedDilatedSweepShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := dilated.Counterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.8}
	dopts := dilatedsim.Options{Depth: 4}
	run := func(shards int, po *probe.Options) LatencyResult {
		opts := Options{Cycles: 1200, Warmup: 100, Seed: 9, Probe: po}
		res, err := SaturationSweep(Dilated(dcfg, dopts), loads, nil, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}

	plain1 := run(1, nil)
	probed1 := run(1, observeProbeOptions())
	probed3 := run(3, observeProbeOptions())

	stripped := probed1
	stripped.Observed = nil
	if !reflect.DeepEqual(plain1, stripped) {
		t.Fatalf("probed dilated sweep changed measured results:\n%+v\nvs\n%+v", plain1, stripped)
	}
	sameTraces(t, probed1.Observed, probed3.Observed)
	if probed1.Observed.Heat == nil || probed3.Observed.Heat == nil {
		t.Fatalf("missing heat surfaces")
	}
	if !reflect.DeepEqual(probed1.Observed.Heat, probed3.Observed.Heat) {
		t.Fatalf("dilated heat surfaces diverged across shard counts")
	}
}

func TestObservedClosedLoopShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	lo := closedloop.Options{
		Window: 4, Timeout: 16, MaxAttempts: 4,
		Retry: closedloop.RetryBackoff, BackoffBase: 2, BackoffCap: 8,
	}
	qopts := queuesim.Options{Depth: 1, Policy: queuesim.Drop}
	run := func(shards int, po *probe.Options) ClosedLoopResult {
		opts := Options{Cycles: 1000, Warmup: 100, Seed: 9, Probe: po}
		res, err := MeasureClosedLoop(EDN(cfg, qopts), []float64{0.4}, lo, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	plain1 := run(1, nil)
	probed1 := run(1, observeProbeOptions())
	probed3 := run(3, observeProbeOptions())

	stripped := probed1
	stripped.Observed = nil
	if !reflect.DeepEqual(plain1, stripped) {
		t.Fatalf("probed sweep changed measured results:\n%+v\nvs\n%+v", plain1, stripped)
	}
	sameTraces(t, probed1.Observed, probed3.Observed)
}

// TestObservedLifetimeShardInvariant: lifetime sweeps trace only shard
// 0 (whose lifecycle/traffic seed pair is shard-count independent), so
// the collected trace set is identical across shard counts even though
// every shard contributes heat.
func TestObservedLifetimeShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	lopts := LifetimeOptions{
		Epochs:      6,
		EpochCycles: 100,
		Load:        0.9,
		Spec:        lifecycle.Spec{Mode: faults.WireFaults, MTBF: 20, MTTR: 5},
	}
	qopts := queuesim.Options{Depth: 4, Policy: queuesim.Drop}
	run := func(shards int, po *probe.Options) LifetimeResult {
		opts := Options{Warmup: 100, Seed: 9, Probe: po}
		res, err := LifetimeSweep[LifetimeResult](EDN(cfg, qopts), lopts, nil, opts, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	probed1 := run(1, observeProbeOptions())
	probed2 := run(2, observeProbeOptions())
	sameTraces(t, probed1.Observed, probed2.Observed)

	// Heat pools across shards: its per-epoch sample counts must scale
	// with the shard count while the bin layout stays epoch-aligned.
	h1, h2 := probed1.Observed.Heat, probed2.Observed.Heat
	if h1 == nil || h2 == nil {
		t.Fatalf("missing heat surfaces")
	}
	if h1.Bins != lopts.Epochs || h1.BinCycles != lopts.EpochCycles {
		t.Fatalf("heat bins %dx%d not epoch-aligned", h1.Bins, h1.BinCycles)
	}
	if n1, n2 := h1.Series[0][0].N(0), h2.Series[0][0].N(0); n2 != 2*n1 || n1 != lopts.EpochCycles {
		t.Fatalf("heat sample counts: shard1 %d, shard2 %d (want %d and double)", n1, n2, lopts.EpochCycles)
	}

	// A probed lifetime run must not move the measured series.
	// (NaN half-lives compare unequal under DeepEqual; normalize when
	// both runs agree the metric is undefined.)
	plain1 := run(1, nil)
	stripped := probed1
	stripped.Observed = nil
	if math.IsNaN(plain1.RecoveryHalfLife) && math.IsNaN(stripped.RecoveryHalfLife) {
		plain1.RecoveryHalfLife, stripped.RecoveryHalfLife = 0, 0
	}
	if !reflect.DeepEqual(plain1, stripped) {
		t.Fatalf("probed lifetime changed measured results")
	}
}
