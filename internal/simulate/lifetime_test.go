package simulate

import (
	"math"
	"testing"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

func lifetimeCfg(t *testing.T) topology.Config {
	t.Helper()
	cfg, err := topology.New(4, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestLifetimeSweepDeterministic(t *testing.T) {
	cfg := lifetimeCfg(t)
	lopts := LifetimeOptions{
		Epochs:      12,
		EpochCycles: 60,
		Spec:        lifecycle.Spec{Mode: faults.WireFaults, MTBF: 20, MTTR: 5},
	}
	qopts := queuesim.Options{Depth: 2, Policy: queuesim.Drop}
	opts := Options{Warmup: 40, Seed: 7}
	run := func() LifetimeResult {
		r, err := LifetimeSweep[LifetimeResult](EDN(cfg, qopts), lopts, nil, opts, 3)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Injected != b.Injected || a.Delivered != b.Delivered || a.Stranded != b.Stranded {
		t.Fatalf("non-deterministic totals: %+v vs %+v", a, b)
	}
	for e := 0; e < lopts.Epochs; e++ {
		if a.Bandwidth.Mean(e) != b.Bandwidth.Mean(e) {
			t.Fatalf("epoch %d bandwidth diverged: %g vs %g", e, a.Bandwidth.Mean(e), b.Bandwidth.Mean(e))
		}
	}
	if a.Shards != 3 || a.Epochs != 12 {
		t.Errorf("result shape: shards=%d epochs=%d", a.Shards, a.Epochs)
	}
}

func TestLifetimeSweepChurnDegradesBandwidth(t *testing.T) {
	// Aggressive churn must cost bandwidth versus a fault-free lifetime,
	// and every epoch's series entries must be populated by every shard.
	cfg := lifetimeCfg(t)
	qopts := queuesim.Options{Depth: 2, Policy: queuesim.Drop}
	opts := Options{Warmup: 50, Seed: 3}
	healthy, err := LifetimeSweep[LifetimeResult](EDN(cfg, qopts), LifetimeOptions{
		Epochs:      10,
		EpochCycles: 80,
		Spec:        lifecycle.Spec{Mode: faults.WireFaults, MTBF: 1e9, MTTR: 1},
	}, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	churned, err := LifetimeSweep[LifetimeResult](EDN(cfg, qopts), LifetimeOptions{
		Epochs:      10,
		EpochCycles: 80,
		Spec:        lifecycle.Spec{Mode: faults.WireFaults, MTBF: 8, MTTR: 8},
	}, nil, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if churned.LifetimeBandwidth >= healthy.LifetimeBandwidth {
		t.Errorf("50%%-steady-state churn did not degrade bandwidth: %.3f vs healthy %.3f",
			churned.LifetimeBandwidth, healthy.LifetimeBandwidth)
	}
	if healthy.Stranded != 0 {
		t.Errorf("healthy lifetime stranded %d packets", healthy.Stranded)
	}
	for e := 0; e < churned.Epochs; e++ {
		if churned.Bandwidth.N(e) != 2 {
			t.Fatalf("epoch %d has %d shard observations, want 2", e, churned.Bandwidth.N(e))
		}
	}
	// Conservation over the measured window: the imbalance between the
	// offered and accounted counters is bounded by the packets in
	// flight at the window edges (warmup fill delivered inside the
	// window, and packets still queued at shutdown).
	acct := churned.Refused + churned.Delivered + churned.Dropped + churned.Stranded
	bound := int64(2 * cfg.Inputs() * (cfg.Stages() + 2) * 2)
	if diff := churned.Injected - acct; diff > bound || diff < -bound {
		t.Errorf("window imbalance %d exceeds in-flight bound %d (injected %d, accounted %d)",
			diff, bound, churned.Injected, acct)
	}
}

func TestLifetimeSweepAggregates(t *testing.T) {
	cfg := lifetimeCfg(t)
	r, err := LifetimeSweep[LifetimeResult](EDN(cfg, queuesim.Options{Depth: 2, Policy: queuesim.Drop}), LifetimeOptions{
		Epochs:      8,
		EpochCycles: 50,
		Spec:        lifecycle.Spec{Mode: faults.WireFaults, MTBF: 10, MTTR: 5},
		Threshold:   0.99, // everything is below an impossible threshold
	}, nil, Options{Warmup: 20, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.TimeBelowThreshold != 1 {
		t.Errorf("threshold 0.99: time below = %g, want 1", r.TimeBelowThreshold)
	}
	if r.LifetimeBandwidth <= 0 || r.LifetimeBandwidth > 1 {
		t.Errorf("lifetime bandwidth %g out of (0,1]", r.LifetimeBandwidth)
	}
	if r.DeliveredFraction <= 0 || r.DeliveredFraction > 1 {
		t.Errorf("delivered fraction %g out of (0,1]", r.DeliveredFraction)
	}
	if !math.IsNaN(r.RecoveryHalfLife) && r.RecoveryHalfLife < 0 {
		t.Errorf("negative recovery half-life %g", r.RecoveryHalfLife)
	}
}

func TestLifetimeSweepValidation(t *testing.T) {
	cfg := lifetimeCfg(t)
	if _, err := LifetimeSweep[LifetimeResult](EDN(cfg, queuesim.Options{Depth: 1}), LifetimeOptions{}, nil, Options{}, 1); err == nil {
		t.Error("zero epochs should fail")
	}
	if _, err := LifetimeSweep[LifetimeResult](EDN(cfg, queuesim.Options{Depth: 1}), LifetimeOptions{
		Epochs: 2, Spec: lifecycle.Spec{Mode: faults.WireFaults, MTBF: 0, MTTR: 5},
	}, nil, Options{}, 1); err == nil {
		t.Error("invalid spec should fail")
	}
	// A load above 1 is not a request probability: it used to panic in
	// the default-threshold analytic model on both fabrics.
	dcfg, err := dilated.Counterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	over := LifetimeOptions{Epochs: 2, Load: 3, Spec: lifecycle.Spec{Mode: faults.WireFaults, MTBF: 10, MTTR: 5}}
	if _, err := LifetimeSweep[LifetimeResult](EDN(cfg, queuesim.Options{Depth: 1}), over, nil, Options{}, 1); err == nil {
		t.Error("EDN load 3 should fail")
	}
	if _, err := LifetimeSweep[DilatedLifetimeResult](Dilated(dcfg, dilatedsim.Options{Depth: 1}), over, nil, Options{}, 1); err == nil {
		t.Error("dilated load 3 should fail")
	}
	// A fabric measures its own result type only.
	over.Load = 1
	if _, err := LifetimeSweep[DilatedLifetimeResult](EDN(cfg, queuesim.Options{Depth: 1}), over, nil, Options{Cycles: 10}, 1); err == nil {
		t.Error("an EDN lifetime read as a dilated result should fail")
	}
}
