package simulate

import (
	"fmt"
	"runtime"

	"edn/internal/closedloop"
)

// normalizeShards is the one shard-count policy of every sharded entry
// point: negative counts are an error (they used to be silently
// reinterpreted, with behavior differing by entry point), zero selects
// GOMAXPROCS, and a positive count is clamped to the cycle budget when
// one applies (a shard needs at least one cycle to run; pass
// cycles <= 0 for budget-free sweeps such as the lifetime family,
// whose shards are whole independent lifetimes).
func normalizeShards(shards, cycles int) (int, error) {
	if shards < 0 {
		return 0, fmt.Errorf("simulate: shards %d is negative (0 selects GOMAXPROCS)", shards)
	}
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if cycles > 0 && shards > cycles {
		shards = cycles
	}
	return shards, nil
}

// SaturationPoint measures one load point of a saturation sweep on f:
// the LatencyResult that SaturationSweep(f, loads, ...) would place at
// loads[index], bit for bit — shard seeds derive from (opts.Seed,
// index) exactly as in the batch sweep. It exists for incremental
// consumers (the serve layer streams sweep points as they complete)
// and for re-measuring a single point of a published curve.
func SaturationPoint(f Fabric, load float64, index int, src LoadPattern, opts Options, shards int) (LatencyResult, error) {
	opts = opts.withDefaults()
	shards, err := normalizeShards(shards, opts.Cycles)
	if err != nil {
		return LatencyResult{}, err
	}
	return sweepLoadPoint(f, load, index, src, opts, shards)
}

// ClosedLoopPoint measures one demand-rate point of a closed-loop sweep
// on f: the ClosedLoopResult that MeasureClosedLoop(f, rates, ...)
// would place at rates[index], bit for bit.
func ClosedLoopPoint(f Fabric, rate float64, index int, lo closedloop.Options, opts Options, shards int) (ClosedLoopResult, error) {
	if err := f.net.validate(); err != nil {
		return ClosedLoopResult{}, err
	}
	opts = opts.withDefaults()
	shards, err := normalizeShards(shards, opts.Cycles)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	res, err := sweepClosedLoopPoint(f, rate, index, lo, opts, shards)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	f.net.label(&res.Config, &res.Dilated)
	res.Window = lo.Window
	res.Depth = f.regime.Depth
	res.Policy = f.regime.Policy
	res.Retry = lo.Retry
	return res, nil
}

// AvailabilityPoint measures one fault fraction of a degradation sweep
// on f: the point that AvailabilitySweep would produce for fraction
// frac under the same Options, bit for bit. The per-shard fault plans
// and traffic seeds derive from opts.Seed alone (never from the
// fraction axis), so evaluating fractions one at a time replays the
// identical failure stories the batch sweep grows. R is f's result
// type (see AvailabilitySweep).
func AvailabilityPoint[R AvailabilityKind](f Fabric, aopts AvailabilityOptions, frac float64, src LoadPattern, opts Options, shards int) (R, error) {
	aopts.Fractions = []float64{frac}
	res, err := AvailabilitySweep[R](f, aopts, src, opts, shards)
	if err != nil {
		var zero R
		return zero, err
	}
	return res[0], nil
}
