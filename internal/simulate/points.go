package simulate

import (
	"fmt"
	"runtime"

	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/queuesim"
	"edn/internal/topology"
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

// SaturationPoint measures one load point of a saturation sweep: the
// LatencyResult that SaturationSweep(cfg, loads, ...) would place at
// loads[index], bit for bit — shard seeds derive from (opts.Seed,
// index) exactly as in the batch sweep. It exists for incremental
// consumers (the serve layer streams sweep points as they complete)
// and for re-measuring a single point of a published curve.
func SaturationPoint(cfg topology.Config, load float64, index int, src LoadPattern, qopts queuesim.Options, opts Options, shards int) (LatencyResult, error) {
	opts = opts.withDefaults()
	if src == nil {
		src = UniformLoad
	}
	shards, err := normalizeShards(shards, opts.Cycles)
	if err != nil {
		return LatencyResult{}, err
	}
	return sweepLoadPoint(cfg.Inputs(), load, index, opts, shards, saturationMeasure(cfg, src, qopts))
}

// DilatedSaturationPoint is SaturationPoint over the dilated engine,
// pinned to DilatedSaturationSweep the same way.
func DilatedSaturationPoint(dcfg dilated.Config, load float64, index int, src LoadPattern, dopts dilatedsim.Options, opts Options, shards int) (LatencyResult, error) {
	opts = opts.withDefaults()
	if src == nil {
		src = UniformLoad
	}
	shards, err := normalizeShards(shards, opts.Cycles)
	if err != nil {
		return LatencyResult{}, err
	}
	return sweepLoadPoint(dcfg.Ports(), load, index, opts, shards, dilatedSaturationMeasure(dcfg, src, dopts))
}

// ClosedLoopPoint measures one demand-rate point of a closed-loop
// sweep: the ClosedLoopResult that MeasureClosedLoop(cfg, rates, ...)
// would place at rates[index], bit for bit.
func ClosedLoopPoint(cfg topology.Config, rate float64, index int, lo closedloop.Options, qopts queuesim.Options, opts Options, shards int) (ClosedLoopResult, error) {
	if err := cfg.Validate(); err != nil {
		return ClosedLoopResult{}, err
	}
	opts = opts.withDefaults()
	shards, err := normalizeShards(shards, opts.Cycles)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	res, err := sweepClosedLoopPoint(cfg.Inputs(), cfg.Outputs(), rate, index, lo, opts, shards, closedLoopBuild(cfg, qopts, opts))
	if err != nil {
		return ClosedLoopResult{}, err
	}
	res.Config = cfg
	res.Window = lo.Window
	res.Depth = qopts.Depth
	res.Policy = qopts.Policy
	res.Retry = lo.Retry
	return res, nil
}

// DilatedClosedLoopPoint is ClosedLoopPoint over the dilated engine,
// pinned to MeasureDilatedClosedLoop the same way.
func DilatedClosedLoopPoint(dcfg dilated.Config, rate float64, index int, lo closedloop.Options, dopts dilatedsim.Options, opts Options, shards int) (ClosedLoopResult, error) {
	if err := dcfg.Validate(); err != nil {
		return ClosedLoopResult{}, err
	}
	opts = opts.withDefaults()
	shards, err := normalizeShards(shards, opts.Cycles)
	if err != nil {
		return ClosedLoopResult{}, err
	}
	res, err := sweepClosedLoopPoint(dcfg.Ports(), dcfg.Ports(), rate, index, lo, opts, shards, dilatedClosedLoopBuild(dcfg, dopts, opts))
	if err != nil {
		return ClosedLoopResult{}, err
	}
	res.Dilated = dcfg
	res.Window = lo.Window
	res.Depth = dopts.Depth
	res.Policy = dopts.Policy
	res.Retry = lo.Retry
	return res, nil
}

// AvailabilityPoint measures one fault fraction of a degradation
// sweep: the AvailabilityResult that AvailabilitySweep would produce
// for fraction f under the same Options, bit for bit. The per-shard
// fault plans and traffic seeds derive from opts.Seed alone (never
// from the fraction axis), so evaluating fractions one at a time
// replays the identical failure stories the batch sweep grows.
func AvailabilityPoint(cfg topology.Config, aopts AvailabilityOptions, f float64, src LoadPattern, qopts queuesim.Options, opts Options, shards int) (AvailabilityResult, error) {
	opts = opts.withDefaults()
	if f < 0 || f > 1 {
		return AvailabilityResult{}, fmt.Errorf("simulate: fault fraction %g out of [0,1]", f)
	}
	if aopts.Load <= 0 {
		aopts.Load = 1
	}
	if src == nil {
		src = UniformLoad
	}
	shards, err := normalizeShards(shards, opts.Cycles)
	if err != nil {
		return AvailabilityResult{}, err
	}
	plans, trafficSeeds := availabilityPlans(cfg, aopts, opts, shards)
	return availabilityPoint(cfg, aopts, f, src, qopts, opts, shards, plans, trafficSeeds)
}

// DilatedAvailabilityPoint is AvailabilityPoint over the dilated
// engine, pinned to DilatedAvailabilitySweep the same way.
func DilatedAvailabilityPoint(dcfg dilated.Config, aopts AvailabilityOptions, f float64, src LoadPattern, dopts dilatedsim.Options, opts Options, shards int) (DilatedAvailabilityResult, error) {
	opts = opts.withDefaults()
	if f < 0 || f > 1 {
		return DilatedAvailabilityResult{}, fmt.Errorf("simulate: fault fraction %g out of [0,1]", f)
	}
	if aopts.Load <= 0 {
		aopts.Load = 1
	}
	if src == nil {
		src = UniformLoad
	}
	shards, err := normalizeShards(shards, opts.Cycles)
	if err != nil {
		return DilatedAvailabilityResult{}, err
	}
	plans, trafficSeeds := dilatedAvailabilityPlans(dcfg, opts, shards)
	return dilatedAvailabilityPoint(dcfg, aopts, f, src, dopts, opts, shards, plans, trafficSeeds)
}
