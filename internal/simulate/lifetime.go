package simulate

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"edn/internal/dilated"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// LifetimeOptions configures a lifetime simulation: how long the
// network lives, how its components churn, and under what load it is
// measured.
type LifetimeOptions struct {
	// Epochs is the number of failure/repair epochs simulated. Required.
	Epochs int
	// EpochCycles is the number of network cycles per epoch (default
	// 200) — the dwell time between mask swaps.
	EpochCycles int
	// Spec is the failure/repair process (see internal/lifecycle).
	Spec lifecycle.Spec
	// Load is the offered load per input (default 1: saturation).
	Load float64
	// Threshold is the delivered-bandwidth-per-input floor for the
	// TimeBelowThreshold metric. <= 0 selects half the fault-free
	// analytic bandwidth per input — "degraded to less than half of
	// healthy".
	Threshold float64
}

// withDefaults validates o and applies the defaults every lifetime
// mode shares on every fabric; load is the mode's default Load. Load
// is a request probability, so one above 1 is an error.
func (o LifetimeOptions) withDefaults(f Fabric, load float64) (LifetimeOptions, error) {
	if o.Epochs <= 0 {
		return o, fmt.Errorf("simulate: lifetime sweep needs a positive epoch count")
	}
	if o.EpochCycles <= 0 {
		o.EpochCycles = 200
	}
	if o.Load <= 0 {
		o.Load = load
	}
	if o.Load > 1 {
		return o, fmt.Errorf("simulate: lifetime load %g out of [0,1]", o.Load)
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.5 * f.net.healthyBandwidth(o.Load)
	}
	return o, nil
}

// LifetimeResult is the availability-over-time view of one network: the
// per-epoch time series of the quantities a static sweep reports once,
// plus the aggregates that summarize a whole deployment's lifetime.
type LifetimeResult struct {
	Config      topology.Config
	Spec        lifecycle.Spec
	Depth       int
	Policy      queuesim.Policy
	Epochs      int
	EpochCycles int
	Shards      int
	Threshold   float64

	// Per-epoch series, merged exactly across shards (each epoch's
	// value is the mean over shard replays; CI95 available per epoch).
	Bandwidth    *stats.TimeSeries // delivered packets per input per cycle
	Reachable    *stats.TimeSeries // fraction of outputs still reachable
	DeadFraction *stats.TimeSeries // dead fraction of the churned population
	LatencyP99   *stats.TimeSeries // P99 delivery latency within the epoch
	Parked       *stats.TimeSeries // mean packets parked on dead components per cycle

	// Lifetime packet counters over the churned epochs (fault-free
	// warmup excluded), summed across shards. Packets injected near the
	// lifetime's end may still be queued at shutdown, so the counters
	// describe the open-loop measurement window, not a closed ledger.
	Injected  int64
	Refused   int64
	Delivered int64
	Dropped   int64
	Stranded  int64

	// LifetimeBandwidth is the delivered bandwidth per input per cycle
	// averaged over the whole lifetime; DeliveredFraction the fraction
	// of offered packets that were delivered.
	LifetimeBandwidth float64
	DeliveredFraction float64
	// TimeBelowThreshold is the fraction of epochs whose mean bandwidth
	// fell below Threshold.
	TimeBelowThreshold float64
	// RecoveryHalfLife is the mean number of epochs a degradation event
	// (a >10% bandwidth drop) took to recover halfway back; NaN when the
	// lifetime had no such event.
	RecoveryHalfLife float64

	// Observed carries the flight-recorder report when Options.Probe
	// was set: heat series binned one bin per epoch and merged exactly
	// across every shard, plus sampled packet traces from shard 0's
	// replay (the first seed pair does not depend on the shard count,
	// so the trace set is a pure function of Options).
	Observed *probe.Report
}

// String renders the headline numbers.
func (r LifetimeResult) String() string {
	return fmt.Sprintf("%v %v mtbf=%g mttr=%g: lifetime thr=%.3f/input below-threshold=%.1f%% half-life=%.1f epochs",
		r.Config, r.Spec.Mode, r.Spec.MTBF, r.Spec.MTTR,
		r.LifetimeBandwidth, 100*r.TimeBelowThreshold, r.RecoveryHalfLife)
}

// MarshalJSON encodes the NaN sentinel of RecoveryHalfLife ("no
// degradation event observed") as null, since JSON has no NaN.
func (r LifetimeResult) MarshalJSON() ([]byte, error) {
	type alias LifetimeResult
	aux := struct {
		alias
		RecoveryHalfLife *float64 `json:"RecoveryHalfLife"`
	}{alias: alias(r)}
	if !math.IsNaN(r.RecoveryHalfLife) {
		aux.RecoveryHalfLife = &r.RecoveryHalfLife
	}
	return json.Marshal(aux)
}

// LifetimeKind is the result type of a lifetime sweep: LifetimeResult
// on an EDN fabric, DilatedLifetimeResult on a dilated one.
type LifetimeKind interface {
	LifetimeResult | DilatedLifetimeResult
}

// LifetimeSweep simulates f's whole service life: components fail and
// get repaired epoch by epoch (one churn process per shard), the
// running engine is re-masked in place — queue contents, arbiter state
// and all precomputed tables survive every swap, so packets in flight
// experience the failure exactly as deployed hardware would — and every
// epoch's delivered bandwidth, reachability and latency tail are
// recorded into per-epoch time series. An EDN churns the population
// lopts.Spec.Mode names, with lifecycle's blast overlay; a dilated
// delta churns its sub-wires, each on the same alternating-renewal
// clock with the spec's MTBF, MTTR, timing and repair window (Mode and
// the blast overlay name EDN structures and are ignored).
//
// Shards are fully independent lifetimes (own engine, own failure
// story, own traffic stream) executed in parallel and merged exactly
// per epoch; results are deterministic for a fixed (seed, shards)
// pair. The per-shard seeds derive from opts.Seed alone, so an EDN and
// its counterpart swept with the same Options face identically
// distributed outages under identical per-input traffic replays — the
// measured lifetime half of the equal-redundancy comparison. shards 0
// selects GOMAXPROCS; src nil selects uniform iid traffic at
// lopts.Load; lopts.Threshold <= 0 selects half f's fault-free analytic
// bandwidth per input. R must be f's result type (LifetimeKind); any
// other is an error.
//
// opts.Warmup cycles run fault-free before the first epoch so the
// series starts from the healthy steady state; the fabric's static
// faults are not applied. Fault processes that kill output terminals
// (switch/mixed churn reaching the crossbars) pair naturally with the
// Drop policy; under Backpressure packets addressed to a dead terminal
// park until the repair arrives (counted in the Parked series) — a
// real operational regime, but one that conflates queueing with
// availability in the bandwidth series.
func LifetimeSweep[R LifetimeKind](f Fabric, lopts LifetimeOptions, src LoadPattern, opts Options, shards int) (R, error) {
	var zero R
	opts = opts.withDefaults()
	lopts, err := lopts.withDefaults(f, 1)
	if err != nil {
		return zero, err
	}
	if src == nil {
		src = UniformLoad
	}
	shards, err = normalizeShards(shards, 0)
	if err != nil {
		return zero, err
	}
	parts := lifetimeShards(opts, shards, func(w int, procSeed, trafficSeed uint64) partialLifetime {
		start := time.Now()
		p := runLifetimeShard(f.withFaults(nil), lopts, src(lopts.Load, xrand.New(trafficSeed)), opts, lifetimeProbe(opts.Probe, lopts, w), procSeed)
		if opts.OnStage != nil {
			// Every lifetime shard runs the full epoch schedule.
			opts.OnStage("shard", w, lopts.Epochs*lopts.EpochCycles, start, time.Since(start))
		}
		return p
	})
	m, err := mergeLifetimes(lopts, opts, parts)
	if err != nil {
		return zero, err
	}
	return as[R](f.net.lifetime(&m, lopts, f.regime, shards), nil)
}

// lifetimeMerge is the part of a lifetime result every fabric shares:
// the exactly-merged per-epoch series, the summed lifetime counters and
// the derived aggregates. Each fabric's result type takes its fields
// from one of these (see the network implementations), so the merge and
// aggregate rules cannot drift between the EDN and dilated halves of a
// paired comparison.
type lifetimeMerge struct {
	bandwidth, reachable, deadFrac, p99, parked *stats.TimeSeries
	totals                                      queuesim.Totals
	rep                                         *probe.Report

	lifetimeBandwidth  float64
	deliveredFraction  float64
	timeBelowThreshold float64
	recoveryHalfLife   float64
}

// lifetimeProbe builds shard w's probe for a lifetime sweep: heat bins
// align one-to-one with epochs (so per-shard series merge exactly, the
// same rule as every other epoch series), and only shard 0 samples
// traces — its seed pair is shard-count independent, which keeps the
// trace set deterministic under re-sharding while every shard still
// contributes heat.
func lifetimeProbe(po *probe.Options, lopts LifetimeOptions, w int) *probe.Probe {
	if po == nil {
		return nil
	}
	p := *po
	p.Bins = lopts.Epochs
	p.BinCycles = lopts.EpochCycles
	if w > 0 {
		p.SampleEvery = 0
	}
	return probe.New(p)
}

// lifetimeShards runs one whole lifetime per shard in parallel, for
// every lifetime mode on every fabric. Each shard's (process, traffic)
// seed pair derives from opts.Seed up front, so the assignment does not
// depend on scheduling, and "same Options" means "same replays" across
// modes and fabrics.
func lifetimeShards[P any](opts Options, shards int, run func(w int, procSeed, trafficSeed uint64) P) []P {
	root := xrand.New(opts.Seed ^ 0x5bf0_3635_d1c2_a94f)
	type shardSeed struct{ proc, traffic uint64 }
	seeds := make([]shardSeed, shards)
	for w := range seeds {
		seeds[w] = shardSeed{proc: root.Uint64() | 1, traffic: root.Uint64() | 1}
	}
	parts := make([]P, shards)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = run(w, seeds[w].proc, seeds[w].traffic)
		}(w)
	}
	wg.Wait()
	return parts
}

// mergeLifetimes merges the shard lifetimes' series, counters and
// probe reports exactly and derives the aggregates.
func mergeLifetimes(lopts LifetimeOptions, opts Options, parts []partialLifetime) (lifetimeMerge, error) {
	mergeStart := time.Now()
	m := lifetimeMerge{
		bandwidth: stats.NewTimeSeries(lopts.Epochs),
		reachable: stats.NewTimeSeries(lopts.Epochs),
		deadFrac:  stats.NewTimeSeries(lopts.Epochs),
		p99:       stats.NewTimeSeries(lopts.Epochs),
		parked:    stats.NewTimeSeries(lopts.Epochs),
	}
	for w := range parts {
		p := &parts[w]
		if p.err != nil {
			return lifetimeMerge{}, p.err
		}
		for _, s := range []struct{ into, from *stats.TimeSeries }{
			{m.bandwidth, p.bandwidth},
			{m.reachable, p.reachable},
			{m.deadFrac, p.deadFrac},
			{m.p99, p.p99},
			{m.parked, p.parked},
		} {
			if err := s.into.Merge(s.from); err != nil {
				return lifetimeMerge{}, err
			}
		}
		m.totals.Injected += p.totals.Injected
		m.totals.Refused += p.totals.Refused
		m.totals.Delivered += p.totals.Delivered
		m.totals.Dropped += p.totals.Dropped
		m.totals.Stranded += p.totals.Stranded
		if p.rep != nil {
			if m.rep == nil {
				m.rep = p.rep
			} else if err := m.rep.Merge(p.rep); err != nil {
				return lifetimeMerge{}, err
			}
		}
	}
	m.lifetimeBandwidth = m.bandwidth.MeanOverall()
	if m.totals.Injected > 0 {
		m.deliveredFraction = float64(m.totals.Delivered) / float64(m.totals.Injected)
	} else {
		m.deliveredFraction = 1
	}
	m.timeBelowThreshold = m.bandwidth.FractionBelow(lopts.Threshold)
	m.recoveryHalfLife = stats.RecoveryHalfLife(m.bandwidth.Means(), 0.1)
	if opts.OnStage != nil {
		opts.OnStage("merge", -1, 0, mergeStart, time.Since(mergeStart))
	}
	return m, nil
}

// runLifetimeShard simulates one independent lifetime of f: warmup
// fault-free, then Epochs iterations of (advance the churn process,
// swap its masks into the running engine in place, run EpochCycles
// cycles, record the epoch's series).
func runLifetimeShard(f Fabric, lopts LifetimeOptions, pattern traffic.Pattern, opts Options, pr *probe.Probe, procSeed uint64) partialLifetime {
	var p partialLifetime
	ch, err := f.net.churn(lopts.Spec, xrand.New(procSeed))
	if err != nil {
		p.err = err
		return p
	}
	net, err := f.engine(opts)
	if err != nil {
		p.err = err
		return p
	}
	p.bandwidth = stats.NewTimeSeries(lopts.Epochs)
	p.reachable = stats.NewTimeSeries(lopts.Epochs)
	p.deadFrac = stats.NewTimeSeries(lopts.Epochs)
	p.p99 = stats.NewTimeSeries(lopts.Epochs)
	p.parked = stats.NewTimeSeries(lopts.Epochs)

	inputs, outputs := f.net.ports()
	live := make([]bool, outputs)
	gen, inPlace := pattern.(traffic.IntoGenerator)
	dest := make([]int, inputs)
	for c := 0; c < opts.Warmup; c++ {
		if inPlace {
			gen.GenerateInto(dest, outputs)
		} else {
			dest = pattern.Generate(inputs, outputs)
		}
		if _, p.err = net.Cycle(dest); p.err != nil {
			return p
		}
	}
	// Lifetime counters exclude the fault-free warmup (the same
	// open-loop truncation MeasureLatency applies): the reported
	// delivered fraction describes the churned lifetime, not the
	// healthy fill. The probe attaches at the same boundary, so heat
	// bin e is exactly epoch e.
	warm := net.Totals()
	if pr != nil {
		net.SetProbe(pr)
	}

	for e := 0; e < lopts.Epochs; e++ {
		m, err := ch.step()
		if err == nil {
			err = net.setFaults(m)
		}
		if err != nil {
			p.err = err
			return p
		}
		reachable := float64(m.ReachableOutputsInto(live)) / float64(outputs)
		net.ResetLatency()
		before := net.Totals()
		parked := 0
		for c := 0; c < lopts.EpochCycles; c++ {
			if inPlace {
				gen.GenerateInto(dest, outputs)
			} else {
				dest = pattern.Generate(inputs, outputs)
			}
			cs, err := net.Cycle(dest)
			if err != nil {
				p.err = err
				return p
			}
			parked += cs.ParkedOnDead
		}
		after := net.Totals()
		delivered := after.Delivered - before.Delivered
		p.bandwidth.Add(e, float64(delivered)/float64(lopts.EpochCycles*inputs))
		p.reachable.Add(e, reachable)
		p.deadFrac.Add(e, ch.DeadFraction())
		if net.Latency().N() > 0 {
			// A blackout epoch that retires nothing has no latency
			// observation; recording its empty-histogram quantile (0)
			// would make a total outage look like a perfect tail.
			p.p99.Add(e, net.Latency().Quantile(0.99))
		}
		p.parked.Add(e, float64(parked)/float64(lopts.EpochCycles))
	}
	tot := net.Totals()
	p.totals = queuesim.Totals{
		Injected:  tot.Injected - warm.Injected,
		Refused:   tot.Refused - warm.Refused,
		Delivered: tot.Delivered - warm.Delivered,
		Dropped:   tot.Dropped - warm.Dropped,
		Stranded:  tot.Stranded - warm.Stranded,
	}
	if pr != nil {
		p.rep = pr.Report()
	}
	return p
}

// partialLifetime is one shard's private accumulation.
type partialLifetime struct {
	bandwidth, reachable, deadFrac, p99, parked *stats.TimeSeries
	totals                                      queuesim.Totals
	rep                                         *probe.Report
	err                                         error
}

// DilatedLifetimeResult is the availability-over-time view of a dilated
// delta under sub-wire churn (LifetimeSweep on a Dilated fabric), with
// the same series and aggregate semantics as LifetimeResult.
type DilatedLifetimeResult struct {
	Dilated     dilated.Config
	MTBF        float64
	MTTR        float64
	Timing      lifecycle.Timing
	Depth       int
	Policy      queuesim.Policy
	Epochs      int
	EpochCycles int
	Shards      int
	Threshold   float64

	Bandwidth    *stats.TimeSeries // delivered packets per input per cycle
	Reachable    *stats.TimeSeries // fraction of output ports still reachable
	DeadFraction *stats.TimeSeries // dead fraction of the sub-wire population
	LatencyP99   *stats.TimeSeries // P99 delivery latency within the epoch
	Parked       *stats.TimeSeries // mean packets parked on dead sub-wires per cycle

	Injected  int64
	Refused   int64
	Delivered int64
	Dropped   int64
	Stranded  int64

	LifetimeBandwidth  float64
	DeliveredFraction  float64
	TimeBelowThreshold float64
	RecoveryHalfLife   float64

	// Observed: see LifetimeResult.Observed.
	Observed *probe.Report
}

// String renders the headline numbers.
func (r DilatedLifetimeResult) String() string {
	return fmt.Sprintf("%v mtbf=%g mttr=%g: lifetime thr=%.3f/input below-threshold=%.1f%% half-life=%.1f epochs",
		r.Dilated, r.MTBF, r.MTTR,
		r.LifetimeBandwidth, 100*r.TimeBelowThreshold, r.RecoveryHalfLife)
}

// MarshalJSON encodes the NaN sentinel of RecoveryHalfLife as null;
// see LifetimeResult.MarshalJSON.
func (r DilatedLifetimeResult) MarshalJSON() ([]byte, error) {
	type alias DilatedLifetimeResult
	aux := struct {
		alias
		RecoveryHalfLife *float64 `json:"RecoveryHalfLife"`
	}{alias: alias(r)}
	if !math.IsNaN(r.RecoveryHalfLife) {
		aux.RecoveryHalfLife = &r.RecoveryHalfLife
	}
	return json.Marshal(aux)
}
