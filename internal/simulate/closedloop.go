package simulate

import (
	"fmt"
	"sync"

	"edn/internal/anatomy"
	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// ClosedLoopResult aggregates a closed-loop measurement at one demand
// rate: the request ledger, the end-to-end latency distribution and the
// goodput/SLA headline numbers, merged exactly across shards.
type ClosedLoopResult struct {
	Config  topology.Config // zero for dilated runs
	Dilated dilated.Config  // zero for EDN runs
	Rate    float64         // configured demand probability per source per cycle
	Window  int
	Depth   int
	Policy  queuesim.Policy
	Retry   closedloop.RetryPolicy
	Cycles  int // measured cycles (warmup excluded), summed across shards
	Shards  int

	// Ledger sums the per-shard measurement-window deltas of the
	// cumulative counters; the gauges are the end-of-run leftovers
	// summed across shards.
	Ledger closedloop.Ledger

	// OfferedRate is measured demand per source per cycle; Goodput is
	// completed round trips per source per cycle; CompletedFraction is
	// completed over offered; SLAAttainment is deadline-curve credit
	// over offered (equals CompletedFraction under the zero SLA).
	OfferedRate       float64
	Goodput           float64
	CompletedFraction float64
	SLAAttainment     float64

	// End-to-end latency quantiles in cycles, demand arrival to reply
	// delivery, over round trips completed in the window.
	LatencyMean float64
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64
	LatencyMax  float64
	Histogram   *stats.Histogram

	// Observed carries the flight-recorder report when Options.Probe
	// was set: sampled request traces (attempt-numbered issue, timeout,
	// retry and completion events) plus per-cycle ledger-gauge heat
	// over the whole measurement window, from shard 0 running the full
	// cycle budget with the probe attached (see runPoint for the
	// determinism argument).
	Observed *probe.Report
}

// Network names the measured network.
func (r ClosedLoopResult) Network() string {
	if r.Config == (topology.Config{}) {
		return r.Dilated.String()
	}
	return r.Config.String()
}

// String renders the headline numbers.
func (r ClosedLoopResult) String() string {
	return fmt.Sprintf("%s W=%d rate=%.3f: goodput=%.3f/src/cycle sla=%.3f lat p50=%.0f p95=%.0f retries=%d giveups=%d",
		r.Network(), r.Window, r.Rate, r.Goodput, r.SLAAttainment,
		r.LatencyP50, r.LatencyP95, r.Ledger.Retries, r.Ledger.GivenUp)
}

// closedLoopPartial is one shard's measurement-window view.
type closedLoopPartial struct {
	led    closedloop.Ledger
	sla    float64
	hist   *stats.Histogram
	cycles int
	rep    *probe.Report
	err    error
}

// ledgerDelta subtracts the cumulative counters (the gauges are
// instantaneous and carry over as-is).
func ledgerDelta(after, before closedloop.Ledger) closedloop.Ledger {
	return closedloop.Ledger{
		Offered:      after.Offered - before.Offered,
		Shed:         after.Shed - before.Shed,
		Issued:       after.Issued - before.Issued,
		Completed:    after.Completed - before.Completed,
		GivenUp:      after.GivenUp - before.GivenUp,
		Timeouts:     after.Timeouts - before.Timeouts,
		Retries:      after.Retries - before.Retries,
		Orphans:      after.Orphans - before.Orphans,
		Stale:        after.Stale - before.Stale,
		Avoided:      after.Avoided - before.Avoided,
		Backlogged:   after.Backlogged,
		InFlight:     after.InFlight,
		RetryWaiting: after.RetryWaiting,
	}
}

func ledgerAdd(into *closedloop.Ledger, d closedloop.Ledger) {
	into.Offered += d.Offered
	into.Shed += d.Shed
	into.Issued += d.Issued
	into.Completed += d.Completed
	into.GivenUp += d.GivenUp
	into.Timeouts += d.Timeouts
	into.Retries += d.Retries
	into.Orphans += d.Orphans
	into.Stale += d.Stale
	into.Avoided += d.Avoided
	into.Backlogged += d.Backlogged
	into.InFlight += d.InFlight
	into.RetryWaiting += d.RetryWaiting
}

// runClosedLoopShard builds a fresh loop over fresh fabrics, runs
// r.opts.Warmup + r.opts.Cycles cycles and returns the
// measurement-window deltas of the first r.share measured cycles,
// asserting conservation and calling r.atShare the moment they are
// taken. The probe and the anatomy collector in r.opts attach at the
// measurement boundary and keep running to the end (see runPoint).
func runClosedLoopShard(build func() (fwd, rev closedloop.Engine, err error), inputs, outputs int, lo closedloop.Options, r shardRun) closedLoopPartial {
	run, share := r.opts, r.share
	r.building.Lock()
	fwd, rev, err := build()
	var loop *closedloop.Loop
	if err == nil {
		loop, err = closedloop.New(fwd, rev, inputs, outputs, lo)
	}
	r.building.Unlock()
	if err != nil {
		return closedLoopPartial{err: err}
	}
	for c := 0; c < run.Warmup; c++ {
		if _, err := loop.Cycle(); err != nil {
			return closedLoopPartial{err: err}
		}
	}
	warmLed, warmSLA := loop.Ledger(), loop.SLACredit()
	loop.ResetLatency()
	pr := newProbe(run.Probe, run.Cycles)
	if pr != nil {
		loop.SetProbe(pr)
	}
	var an *anatomy.Collector
	if run.Anatomy != nil {
		// Attached at the measurement boundary, like the probe: the
		// five-way request split covers completions inside the window.
		an = anatomy.New(*run.Anatomy)
		loop.SetAnatomy(an)
	}
	var part closedLoopPartial
	for c := 0; c < run.Cycles; c++ {
		if _, err := loop.Cycle(); err != nil {
			return closedLoopPartial{err: err}
		}
		if c+1 == share {
			if err := loop.CheckConservation(); err != nil {
				return closedLoopPartial{err: err}
			}
			part = closedLoopPartial{
				led:    ledgerDelta(loop.Ledger(), warmLed),
				sla:    loop.SLACredit() - warmSLA,
				hist:   loop.Latency().Clone(),
				cycles: share,
			}
			r.atShare()
		}
	}
	if share < run.Cycles {
		if err := loop.CheckConservation(); err != nil {
			return closedLoopPartial{err: err}
		}
	}
	if pr != nil {
		part.rep = pr.Report()
	}
	if an != nil && run.OnAnatomy != nil {
		run.OnAnatomy(an.Report())
	}
	return part
}

// sweepClosedLoop is the engine-agnostic rate sweep: one merged result
// per demand rate, each rate's cycle budget split across shards with
// seeds derived exactly as sweepLoads derives them — same Options mean
// same shard seeds, which is what keeps an EDN sweep and its dilated
// counterpart replay-matched at the request level.
func sweepClosedLoop(inputs, outputs int, rates []float64, lo closedloop.Options, opts Options, shards int, build func() (fwd, rev closedloop.Engine, err error)) ([]ClosedLoopResult, error) {
	opts = opts.withDefaults()
	shards, err := normalizeShards(shards, opts.Cycles)
	if err != nil {
		return nil, err
	}
	results := make([]ClosedLoopResult, 0, len(rates))
	for i, rate := range rates {
		res, err := sweepClosedLoopPoint(inputs, outputs, rate, i, lo, opts, shards, build)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// sweepClosedLoopPoint measures one demand-rate point — point `index`
// on the sweep's rate axis — with the seed derivation the batch sweep
// has always used. When opts.Probe or opts.Anatomy is set, shard 0
// doubles as the point's observation run (see runPoint): it runs the
// full cycle budget under seeds[0] with the observers attached from the
// measurement boundary, contributes its measured partial from its share
// boundary, and fills Observed, so the merge stays bit-identical to an
// unobserved sweep. Callers must have normalized shards and applied
// opts.withDefaults.
func sweepClosedLoopPoint(inputs, outputs int, rate float64, index int, lo closedloop.Options, opts Options, shards int, build func() (fwd, rev closedloop.Engine, err error)) (ClosedLoopResult, error) {
	parts := make([]closedLoopPartial, shards)
	res := ClosedLoopResult{Rate: rate, Shards: shards}
	err := runPoint(opts, index, shards, func(w int, r shardRun) {
		slo := lo
		slo.Rate = rate
		slo.Seed = r.seed
		parts[w] = runClosedLoopShard(build, inputs, outputs, slo, r)
	}, func() error {
		for w := range parts {
			p := &parts[w]
			if p.err != nil {
				return p.err
			}
			if p.cycles == 0 && p.hist == nil {
				continue
			}
			res.Cycles += p.cycles
			ledgerAdd(&res.Ledger, p.led)
			res.SLAAttainment += p.sla // credit sum; normalized below
			if res.Histogram == nil {
				res.Histogram = p.hist
			} else if err := res.Histogram.Merge(p.hist); err != nil {
				return err
			}
		}
		res.fill(inputs)
		res.Observed = parts[0].rep
		return nil
	})
	if err != nil {
		return ClosedLoopResult{}, err
	}
	return res, nil
}

// fill derives the summary fields; SLAAttainment holds the raw credit
// sum on entry.
func (r *ClosedLoopResult) fill(inputs int) {
	if r.Cycles > 0 {
		r.OfferedRate = float64(r.Ledger.Offered) / float64(r.Cycles*inputs)
		r.Goodput = float64(r.Ledger.Completed) / float64(r.Cycles*inputs)
	}
	if r.Ledger.Offered > 0 {
		// Requests offered during warmup can complete inside the
		// measurement window, nudging the ratios past 1 at light load;
		// clamp the boundary effect.
		r.CompletedFraction = min(1, float64(r.Ledger.Completed)/float64(r.Ledger.Offered))
		r.SLAAttainment = min(1, r.SLAAttainment/float64(r.Ledger.Offered))
	} else {
		r.CompletedFraction = 1
		r.SLAAttainment = 1
	}
	if h := r.Histogram; h != nil {
		r.LatencyMean = h.Mean()
		r.LatencyP50 = h.Quantile(0.50)
		r.LatencyP95 = h.Quantile(0.95)
		r.LatencyP99 = h.Quantile(0.99)
		r.LatencyMax = h.Max()
	}
}

// MeasureClosedLoop measures the closed-loop request/response workload
// over an EDN at each demand rate: two fabric instances (requests
// forward, replies back through the Outputs/Inputs concentrator), W
// outstanding requests per source, timeout/retry per lo. Results carry
// goodput vs offered demand, the end-to-end latency histogram, and the
// full retry/timeout/give-up ledger. lo.Rate and lo.Seed are overridden
// per rate point and shard. shards <= 0 selects GOMAXPROCS; results are
// deterministic for a fixed (seed, shards) pair.
func MeasureClosedLoop(cfg topology.Config, rates []float64, lo closedloop.Options, qopts queuesim.Options, opts Options, shards int) ([]ClosedLoopResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	results, err := sweepClosedLoop(cfg.Inputs(), cfg.Outputs(), rates, lo, opts, shards, closedLoopBuild(cfg, qopts, opts))
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].Config = cfg
		results[i].Window = lo.Window
		results[i].Depth = qopts.Depth
		results[i].Policy = qopts.Policy
		results[i].Retry = lo.Retry
	}
	return results, nil
}

// MeasureDilatedClosedLoop is MeasureClosedLoop over a dilated delta
// (square, so the concentrator is the identity). Same Options derive
// the same shard seeds as the EDN sweep, so the two sides of a
// counterpart comparison draw bit-identical demand.
func MeasureDilatedClosedLoop(dcfg dilated.Config, rates []float64, lo closedloop.Options, dopts dilatedsim.Options, opts Options, shards int) ([]ClosedLoopResult, error) {
	if err := dcfg.Validate(); err != nil {
		return nil, err
	}
	results, err := sweepClosedLoop(dcfg.Ports(), dcfg.Ports(), rates, lo, opts, shards, dilatedClosedLoopBuild(dcfg, dopts, opts))
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].Dilated = dcfg
		results[i].Window = lo.Window
		results[i].Depth = dopts.Depth
		results[i].Policy = dopts.Policy
		results[i].Retry = lo.Retry
	}
	return results, nil
}

// closedLoopBuild returns the per-shard fabric constructor of an EDN
// closed-loop run: two fresh queuesim instances per shard (forward and
// return), with the arbiter-factory default applied once. The sweeps
// and the per-point entry points share it.
func closedLoopBuild(cfg topology.Config, qopts queuesim.Options, opts Options) func() (closedloop.Engine, closedloop.Engine, error) {
	if qopts.Factory == nil {
		qopts.Factory = opts.Factory
	}
	return func() (closedloop.Engine, closedloop.Engine, error) {
		fwd, err := queuesim.New(cfg, qopts)
		if err != nil {
			return nil, nil, err
		}
		rev, err := queuesim.New(cfg, qopts)
		if err != nil {
			return nil, nil, err
		}
		return fwd, rev, nil
	}
}

// dilatedClosedLoopBuild is closedLoopBuild for the dilated engine.
func dilatedClosedLoopBuild(dcfg dilated.Config, dopts dilatedsim.Options, opts Options) func() (closedloop.Engine, closedloop.Engine, error) {
	if dopts.Factory == nil {
		dopts.Factory = opts.Factory
	}
	return func() (closedloop.Engine, closedloop.Engine, error) {
		fwd, err := dilatedsim.New(dcfg, dopts)
		if err != nil {
			return nil, nil, err
		}
		rev, err := dilatedsim.New(dcfg, dopts)
		if err != nil {
			return nil, nil, err
		}
		return fwd, rev, nil
	}
}

// MeasureClosedLoopPair runs the replay-matched EDN vs dilated
// comparison: both sweeps under the same Options, then a hard assertion
// that every rate point offered a bit-equal demand count on both sides
// — the demand streams are seed-derived, so anything else means the
// replay matching broke and the comparison is invalid. The dilated side
// must have as many ports as the EDN has inputs (dilated.Counterpart
// arranges this).
func MeasureClosedLoopPair(cfg topology.Config, dcfg dilated.Config, rates []float64, lo closedloop.Options, qopts queuesim.Options, dopts dilatedsim.Options, opts Options, shards int) (ednRes, dilRes []ClosedLoopResult, err error) {
	if cfg.Inputs() != dcfg.Ports() {
		return nil, nil, fmt.Errorf("simulate: closed-loop pair needs matching source counts, EDN %v has %d inputs, %v has %d ports",
			cfg, cfg.Inputs(), dcfg, dcfg.Ports())
	}
	ednRes, err = MeasureClosedLoop(cfg, rates, lo, qopts, opts, shards)
	if err != nil {
		return nil, nil, err
	}
	dilRes, err = MeasureDilatedClosedLoop(dcfg, rates, lo, dopts, opts, shards)
	if err != nil {
		return nil, nil, err
	}
	for i := range ednRes {
		if eo, do := ednRes[i].Ledger.Offered, dilRes[i].Ledger.Offered; eo != do {
			return nil, nil, fmt.Errorf("simulate: closed-loop pair replay mismatch at rate %.3f: EDN offered %d, dilated %d",
				ednRes[i].Rate, eo, do)
		}
	}
	return ednRes, dilRes, nil
}

// ClosedLoopLifetimeResult is the availability-over-time view of the
// closed-loop workload: per-epoch goodput, SLA attainment, tail latency
// and retry pressure while the fabric churns underneath, plus the
// lifetime ledger and the SLA-weighted cost-of-downtime aggregate.
type ClosedLoopLifetimeResult struct {
	Config      topology.Config // zero for dilated runs
	Dilated     dilated.Config  // zero for EDN runs
	Spec        lifecycle.Spec
	Rate        float64
	Window      int
	Depth       int
	Policy      queuesim.Policy
	Retry       closedloop.RetryPolicy
	Epochs      int
	EpochCycles int
	Shards      int

	// Per-epoch series, merged exactly across shard replays.
	Goodput       *stats.TimeSeries // completed round trips per source per cycle
	SLAAttainment *stats.TimeSeries // deadline-curve credit per offered demand
	LatencyP95    *stats.TimeSeries // P95 end-to-end latency within the epoch
	Retries       *stats.TimeSeries // retries per source per cycle
	Timeouts      *stats.TimeSeries // attempt timeouts per source per cycle
	Reachable     *stats.TimeSeries // fraction of memory ports still reachable (forward fabric)
	DeadFraction  *stats.TimeSeries // dead fraction of the churned population (forward fabric)

	// Ledger sums the churned-lifetime deltas across shards (gauges:
	// end-of-lifetime leftovers).
	Ledger closedloop.Ledger

	// GoodputOverall averages the goodput series over the lifetime.
	// SLAAttainmentOverall is total deadline-curve credit over total
	// demand, and CostOfDowntime is its complement: the fraction of the
	// lifetime's demanded work that was never delivered within the
	// response-deadline curve — the SLA-weighted price of the outages.
	GoodputOverall       float64
	SLAAttainmentOverall float64
	CostOfDowntime       float64

	// Observed carries the flight-recorder report when Options.Probe
	// was set: ledger-gauge heat binned one bin per epoch, merged
	// across every shard, plus request traces from shard 0's replay.
	Observed *probe.Report
}

// Network names the measured network.
func (r ClosedLoopLifetimeResult) Network() string {
	if r.Config == (topology.Config{}) {
		return r.Dilated.String()
	}
	return r.Config.String()
}

// String renders the headline numbers.
func (r ClosedLoopLifetimeResult) String() string {
	return fmt.Sprintf("%s closed-loop mtbf=%g mttr=%g: goodput=%.3f/src/cycle sla=%.3f downtime-cost=%.1f%%",
		r.Network(), r.Spec.MTBF, r.Spec.MTTR,
		r.GoodputOverall, r.SLAAttainmentOverall, 100*r.CostOfDowntime)
}

// closedLoopLifetimePartial is one shard's lifetime accumulation.
type closedLoopLifetimePartial struct {
	goodput, sla, p95, retries, timeouts, reachable, deadFrac *stats.TimeSeries

	led     closedloop.Ledger
	credit  float64
	offered int64
	rep     *probe.Report
	err     error
}

// closedLoopStep advances a shard's fault state one epoch: churn both
// fabrics, refresh the avoidance list from the forward fabric's
// reachability, and report the epoch's reachable/dead fractions.
type closedLoopStep func(loop *closedloop.Loop) (reachable, deadFrac float64, err error)

// runClosedLoopLifetimeShard is the per-shard epoch loop both
// closed-loop lifetime sweeps share: fault-free warmup, then Epochs
// iterations of (step, run EpochCycles cycles, record), with the full
// conservation invariant asserted at every epoch boundary.
func runClosedLoopLifetimeShard(build func() (fwd, rev closedloop.Engine, err error), inputs, outputs int, lopts LifetimeOptions, lo closedloop.Options, warmup int, pr *probe.Probe, step closedLoopStep) closedLoopLifetimePartial {
	p := closedLoopLifetimePartial{
		goodput:   stats.NewTimeSeries(lopts.Epochs),
		sla:       stats.NewTimeSeries(lopts.Epochs),
		p95:       stats.NewTimeSeries(lopts.Epochs),
		retries:   stats.NewTimeSeries(lopts.Epochs),
		timeouts:  stats.NewTimeSeries(lopts.Epochs),
		reachable: stats.NewTimeSeries(lopts.Epochs),
		deadFrac:  stats.NewTimeSeries(lopts.Epochs),
	}
	fwd, rev, err := build()
	if err != nil {
		p.err = err
		return p
	}
	loop, err := closedloop.New(fwd, rev, inputs, outputs, lo)
	if err != nil {
		p.err = err
		return p
	}
	for c := 0; c < warmup; c++ {
		if _, p.err = loop.Cycle(); p.err != nil {
			return p
		}
	}
	warmLed, warmSLA := loop.Ledger(), loop.SLACredit()
	if pr != nil {
		// Attached at the churn boundary: heat bin e is exactly epoch e.
		loop.SetProbe(pr)
	}

	perEpoch := float64(lopts.EpochCycles * inputs)
	for e := 0; e < lopts.Epochs; e++ {
		reachable, deadFrac, err := step(loop)
		if err != nil {
			p.err = err
			return p
		}
		before, slaBefore := loop.Ledger(), loop.SLACredit()
		loop.ResetLatency()
		for c := 0; c < lopts.EpochCycles; c++ {
			if _, p.err = loop.Cycle(); p.err != nil {
				return p
			}
		}
		if p.err = loop.CheckConservation(); p.err != nil {
			p.err = fmt.Errorf("epoch %d: %w", e, p.err)
			return p
		}
		after := loop.Ledger()
		p.goodput.Add(e, float64(after.Completed-before.Completed)/perEpoch)
		if offered := after.Offered - before.Offered; offered > 0 {
			p.sla.Add(e, (loop.SLACredit()-slaBefore)/float64(offered))
		}
		if loop.Latency().N() > 0 {
			// A blackout epoch completing nothing has no latency
			// observation; an empty-histogram quantile would read as a
			// perfect tail.
			p.p95.Add(e, loop.Latency().Quantile(0.95))
		}
		p.retries.Add(e, float64(after.Retries-before.Retries)/perEpoch)
		p.timeouts.Add(e, float64(after.Timeouts-before.Timeouts)/perEpoch)
		p.reachable.Add(e, reachable)
		p.deadFrac.Add(e, deadFrac)
	}
	p.led = ledgerDelta(loop.Ledger(), warmLed)
	p.credit = loop.SLACredit() - warmSLA
	p.offered = p.led.Offered
	if pr != nil {
		p.rep = pr.Report()
	}
	return p
}

// runClosedLoopLifetime fans a closed-loop lifetime across shards —
// seeds derived exactly as runLifetimeShards derives them, so the EDN
// and dilated sweeps stay replay-matched — and merges series, ledger
// and aggregates.
func runClosedLoopLifetime(inputs, outputs int, lopts LifetimeOptions, lo closedloop.Options, opts Options, shards int, shard func(w int, procSeed, trafficSeed uint64) closedLoopLifetimePartial) (ClosedLoopLifetimeResult, error) {
	root := xrand.New(opts.Seed ^ 0x5bf0_3635_d1c2_a94f)
	type shardSeed struct{ proc, traffic uint64 }
	seeds := make([]shardSeed, shards)
	for w := range seeds {
		seeds[w] = shardSeed{proc: root.Uint64() | 1, traffic: root.Uint64() | 1}
	}
	parts := make([]closedLoopLifetimePartial, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = shard(w, seeds[w].proc, seeds[w].traffic)
		}(w)
	}
	wg.Wait()

	res := ClosedLoopLifetimeResult{
		Rate:          lopts.Load,
		Epochs:        lopts.Epochs,
		EpochCycles:   lopts.EpochCycles,
		Shards:        shards,
		Goodput:       stats.NewTimeSeries(lopts.Epochs),
		SLAAttainment: stats.NewTimeSeries(lopts.Epochs),
		LatencyP95:    stats.NewTimeSeries(lopts.Epochs),
		Retries:       stats.NewTimeSeries(lopts.Epochs),
		Timeouts:      stats.NewTimeSeries(lopts.Epochs),
		Reachable:     stats.NewTimeSeries(lopts.Epochs),
		DeadFraction:  stats.NewTimeSeries(lopts.Epochs),
	}
	var credit float64
	var offered int64
	for w := range parts {
		p := &parts[w]
		if p.err != nil {
			return ClosedLoopLifetimeResult{}, p.err
		}
		for _, s := range []struct{ into, from *stats.TimeSeries }{
			{res.Goodput, p.goodput},
			{res.SLAAttainment, p.sla},
			{res.LatencyP95, p.p95},
			{res.Retries, p.retries},
			{res.Timeouts, p.timeouts},
			{res.Reachable, p.reachable},
			{res.DeadFraction, p.deadFrac},
		} {
			if err := s.into.Merge(s.from); err != nil {
				return ClosedLoopLifetimeResult{}, err
			}
		}
		ledgerAdd(&res.Ledger, p.led)
		credit += p.credit
		offered += p.offered
		if p.rep != nil {
			if res.Observed == nil {
				res.Observed = p.rep
			} else if err := res.Observed.Merge(p.rep); err != nil {
				return ClosedLoopLifetimeResult{}, err
			}
		}
	}
	res.GoodputOverall = res.Goodput.MeanOverall()
	if offered > 0 {
		// Clamp the same warmup boundary effect as the rate sweep.
		res.SLAAttainmentOverall = min(1, credit/float64(offered))
	} else {
		res.SLAAttainmentOverall = 1
	}
	res.CostOfDowntime = 1 - res.SLAAttainmentOverall
	return res, nil
}

// closedLoopLifetimeDefaults validates the shared knobs. The demand
// rate comes from lopts.Load and must be a probability.
func closedLoopLifetimeDefaults(lopts LifetimeOptions) (LifetimeOptions, error) {
	if lopts.Epochs <= 0 {
		return lopts, fmt.Errorf("simulate: closed-loop lifetime needs a positive epoch count")
	}
	if lopts.EpochCycles <= 0 {
		lopts.EpochCycles = 200
	}
	if lopts.Load <= 0 {
		lopts.Load = 0.5
	}
	if lopts.Load > 1 {
		return lopts, fmt.Errorf("simulate: closed-loop demand rate %g must be a probability", lopts.Load)
	}
	return lopts, nil
}

// ClosedLoopLifetimeSweep runs the closed-loop workload over an EDN's
// whole service life: both fabrics (requests and replies) churn under
// independent replicas of lopts.Spec, the running engines are re-masked
// in place at every epoch boundary, the sources' avoidance list follows
// the forward fabric's reachable-output set, and every epoch records
// goodput, SLA attainment, tail latency and retry pressure. The
// request-ledger conservation invariant is asserted at every epoch of
// every shard. lopts.Load is the per-source demand probability;
// lopts.Threshold is unused here (the SLA curve in lo plays that role).
func ClosedLoopLifetimeSweep(cfg topology.Config, lopts LifetimeOptions, lo closedloop.Options, qopts queuesim.Options, opts Options, shards int) (ClosedLoopLifetimeResult, error) {
	if err := cfg.Validate(); err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	opts = opts.withDefaults()
	lopts, err := closedLoopLifetimeDefaults(lopts)
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	if qopts.Factory == nil {
		qopts.Factory = opts.Factory
	}
	shards, err = normalizeShards(shards, 0)
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	qopts.Faults = nil // the lifetime starts healthy; epochs swap masks in

	res, err := runClosedLoopLifetime(cfg.Inputs(), cfg.Outputs(), lopts, lo, opts, shards, func(w int, procSeed, trafficSeed uint64) closedLoopLifetimePartial {
		procRoot := xrand.New(procSeed)
		fwdProc, err := lifecycle.New(cfg, lopts.Spec, procRoot.Split())
		if err != nil {
			return closedLoopLifetimePartial{err: err}
		}
		revProc, err := lifecycle.New(cfg, lopts.Spec, procRoot.Split())
		if err != nil {
			return closedLoopLifetimePartial{err: err}
		}
		var fwdNet, revNet *queuesim.Network
		build := func() (closedloop.Engine, closedloop.Engine, error) {
			if fwdNet, err = queuesim.New(cfg, qopts); err != nil {
				return nil, nil, err
			}
			if revNet, err = queuesim.New(cfg, qopts); err != nil {
				return nil, nil, err
			}
			return fwdNet, revNet, nil
		}
		live := make([]bool, cfg.Outputs())
		step := func(loop *closedloop.Loop) (float64, float64, error) {
			fwdMasks, err := faults.Compile(cfg, fwdProc.Step())
			if err != nil {
				return 0, 0, err
			}
			revMasks, err := faults.Compile(cfg, revProc.Step())
			if err != nil {
				return 0, 0, err
			}
			if err := fwdNet.UpdateFaults(fwdMasks); err != nil {
				return 0, 0, err
			}
			if err := revNet.UpdateFaults(revMasks); err != nil {
				return 0, 0, err
			}
			reach := fwdMasks.ReachableOutputsInto(live)
			if err := loop.SetLiveOutputs(live); err != nil {
				return 0, 0, err
			}
			return float64(reach) / float64(cfg.Outputs()), fwdProc.DeadFraction(), nil
		}
		slo := lo
		slo.Rate = lopts.Load
		slo.Seed = trafficSeed
		return runClosedLoopLifetimeShard(build, cfg.Inputs(), cfg.Outputs(), lopts, slo, opts.Warmup, lifetimeProbe(opts.Probe, lopts, w), step)
	})
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	res.Config = cfg
	res.Spec = lopts.Spec
	res.Window = lo.Window
	res.Depth = qopts.Depth
	res.Policy = qopts.Policy
	res.Retry = lo.Retry
	return res, nil
}

// DilatedClosedLoopLifetimeSweep is ClosedLoopLifetimeSweep over a
// dilated delta under sub-wire churn (both fabrics churned by
// independent renewal processes with lopts.Spec's MTBF/MTTR/Timing, as
// in DilatedLifetimeSweep the population is always the sub-wires). Same
// Options derive the same shard seeds as the EDN sweep, so the two
// sides of a counterpart comparison face identically distributed
// outages under bit-identical demand.
func DilatedClosedLoopLifetimeSweep(dcfg dilated.Config, lopts LifetimeOptions, lo closedloop.Options, dopts dilatedsim.Options, opts Options, shards int) (ClosedLoopLifetimeResult, error) {
	if err := dcfg.Validate(); err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	opts = opts.withDefaults()
	lopts, err := closedLoopLifetimeDefaults(lopts)
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	if dopts.Factory == nil {
		dopts.Factory = opts.Factory
	}
	shards, err = normalizeShards(shards, 0)
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	dopts.Faults = nil
	ports := dcfg.Ports()

	res, err := runClosedLoopLifetime(ports, ports, lopts, lo, opts, shards, func(w int, procSeed, trafficSeed uint64) closedLoopLifetimePartial {
		procRoot := xrand.New(procSeed)
		fwdChurn, err := dilatedsim.NewChurn(dcfg, lopts.Spec.MTBF, lopts.Spec.MTTR, lopts.Spec.Timing, procRoot.Split())
		if err != nil {
			return closedLoopLifetimePartial{err: err}
		}
		revChurn, err := dilatedsim.NewChurn(dcfg, lopts.Spec.MTBF, lopts.Spec.MTTR, lopts.Spec.Timing, procRoot.Split())
		if err != nil {
			return closedLoopLifetimePartial{err: err}
		}
		var fwdNet, revNet *dilatedsim.Network
		build := func() (closedloop.Engine, closedloop.Engine, error) {
			if fwdNet, err = dilatedsim.New(dcfg, dopts); err != nil {
				return nil, nil, err
			}
			if revNet, err = dilatedsim.New(dcfg, dopts); err != nil {
				return nil, nil, err
			}
			return fwdNet, revNet, nil
		}
		live := make([]bool, ports)
		step := func(loop *closedloop.Loop) (float64, float64, error) {
			fwdMasks, err := dilatedsim.Compile(dcfg, fwdChurn.Step())
			if err != nil {
				return 0, 0, err
			}
			revMasks, err := dilatedsim.Compile(dcfg, revChurn.Step())
			if err != nil {
				return 0, 0, err
			}
			if err := fwdNet.UpdateFaults(fwdMasks); err != nil {
				return 0, 0, err
			}
			if err := revNet.UpdateFaults(revMasks); err != nil {
				return 0, 0, err
			}
			reach := fwdMasks.ReachableOutputsInto(live)
			if err := loop.SetLiveOutputs(live); err != nil {
				return 0, 0, err
			}
			return float64(reach) / float64(ports), fwdChurn.DeadFraction(), nil
		}
		slo := lo
		slo.Rate = lopts.Load
		slo.Seed = trafficSeed
		return runClosedLoopLifetimeShard(build, ports, ports, lopts, slo, opts.Warmup, lifetimeProbe(opts.Probe, lopts, w), step)
	})
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	res.Dilated = dcfg
	res.Spec = lopts.Spec
	res.Window = lo.Window
	res.Depth = dopts.Depth
	res.Policy = dopts.Policy
	res.Retry = lo.Retry
	return res, nil
}
