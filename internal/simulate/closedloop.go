package simulate

import (
	"fmt"

	"edn/internal/anatomy"
	"edn/internal/closedloop"
	"edn/internal/dilated"
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

// loopEngines builds the two engine instances of a closed loop over f:
// requests forward, replies back through the Outputs/Inputs
// concentrator.
func (f Fabric) loopEngines(opts Options) (fwd, rev engine, err error) {
	if fwd, err = f.engine(opts); err != nil {
		return engine{}, engine{}, err
	}
	rev, err = f.engine(opts)
	return fwd, rev, err
}

// runClosedLoopShard builds a fresh loop over fresh engines of f, runs
// r.opts.Warmup + r.opts.Cycles cycles and returns the
// measurement-window deltas of the first r.share measured cycles,
// asserting conservation and calling r.atShare the moment they are
// taken. The probe and the anatomy collector in r.opts attach at the
// measurement boundary and keep running to the end (see runPoint).
func runClosedLoopShard(f Fabric, lo closedloop.Options, r shardRun) closedLoopPartial {
	run, share := r.opts, r.share
	inputs, outputs := f.net.ports()
	r.building.Lock()
	fwd, rev, err := f.loopEngines(run)
	var loop *closedloop.Loop
	if err == nil {
		loop, err = closedloop.New(fwd.net, rev.net, inputs, outputs, lo)
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

// sweepClosedLoopPoint measures one demand-rate point on f — point
// `index` on the sweep's rate axis — with shard seeds derived from
// (opts.Seed, index) exactly as a load sweep's point derives them, so
// the same Options give an EDN sweep and its dilated counterpart the
// same demand streams. When opts.Probe or opts.Anatomy is set, shard 0
// doubles as the point's observation run (see runPoint): it runs the
// full cycle budget under seeds[0] with the observers attached from the
// measurement boundary, contributes its measured partial from its share
// boundary, and fills Observed, so the merge stays bit-identical to an
// unobserved sweep. Callers must have normalized shards and applied
// opts.withDefaults.
func sweepClosedLoopPoint(f Fabric, rate float64, index int, lo closedloop.Options, opts Options, shards int) (ClosedLoopResult, error) {
	parts := make([]closedLoopPartial, shards)
	res := ClosedLoopResult{Rate: rate, Shards: shards}
	err := runPoint(opts, index, shards, func(w int, r shardRun) {
		slo := lo
		slo.Rate = rate
		slo.Seed = r.seed
		parts[w] = runClosedLoopShard(f, slo, r)
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
		inputs, _ := f.net.ports()
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
// over f at each demand rate: two engine instances (requests forward,
// replies back through the Outputs/Inputs concentrator, the identity on
// a dilated delta), W outstanding requests per source, timeout/retry
// per lo. Results carry goodput vs offered demand, the end-to-end
// latency histogram, and the full retry/timeout/give-up ledger. lo.Rate
// and lo.Seed are overridden per rate point and shard. shards 0 selects
// GOMAXPROCS; results are deterministic for a fixed (seed, shards)
// pair, and the same Options draw bit-identical demand on every
// fabric.
func MeasureClosedLoop(f Fabric, rates []float64, lo closedloop.Options, opts Options, shards int) ([]ClosedLoopResult, error) {
	return sweep(rates, func(i int, rate float64) (ClosedLoopResult, error) {
		return ClosedLoopPoint(f, rate, i, lo, opts, shards)
	})
}

// MeasureClosedLoopPair runs the replay-matched comparison of two
// fabrics, normally an EDN and its dilated counterpart: both sweeps
// under the same Options, then a hard assertion that every rate point
// offered a bit-equal demand count on both sides — the demand streams
// are seed-derived, so anything else means the replay matching broke
// and the comparison is invalid. The fabrics must have equal input
// counts (dilated.Counterpart arranges this).
func MeasureClosedLoopPair(a, b Fabric, rates []float64, lo closedloop.Options, opts Options, shards int) (aRes, bRes []ClosedLoopResult, err error) {
	ai, _ := a.net.ports()
	bi, _ := b.net.ports()
	if ai != bi {
		return nil, nil, fmt.Errorf("simulate: closed-loop pair needs matching source counts, %v has %d inputs, %v has %d", a, ai, b, bi)
	}
	if aRes, err = MeasureClosedLoop(a, rates, lo, opts, shards); err != nil {
		return nil, nil, err
	}
	if bRes, err = MeasureClosedLoop(b, rates, lo, opts, shards); err != nil {
		return nil, nil, err
	}
	for i := range aRes {
		if ao, bo := aRes[i].Ledger.Offered, bRes[i].Ledger.Offered; ao != bo {
			return nil, nil, fmt.Errorf("simulate: closed-loop pair replay mismatch at rate %.3f: %v offered %d, %v %d",
				aRes[i].Rate, a, ao, b, bo)
		}
	}
	return aRes, bRes, nil
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

// runClosedLoopLifetimeShard simulates one closed-loop lifetime of f:
// both engines churn under independent replicas of lopts.Spec drawn
// from procSeed, the sources' avoidance list follows the forward
// engine's reachable outputs, and after a fault-free warmup every epoch
// swaps the masks in, runs EpochCycles cycles and records, with the
// full conservation invariant asserted at every epoch boundary.
func runClosedLoopLifetimeShard(f Fabric, lopts LifetimeOptions, lo closedloop.Options, opts Options, pr *probe.Probe, procSeed uint64) closedLoopLifetimePartial {
	p := closedLoopLifetimePartial{
		goodput:   stats.NewTimeSeries(lopts.Epochs),
		sla:       stats.NewTimeSeries(lopts.Epochs),
		p95:       stats.NewTimeSeries(lopts.Epochs),
		retries:   stats.NewTimeSeries(lopts.Epochs),
		timeouts:  stats.NewTimeSeries(lopts.Epochs),
		reachable: stats.NewTimeSeries(lopts.Epochs),
		deadFrac:  stats.NewTimeSeries(lopts.Epochs),
	}
	procRoot := xrand.New(procSeed)
	fwdChurn, err := f.net.churn(lopts.Spec, procRoot.Split())
	if err != nil {
		return closedLoopLifetimePartial{err: err}
	}
	revChurn, err := f.net.churn(lopts.Spec, procRoot.Split())
	if err != nil {
		return closedLoopLifetimePartial{err: err}
	}
	inputs, outputs := f.net.ports()
	fwd, rev, err := f.loopEngines(opts)
	var loop *closedloop.Loop
	if err == nil {
		loop, err = closedloop.New(fwd.net, rev.net, inputs, outputs, lo)
	}
	if err != nil {
		p.err = err
		return p
	}
	live := make([]bool, outputs)
	for c := 0; c < opts.Warmup; c++ {
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
		fwdMasks, err := fwdChurn.step()
		var revMasks faultMasks
		if err == nil {
			revMasks, err = revChurn.step()
		}
		if err == nil {
			err = fwd.setFaults(fwdMasks)
		}
		if err == nil {
			err = rev.setFaults(revMasks)
		}
		reach := 0
		if err == nil {
			reach = fwdMasks.ReachableOutputsInto(live)
			err = loop.SetLiveOutputs(live)
		}
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
		p.reachable.Add(e, float64(reach)/float64(outputs))
		p.deadFrac.Add(e, fwdChurn.DeadFraction())
	}
	p.led = ledgerDelta(loop.Ledger(), warmLed)
	p.credit = loop.SLACredit() - warmSLA
	p.offered = p.led.Offered
	if pr != nil {
		p.rep = pr.Report()
	}
	return p
}

// mergeClosedLoopLifetimes merges the shard lifetimes' series, ledgers
// and probe reports exactly and derives the aggregates.
func mergeClosedLoopLifetimes(lopts LifetimeOptions, shards int, parts []closedLoopLifetimePartial) (ClosedLoopLifetimeResult, error) {
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

// ClosedLoopLifetimeSweep runs the closed-loop workload over f's whole
// service life: both engines (requests and replies) churn under
// independent replicas of lopts.Spec (see LifetimeSweep for what each
// fabric churns), the running engines are re-masked in place at every
// epoch boundary, the sources' avoidance list follows the forward
// engine's reachable-output set, and every epoch records goodput, SLA
// attainment, tail latency and retry pressure. The request-ledger
// conservation invariant is asserted at every epoch of every shard.
// lopts.Load is the per-source demand probability (default 0.5);
// lopts.Threshold is unused here (the SLA curve in lo plays that
// role). The same Options derive the same shard seeds on every fabric,
// so the two sides of a counterpart comparison face identically
// distributed outages under bit-identical demand.
func ClosedLoopLifetimeSweep(f Fabric, lopts LifetimeOptions, lo closedloop.Options, opts Options, shards int) (ClosedLoopLifetimeResult, error) {
	if err := f.net.validate(); err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	opts = opts.withDefaults()
	lopts, err := lopts.withDefaults(f, 0.5)
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	shards, err = normalizeShards(shards, 0)
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	parts := lifetimeShards(opts, shards, func(w int, procSeed, trafficSeed uint64) closedLoopLifetimePartial {
		slo := lo
		slo.Rate = lopts.Load
		slo.Seed = trafficSeed
		return runClosedLoopLifetimeShard(f.withFaults(nil), lopts, slo, opts, lifetimeProbe(opts.Probe, lopts, w), procSeed)
	})
	res, err := mergeClosedLoopLifetimes(lopts, shards, parts)
	if err != nil {
		return ClosedLoopLifetimeResult{}, err
	}
	f.net.label(&res.Config, &res.Dilated)
	res.Spec = lopts.Spec
	res.Window = lo.Window
	res.Depth = f.regime.Depth
	res.Policy = f.regime.Policy
	res.Retry = lo.Retry
	return res, nil
}
