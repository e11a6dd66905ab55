package simulate

import (
	"fmt"
	"sync"
	"time"

	"edn/internal/anatomy"
	"edn/internal/dilated"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/stats"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// LatencyResult aggregates one queueing measurement: throughput plus the
// delivery-latency distribution of the packets retired inside the
// measurement window. The measured Fabric names itself in Config (an
// EDN) or Dilated (a dilated delta), leaving the other zero; the stat
// fields mean the same thing on either fabric, which is what lets the
// CLIs print the two curves side by side.
type LatencyResult struct {
	Config  topology.Config
	Dilated dilated.Config // set instead of Config for dilated runs
	Pattern string
	Depth   int
	Policy  queuesim.Policy
	Cycles  int // measured cycles (warmup excluded), summed across shards
	Shards  int

	// Packet counters over the measurement window.
	Injected  int64 // packets offered at the inputs
	Refused   int64 // injections rejected at a full input
	Delivered int64
	Dropped   int64 // discarded mid-network (Drop policy only)

	// OfferedRate is offered packets per input per cycle; Throughput is
	// delivered packets per cycle; AcceptedFraction is delivered over
	// offered — the queueing analog of PA.
	OfferedRate      float64
	Throughput       float64
	AcceptedFraction float64
	// AvgQueued is the mean number of in-flight packets, sampled once
	// per cycle after injection (Little's law: AvgQueued/Throughput
	// approximates the mean latency at steady state).
	AvgQueued float64

	// Latency quantiles in cycles, over packets retired in the window.
	LatencyMean float64
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64
	LatencyMax  float64
	// Histogram is the full merged distribution backing the quantiles.
	Histogram *stats.Histogram

	// Observed carries the flight-recorder report when Options.Probe
	// was set. Sharded sweeps fill it from shard 0, which runs the full
	// cycle budget with the probe attached and feeds the counters above
	// only its own share; the report covers the whole window and is
	// deterministic for a given Options regardless of shard count.
	Observed *probe.Report
}

// Network names the measured network: the EDN configuration, or the
// dilated delta on a dilated fabric.
func (r LatencyResult) Network() string {
	if r.Config == (topology.Config{}) {
		return r.Dilated.String()
	}
	return r.Config.String()
}

// String renders the headline numbers.
func (r LatencyResult) String() string {
	return fmt.Sprintf("%s %s depth=%d %v: offered=%.3f thr=%.1f/cycle lat mean=%.1f p50=%.0f p95=%.0f p99=%.0f",
		r.Network(), r.Pattern, r.Depth, r.Policy, r.OfferedRate, r.Throughput,
		r.LatencyMean, r.LatencyP50, r.LatencyP95, r.LatencyP99)
}

// fillQuantiles derives the summary fields from the histogram and
// counters.
func (r *LatencyResult) fillQuantiles(inputs int) {
	h := r.Histogram
	r.LatencyMean = h.Mean()
	r.LatencyP50 = h.Quantile(0.50)
	r.LatencyP95 = h.Quantile(0.95)
	r.LatencyP99 = h.Quantile(0.99)
	r.LatencyMax = h.Max()
	if r.Cycles > 0 {
		r.Throughput = float64(r.Delivered) / float64(r.Cycles)
		r.OfferedRate = float64(r.Injected) / float64(r.Cycles*inputs)
	}
	if r.Injected > 0 {
		r.AcceptedFraction = float64(r.Delivered) / float64(r.Injected)
	} else {
		r.AcceptedFraction = 1
	}
}

// shardRun is one run of a sweep point's shard as runPoint hands it to
// the measuring code: the traffic seed, the run's options (warmup,
// cycle budget, observers), the number of measured cycles the merge
// takes from it, and the two handles runPoint keeps on it.
type shardRun struct {
	seed uint64
	opts Options
	// share is how many cycles of the window the measured partial
	// covers: opts.Cycles for a plain run, shard 0's share of the point
	// budget when shard 0 is also the observation run.
	share int
	// building is held while the run constructs its engines.
	building sync.Locker
	// atShare, when set, is called the moment the measured partial is
	// taken.
	atShare func()
}

// singleRun is the shardRun of a one-shot measurement: the whole budget
// measured, nothing to coordinate with.
func singleRun(opts Options) shardRun {
	return shardRun{opts: opts, share: opts.Cycles, building: new(sync.Mutex)}
}

// measurePacketEngine drives pattern through net for opts.Warmup +
// opts.Cycles cycles and fills res's counters, histogram and quantiles
// over the first r.share measured cycles, calling r.atShare the moment
// they are taken; the attached observers keep running to the end of
// opts.Cycles, so shard 0 of an observed sweep point yields both its
// measured partial and the point's observation from one run.
// Latencies retired during warmup are discarded; packets injected
// during warmup but retired inside the window do count, and the
// window's still-queued survivors not at all — the standard open-loop
// truncation.
func measurePacketEngine(net *queuesim.Engine, inputs, outputs int, pattern traffic.Pattern, r shardRun, res *LatencyResult) error {
	opts, share := r.opts, r.share
	dest := make([]int, inputs)
	gen, inPlace := pattern.(traffic.IntoGenerator)
	var queuedSum int64
	var before queuesim.Totals
	pr := newProbe(opts.Probe, opts.Cycles)
	var an *anatomy.Collector
	if opts.Anatomy != nil {
		// Unlike the probe, the collector attaches at cycle 0: its FIFO
		// mirrors must see every injection to stay in lockstep with the
		// engine's queues, and attributing a packet's full latency means
		// observing its whole life. The ledgers therefore include warmup
		// traffic — attribution has no truncation to hide behind.
		an = anatomy.New(*opts.Anatomy)
		net.SetAnatomy(an)
	}
	split := opts.Warmup + share
	for cycle := 0; cycle < opts.Warmup+opts.Cycles; cycle++ {
		if cycle == opts.Warmup {
			net.ResetLatency()
			before = net.Totals()
			if pr != nil {
				// Attach at the measurement boundary so traces and heat
				// bins cover exactly the measured window.
				net.SetProbe(pr)
			}
		}
		if inPlace {
			gen.GenerateInto(dest, outputs)
		} else {
			dest = pattern.Generate(inputs, outputs)
		}
		if _, err := net.Cycle(dest); err != nil {
			return err
		}
		if cycle >= opts.Warmup && cycle < split {
			queuedSum += net.Queued()
		}
		if cycle+1 == split {
			after := net.Totals()
			res.Cycles = share
			res.Injected = after.Injected - before.Injected
			res.Refused = after.Refused - before.Refused
			res.Delivered = after.Delivered - before.Delivered
			res.Dropped = after.Dropped - before.Dropped
			res.AvgQueued = float64(queuedSum) / float64(share)
			res.Histogram = net.Latency().Clone()
			res.fillQuantiles(inputs)
			if r.atShare != nil {
				r.atShare()
			}
		}
	}
	if pr != nil {
		res.Observed = pr.Report()
	}
	if an != nil && opts.OnAnatomy != nil {
		opts.OnAnatomy(an.Report())
	}
	return nil
}

// MeasureLatency drives pattern through one engine of f for
// opts.Warmup + opts.Cycles cycles and reports throughput and the
// latency distribution of the measurement window. The steady-state loop
// is allocation-free for bounded depths: IntoGenerator patterns fill
// the injection vector in place and the engine reuses all ring and
// histogram storage. Destinations are drawn in f's own output space;
// with the same seed and input count, an EDN and its dilated
// counterpart see the identical per-input injection realization (the
// traffic sources draw the inject coin before the destination), which
// is what "same replayed traffic" means across two networks with
// different output counts.
func MeasureLatency(f Fabric, pattern traffic.Pattern, opts Options) (LatencyResult, error) {
	return measureLatency(f, pattern, singleRun(opts.withDefaults()))
}

// measureLatency is MeasureLatency for one shardRun.
func measureLatency(f Fabric, pattern traffic.Pattern, r shardRun) (LatencyResult, error) {
	r.building.Lock()
	e, err := f.engine(r.opts)
	r.building.Unlock()
	if err != nil {
		return LatencyResult{}, err
	}
	res := LatencyResult{Pattern: pattern.Name(), Depth: e.Depth(), Policy: e.Policy(), Shards: 1}
	f.net.label(&res.Config, &res.Dilated)
	inputs, outputs := f.net.ports()
	if err := measurePacketEngine(e.Engine, inputs, outputs, pattern, r, &res); err != nil {
		return LatencyResult{}, err
	}
	return res, nil
}

// LoadPattern builds the traffic source for one offered load; the
// SaturationSweep calls it once per (load, shard) with an independent
// RNG. Nil selects uniform iid traffic at the given rate.
type LoadPattern func(load float64, rng *xrand.Rand) traffic.Pattern

// UniformLoad is the default LoadPattern: iid uniform traffic.
func UniformLoad(load float64, rng *xrand.Rand) traffic.Pattern {
	return traffic.Uniform{Rate: load, Rng: rng}
}

// BurstyLoad returns a LoadPattern of Markov on/off sources with the
// given mean burst length, tuned so the long-run offered load matches
// the sweep's load axis — the apples-to-apples bursty counterpart of
// UniformLoad. Near saturation the requested burst length cannot be
// honored at the requested load (the solved ON-transition probability
// would exceed 1), so the source pins POn at 1 and lengthens the bursts
// to load/(1-load) instead — the load axis stays exact, which is what
// the sweep compares against.
func BurstyLoad(meanBurst float64) LoadPattern {
	if meanBurst < 1 {
		meanBurst = 1
	}
	return func(load float64, rng *xrand.Rand) traffic.Pattern {
		if load >= 1 {
			return traffic.Uniform{Rate: 1, Rng: rng} // saturated: always on
		}
		// duty = pOn/(pOn+pOff) = load (Rate 1 while ON) => pOn solved:
		pOff := 1 / meanBurst
		pOn := load * pOff / (1 - load)
		if pOn > 1 {
			pOn = 1
			pOff = (1 - load) / load // keep duty exactly == load
		}
		return &traffic.MarkovOnOff{Rate: 1, POn: pOn, POff: pOff, Rng: rng}
	}
}

// SaturationSweep measures one LatencyResult per offered load on f:
// the latency-vs-load curve whose knee is the network's saturation
// throughput. Each load point splits opts.Cycles across `shards` fully
// independent runs — own engine, own traffic source, seed derived from
// (opts.Seed, load index) — executed in parallel and merged exactly
// (counter sums and histogram merges), the run-level sharding pattern
// of MeasureUniformPAParallel. Results are deterministic for a fixed
// (seed, shards) pair, and the seeds do not depend on the fabric:
// sweeping an EDN and its dilated counterpart with the same Options
// drives both with identical per-input injection replays, the measured
// two-sided form of the paper's equal-redundancy comparison. shards 0
// selects GOMAXPROCS; src nil selects UniformLoad.
func SaturationSweep(f Fabric, loads []float64, src LoadPattern, opts Options, shards int) ([]LatencyResult, error) {
	return sweep(loads, func(i int, load float64) (LatencyResult, error) {
		return SaturationPoint(f, load, i, src, opts, shards)
	})
}

// sweep measures one point per axis value in order: the batch form of
// every per-point entry point.
func sweep[R any](axis []float64, point func(i int, x float64) (R, error)) ([]R, error) {
	results := make([]R, 0, len(axis))
	for i, x := range axis {
		r, err := point(i, x)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// runShards splits a cycle budget across parallel shards — shard w
// gets cycles/shards cycles plus one of the remainder — and runs
// fn(w, cycles) concurrently for every shard with a non-zero share,
// returning after all complete. It is the fan-out skeleton of every
// budget-split sweep in this package, so every mode on every fabric
// splits its budget, and therefore pairs its shard seeds, the same
// way.
func runShards(totalCycles, shards int, fn func(w, cycles int)) {
	var wg sync.WaitGroup
	per := totalCycles / shards
	extra := totalCycles % shards
	for w := 0; w < shards; w++ {
		cycles := per
		if w < extra {
			cycles++
		}
		if cycles == 0 {
			continue
		}
		wg.Add(1)
		go func(w, cycles int) {
			defer wg.Done()
			fn(w, cycles)
		}(w, cycles)
	}
	wg.Wait()
}

// runPoint measures one point of a sharded sweep — point `index` on the
// sweep's axis — and is the one place the shard fan-out, the
// observation and the stage timings live for both the load and the
// closed-loop sweeps. Shard seeds derive from (opts.Seed, index) up
// front, so the assignment does not depend on scheduling, and shard w
// runs measure(w, r): warmup plus r.share cycles, bare, calling
// r.atShare the moment its measured partial is taken. After every
// shard returns, merge folds the partials.
//
// When opts.Probe or opts.Anatomy is set, shard 0 is also the
// observation run: its run options carry the observers and the full
// cycle budget, and it takes its measured partial at its share boundary
// and keeps running to the end. Observation never perturbs, so that
// partial is bit-identical to a bare shard 0's and the merge cannot
// tell the difference; and because seeds[0] is the first root draw,
// which does not depend on the shard count, the observation is a pure
// function of Options however the measured budget was split. The
// anatomy report reaches opts.OnAnatomy on the calling goroutine after
// the merge, and the "observe" stage times the observed cycles beyond
// shard 0's share.
//
// Shards construct their engines one at a time (r.building), then run
// concurrently. Construction is the point's one allocation burst. When
// every shard allocates at once, the collector's mark phase finds no
// idle CPU, counts the whole burst as live, and sets the next heap
// goal at twice that. Serializing those few milliseconds keeps the
// peak heap near twice the point's live set (EXPERIMENTS.md has the
// measurement).
func runPoint(opts Options, index, shards int, measure func(w int, r shardRun), merge func() error) error {
	root := xrand.New(opts.Seed ^ uint64(index+1)*0x9e3779b97f4a7c15)
	seeds := make([]uint64, shards)
	for i := range seeds {
		seeds[i] = root.Uint64() | 1
	}
	observed := opts.Probe != nil || opts.Anatomy != nil
	var building sync.Mutex
	var anat *anatomy.Report
	var share0 int
	var split, end time.Time // shard 0's share boundary and finish
	runShards(opts.Cycles, shards, func(w, share int) {
		start := time.Now()
		run := opts
		run.Cycles, run.Probe, run.Anatomy, run.OnAnatomy = share, nil, nil, nil
		if w == 0 && observed {
			run = opts
			run.OnAnatomy = func(r *anatomy.Report) { anat = r }
		}
		measure(w, shardRun{seed: seeds[w], opts: run, share: share, building: &building, atShare: func() {
			now := time.Now()
			if w == 0 {
				share0, split = share, now
			}
			if opts.OnStage != nil {
				opts.OnStage("shard", w, share, start, now.Sub(start))
			}
		}})
		if w == 0 {
			end = time.Now()
		}
	})

	mergeStart := time.Now()
	if err := merge(); err != nil {
		return err
	}
	if opts.OnStage != nil {
		opts.OnStage("merge", -1, 0, mergeStart, time.Since(mergeStart))
	}
	if observed {
		if anat != nil && opts.OnAnatomy != nil {
			opts.OnAnatomy(anat)
		}
		if opts.OnStage != nil {
			opts.OnStage("observe", -1, opts.Cycles-share0, split, end.Sub(split))
		}
	}
	return nil
}

// sweepLoadPoint measures one point of a load sweep on f — point
// `index` on the sweep's axis — splitting the cycle budget across
// shards with seeds derived from (opts.Seed, index) (see runPoint) and
// merging counters and histograms exactly. When opts.Probe or
// opts.Anatomy is set, shard 0 doubles as the point's observation run:
// it runs the full cycle budget under seeds[0] with the observers
// attached, contributes its measured partial from its share boundary,
// and fills Observed, so the merge is bit-identical to an unobserved
// point's and the observation is the same for every shard count.
// Callers must have normalized shards and applied opts.withDefaults.
func sweepLoadPoint(f Fabric, load float64, index int, src LoadPattern, opts Options, shards int) (LatencyResult, error) {
	if src == nil {
		src = UniformLoad
	}
	type partial struct {
		res LatencyResult
		err error
	}
	parts := make([]partial, shards)
	var merged LatencyResult
	err := runPoint(opts, index, shards, func(w int, r shardRun) {
		parts[w].res, parts[w].err = measureLatency(f, src(load, xrand.New(r.seed)), r)
	}, func() error {
		var queuedWeighted float64
		first := true
		for w := range parts {
			p := &parts[w]
			if p.err != nil {
				return p.err
			}
			if p.res.Cycles == 0 && p.res.Histogram == nil {
				continue
			}
			if first {
				// Shard 0 comes first, carrying the point's Observed
				// report when it was the observation run.
				merged = p.res
				merged.Histogram = p.res.Histogram.Clone()
				queuedWeighted = p.res.AvgQueued * float64(p.res.Cycles)
				first = false
				continue
			}
			merged.Cycles += p.res.Cycles
			merged.Shards++
			merged.Injected += p.res.Injected
			merged.Refused += p.res.Refused
			merged.Delivered += p.res.Delivered
			merged.Dropped += p.res.Dropped
			queuedWeighted += p.res.AvgQueued * float64(p.res.Cycles)
			if err := merged.Histogram.Merge(p.res.Histogram); err != nil {
				return err
			}
		}
		if merged.Cycles > 0 {
			merged.AvgQueued = queuedWeighted / float64(merged.Cycles)
		}
		inputs, _ := f.net.ports()
		merged.fillQuantiles(inputs)
		return nil
	})
	if err != nil {
		return LatencyResult{}, err
	}
	return merged, nil
}

// DrainResult reports a closed-loop drain experiment: every input
// starts loaded with Q packets and the network runs until all are
// delivered.
type DrainResult struct {
	Config  topology.Config
	Dilated dilated.Config // set instead of Config on a dilated fabric
	Q       int            // packets preloaded per input
	Cycles  int64          // cycles until the last delivery
	// Latency distribution over all delivered packets, measured from
	// network injection to delivery (time spent waiting in the source
	// queue is not included).
	LatencyMean float64
	LatencyP95  float64
	Histogram   *stats.Histogram
}

// Network names the drained network: the EDN configuration, or the
// dilated one for dilated drains.
func (r DrainResult) Network() string {
	if r.Config == (topology.Config{}) {
		return r.Dilated.String()
	}
	return r.Config.String()
}

// DrainPermutations preloads every input of f with q packets — packet
// k of every input drawn from an independent random permutation, the
// Section 5.1 workload of an RA-EDN cluster with q processors per port
// — and runs the network closed-loop (each input re-offers its next
// packet as soon as the network can accept it) until everything is
// delivered. The returned cycle count is the measured counterpart of
// analytic.ExpectedPermutationTime:
//
//   - Depth 0 + Backpressure is exactly the model's regime: an
//     unbuffered single-cycle network in which blocked messages are
//     resubmitted until accepted.
//   - Depth >= 1 / Unbounded quantifies how much interstage buffering
//     shortens the drain below the unbuffered baseline.
//
// The workload needs a square network (permutations over the ports),
// which every dilated delta is. At d=1 the dilated delta and the square
// EDN(b,b,1,l) are the same wiring, so their drains agree bit for bit
// under the same seed.
func DrainPermutations(f Fabric, q int, opts Options) (DrainResult, error) {
	if err := f.net.validate(); err != nil {
		return DrainResult{}, err
	}
	inputs, outputs := f.net.ports()
	if inputs != outputs {
		return DrainResult{}, fmt.Errorf("simulate: permutation drain needs a square network, got %v (%d x %d)", f, inputs, outputs)
	}
	if q < 1 {
		return DrainResult{}, fmt.Errorf("simulate: q=%d packets per input must be positive", q)
	}
	if f.regime.Policy == queuesim.Drop {
		return DrainResult{}, fmt.Errorf("simulate: a drain needs the lossless Backpressure policy")
	}
	opts = opts.withDefaults()
	e, err := f.engine(opts)
	if err != nil {
		return DrainResult{}, err
	}
	res, err := drainPermutations(e.Engine, inputs, q, opts.Seed)
	if err != nil {
		return DrainResult{}, err
	}
	f.net.label(&res.Config, &res.Dilated)
	return res, nil
}

// drainPermutations is the drain loop: preload q permutations, offer
// each input's next packet whenever the input can take it, and run
// until everything is delivered.
func drainPermutations(net *queuesim.Engine, inputs, q int, seed uint64) (DrainResult, error) {
	stages := net.Stages()
	rng := xrand.New(seed)
	// queue[i] holds input i's packets in offer order: one entry from
	// each of q independent permutations.
	queue := make([][]int, inputs)
	perm := make([]int, inputs)
	for k := 0; k < q; k++ {
		rng.PermInto(perm)
		for i, d := range perm {
			queue[i] = append(queue[i], d)
		}
	}
	next := make([]int, inputs) // next packet index to offer per input
	dest := make([]int, inputs)
	total := int64(q) * int64(inputs)
	// The closed loop cannot take longer than every packet being
	// serialized through one output, with generous headroom for the
	// pipeline; use it as the runaway guard.
	maxCycles := int64(q*inputs)*int64(stages+1) + 1000
	var cycles int64
	for net.Totals().Delivered < total {
		if cycles++; cycles > maxCycles {
			return DrainResult{}, fmt.Errorf("simulate: drain of %d packets not finished after %d cycles", total, maxCycles)
		}
		for i := range dest {
			if next[i] < len(queue[i]) && net.InputFree(i) {
				dest[i] = queue[i][next[i]]
				next[i]++
			} else {
				dest[i] = queuesim.NoRequest
			}
		}
		if _, err := net.Cycle(dest); err != nil {
			return DrainResult{}, err
		}
	}
	h := net.Latency().Clone()
	return DrainResult{
		Q:           q,
		Cycles:      cycles,
		LatencyMean: h.Mean(),
		LatencyP95:  h.Quantile(0.95),
		Histogram:   h,
	}, nil
}
