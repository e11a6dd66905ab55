// Package simulate drives Monte-Carlo experiments. The paper evaluates
// EDNs purely with closed forms; this package provides the independent
// measurement side, so every analytical figure in EXPERIMENTS.md can be
// cross-checked against a discrete-event run with the identical switch
// semantics.
//
// One circuit-switched kernel sits under both harnesses here:
// wiring.State.Route, the paper's Section 2 cycle over a wiring. The
// request-level harness (MeasurePA and its relatives) reads it through
// internal/core's EDN router, with per-request Outcomes and per-stage
// blocking. The packet harness drives the queuesim engine over a Fabric
// — an EDN, or the dilated delta that spends the same wire budget on
// replicated links — with one function per measurement mode: latency,
// saturation sweeps and points, the permutation drain, availability
// sweeps and points, lifetimes, closed loops and their points, and
// closed-loop lifetimes. At depth 0 under Drop that engine runs the
// same kernel, so a latency sweep measures either fabric's
// circuit-switched acceptance. Everything that differs between the two
// fabrics (wiring, fault model, result label) sits behind Fabric in
// fabric.go, so the shard fan-out, seeding, observation and merge code
// is written once and the same Options replay the same traffic on
// either fabric.
package simulate

import (
	"fmt"
	"time"

	"edn/internal/anatomy"
	"edn/internal/core"
	"edn/internal/probe"
	"edn/internal/stats"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// Options configures a measurement run.
type Options struct {
	Cycles  int                 // number of network cycles to simulate (default 1000)
	Warmup  int                 // cycles discarded before measuring (default 0)
	Seed    uint64              // RNG seed for the traffic source (default 1)
	Factory core.ArbiterFactory // switch arbitration (default: paper's priority rule)

	// Probe, when non-nil, attaches a flight-recorder probe to the
	// measurement and fills the result's Observed report: sampled packet
	// traces plus per-stage heat series over the measurement window.
	// Rate sweeps probe shard 0 only, which then runs the full cycle
	// budget and contributes its measured partial from its share
	// boundary (see runPoint); lifetime sweeps pool per-shard heat
	// probes. Either way the measured results are bit-identical with and
	// without a probe.
	Probe *probe.Options

	// Anatomy, when non-nil, attaches a latency-anatomy collector to the
	// measurement: per-stage wait/block/service attribution, switch
	// blame, congestion trees and flow breakdowns (plus the five-way
	// request split for closed loops), delivered through OnAnatomy.
	// Like Probe, sharded sweeps attach the collector to shard 0's
	// full-budget run under seeds[0] only, so the measured results are
	// bit-identical with and without it and the report is invariant to
	// the shard count.
	Anatomy *anatomy.Options

	// OnAnatomy receives each measured point's anatomy report when
	// Anatomy is set: once per point, from the measuring goroutine,
	// after the point's observation run completes.
	OnAnatomy func(*anatomy.Report)

	// OnStage, when non-nil, observes the coarse execution stages of a
	// sharded measurement as they complete: one "shard" event per shard
	// run (shard index, cycle share; shard 0's ends at its share
	// boundary), one "merge" for the exact-merge step, and, when Probe
	// or Anatomy is set, one "observe" timing the observed cycles shard
	// 0 runs beyond its share. Shard events fire concurrently from
	// shard goroutines.
	// Observation-only, like Probe: set or nil, the measured results
	// are bit-identical — the serve layer feeds it into a job's span
	// tree.
	OnStage StageTimer
}

// StageTimer receives one completed execution stage: its name, the
// shard index (-1 for whole-point stages like merge), the stage's cycle
// share (0 when not meaningful), and its wall-clock start and duration.
type StageTimer func(stage string, shard, cycles int, start time.Time, d time.Duration)

// newProbe instantiates a measurement probe: the zero BinCycles means
// "split the measured window across the configured bins", which is the
// natural default for a one-shot run of measCycles cycles.
func newProbe(po *probe.Options, measCycles int) *probe.Probe {
	if po == nil {
		return nil
	}
	p := *po
	bins := p.Bins
	if bins <= 0 {
		bins = 64
	}
	if p.BinCycles <= 0 {
		p.BinCycles = (measCycles + bins - 1) / bins
		if p.BinCycles <= 0 {
			p.BinCycles = 1
		}
	}
	return probe.New(p)
}

func (o Options) withDefaults() Options {
	if o.Cycles <= 0 {
		o.Cycles = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result aggregates a measurement run.
type Result struct {
	Config  topology.Config
	Pattern string
	Cycles  int
	// PA is the measured probability of acceptance: total delivered over
	// total offered.
	PA float64
	// PACI is the 95% confidence half-width of the per-cycle PA mean.
	PACI float64
	// Bandwidth is the mean number of requests delivered per cycle.
	Bandwidth float64
	// OfferedRate is the measured per-input request probability.
	OfferedRate float64
	// BlockedPerStage[s-1] is the total number of requests dropped at
	// stage s across the run.
	BlockedPerStage []int

	// Observed carries the flight-recorder report when Options.Probe
	// was set: sampled request traces and per-stage heat series over
	// the measurement window.
	Observed *probe.Report

	// paAcc retains the per-cycle PA accumulator so parallel runs can
	// merge confidence intervals exactly.
	paAcc *stats.Accumulator
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%v %s: PA=%.4f (+-%.4f), BW=%.1f req/cycle over %d cycles",
		r.Config, r.Pattern, r.PA, r.PACI, r.Bandwidth, r.Cycles)
}

// MeasurePA runs pattern through the network for the configured number of
// cycles and reports acceptance statistics. Fresh requests are drawn each
// cycle; rejected requests are discarded, matching the Section 3.2
// assumption that blocked requests do not influence later cycles.
func MeasurePA(cfg topology.Config, pattern traffic.Pattern, opts Options) (Result, error) {
	res, _, err := measurePA(cfg, pattern, opts)
	return res, err
}

// measurePA is MeasurePA plus the raw per-cycle accumulator, which the
// parallel harness merges across workers.
//
// The steady-state loop is allocation-free: the request and outcome
// vectors are reused every cycle, patterns implementing
// traffic.IntoGenerator fill the request vector in place (all the
// built-in patterns do), and RouteCycleInto reuses the network's own
// scratch.
func measurePA(cfg topology.Config, pattern traffic.Pattern, opts Options) (Result, *stats.Accumulator, error) {
	opts = opts.withDefaults()
	net, err := core.NewNetwork(cfg, opts.Factory)
	if err != nil {
		return Result{}, nil, err
	}
	res := Result{
		Config:          cfg,
		Pattern:         pattern.Name(),
		Cycles:          opts.Cycles,
		BlockedPerStage: make([]int, cfg.Stages()),
	}
	var paAcc stats.Accumulator
	offered, delivered := 0, 0
	inputs, outputs := cfg.Inputs(), cfg.Outputs()
	dest := make([]int, inputs)
	outcomes := make([]core.Outcome, inputs)
	gen, inPlace := pattern.(traffic.IntoGenerator)
	pr := newProbe(opts.Probe, opts.Cycles)
	for cycle := 0; cycle < opts.Warmup+opts.Cycles; cycle++ {
		if cycle == opts.Warmup && pr != nil {
			net.SetProbe(pr)
		}
		if inPlace {
			gen.GenerateInto(dest, outputs)
		} else {
			dest = pattern.Generate(inputs, outputs)
		}
		cs, err := net.RouteCycleInto(dest, outcomes)
		if err != nil {
			return Result{}, nil, err
		}
		if cycle < opts.Warmup {
			continue
		}
		offered += cs.Offered
		delivered += cs.Delivered
		if cs.Offered > 0 {
			paAcc.Add(cs.PA())
		}
		for s, b := range cs.Blocked {
			res.BlockedPerStage[s] += b
		}
	}
	if offered > 0 {
		res.PA = float64(delivered) / float64(offered)
	} else {
		res.PA = 1
	}
	res.PACI = paAcc.CI95()
	res.Bandwidth = float64(delivered) / float64(opts.Cycles)
	res.OfferedRate = float64(offered) / float64(opts.Cycles*cfg.Inputs())
	if pr != nil {
		res.Observed = pr.Report()
	}
	return res, &paAcc, nil
}

// MeasureUniformPA is the common case: Section 3.2 uniform traffic at
// offered rate r.
func MeasureUniformPA(cfg topology.Config, r float64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	rng := xrand.New(opts.Seed)
	return MeasurePA(cfg, traffic.Uniform{Rate: r, Rng: rng}, opts)
}

// MeasurePermutationPA measures acceptance under fresh random
// permutations each cycle (the Section 3.2.1 regime).
func MeasurePermutationPA(cfg topology.Config, opts Options) (Result, error) {
	opts = opts.withDefaults()
	rng := xrand.New(opts.Seed)
	return MeasurePA(cfg, &traffic.RandomPermutation{Rng: rng}, opts)
}
