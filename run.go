package edn

import (
	"context"
	"fmt"
	"strconv"

	"edn/internal/netcache"
	"edn/internal/simulate"
)

// GeometryCache is a byte-budgeted LRU of the immutable artifacts job
// construction pays for — interstage routing tables and compiled fault
// masks — shared read-only across concurrently running jobs. A cache
// hit is bit-for-bit identical to a fresh build (sharing is reference
// sharing of slices the engines never write), so cached and uncached
// runs of the same JobSpec produce identical results; the serve layer
// keeps one of these across requests to amortize table construction.
type GeometryCache = netcache.Cache

// GeometryCacheStats is a point-in-time cache effectiveness snapshot.
type GeometryCacheStats = netcache.Stats

// NewGeometryCache returns a cache bounded to budget bytes of cached
// payload; budget <= 0 selects the 256 MiB default.
func NewGeometryCache(budget int64) *GeometryCache { return netcache.New(budget) }

// RunOptions tune how Run executes a job without changing what it
// measures: all fields are invisible in the results.
type RunOptions struct {
	// Cache, when non-nil, supplies prebuilt routing tables and fault
	// masks; results are bit-for-bit those of an uncached run.
	Cache *GeometryCache
	// OnPoint, when non-nil, streams each sweep point as it completes:
	// index is the point's position on the job's axis, total the axis
	// length, and point the same LatencyResult / AvailabilityResult /
	// DilatedAvailabilityResult / ClosedLoopResult the final JobResult
	// carries. Single-shot modes (latency, drain, lifetime, estimate,
	// pair) deliver one call with the whole result. Called
	// sequentially from the Run goroutine.
	OnPoint func(index, total int, point any)
	// Trace, when non-nil, records the job's span tree: validation,
	// table/mask builds with their cache verdicts, per-point execution
	// with per-shard/merge/observe stages. Observation-only — the
	// JobResult is byte-identical with and without a trace.
	Trace *SpanCollector
	// OnExplain, when non-nil, receives the job's latency-anatomy
	// report — only fired when the spec carries an explain section.
	// Sweeps merge their per-point reports into one; the report rides
	// beside the JobResult, never inside it, so result payloads stay
	// byte-identical whether or not anatomy was requested. Called once,
	// from the Run goroutine, after the measurement completes.
	OnExplain func(*AnatomyReport)
}

// EstimateResult answers the estimate mode's co-simulation question:
// measured latency quantiles for traffic near (Src, Dst) under uniform
// background load, plus the analytic acceptance and the reachability
// verdict an external system simulator needs to schedule around
// faults.
type EstimateResult struct {
	Config Config  `json:"config"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Load   float64 `json:"load"`

	// SrcLive and DstReachable report the fault verdict: whether Src
	// can inject at all and whether Dst is reachable from any live
	// input. Both true on a fault-free network.
	SrcLive      bool `json:"src_live"`
	DstReachable bool `json:"dst_reachable"`
	// Hops is the stage count every delivered packet traverses (l
	// hyperbar stages plus the crossbar stage).
	Hops int `json:"hops"`
	// AnalyticPA is Equation 4's acceptance probability at Load.
	AnalyticPA float64 `json:"analytic_pa"`

	// Measured latency quantiles in cycles under uniform background
	// load at Load, from a sharded measurement run (zero cycles when
	// Src cannot inject or Dst is unreachable — the estimate is then
	// "undeliverable", not a number).
	Cycles      int     `json:"cycles"`
	Throughput  float64 `json:"throughput"`
	LatencyMean float64 `json:"latency_mean"`
	LatencyP50  float64 `json:"latency_p50"`
	LatencyP95  float64 `json:"latency_p95"`
	LatencyP99  float64 `json:"latency_p99"`
	LatencyMax  float64 `json:"latency_max"`
}

// JobResult carries one job's output; exactly the sections the spec's
// mode produces are non-nil. The embedded results are the same values
// the facade functions return, so a JobSpec run through Run, a CLI, or
// the daemon is one measurement with one answer.
type JobResult struct {
	Spec JobSpec `json:"spec"`

	// Points holds the latency mode's single point or the saturation
	// mode's per-load curve.
	Points []LatencyResult `json:"points,omitempty"`
	// Availability / DilatedAvailability hold the degradation curve
	// (one of the two, by engine).
	Availability        []AvailabilityResult        `json:"availability,omitempty"`
	DilatedAvailability []DilatedAvailabilityResult `json:"dilated_availability,omitempty"`
	// ClosedLoop holds the closed-loop rate curve; DilatedClosedLoop
	// additionally holds the counterpart's curve for the pair engine.
	ClosedLoop        []ClosedLoopResult `json:"closedloop,omitempty"`
	DilatedClosedLoop []ClosedLoopResult `json:"dilated_closedloop,omitempty"`

	Lifetime           *LifetimeResult           `json:"lifetime,omitempty"`
	DilatedLifetime    *DilatedLifetimeResult    `json:"dilated_lifetime,omitempty"`
	ClosedLoopLifetime *ClosedLoopLifetimeResult `json:"closedloop_lifetime,omitempty"`
	Drain              *DrainResult              `json:"drain,omitempty"`
	Estimate           *EstimateResult           `json:"estimate,omitempty"`
}

// Run executes one JobSpec and returns its results: the single
// serializable entry point behind every sweep CLI and the daemon.
// Dispatch is by (Mode, Engine); each combination reproduces the
// corresponding facade function bit for bit (see the jobspec tests for
// the pins). Cancelling ctx stops the job between sweep points.
func Run(ctx context.Context, spec JobSpec) (*JobResult, error) {
	return RunJob(ctx, spec, RunOptions{})
}

// RunJob is Run with execution options: a shared geometry cache, a
// per-point streaming callback and a span trace. Results are
// independent of all three.
func RunJob(ctx context.Context, spec JobSpec, ro RunOptions) (*JobResult, error) {
	tr := ro.Trace
	vs := tr.Start("validate", "mode", spec.Mode)
	j, err := compileJob(spec)
	tr.End(vs)
	if err != nil {
		return nil, err
	}
	bs := tr.Start("build")
	err = j.wireCache(ro.Cache, tr)
	tr.End(bs)
	if err != nil {
		return nil, err
	}
	j.buildFabrics()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Shard/merge/observe stage timings from the sharded harnesses land
	// under whichever point span is current when they complete.
	if tr != nil {
		j.opts.OnStage = tr.ObserveStage
	}
	// The explain section rides on each point's observation run (shard
	// 0 of the sharded harnesses): each point's anatomy report merges
	// into one job-level report, delivered through ro.OnExplain after
	// the run.
	var explain *AnatomyReport
	var explainErr error
	if j.anat != nil {
		j.opts.Anatomy = j.anat
		j.opts.OnAnatomy = func(r *AnatomyReport) {
			if explain == nil {
				explain = r
			} else if err := explain.Merge(r); err != nil && explainErr == nil {
				explainErr = err
			}
		}
	}
	res := &JobResult{Spec: spec}
	es := tr.Start("execute", "engine", j.engine)
	defer tr.End(es)
	switch spec.Mode {
	case JobLatency:
		err = j.runLatency(ro, res)
	case JobSaturation:
		err = j.runSaturation(ctx, ro, res)
	case JobDrain:
		err = j.runDrain(ro, res)
	case JobAvailability:
		err = j.runAvailability(ctx, ro, res)
	case JobLifetime:
		err = j.runLifetime(ro, res)
	case JobClosedLoop:
		err = j.runClosedLoop(ctx, ro, res)
	case JobClosedLoopLifetime:
		err = j.runClosedLoopLifetime(ro, res)
	case JobEstimate:
		err = j.runEstimate(ro, res)
	default:
		err = fmt.Errorf("edn: unknown job mode %q", spec.Mode)
	}
	if err != nil {
		return nil, err
	}
	if explainErr != nil {
		return nil, explainErr
	}
	if explain != nil && ro.OnExplain != nil {
		ro.OnExplain(explain)
	}
	return res, nil
}

// wireCache swaps cache-built artifacts into the compiled options.
// Everything wired here is immutable and shared by reference, so the
// job's results are bit-for-bit those of an uncached run. Each
// artifact build records a child span under tr's current span with its
// cache verdict ("hit", "cold", or "off" when no cache is wired).
func (j *compiledJob) wireCache(c *GeometryCache, tr *SpanCollector) error {
	if j.faults {
		// The static fault sample of the latency/estimate modes; its
		// identity is the (mode, fraction, seed) triple, so a cache hit
		// replays the identical draw.
		s := tr.Start("fault_masks")
		if j.engine == EngineEDN {
			var m *FaultMasks
			var hit bool
			var err error
			if c != nil {
				m, hit, err = c.Masks(j.cfg, j.fmode, j.ffrac, j.fseed)
			} else {
				m, err = CompileFaults(j.cfg, BernoulliFaults(j.cfg, j.fmode, j.ffrac, NewRand(j.fseed)))
			}
			tr.SetAttr(s, "cache", cacheVerdict(c, hit))
			tr.End(s)
			if err != nil {
				return err
			}
			j.qopts.Faults = m
		} else {
			var m *DilatedMasks
			var hit bool
			var err error
			if c != nil {
				m, hit, err = c.DilatedMasks(j.dcfg, j.ffrac, j.fseed)
			} else {
				m, err = CompileDilatedMasks(j.dcfg, BernoulliDilatedSubWires(j.dcfg, j.ffrac, NewRand(j.fseed)))
			}
			tr.SetAttr(s, "cache", cacheVerdict(c, hit))
			tr.End(s)
			if err != nil {
				return err
			}
			j.dopts.Faults = m
		}
	}
	if c == nil {
		return nil
	}
	if j.engine == EngineEDN || j.engine == EnginePair {
		s := tr.Start("edn_tables")
		t, hit, err := c.Tables(j.cfg)
		tr.SetAttr(s, "cache", cacheVerdict(c, hit))
		tr.End(s)
		if err != nil {
			return err
		}
		j.qopts.Tables = t
	}
	if j.engine == EngineDilated || j.engine == EnginePair {
		s := tr.Start("dilated_tables")
		t, hit, err := c.DilatedTables(j.dcfg)
		tr.SetAttr(s, "cache", cacheVerdict(c, hit))
		tr.End(s)
		if err != nil {
			return err
		}
		j.dopts.Tables = t
	}
	return nil
}

// buildFabrics builds the fabrics the job drives from the compiled,
// cache-wired options: the EDN or the dilated delta, or both for the
// pair engine (EDN first).
func (j *compiledJob) buildFabrics() {
	edn, dil := simulate.EDN(j.cfg, j.qopts), simulate.Dilated(j.dcfg, j.dopts)
	switch j.engine {
	case EngineDilated:
		j.fab = dil
	case EnginePair:
		j.fab, j.pair = edn, dil
	default:
		j.fab = edn
	}
}

func cacheVerdict(c *GeometryCache, hit bool) string {
	switch {
	case c == nil:
		return "off"
	case hit:
		return "hit"
	default:
		return "cold"
	}
}

// load returns the single-point modes' offered load (default 1,
// saturation — the regime the paper reports).
func (j *compiledJob) load() float64 {
	if j.spec.Load > 0 {
		return j.spec.Load
	}
	return 1
}

func (j *compiledJob) runLatency(ro RunOptions, res *JobResult) error {
	// One sharded measurement, seeded as point 0 of a one-load
	// saturation sweep — so latency at Load is bit-for-bit
	// SaturationSweep(cfg, []float64{Load}, ...)[0].
	ps := ro.Trace.Start("point", "index", "0", "load", formatAxis(j.load()))
	r, err := simulate.SaturationPoint(j.fab, j.load(), 0, j.src, j.opts, j.shards)
	ro.Trace.End(ps)
	if err != nil {
		return err
	}
	res.Points = []LatencyResult{r}
	emit(ro, 0, 1, r)
	return nil
}

func (j *compiledJob) runSaturation(ctx context.Context, ro RunOptions, res *JobResult) error {
	var err error
	res.Points, err = runPoints(ctx, ro, j.spec.Loads, "load", func(i int, load float64) (LatencyResult, error) {
		return simulate.SaturationPoint(j.fab, load, i, j.src, j.opts, j.shards)
	})
	return err
}

// runPoints measures a sweep one point at a time: a point span per
// point, each point streamed through ro.OnPoint as it completes, and
// cancellation checked between points.
func runPoints[R any](ctx context.Context, ro RunOptions, axis []float64, name string, point func(i int, x float64) (R, error)) ([]R, error) {
	out := make([]R, 0, len(axis))
	for i, x := range axis {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps := ro.Trace.Start("point", "index", strconv.Itoa(i), name, formatAxis(x))
		r, err := point(i, x)
		ro.Trace.End(ps)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		emit(ro, i, len(axis), r)
	}
	return out, nil
}

// runOnce measures a single-shot mode under one point span and streams
// its result.
func runOnce[R any](ro RunOptions, measure func() (R, error)) (*R, error) {
	ps := ro.Trace.Start("point", "index", "0")
	r, err := measure()
	ro.Trace.End(ps)
	if err != nil {
		return nil, err
	}
	emit(ro, 0, 1, r)
	return &r, nil
}

func (j *compiledJob) runDrain(ro RunOptions, res *JobResult) (err error) {
	res.Drain, err = runOnce(ro, func() (DrainResult, error) {
		return simulate.DrainPermutations(j.fab, j.spec.DrainQ, j.opts)
	})
	return err
}

func (j *compiledJob) runAvailability(ctx context.Context, ro RunOptions, res *JobResult) (err error) {
	if j.engine == EngineDilated {
		res.DilatedAvailability, err = availabilityPoints[DilatedAvailabilityResult](ctx, ro, j)
	} else {
		res.Availability, err = availabilityPoints[AvailabilityResult](ctx, ro, j)
	}
	return err
}

func availabilityPoints[R simulate.AvailabilityKind](ctx context.Context, ro RunOptions, j *compiledJob) ([]R, error) {
	return runPoints(ctx, ro, j.aopts.Fractions, "fraction", func(_ int, f float64) (R, error) {
		return simulate.AvailabilityPoint[R](j.fab, j.aopts, f, j.src, j.opts, j.shards)
	})
}

func (j *compiledJob) runLifetime(ro RunOptions, res *JobResult) (err error) {
	if j.engine == EngineDilated {
		res.DilatedLifetime, err = runOnce(ro, func() (DilatedLifetimeResult, error) {
			return simulate.LifetimeSweep[DilatedLifetimeResult](j.fab, j.lopts, j.src, j.opts, j.shards)
		})
	} else {
		res.Lifetime, err = runOnce(ro, func() (LifetimeResult, error) {
			return simulate.LifetimeSweep[LifetimeResult](j.fab, j.lopts, j.src, j.opts, j.shards)
		})
	}
	return err
}

func (j *compiledJob) runClosedLoop(ctx context.Context, ro RunOptions, res *JobResult) error {
	rates := j.spec.Rates
	if j.engine == EnginePair {
		// The paired comparison asserts bit-equal offered demand across
		// both fabrics at every rate, so it runs as one barriered call
		// (its per-rate shard stages all land under one point span).
		ps := ro.Trace.Start("point", "index", "0")
		ednRes, dilRes, err := simulate.MeasureClosedLoopPair(j.fab, j.pair, rates, j.lo, j.opts, j.shards)
		ro.Trace.End(ps)
		if err != nil {
			return err
		}
		res.ClosedLoop, res.DilatedClosedLoop = ednRes, dilRes
		emit(ro, 0, 1, res)
		return nil
	}
	var err error
	res.ClosedLoop, err = runPoints(ctx, ro, rates, "rate", func(i int, rate float64) (ClosedLoopResult, error) {
		return simulate.ClosedLoopPoint(j.fab, rate, i, j.lo, j.opts, j.shards)
	})
	return err
}

func (j *compiledJob) runClosedLoopLifetime(ro RunOptions, res *JobResult) (err error) {
	res.ClosedLoopLifetime, err = runOnce(ro, func() (ClosedLoopLifetimeResult, error) {
		return simulate.ClosedLoopLifetimeSweep(j.fab, j.lopts, j.lo, j.opts, j.shards)
	})
	return err
}

func (j *compiledJob) runEstimate(ro RunOptions, res *JobResult) error {
	est := j.spec.Estimate
	load := j.load()
	out := &EstimateResult{
		Config:       j.cfg,
		Src:          est.Src,
		Dst:          est.Dst,
		Load:         load,
		SrcLive:      true,
		DstReachable: true,
		Hops:         j.cfg.Stages(),
		AnalyticPA:   PA(j.cfg, load),
	}
	if m := j.qopts.Faults; m != nil && !m.Empty() {
		if li := m.LiveInputs(); li != nil {
			out.SrcLive = li[est.Src]
		}
		live := make([]bool, j.cfg.Outputs())
		m.ReachableOutputsInto(live)
		out.DstReachable = live[est.Dst]
	}
	if out.SrcLive && out.DstReachable {
		ps := ro.Trace.Start("point", "index", "0", "load", formatAxis(load))
		r, err := simulate.SaturationPoint(j.fab, load, 0, j.src, j.opts, j.shards)
		ro.Trace.End(ps)
		if err != nil {
			return err
		}
		out.Cycles = r.Cycles
		out.Throughput = r.Throughput
		out.LatencyMean = r.LatencyMean
		out.LatencyP50 = r.LatencyP50
		out.LatencyP95 = r.LatencyP95
		out.LatencyP99 = r.LatencyP99
		out.LatencyMax = r.LatencyMax
	}
	res.Estimate = out
	emit(ro, 0, 1, *out)
	return nil
}

func emit(ro RunOptions, i, total int, point any) {
	if ro.OnPoint != nil {
		ro.OnPoint(i, total, point)
	}
}

// formatAxis renders a sweep-axis coordinate for a span attribute:
// shortest exact float form, deterministic for a given spec.
func formatAxis(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
