package simulate

import (
	"fmt"

	"edn/internal/analytic"
	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/queuesim"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// Fabric is the packet network a harness entry point measures: an EDN,
// or the d-dilated delta that spends the same wire budget on
// replicated links. Both run on the one queuesim engine, so a Fabric
// carries only what differs between them — the wiring the engine is
// built over, the fault model (static masks, nested plans for
// availability sweeps, churn for lifetimes) and the label its results
// carry — and every measurement mode is one function over it. Build
// one with EDN or Dilated; the zero Fabric is not usable. The set of
// fabrics is closed: a new one is one more network implementation in
// this file.
type Fabric struct {
	net    network
	regime queuesim.Options // depth, policy, arbiters, histogram shape
	faults faultMasks       // the static faults every engine starts under
}

// EDN is the fabric of the EDN cfg under the queueing options q,
// including q's static Faults and prebuilt Tables.
func EDN(cfg topology.Config, q queuesim.Options) Fabric {
	f := Fabric{net: ednNetwork{cfg: cfg, tables: q.Tables}, faults: q.Faults}
	q.Faults, q.Tables = nil, nil
	f.regime = q
	return f
}

// Dilated is the fabric of the dilated delta dcfg under the queueing
// options d, including d's static Faults and prebuilt Tables.
func Dilated(dcfg dilated.Config, d dilatedsim.Options) Fabric {
	return Fabric{
		net: dilatedNetwork{cfg: dcfg, tables: d.Tables},
		regime: queuesim.Options{Depth: d.Depth, Policy: d.Policy, Factory: d.Factory,
			LatencyBuckets: d.LatencyBuckets, LatencyBucketWidth: d.LatencyBucketWidth},
		faults: d.Faults,
	}
}

// String names the fabric's network.
func (f Fabric) String() string { return f.net.String() }

// withFaults is f with its engines built under m instead of its static
// faults; nil builds them healthy.
func (f Fabric) withFaults(m faultMasks) Fabric {
	f.faults = m
	return f
}

// engine builds one engine of f. The fabric's own arbiter factory wins;
// without one, opts.Factory is the default.
func (f Fabric) engine(opts Options) (engine, error) {
	r := f.regime
	if r.Factory == nil {
		r.Factory = opts.Factory
	}
	return f.net.build(r, f.faults)
}

// engine is one built instance of a fabric: the packet engine the
// harness drives, the fabric's own network type around it, and the
// fabric's in-place mask swap (the epoch primitive of a lifetime).
type engine struct {
	*queuesim.Engine
	// net is the *queuesim.Network or *dilatedsim.Network wrapping
	// Engine. Closed loops drive it rather than the bare engine: with
	// identical allocations, driving the bare engine raised the
	// loop-explain benchmark's median peak heap from 22 to 25 MB on a
	// 2-vCPU host (EXPERIMENTS.md has the measurement).
	net       closedloop.Engine
	setFaults func(faultMasks) error
}

// faultMasks is one compiled fault state of a fabric: *faults.Masks for
// an EDN, *dilatedsim.Masks for a dilated delta.
type faultMasks interface {
	ReachableOutputsInto(dst []bool) int
}

// faultPlan is one shard's nested fault plan: it compiles the plan's
// fault set at fraction f and takes the set's census.
type faultPlan func(f float64, aopts AvailabilityOptions) (faultMasks, census, error)

// census is what a degradation report takes from one fault sample. An
// EDN fills the switch, wire and input fields; a dilated delta the
// sub-wire field. The shard merge averages every field alike.
type census struct {
	deadSwitches, deadWires, deadSubWires float64
	reachable, liveInputs                 float64 // fractions of outputs and inputs
	expected                              float64 // analytic throughput, when asked for
}

func (c *census) add(o census) {
	c.deadSwitches += o.deadSwitches
	c.deadWires += o.deadWires
	c.deadSubWires += o.deadSubWires
	c.reachable += o.reachable
	c.liveInputs += o.liveInputs
	c.expected += o.expected
}

func (c *census) mean(n float64) {
	c.deadSwitches /= n
	c.deadWires /= n
	c.deadSubWires /= n
	c.reachable /= n
	c.liveInputs /= n
	c.expected /= n
}

// churn is one shard's failure/repair process: step advances one epoch
// and compiles the fault state now in effect.
type churn interface {
	step() (faultMasks, error)
	DeadFraction() float64
}

// network is the per-fabric half of a Fabric.
type network interface {
	String() string
	validate() error
	ports() (inputs, outputs int)
	build(r queuesim.Options, m faultMasks) (engine, error)
	plan(mode faults.Mode, rng *xrand.Rand) faultPlan
	churn(spec lifecycle.Spec, rng *xrand.Rand) (churn, error)
	// healthyBandwidth is the fault-free analytic bandwidth per input
	// at load, whose half is the default lifetime threshold.
	healthyBandwidth(load float64) float64
	// label sets the one of a result's Config and Dilated fields that
	// names this network.
	label(cfg *topology.Config, dcfg *dilated.Config)
	// availability and lifetime fill the fabric's own result type.
	availability(frac float64, mode faults.Mode, a *sweepPointAccum, c census) any
	lifetime(m *lifetimeMerge, lopts LifetimeOptions, r queuesim.Options, shards int) any
}

// as returns a fabric's result v as the result type its caller asked
// for: AvailabilityResult or LifetimeResult on an EDN, the Dilated*
// types on a dilated delta.
func as[R any](v any, err error) (R, error) {
	r, ok := v.(R)
	if err == nil && !ok {
		err = fmt.Errorf("simulate: the fabric measures %T, not %T", v, r)
	}
	return r, err
}

// ednNetwork is the EDN half of a Fabric.
type ednNetwork struct {
	cfg    topology.Config
	tables *topology.Tables
}

func (n ednNetwork) String() string  { return n.cfg.String() }
func (n ednNetwork) validate() error { return n.cfg.Validate() }
func (n ednNetwork) ports() (int, int) {
	return n.cfg.Inputs(), n.cfg.Outputs()
}

func (n ednNetwork) build(r queuesim.Options, m faultMasks) (engine, error) {
	r.Faults, _ = m.(*faults.Masks)
	r.Tables = n.tables
	net, err := queuesim.New(n.cfg, r)
	if err != nil {
		return engine{}, err
	}
	return engine{net.Engine, net, func(m faultMasks) error {
		fm, _ := m.(*faults.Masks)
		return net.UpdateFaults(fm)
	}}, nil
}

func (n ednNetwork) plan(mode faults.Mode, rng *xrand.Rand) faultPlan {
	p := faults.NewPlan(n.cfg, mode, rng)
	return func(f float64, aopts AvailabilityOptions) (faultMasks, census, error) {
		m, err := faults.Compile(n.cfg, p.At(f))
		if err != nil {
			return nil, census{}, err
		}
		c := census{
			deadSwitches: float64(m.DeadSwitches()),
			deadWires:    float64(m.DeadWires()),
			reachable:    float64(m.ReachableOutputs()) / float64(n.cfg.Outputs()),
			liveInputs:   float64(m.LiveInputCount()) / float64(n.cfg.Inputs()),
		}
		if aopts.WithExpected {
			c.expected = faults.ExpectedUniformBandwidth(m, aopts.Load)
		}
		return m, c, nil
	}
}

// ednChurn is an EDN's failure/repair process: lifecycle.Process over
// the spec's component population.
type ednChurn struct {
	*lifecycle.Process
}

func (c ednChurn) step() (faultMasks, error) {
	m, err := faults.Compile(c.Config(), c.Step())
	return m, err
}

func (n ednNetwork) churn(spec lifecycle.Spec, rng *xrand.Rand) (churn, error) {
	p, err := lifecycle.New(n.cfg, spec, rng)
	if err != nil {
		return nil, err
	}
	return ednChurn{p}, nil
}

func (n ednNetwork) healthyBandwidth(load float64) float64 {
	return analytic.Bandwidth(n.cfg, load) / float64(n.cfg.Inputs())
}

func (n ednNetwork) label(cfg *topology.Config, _ *dilated.Config) { *cfg = n.cfg }

func (n ednNetwork) availability(frac float64, mode faults.Mode, a *sweepPointAccum, c census) any {
	r := AvailabilityResult{
		Config: n.cfg, FaultFraction: frac, Mode: mode,
		Depth: a.depth, Policy: a.policy, Cycles: a.cycles, Shards: a.shards,
		DeadSwitches: c.deadSwitches, DeadWires: c.deadWires,
		ReachableFraction: c.reachable, LiveInputFraction: c.liveInputs,
		Injected: a.injected, Refused: a.refused, Delivered: a.delivered, Dropped: a.dropped,
		ExpectedThroughput: c.expected, Histogram: a.histogram,
	}
	r.OfferedRate, r.Throughput, r.ThroughputPerInput, r.AcceptedFraction = a.rates(n.cfg.Inputs())
	r.LatencyMean, r.LatencyP50, r.LatencyP95, r.LatencyP99, r.LatencyMax = a.quantiles()
	return r
}

func (n ednNetwork) lifetime(m *lifetimeMerge, lopts LifetimeOptions, r queuesim.Options, shards int) any {
	return LifetimeResult{
		Config: n.cfg, Spec: lopts.Spec, Depth: r.Depth, Policy: r.Policy,
		Epochs: lopts.Epochs, EpochCycles: lopts.EpochCycles, Shards: shards, Threshold: lopts.Threshold,
		Bandwidth: m.bandwidth, Reachable: m.reachable, DeadFraction: m.deadFrac, LatencyP99: m.p99, Parked: m.parked,
		Injected: m.totals.Injected, Refused: m.totals.Refused, Delivered: m.totals.Delivered,
		Dropped: m.totals.Dropped, Stranded: m.totals.Stranded,
		LifetimeBandwidth: m.lifetimeBandwidth, DeliveredFraction: m.deliveredFraction,
		TimeBelowThreshold: m.timeBelowThreshold, RecoveryHalfLife: m.recoveryHalfLife,
		Observed: m.rep,
	}
}

// dilatedNetwork is the dilated-delta half of a Fabric. Its fault
// population is always the sub-wires, the network's entire redundancy
// budget, so the fault modes that name EDN structures are ignored.
type dilatedNetwork struct {
	cfg    dilated.Config
	tables *dilatedsim.Tables
}

func (n dilatedNetwork) String() string  { return n.cfg.String() }
func (n dilatedNetwork) validate() error { return n.cfg.Validate() }
func (n dilatedNetwork) ports() (int, int) {
	return n.cfg.Ports(), n.cfg.Ports()
}

func (n dilatedNetwork) build(r queuesim.Options, m faultMasks) (engine, error) {
	dm, _ := m.(*dilatedsim.Masks)
	net, err := dilatedsim.New(n.cfg, dilatedsim.Options{
		Depth: r.Depth, Policy: r.Policy, Factory: r.Factory,
		LatencyBuckets: r.LatencyBuckets, LatencyBucketWidth: r.LatencyBucketWidth,
		Faults: dm, Tables: n.tables,
	})
	if err != nil {
		return engine{}, err
	}
	return engine{net.Engine, net, func(m faultMasks) error {
		dm, _ := m.(*dilatedsim.Masks)
		return net.UpdateFaults(dm)
	}}, nil
}

func (n dilatedNetwork) plan(_ faults.Mode, rng *xrand.Rand) faultPlan {
	p := dilatedsim.NewPlan(n.cfg, rng)
	return func(f float64, aopts AvailabilityOptions) (faultMasks, census, error) {
		set := p.At(f)
		m, err := dilatedsim.Compile(n.cfg, set)
		if err != nil {
			return nil, census{}, err
		}
		c := census{
			deadSubWires: float64(m.DeadSubWires()),
			reachable:    float64(m.ReachableOutputs()) / float64(n.cfg.Ports()),
		}
		if aopts.WithExpected {
			deg, err := n.cfg.CompileFaults(set)
			if err != nil {
				return nil, census{}, err
			}
			c.expected = deg.Bandwidth(aopts.Load)
		}
		return m, c, nil
	}
}

// dilatedChurn is a dilated delta's failure/repair process over its
// sub-wires.
type dilatedChurn struct {
	*dilatedsim.Churn
}

func (c dilatedChurn) step() (faultMasks, error) {
	m, err := dilatedsim.Compile(c.Config(), c.Step())
	return m, err
}

func (n dilatedNetwork) churn(spec lifecycle.Spec, rng *xrand.Rand) (churn, error) {
	c, err := dilatedsim.NewChurn(n.cfg, spec, rng)
	if err != nil {
		return nil, err
	}
	return dilatedChurn{c}, nil
}

func (n dilatedNetwork) healthyBandwidth(load float64) float64 { return n.cfg.PA(load) * load }

func (n dilatedNetwork) label(_ *topology.Config, dcfg *dilated.Config) { *dcfg = n.cfg }

func (n dilatedNetwork) availability(frac float64, _ faults.Mode, a *sweepPointAccum, c census) any {
	r := DilatedAvailabilityResult{
		Dilated: n.cfg, FaultFraction: frac,
		Depth: a.depth, Policy: a.policy, Cycles: a.cycles, Shards: a.shards,
		DeadSubWires: c.deadSubWires, ReachableFraction: c.reachable,
		Injected: a.injected, Refused: a.refused, Delivered: a.delivered, Dropped: a.dropped,
		ExpectedThroughput: c.expected, Histogram: a.histogram,
	}
	r.OfferedRate, r.Throughput, r.ThroughputPerInput, r.AcceptedFraction = a.rates(n.cfg.Ports())
	r.LatencyMean, r.LatencyP50, r.LatencyP95, r.LatencyP99, r.LatencyMax = a.quantiles()
	return r
}

func (n dilatedNetwork) lifetime(m *lifetimeMerge, lopts LifetimeOptions, r queuesim.Options, shards int) any {
	return DilatedLifetimeResult{
		Dilated: n.cfg, MTBF: lopts.Spec.MTBF, MTTR: lopts.Spec.MTTR, Timing: lopts.Spec.Timing,
		Depth: r.Depth, Policy: r.Policy,
		Epochs: lopts.Epochs, EpochCycles: lopts.EpochCycles, Shards: shards, Threshold: lopts.Threshold,
		Bandwidth: m.bandwidth, Reachable: m.reachable, DeadFraction: m.deadFrac, LatencyP99: m.p99, Parked: m.parked,
		Injected: m.totals.Injected, Refused: m.totals.Refused, Delivered: m.totals.Delivered,
		Dropped: m.totals.Dropped, Stranded: m.totals.Stranded,
		LifetimeBandwidth: m.lifetimeBandwidth, DeliveredFraction: m.deliveredFraction,
		TimeBelowThreshold: m.timeBelowThreshold, RecoveryHalfLife: m.recoveryHalfLife,
		Observed: m.rep,
	}
}
