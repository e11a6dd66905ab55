// Package lifecycle evolves an Expanded Delta Network's component
// availability over discrete simulated time. Where internal/faults
// answers "how degraded is this frozen snapshot", this package answers
// the question a machine operator asks of a deployed interconnect: how
// much bandwidth does the network deliver over its lifetime as
// components fail stochastically and get repaired?
//
// Time is divided into epochs. Every component of the chosen population
// (interstage wires, switches, or both — the same populations as
// faults.Bernoulli) runs an independent alternating-renewal process:
// alive for a random time-to-failure drawn around MTBF, dead for a
// random time-to-repair drawn around MTTR. Holding times are geometric
// (the discrete-time exponential: every live component fails each epoch
// with probability 1/MTBF, the memoryless Bernoulli-churn regime) or
// deterministic (fixed maintenance periods, staggered by a random
// initial phase so the fleet does not fail in lockstep). On top of the
// independent churn, correlated Blast arrivals model a board or cabinet
// failure: occasionally a contiguous block of switches in one stage
// dies together and is repaired as a unit.
//
// Step advances one epoch and reports the currently-dead components as
// a faults.Set — exactly the vocabulary faults.Compile consumes — so a
// lifetime loop is: Step, Compile, UpdateFaults on a running engine,
// simulate the epoch's cycles, repeat. The process never rebuilds
// anything and a given (config, spec, seed) replays bit-for-bit, which
// is what lets simulate.LifetimeSweep shard whole lifetimes and merge
// them deterministically.
package lifecycle

import (
	"fmt"
	"math"

	"edn/internal/faults"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// Timing selects the holding-time distribution of the failure/repair
// renewal process.
type Timing int

const (
	// Exponential draws geometric holding times (the discrete-time
	// memoryless process): each epoch an alive component dies with
	// probability 1/MTBF and a dead one is repaired with probability
	// 1/MTTR.
	Exponential Timing = iota
	// Deterministic uses fixed periods: a component is alive for
	// round(MTBF) epochs and down for round(MTTR), with a uniformly
	// random initial phase per component.
	Deterministic
)

// String renders the timing for reports and flags.
func (t Timing) String() string {
	switch t {
	case Exponential:
		return "exponential"
	case Deterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("timing(%d)", int(t))
	}
}

// ParseTiming is the inverse of Timing.String, for flag parsing.
func ParseTiming(s string) (Timing, error) {
	switch s {
	case "exponential", "exp":
		return Exponential, nil
	case "deterministic", "det":
		return Deterministic, nil
	default:
		return 0, fmt.Errorf("lifecycle: unknown timing %q (want exponential or deterministic)", s)
	}
}

// Spec describes a failure/repair process. The zero Mode value churns
// interstage wires, the population where bucket multipath pays off.
type Spec struct {
	// Mode selects the churning population (wires, switches, mixed),
	// with the faults package's meaning.
	Mode faults.Mode
	// MTBF is the mean number of epochs a component stays alive; MTTR
	// the mean number of epochs a repair takes. Both must be >= 1.
	// The long-run dead fraction of the population is MTTR/(MTBF+MTTR).
	MTBF float64
	MTTR float64
	// Timing selects geometric or deterministic holding times.
	Timing Timing
	// BlastRate is the per-epoch probability of a correlated blast: a
	// random stage's switches [center-BlastRadius, center+BlastRadius]
	// die together and are repaired as a unit after a BlastMTTR-mean
	// holding time (MTTR if zero). Zero disables blasts.
	BlastRate   float64
	BlastRadius int
	BlastMTTR   float64
	// RepairWindow batches repairs into maintenance windows: a finished
	// repair only takes effect at epochs divisible by RepairWindow, so
	// a component whose repair clock expires mid-window stays dead
	// until the next boundary (failures still happen at any epoch, and
	// a blast's outage is extended so its block comes back at a
	// boundary too). 0 or 1 means immediate repair — bit-for-bit the
	// un-windowed process, because the next MTBF draw happens at the
	// actual repair either way.
	RepairWindow int
}

func (s Spec) validate() error {
	switch s.Mode {
	case faults.WireFaults, faults.SwitchFaults, faults.MixedFaults:
	default:
		return fmt.Errorf("lifecycle: unknown mode %v", s.Mode)
	}
	if err := s.validateClock(); err != nil {
		return err
	}
	if s.BlastRate < 0 || s.BlastRate > 1 {
		return fmt.Errorf("lifecycle: blast rate %g out of [0,1]", s.BlastRate)
	}
	if s.BlastRadius < 0 {
		return fmt.Errorf("lifecycle: blast radius %d must be non-negative", s.BlastRadius)
	}
	if s.BlastRate > 0 && s.BlastMTTR != 0 && s.BlastMTTR < 1 {
		return fmt.Errorf("lifecycle: blast MTTR %g must be at least 1 epoch", s.BlastMTTR)
	}
	return nil
}

// validateClock checks the fields a Clock runs on.
func (s Spec) validateClock() error {
	if s.MTBF < 1 {
		return fmt.Errorf("lifecycle: MTBF %g must be at least 1 epoch", s.MTBF)
	}
	if s.MTTR < 1 {
		return fmt.Errorf("lifecycle: MTTR %g must be at least 1 epoch", s.MTTR)
	}
	switch s.Timing {
	case Exponential, Deterministic:
	default:
		return fmt.Errorf("lifecycle: unknown timing %v", s.Timing)
	}
	if s.RepairWindow < 0 {
		return fmt.Errorf("lifecycle: repair window %d must be non-negative", s.RepairWindow)
	}
	return nil
}

// DeadFractionSteadyState returns the long-run marginal dead fraction
// of the churned population, MTTR/(MTBF+MTTR) — the lifetime analog of
// a static sweep's fault fraction axis.
func (s Spec) DeadFractionSteadyState() float64 {
	return s.MTTR / (s.MTBF + s.MTTR)
}

// Component is one alternating-renewal state machine, dead or alive,
// with a countdown to its next transition. A Clock starts and ticks it.
type Component struct {
	dead  bool
	timer int32 // epochs until the next state flip, always >= 1
}

// Clock is the renewal rule every churn process in the repository
// ticks its components through: alive for a holding time drawn around
// MTBF, dead for one drawn around MTTR, under the spec's Timing, with
// finished repairs held to the spec's RepairWindow boundaries. Process
// runs one over an EDN's components and dilatedsim's churn one over a
// dilated delta's sub-wires, so a matched lifetime comparison churns
// both networks with identically distributed outages under the same
// maintenance rule. The clock also keeps the population's dead census.
// It is not safe for concurrent use.
type Clock struct {
	spec  Spec
	rng   *xrand.Rand
	epoch int
	total int // components started
	dead  int // currently dead components
}

// NewClock validates the spec's renewal fields (MTBF, MTTR, Timing,
// RepairWindow) and returns a clock drawing from rng; Mode and the
// blast fields are not its concern.
func NewClock(spec Spec, rng *xrand.Rand) (*Clock, error) {
	if err := spec.validateClock(); err != nil {
		return nil, err
	}
	return &Clock{spec: spec, rng: rng}, nil
}

// Start returns a new live component, with its first time-to-failure
// drawn, and counts it in the population.
func (c *Clock) Start() Component {
	c.total++
	return Component{timer: initialTTF(c.spec.Timing, c.spec.MTBF, c.rng)}
}

// Advance begins the next epoch; Tick then moves every component
// through it.
func (c *Clock) Advance() { c.epoch++ }

// Epoch returns the number of Advance calls so far.
func (c *Clock) Epoch() int { return c.epoch }

// DeadFraction returns the currently-dead fraction of the started
// components.
func (c *Clock) DeadFraction() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.dead) / float64(c.total)
}

// repairOpen reports whether the current epoch is a maintenance-window
// boundary at which finished repairs take effect.
func (c *Clock) repairOpen() bool {
	return c.spec.RepairWindow <= 1 || c.epoch%c.spec.RepairWindow == 0
}

// Tick advances comp one epoch and reports whether it is dead.
func (c *Clock) Tick(comp *Component) bool {
	comp.timer--
	if comp.timer <= 0 {
		if comp.dead {
			if !c.repairOpen() {
				// Repair clock expired mid-window: hold the component
				// dead, re-checking at every epoch until the boundary.
				// The MTBF draw waits for the actual repair, which is
				// what keeps RepairWindow <= 1 on the exact RNG stream
				// of the un-windowed process.
				comp.timer = 1
				return true
			}
			comp.dead = false
			c.dead--
			comp.timer = HoldingTime(c.spec.Timing, c.spec.MTBF, c.rng)
		} else {
			comp.dead = true
			c.dead++
			comp.timer = HoldingTime(c.spec.Timing, c.spec.MTTR, c.rng)
		}
	}
	return comp.dead
}

// Process is an instantiated failure/repair process over one network
// configuration. It is not safe for concurrent use; sweeps build one
// per shard.
type Process struct {
	cfg   topology.Config
	spec  Spec
	rng   *xrand.Rand
	clock *Clock // the churned components' renewal rule and census

	wires    [][]Component // [boundary-1][wire], WireFaults/MixedFaults
	switches [][]Component // [stage-1][switch], SwitchFaults/MixedFaults

	// blastUntil[stage-1][switch] is the first epoch at which a blasted
	// switch is live again (0 = not blasted). The overlay is kept apart
	// from the churn state machines so a blast neither resets nor
	// consumes a switch's own renewal clock.
	blastUntil [][]int64

	// Reused Set backing storage; see Step.
	set faults.Set
}

// New validates spec and draws the initial component phases from rng.
// All components start alive; the population drifts toward the
// steady-state dead fraction over the first few MTTRs.
func New(cfg topology.Config, spec Spec, rng *xrand.Rand) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	p := &Process{cfg: cfg, spec: spec, rng: rng, clock: &Clock{spec: spec, rng: rng}}
	if spec.Mode == faults.WireFaults || spec.Mode == faults.MixedFaults {
		p.wires = make([][]Component, cfg.L)
		for i := 1; i <= cfg.L; i++ {
			row := make([]Component, cfg.WiresAfterStage(i))
			for w := range row {
				row[w] = p.clock.Start()
			}
			p.wires[i-1] = row
		}
	}
	if spec.Mode == faults.SwitchFaults || spec.Mode == faults.MixedFaults {
		p.switches = make([][]Component, cfg.L+1)
		for s := 1; s <= cfg.L+1; s++ {
			row := make([]Component, cfg.SwitchesInStage(s))
			for sw := range row {
				row[sw] = p.clock.Start()
			}
			p.switches[s-1] = row
		}
	}
	if spec.BlastRate > 0 {
		p.blastUntil = make([][]int64, cfg.L+1)
		for s := 1; s <= cfg.L+1; s++ {
			p.blastUntil[s-1] = make([]int64, cfg.SwitchesInStage(s))
		}
	}
	return p, nil
}

// Config returns the process's network configuration.
func (p *Process) Config() topology.Config { return p.cfg }

// Spec returns the process's failure/repair specification.
func (p *Process) Spec() Spec { return p.spec }

// Epoch returns the number of Step calls so far.
func (p *Process) Epoch() int { return p.clock.Epoch() }

// DeadFraction returns the currently-dead fraction of the churned
// population (the blast overlay is not part of the churn census).
func (p *Process) DeadFraction() float64 { return p.clock.DeadFraction() }

// Step advances one epoch — every component's renewal clock ticks, and
// a blast may arrive — and returns the fault set now in effect. The
// returned Set reuses the process's backing slices: it is valid until
// the next Step call, which is exactly the lifetime of the
// Compile-and-apply it feeds.
func (p *Process) Step() faults.Set {
	p.clock.Advance()
	p.set.Wires = p.set.Wires[:0]
	p.set.Switches = p.set.Switches[:0]
	for b, row := range p.wires {
		for w := range row {
			if p.clock.Tick(&row[w]) {
				p.set.Wires = append(p.set.Wires, faults.WireID{Boundary: b + 1, Wire: w})
			}
		}
	}
	if p.spec.BlastRate > 0 && p.rng.Bool(p.spec.BlastRate) {
		p.blast()
	}
	for s, row := range p.switches {
		for sw := range row {
			if p.clock.Tick(&row[sw]) {
				p.set.Switches = append(p.set.Switches, faults.SwitchID{Stage: s + 1, Switch: sw})
			} else if p.blasted(s+1, sw) {
				p.set.Switches = append(p.set.Switches, faults.SwitchID{Stage: s + 1, Switch: sw})
			}
		}
	}
	if p.switches == nil && p.blastUntil != nil {
		// Wire-churn spec with blasts: the blast overlay is the only
		// switch killer.
		for s := 1; s <= p.cfg.L+1; s++ {
			for sw := range p.blastUntil[s-1] {
				if p.blasted(s, sw) {
					p.set.Switches = append(p.set.Switches, faults.SwitchID{Stage: s, Switch: sw})
				}
			}
		}
	}
	return p.set
}

// blast kills a contiguous switch block: uniform stage, uniform center,
// the spec's radius, repaired as a unit after a BlastMTTR-mean holding
// time.
func (p *Process) blast() {
	stage := 1 + p.rng.Intn(p.cfg.L+1)
	row := p.blastUntil[stage-1]
	center := p.rng.Intn(len(row))
	mttr := p.spec.BlastMTTR
	if mttr == 0 {
		mttr = p.spec.MTTR
	}
	// A draw of k holds the block dead for k epochs including the
	// arrival epoch (blasted tests >=), matching a churned component's
	// outage length for the same draw.
	until := int64(p.clock.epoch) + int64(HoldingTime(p.spec.Timing, mttr, p.rng)) - 1
	if w := int64(p.spec.RepairWindow); w > 1 {
		// Batch repair: extend the outage so the block's first live
		// epoch (until+1) lands on a maintenance-window boundary.
		if rem := (until + 1) % w; rem != 0 {
			until += w - rem
		}
	}
	lo, hi := center-p.spec.BlastRadius, center+p.spec.BlastRadius
	if lo < 0 {
		lo = 0
	}
	if hi > len(row)-1 {
		hi = len(row) - 1
	}
	for sw := lo; sw <= hi; sw++ {
		if until > row[sw] {
			row[sw] = until
		}
	}
}

// blasted reports whether the blast overlay holds (stage, sw) dead this
// epoch.
func (p *Process) blasted(stage, sw int) bool {
	if p.blastUntil == nil {
		return false
	}
	return p.blastUntil[stage-1][sw] >= int64(p.clock.epoch)
}

// HoldingTime draws one holding time around mean epochs under the given
// timing; always at least 1. It is the draw behind every Clock
// transition and behind a blast's outage length, so every churn process
// in the repository samples its outages from the same distributions.
func HoldingTime(t Timing, mean float64, rng *xrand.Rand) int32 {
	if t == Deterministic {
		k := math.Round(mean)
		if k < 1 {
			return 1
		}
		if k >= math.MaxInt32 {
			return math.MaxInt32
		}
		return int32(k)
	}
	// Geometric with success probability 1/mean via inversion: the
	// number of per-epoch Bernoulli(1/mean) trials up to and including
	// the first success. Clamped into int32 before conversion — huge
	// means ("effectively never fails") would otherwise overflow.
	if mean <= 1 {
		return 1
	}
	u := rng.Float64()
	k := 1 + math.Floor(math.Log(1-u)/math.Log(1-1/mean))
	if k < 1 {
		return 1
	}
	if k >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(k)
}

// initialTTF draws a component's first time-to-failure. Exponential
// holding times are memoryless, so the stationary draw is the plain
// one; deterministic periods get a uniform phase in [1, MTBF] so the
// fleet's maintenance windows are staggered instead of synchronized.
func initialTTF(t Timing, mtbf float64, rng *xrand.Rand) int32 {
	if t == Deterministic {
		period := HoldingTime(t, mtbf, rng) // the fixed alive period, clamped
		return 1 + int32(rng.Intn(int(period)))
	}
	return HoldingTime(t, mtbf, rng)
}
