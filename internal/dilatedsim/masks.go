package dilatedsim

import (
	"fmt"

	"edn/internal/dilated"
	"edn/internal/lifecycle"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// Masks is a compiled dilated fault set: per-boundary sub-wire
// availability rows in exactly the label space the engine's grant loop
// indexes (sub-wire group*d + wire). It is the simulator-facing sibling
// of dilated.Degraded, which folds the same faults into capacity
// histograms for the mean-field recursion — Compile keeps the
// per-sub-wire identity the histograms discard, because a packet
// simulator must know *which* sub-wire is dead, not just how many.
// Unfaulted boundaries compile to nil rows so the empty mask keeps the
// engine on its unmasked fast path. Compile once, share freely: the
// engine never mutates a mask.
type Masks struct {
	cfg  dilated.Config
	rows [][]bool // [boundary-1][group*d + wire]; nil = fully live
	dead int
}

// Compile validates set against cfg and folds it into per-boundary
// availability rows. A zero set compiles to the empty mask. Duplicate
// sub-wires are allowed and idempotent, mirroring dilated.CompileFaults.
func Compile(cfg dilated.Config, set dilated.FaultSet) (*Masks, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Masks{cfg: cfg, rows: make([][]bool, cfg.L)}
	ports := cfg.Ports()
	for _, id := range set.SubWires {
		switch {
		case id.Boundary < 1 || id.Boundary > cfg.L:
			return nil, fmt.Errorf("dilatedsim: boundary %d out of range [1,%d]", id.Boundary, cfg.L)
		case id.Group < 0 || id.Group >= ports:
			return nil, fmt.Errorf("dilatedsim: group %d out of range [0,%d)", id.Group, ports)
		case id.Wire < 0 || id.Wire >= cfg.D:
			return nil, fmt.Errorf("dilatedsim: sub-wire %d out of range [0,%d)", id.Wire, cfg.D)
		}
		row := m.rows[id.Boundary-1]
		if row == nil {
			row = make([]bool, ports*cfg.D)
			for i := range row {
				row[i] = true
			}
			m.rows[id.Boundary-1] = row
		}
		if row[id.Group*cfg.D+id.Wire] {
			row[id.Group*cfg.D+id.Wire] = false
			m.dead++
		}
	}
	return m, nil
}

// MustCompile is Compile for tests and examples with known-good sets.
func MustCompile(cfg dilated.Config, set dilated.FaultSet) *Masks {
	m, err := Compile(cfg, set)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the configuration the masks were compiled for.
func (m *Masks) Config() dilated.Config { return m.cfg }

// Empty reports whether the masks (or a nil receiver) disable nothing.
func (m *Masks) Empty() bool { return m == nil || m.dead == 0 }

// DeadSubWires returns the number of distinct dead sub-wires.
func (m *Masks) DeadSubWires() int {
	if m == nil {
		return 0
	}
	return m.dead
}

// ReachableOutputs returns the number of output ports still connected
// to at least one input: a group-level forward flood over the delta
// skeleton, where a link group conducts while any of its d sub-wires
// lives. It is the dilated counterpart of faults.Masks.ReachableOutputs
// and feeds the same reachability column of the sweep reports.
func (m *Masks) ReachableOutputs() int {
	return m.ReachableOutputsInto(make([]bool, m.cfg.Ports()))
}

// ReachableOutputsInto is ReachableOutputs exposing the per-port
// verdict: dst[p] is set to whether output port p is reachable, and the
// count is returned. dst must have length Ports(). Closed-loop drivers
// use the vector as an avoidance list. The flood is an epoch-boundary
// operation (it allocates scratch), not a per-cycle one.
func (m *Masks) ReachableOutputsInto(dst []bool) int {
	ports := m.cfg.Ports()
	if len(dst) != ports {
		panic(fmt.Sprintf("dilatedsim: ReachableOutputsInto got %d slots, want %d ports", len(dst), ports))
	}
	if m.Empty() {
		for i := range dst {
			dst[i] = true
		}
		return ports
	}
	b, d, l := m.cfg.B, m.cfg.D, m.cfg.L
	delta, err := topology.New(b, b, 1, l)
	if err != nil {
		panic(fmt.Sprintf("dilatedsim: %v lost its delta skeleton: %v", m.cfg, err))
	}
	cur := make([]bool, ports)
	next := make([]bool, ports)
	for i := range cur {
		cur[i] = true // every input port is live in the sub-wire model
	}
	nsw := ports / b
	for s := 1; s <= l; s++ {
		row := m.rows[s-1]
		tab := delta.InterstageTable(s) // nil at s == l: groups feed ports
		for i := range next {
			next[i] = false
		}
		for sw := 0; sw < nsw; sw++ {
			any := false
			for g := 0; g < b; g++ {
				if cur[sw*b+g] {
					any = true
					break
				}
			}
			if !any {
				continue
			}
			for bucket := 0; bucket < b; bucket++ {
				o := sw*b + bucket
				liveGroup := row == nil
				if !liveGroup {
					for w := 0; w < d; w++ {
						if row[o*d+w] {
							liveGroup = true
							break
						}
					}
				}
				if !liveGroup {
					continue
				}
				down := o
				if tab != nil {
					down = int(tab[o])
				}
				next[down] = true
			}
		}
		cur, next = next, cur
	}
	n := 0
	for p, ok := range cur {
		dst[p] = ok
		if ok {
			n++
		}
	}
	return n
}

// String renders a census.
func (m *Masks) String() string {
	return fmt.Sprintf("dilatedsim.Masks{%v: %d dead sub-wires}", m.cfg, m.DeadSubWires())
}

// Plan is a nested family of dilated fault sets: At(f1) is a subset of
// At(f2) whenever f1 <= f2, so a sweep's rising fractions grow one
// fixed failure story instead of resampling the world — the same paired
// comparison faults.Plan gives the EDN side of a sweep. Severities are
// drawn in BernoulliSubWires order (boundaries, groups, wires
// ascending), so a given (cfg, rng state) is reproducible.
type Plan struct {
	cfg dilated.Config
	sev [][]float64 // [boundary-1][group*d + wire]
}

// NewPlan draws the per-sub-wire severities for cfg from rng.
func NewPlan(cfg dilated.Config, rng *xrand.Rand) *Plan {
	p := &Plan{cfg: cfg, sev: make([][]float64, cfg.L)}
	for bd := 1; bd <= cfg.L; bd++ {
		row := make([]float64, cfg.Ports()*cfg.D)
		for i := range row {
			row[i] = rng.Float64()
		}
		p.sev[bd-1] = row
	}
	return p
}

// Config returns the plan's network configuration.
func (p *Plan) Config() dilated.Config { return p.cfg }

// At returns the fault set of fraction f: every sub-wire whose severity
// is below f. f <= 0 is the empty set; f >= 1 kills every sub-wire.
func (p *Plan) At(f float64) dilated.FaultSet {
	var set dilated.FaultSet
	d := p.cfg.D
	for bd, row := range p.sev {
		for i, u := range row {
			if u < f {
				set.SubWires = append(set.SubWires, dilated.SubWireID{
					Boundary: bd + 1, Group: i / d, Wire: i % d,
				})
			}
		}
	}
	return set
}

// Churn is a failure/repair process over a dilated network's sub-wires:
// every sub-wire runs an independent alternating-renewal component on
// one lifecycle.Clock — the same renewal rule, holding-time draws and
// repair window as the EDN-side lifecycle.Process — so a lifetime
// comparison churns both networks' redundancy with identically
// distributed outages under the same maintenance rule. Step advances
// one epoch and returns the fault set now in effect, in the vocabulary
// Compile consumes. It is not safe for concurrent use; sweeps build one
// per shard.
type Churn struct {
	cfg   dilated.Config
	clock *lifecycle.Clock
	comps [][]lifecycle.Component // [boundary-1][group*d + wire]
	set   dilated.FaultSet        // reused backing, valid until the next Step
}

// NewChurn validates the spec's renewal fields (MTBF, MTTR, Timing,
// RepairWindow) and draws the initial sub-wire phases from rng. The
// population is always the sub-wires, so spec.Mode and the blast
// overlay, which name EDN structures, are ignored. All sub-wires start
// alive; the population drifts toward MTTR/(MTBF+MTTR) dead over the
// first few MTTRs.
func NewChurn(cfg dilated.Config, spec lifecycle.Spec, rng *xrand.Rand) (*Churn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clock, err := lifecycle.NewClock(spec, rng)
	if err != nil {
		return nil, err
	}
	c := &Churn{cfg: cfg, clock: clock, comps: make([][]lifecycle.Component, cfg.L)}
	for bd := range c.comps {
		row := make([]lifecycle.Component, cfg.Ports()*cfg.D)
		for i := range row {
			row[i] = clock.Start()
		}
		c.comps[bd] = row
	}
	return c, nil
}

// Config returns the process's network configuration.
func (c *Churn) Config() dilated.Config { return c.cfg }

// Epoch returns the number of Step calls so far.
func (c *Churn) Epoch() int { return c.clock.Epoch() }

// DeadFraction returns the currently-dead fraction of the sub-wires.
func (c *Churn) DeadFraction() float64 { return c.clock.DeadFraction() }

// Step advances one epoch and returns the fault set now in effect. The
// returned set reuses the process's backing slice: it is valid until
// the next Step call, which is exactly the lifetime of the
// Compile-and-apply it feeds.
func (c *Churn) Step() dilated.FaultSet {
	c.clock.Advance()
	c.set.SubWires = c.set.SubWires[:0]
	d := c.cfg.D
	for bd, row := range c.comps {
		for i := range row {
			if c.clock.Tick(&row[i]) {
				c.set.SubWires = append(c.set.SubWires, dilated.SubWireID{
					Boundary: bd + 1, Group: i / d, Wire: i % d,
				})
			}
		}
	}
	return c.set
}
