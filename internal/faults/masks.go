package faults

import (
	"fmt"
	"math"

	"edn/internal/topology"
)

// Masks is a compiled fault set: per-stage availability over the
// stage-local output-wire labels the routing kernels index, plus an
// input-side availability row. Masks are immutable after Compile and
// safe to share across goroutines and engines.
//
// Label spaces:
//
//   - LiveStageOutputs(s) for a hyperbar stage s (1 <= s <= l) covers the
//     W_s pre-shuffle output labels o = switch*(b*c) + bucket*c + wire;
//     a grant may take output o only if the entry is true. The row
//     already folds in everything downstream of the grant: the port
//     itself, the post-gamma interstage wire, and the liveness of the
//     stage s+1 switch that wire feeds.
//   - LiveStageOutputs(l+1) covers the network output terminals; a
//     crossbar delivery to terminal t requires entry t.
//   - LiveInputs covers the network input wires; a request entering on a
//     dead input (severed wire, or dead stage-1 switch) is blocked at
//     stage 1 before any arbitration.
//
// A nil row means "stage fully live"; engines keep their unfaulted
// kernels for nil rows, which is what makes the empty mask bit-for-bit
// free.
//
// A nil *Masks is accepted wherever a mask is optional (Empty, the
// engine constructors, the count accessors). Methods that need the
// topology itself — EngineRows, ReachableOutputs, LiveInputCount,
// ExpectedUniformBandwidth — require a compiled mask; Compile(cfg,
// Set{}) yields the fault-free one.
type Masks struct {
	cfg    topology.Config
	liveIn []bool   // nil = all inputs live
	live   [][]bool // [stage-1]; nil row = stage fully live

	deadSwitches int // distinct dead switches
	deadWires    int // distinct dead interstage/input wires
	deadPorts    int // distinct dead output ports
}

// Compile validates set against cfg and folds it into availability
// masks. A nil or zero set compiles to the empty mask.
func Compile(cfg topology.Config, set Set) (*Masks, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i := 0; i <= cfg.L+1; i++ {
		if w := cfg.WiresAfterStage(i); w > math.MaxInt32 {
			return nil, fmt.Errorf("faults: %v has %d wires in one stage, beyond the simulable limit", cfg, w)
		}
	}
	m := &Masks{cfg: cfg}
	if set.IsZero() {
		return m, nil
	}

	// Distinct dead switches per stage (1-based stage at index stage-1).
	deadSw := make([]map[int]bool, cfg.L+2)
	for _, id := range set.Switches {
		if id.Stage < 1 || id.Stage > cfg.L+1 {
			return nil, fmt.Errorf("faults: switch stage %d out of range [1,%d]", id.Stage, cfg.L+1)
		}
		if n := cfg.SwitchesInStage(id.Stage); id.Switch < 0 || id.Switch >= n {
			return nil, fmt.Errorf("faults: switch %d out of range [0,%d) in stage %d", id.Switch, n, id.Stage)
		}
		if deadSw[id.Stage] == nil {
			deadSw[id.Stage] = make(map[int]bool)
		}
		if !deadSw[id.Stage][id.Switch] {
			deadSw[id.Stage][id.Switch] = true
			m.deadSwitches++
		}
	}

	// Distinct dead wires per boundary (post-shuffle labels).
	deadWire := make([]map[int]bool, cfg.L+1)
	for _, id := range set.Wires {
		if id.Boundary < 0 || id.Boundary > cfg.L {
			return nil, fmt.Errorf("faults: wire boundary %d out of range [0,%d]", id.Boundary, cfg.L)
		}
		if w := cfg.WiresAfterStage(id.Boundary); id.Wire < 0 || id.Wire >= w {
			return nil, fmt.Errorf("faults: wire %d out of range [0,%d) at boundary %d", id.Wire, w, id.Boundary)
		}
		if deadWire[id.Boundary] == nil {
			deadWire[id.Boundary] = make(map[int]bool)
		}
		if !deadWire[id.Boundary][id.Wire] {
			deadWire[id.Boundary][id.Wire] = true
			m.deadWires++
		}
	}

	// Distinct dead output ports per stage (pre-shuffle labels).
	deadPort := make([]map[int]bool, cfg.L+2)
	for _, id := range set.Ports {
		if id.Stage < 1 || id.Stage > cfg.L+1 {
			return nil, fmt.Errorf("faults: port stage %d out of range [1,%d]", id.Stage, cfg.L+1)
		}
		if n := cfg.SwitchesInStage(id.Stage); id.Switch < 0 || id.Switch >= n {
			return nil, fmt.Errorf("faults: port switch %d out of range [0,%d) in stage %d", id.Switch, n, id.Stage)
		}
		var label int
		if id.Stage == cfg.L+1 {
			if id.Bucket < 0 || id.Bucket >= cfg.C || id.Wire != 0 {
				return nil, fmt.Errorf("faults: crossbar port (%d,%d) invalid (want bucket in [0,%d), wire 0)", id.Bucket, id.Wire, cfg.C)
			}
			label = id.Switch*cfg.C + id.Bucket
		} else {
			if id.Bucket < 0 || id.Bucket >= cfg.B {
				return nil, fmt.Errorf("faults: bucket %d out of range [0,%d)", id.Bucket, cfg.B)
			}
			if id.Wire < 0 || id.Wire >= cfg.C {
				return nil, fmt.Errorf("faults: bucket wire %d out of range [0,%d)", id.Wire, cfg.C)
			}
			label = id.Switch*cfg.B*cfg.C + id.Bucket*cfg.C + id.Wire
		}
		if deadPort[id.Stage] == nil {
			deadPort[id.Stage] = make(map[int]bool)
		}
		if !deadPort[id.Stage][label] {
			deadPort[id.Stage][label] = true
			m.deadPorts++
		}
	}

	// Input row: severed boundary-0 wires plus the a inputs of every dead
	// stage-1 switch.
	inputs := cfg.Inputs()
	if len(deadWire[0]) > 0 || len(deadSw[1]) > 0 {
		liveIn := allTrue(inputs)
		for w := range deadWire[0] {
			liveIn[w] = false
		}
		for sw := range deadSw[1] {
			for p := 0; p < cfg.A; p++ {
				liveIn[sw*cfg.A+p] = false
			}
		}
		m.liveIn = normalize(liveIn)
	}

	// Hyperbar stage rows: output o of stage s is dead if its own switch
	// or port is dead, its post-shuffle wire is severed, or the stage s+1
	// switch that wire feeds is dead.
	m.live = make([][]bool, cfg.L+1)
	bc := cfg.B * cfg.C
	for s := 1; s <= cfg.L; s++ {
		downWidth := cfg.A
		if s == cfg.L {
			downWidth = cfg.C // boundary l feeds the c x c crossbars
		}
		needed := len(deadSw[s]) > 0 || len(deadPort[s]) > 0 || len(deadWire[s]) > 0 || len(deadSw[s+1]) > 0
		if !needed {
			continue
		}
		wires := cfg.WiresAfterStage(s)
		row := allTrue(wires)
		tab := cfg.InterstageTable(s) // nil = identity
		for o := 0; o < wires; o++ {
			down := o
			if tab != nil {
				down = int(tab[o])
			}
			switch {
			case deadSw[s][o/bc]:
				row[o] = false
			case deadPort[s][o]:
				row[o] = false
			case deadWire[s][down]:
				row[o] = false
			case deadSw[s+1][down/downWidth]:
				row[o] = false
			}
		}
		m.live[s-1] = normalize(row)
	}

	// Crossbar row over the output terminals.
	if len(deadSw[cfg.L+1]) > 0 || len(deadPort[cfg.L+1]) > 0 {
		outputs := cfg.Outputs()
		row := allTrue(outputs)
		for t := 0; t < outputs; t++ {
			if deadSw[cfg.L+1][t/cfg.C] || deadPort[cfg.L+1][t] {
				row[t] = false
			}
		}
		m.live[cfg.L] = normalize(row)
	}

	if m.Empty() {
		m.live = nil
	}
	return m, nil
}

// MustCompile is Compile for sets known valid by construction (sampler
// output); it panics on error.
func MustCompile(cfg topology.Config, set Set) *Masks {
	m, err := Compile(cfg, set)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the configuration the masks were compiled for.
func (m *Masks) Config() topology.Config { return m.cfg }

// Empty reports whether the masks disable nothing — the engines treat
// an empty mask exactly like no mask at all.
func (m *Masks) Empty() bool {
	if m == nil {
		return true
	}
	if m.liveIn != nil {
		return false
	}
	for _, row := range m.live {
		if row != nil {
			return false
		}
	}
	return true
}

// LiveInputs returns the network-input availability row, or nil if all
// inputs are live. The slice is shared; callers must not modify it.
func (m *Masks) LiveInputs() []bool {
	if m == nil {
		return nil
	}
	return m.liveIn
}

// LiveStageOutputs returns stage s's output availability row (1-based;
// stage l+1 covers the output terminals), or nil if the stage is fully
// live. The slice is shared; callers must not modify it.
func (m *Masks) LiveStageOutputs(s int) []bool {
	if m == nil || m.live == nil {
		return nil
	}
	if s < 1 || s > m.cfg.L+1 {
		panic(fmt.Sprintf("faults: stage %d out of range [1,%d]", s, m.cfg.L+1))
	}
	return m.live[s-1]
}

// DeadSwitches returns the number of distinct dead switches.
func (m *Masks) DeadSwitches() int {
	if m == nil {
		return 0
	}
	return m.deadSwitches
}

// DeadWires returns the number of distinct severed wires (including
// input wires at boundary 0).
func (m *Masks) DeadWires() int {
	if m == nil {
		return 0
	}
	return m.deadWires
}

// DeadPorts returns the number of distinct dead switch output ports.
func (m *Masks) DeadPorts() int {
	if m == nil {
		return 0
	}
	return m.deadPorts
}

// EngineRows returns the input availability row and fills rows (one
// per stage, index stage-1, stages 1..l+1) with the stage output rows
// for an engine built over cfg, validating that the masks were compiled
// for that configuration. Empty masks — nil included — return all-nil
// rows, which engines treat as fully live. It allocates nothing, so an
// engine can call it on every mask swap.
func (m *Masks) EngineRows(cfg topology.Config, rows [][]bool) (liveIn []bool, live [][]bool, err error) {
	if m.Empty() {
		return nil, nil, nil
	}
	if got := m.Config(); got != cfg {
		return nil, nil, fmt.Errorf("faults: masks compiled for %v, network is %v", got, cfg)
	}
	for s := range rows {
		rows[s] = m.LiveStageOutputs(s + 1)
	}
	return m.liveIn, rows, nil
}

// ReachableOutputs returns how many output terminals remain connected
// to at least one live network input through live components, by
// forward flood over the masked topology. A fault-free network reaches
// all Outputs(). m must be a compiled mask (nil has no topology).
func (m *Masks) ReachableOutputs() int {
	if m == nil {
		panic("faults: ReachableOutputs needs a compiled mask; Compile(cfg, Set{}) is the fault-free one")
	}
	return m.ReachableOutputsInto(make([]bool, m.cfg.Outputs()))
}

// ReachableOutputsInto is ReachableOutputs exposing the per-terminal
// verdict: dst[t] is set to whether output terminal t is reachable from
// some live input, and the count is returned. dst must have length
// Outputs(). Closed-loop drivers use the vector as an avoidance list —
// a source should not address an output the fault state has cut off.
// The flood is an epoch-boundary operation (it allocates scratch), not
// a per-cycle one.
func (m *Masks) ReachableOutputsInto(dst []bool) int {
	if m == nil {
		panic("faults: ReachableOutputsInto needs a compiled mask; Compile(cfg, Set{}) is the fault-free one")
	}
	cfg := m.cfg
	if len(dst) != cfg.Outputs() {
		panic(fmt.Sprintf("faults: ReachableOutputsInto got %d slots, want %d outputs", len(dst), cfg.Outputs()))
	}
	// fed[w] = boundary wire w carries traffic from some live input.
	fed := make([]bool, cfg.Inputs())
	for i := range fed {
		fed[i] = m.liveIn == nil || m.liveIn[i]
	}
	bc := cfg.B * cfg.C
	for s := 1; s <= cfg.L; s++ {
		row := m.LiveStageOutputs(s)
		wires := cfg.WiresAfterStage(s)
		next := make([]bool, wires)
		tab := cfg.InterstageTable(s)
		nsw := cfg.SwitchesInStage(s)
		for sw := 0; sw < nsw; sw++ {
			swFed := false
			for p := 0; p < cfg.A; p++ {
				if fed[sw*cfg.A+p] {
					swFed = true
					break
				}
			}
			if !swFed {
				continue
			}
			for o := sw * bc; o < (sw+1)*bc; o++ {
				if row != nil && !row[o] {
					continue
				}
				down := o
				if tab != nil {
					down = int(tab[o])
				}
				next[down] = true
			}
		}
		fed = next
	}
	row := m.LiveStageOutputs(cfg.L + 1)
	reach := 0
	for t := 0; t < cfg.Outputs(); t++ {
		dst[t] = false
		if row != nil && !row[t] {
			continue
		}
		sw := t / cfg.C
		for p := 0; p < cfg.C; p++ {
			if fed[sw*cfg.C+p] {
				dst[t] = true
				reach++
				break
			}
		}
	}
	return reach
}

// LiveInputCount returns how many network inputs can still inject.
// m must be a compiled mask (nil has no topology).
func (m *Masks) LiveInputCount() int {
	if m == nil {
		panic("faults: LiveInputCount needs a compiled mask; Compile(cfg, Set{}) is the fault-free one")
	}
	if m.liveIn == nil {
		return m.cfg.Inputs()
	}
	n := 0
	for _, ok := range m.liveIn {
		if ok {
			n++
		}
	}
	return n
}

// String summarizes the compiled fault state.
func (m *Masks) String() string {
	return fmt.Sprintf("masks(%v: %d dead switches, %d dead wires, %d dead ports, %d/%d outputs reachable)",
		m.cfg, m.deadSwitches, m.deadWires, m.deadPorts, m.ReachableOutputs(), m.cfg.Outputs())
}

func allTrue(n int) []bool {
	row := make([]bool, n)
	for i := range row {
		row[i] = true
	}
	return row
}

// normalize returns nil for an all-true row so engines keep their
// unfaulted fast paths.
func normalize(row []bool) []bool {
	for _, ok := range row {
		if !ok {
			return row
		}
	}
	return nil
}
