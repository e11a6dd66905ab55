// Package core implements the paper's primary contribution as an
// executable artifact: a cycle-level, circuit-switched Expanded Delta
// Network. It binds the static structure of internal/topology and the
// hyperbar/crossbar arbitration of internal/switchfab into a Network
// that arbitrates whole request batches exactly as Section 2 describes.
//
// One RouteCycle call models one network cycle: every request propagates
// stage by stage; a hyperbar bucket accepts at most c requests; losers
// are dropped (circuit switched, no buffering); survivors of the final
// c x c crossbar stage appear on the output terminals they reached.
//
// A Network is the EDN's internal/wiring description run by the
// wiring's unbuffered kernel, the same kernel internal/queuesim's
// depth-0 engine runs over either fabric. This package adds the
// request-level readout: per-input Outcomes, per-stage CycleStats and
// the flight-recorder probe. RouteCycleInto reuses every buffer, so the
// Monte-Carlo harnesses in internal/simulate can run millions of cycles
// without touching the allocator.
package core

import (
	"fmt"

	"edn/internal/faults"
	"edn/internal/probe"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/wiring"
)

// NoRequest marks an idle input in a request vector, and "not delivered"
// in an output assignment.
const NoRequest = wiring.NoRequest

// ArbiterFactory builds one arbiter per physical switch. Stateful
// arbiters (round robin, random) need per-switch instances; stateless
// ones may return a shared value.
type ArbiterFactory = wiring.ArbiterFactory

// PriorityArbiters is the default factory: the paper's input-label
// priority rule.
func PriorityArbiters() switchfab.Arbiter { return switchfab.PriorityArbiter{} }

// Network is an instantiated EDN ready to route request batches. It is
// not safe for concurrent use; build one per goroutine (construction
// cost is dominated by the interstage tables, a small multiple of one
// wire-state slice).
type Network struct {
	cfg     topology.Config
	w       wiring.State
	rows    [][]bool // [stage-1] fault rows handed to SetLive
	blocked []int    // CycleStats.Blocked backing store

	// Optional flight-recorder probe, fed from the kernel's fates after
	// each cycle, so a nil probe costs one predictable branch.
	probe    *probe.Probe
	traceIn  []int   // input index of each sampled request this cycle
	traceRec []int32 // matching open trace record handles
	pcycle   int64   // probe timestamp: cycles routed since SetProbe
}

// NewNetwork builds a network for cfg. A nil factory selects the paper's
// priority arbitration.
func NewNetwork(cfg topology.Config, factory ArbiterFactory) (*Network, error) {
	return NewNetworkWithFaults(cfg, factory, nil)
}

// NewNetworkWithFaults builds a network that routes around the
// components disabled by m (see internal/faults): grants only go to
// live candidate wires, a request whose whole bucket is dead is blocked
// at that stage, and a request arriving on a dead input is blocked at
// stage 1. A nil or empty mask is exactly NewNetwork.
func NewNetworkWithFaults(cfg topology.Config, factory ArbiterFactory, m *faults.Masks) (*Network, error) {
	return newNetwork(cfg, nil, factory, m)
}

// NewNetworkFromTables is NewNetworkWithFaults over prebuilt interstage
// tables: the network shares t's read-only slices instead of
// materializing its own, so repeated constructions over one cached
// Tables skip the dominant O(wires) build cost while remaining
// bit-for-bit identical to a fresh build.
func NewNetworkFromTables(t *topology.Tables, factory ArbiterFactory, m *faults.Masks) (*Network, error) {
	if t == nil {
		return nil, fmt.Errorf("core: nil tables")
	}
	return newNetwork(t.Config(), t, factory, m)
}

func newNetwork(cfg topology.Config, tables *topology.Tables, factory ArbiterFactory, m *faults.Masks) (*Network, error) {
	w, err := wiring.EDN(cfg, tables)
	if err != nil {
		return nil, err
	}
	ws, err := wiring.New(w, factory)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	n := &Network{cfg: cfg, w: ws, rows: make([][]bool, cfg.Stages()), blocked: make([]int, cfg.Stages())}
	if err := n.UpdateFaults(m); err != nil {
		return nil, err
	}
	return n, nil
}

// UpdateFaults swaps the network's availability masks in place: the next
// RouteCycle routes around exactly the components m disables, without
// rebuilding tables, scratch or arbiter state. A nil or empty mask
// restores full availability bit-for-bit (the network becomes
// indistinguishable from one built by NewNetwork, arbiter state aside).
// The swap itself allocates nothing, so an epoch-driven lifecycle loop
// stays allocation-free in steady state. Masks must have been compiled
// for this network's configuration; on error the previous masks remain
// in effect. Not safe to call concurrently with RouteCycleInto.
func (n *Network) UpdateFaults(m *faults.Masks) error {
	liveIn, rows, err := m.EngineRows(n.cfg, n.rows)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	n.w.SetLive(liveIn, rows)
	return nil
}

// Faulted reports whether the network was built with a non-empty fault
// mask.
func (n *Network) Faulted() bool { return n.w.Faulted }

// ProbeMetrics is the per-stage heat metric set a core network binds
// its probe to: requests offered (stage 1 row), requests dropped per
// stage, and requests delivered (crossbar row).
var ProbeMetrics = []string{"offered", "blocked", "delivered"}

const (
	pmOffered = iota
	pmBlocked
	pmDelivered
)

// SetProbe attaches (or with nil, detaches) a flight-recorder probe.
// The probe's cycle clock starts at 0 on attach: core networks keep no
// wall time of their own, so hop stamps count RouteCycle calls since
// SetProbe. A nil probe restores the uninstrumented cycle path
// bit-for-bit. Not safe to call concurrently with RouteCycleInto.
func (n *Network) SetProbe(p *probe.Probe) {
	n.probe = p
	if p != nil {
		p.Bind(n.cfg.Stages(), ProbeMetrics)
		if n.traceIn == nil {
			n.traceIn = make([]int, n.cfg.Inputs())
			n.traceRec = make([]int32, n.cfg.Inputs())
		}
	}
	n.pcycle = 0
}

// Config returns the network's configuration.
func (n *Network) Config() topology.Config { return n.cfg }

// Outcome reports the fate of one input's request in a cycle.
type Outcome struct {
	// Output is the network output terminal the request reached, or
	// NoRequest if the input was idle or the request was blocked.
	Output int
	// BlockedStage is the 1-based stage at which the request lost
	// arbitration, or 0 if it was idle or delivered.
	BlockedStage int
}

// Delivered reports whether the request reached an output.
func (o Outcome) Delivered() bool { return o.Output != NoRequest }

// CycleStats aggregates one RouteCycle call.
type CycleStats struct {
	Offered   int   // inputs carrying a request
	Delivered int   // requests that reached their destination
	Blocked   []int // Blocked[s-1] = requests dropped at stage s
}

// BlockedTotal returns the total number of dropped requests.
func (cs CycleStats) BlockedTotal() int {
	t := 0
	for _, b := range cs.Blocked {
		t += b
	}
	return t
}

// PA returns the cycle's empirical probability of acceptance
// (delivered/offered), or 1 for an idle cycle.
func (cs CycleStats) PA() float64 {
	if cs.Offered == 0 {
		return 1
	}
	return float64(cs.Delivered) / float64(cs.Offered)
}

// RouteCycle routes one batch of requests: dest[i] is the destination
// terminal requested by input i, or NoRequest. It returns one Outcome per
// input plus aggregate statistics.
//
// Digit retirement follows Section 2: stage i consumes d_(l-i) of the
// destination tag, the final crossbar stage consumes x. The c-way wire
// freedom inside each bucket (Theorem 2) is resolved by arbitration
// order, which is how the MasPar hyperbar behaves.
//
// RouteCycle allocates its result slices; steady-state measurement loops
// should call RouteCycleInto instead.
func (n *Network) RouteCycle(dest []int) ([]Outcome, CycleStats, error) {
	outcomes := make([]Outcome, n.cfg.Inputs())
	cs, err := n.RouteCycleInto(dest, outcomes)
	if err != nil {
		return nil, CycleStats{}, err
	}
	cs.Blocked = append([]int(nil), cs.Blocked...)
	return outcomes, cs, nil
}

// RouteCycleInto is RouteCycle with caller-owned memory: outcomes (one
// slot per input) receives every input's fate, and all engine scratch —
// the kernel's wave buffers, the stats' Blocked slice — is reused across
// calls, so a steady-state loop performs no allocations. A batch of the
// wrong length or with an out-of-range destination is refused before
// any arbiter or probe state moves; an arbiter's malformed order aborts
// the cycle with an error before any Outcome or probe record is written.
//
// The returned CycleStats.Blocked aliases an internal buffer that the
// next RouteCycleInto call on this network overwrites; callers that keep
// it across cycles must copy it (RouteCycle does exactly that).
func (n *Network) RouteCycleInto(dest []int, outcomes []Outcome) (CycleStats, error) {
	cfg := n.cfg
	inputs, outputs := cfg.Inputs(), cfg.Outputs()
	if len(dest) != inputs {
		return CycleStats{}, fmt.Errorf("core: %v got %d requests, want %d inputs", cfg, len(dest), inputs)
	}
	if len(outcomes) != inputs {
		return CycleStats{}, fmt.Errorf("core: %v got %d outcome slots, want %d inputs", cfg, len(outcomes), inputs)
	}
	for i, d := range dest {
		if d != NoRequest && (d < 0 || d >= outputs) {
			return CycleStats{}, fmt.Errorf("core: input %d requests output %d out of range [0,%d)", i, d, outputs)
		}
	}
	if err := n.w.Route(dest); err != nil {
		return CycleStats{}, fmt.Errorf("core: %w", err)
	}
	clear(n.blocked)
	stats := CycleStats{Blocked: n.blocked}
	traced := 0
	for i, d := range dest {
		if d == NoRequest {
			outcomes[i] = Outcome{Output: NoRequest}
			continue
		}
		stats.Offered++
		if f := int(n.w.Fate[i]); f >= 0 {
			outcomes[i] = Outcome{Output: f}
			stats.Delivered++
		} else {
			outcomes[i] = Outcome{Output: NoRequest, BlockedStage: -f}
			stats.Blocked[-f-1]++
		}
		// Requests on a dead input never enter the network and are
		// never sampled.
		if n.probe != nil && (n.w.LiveIn == nil || n.w.LiveIn[i]) {
			if rec := n.probe.SampleInject(i, d, n.pcycle); rec >= 0 {
				n.probe.HopRec(rec, 0, probe.EvInject, n.pcycle)
				n.traceIn[traced], n.traceRec[traced] = i, rec
				traced++
			}
		}
	}
	if n.probe != nil {
		n.record(stats, traced)
	}
	return stats, nil
}

// record closes the cycle's sampled trace records and heat row.
// Circuit switching settles every request within its cycle: a request
// blocked at stage f traversed stages 1..f-1 and drops at f, and a
// delivered one traversed every hyperbar stage and delivers at the
// crossbar. Records close only after the whole batch is sampled, so
// every record of the cycle is in flight while the next is allocated
// and the probe never reuses a trace slot within one cycle.
func (n *Network) record(stats CycleStats, traced int) {
	for t := 0; t < traced; t++ {
		stop, ev := n.cfg.Stages(), probe.EvDeliver
		if f := int(n.w.Fate[n.traceIn[t]]); f < 0 {
			stop, ev = -f, probe.EvDrop
		}
		for s := 1; s < stop; s++ {
			n.probe.HopRec(n.traceRec[t], s, probe.EvTraverse, n.pcycle)
		}
		n.probe.CloseRec(n.traceRec[t], stop, ev, n.pcycle)
	}
	n.probe.AddStage(pmOffered, 0, float64(stats.Offered))
	for s, b := range stats.Blocked {
		n.probe.AddStage(pmBlocked, s, float64(b))
	}
	n.probe.AddStage(pmDelivered, n.cfg.Stages()-1, float64(stats.Delivered))
	n.probe.EndCycle()
	n.pcycle++
}
