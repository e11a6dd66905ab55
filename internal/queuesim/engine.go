package queuesim

import (
	"fmt"
	"math"
	"math/bits"

	"edn/internal/anatomy"
	"edn/internal/core"
	"edn/internal/probe"
	"edn/internal/ringbuf"
	"edn/internal/stats"
	"edn/internal/switchfab"
)

// Stage is one switch stage of a Wiring: Switches identical switches of
// Width inputs, each with Buckets output buckets of Wires wires. A
// packet leaves a switch on the bucket named by its routing digit,
// dest>>Shift & Mask, on the first of the bucket's wires still free.
type Stage struct {
	Switches int
	Width    int
	Buckets  int
	Wires    int
	Shift    uint
	Mask     uint32
	// Table maps the stage-output label (sw*Buckets + bucket)*Wires +
	// wire onto the next stage's input wire; nil is the identity. The
	// last stage has no table: its output label sw*Buckets + digit is
	// the network output terminal the packet retires at.
	Table []int32
}

// Wiring is the structure an Engine simulates: its stages in order,
// the first stage's inputs being the network inputs. Both fabrics of
// the paper's comparison are wirings of the same engine. The EDN is
// l stages of a-input hyperbars with b buckets of c wires, then c x c
// crossbars (c buckets of 1 wire). The d-dilated delta is l stages of
// b buckets of d wires, then one output port per terminal (d inputs, 1
// bucket of 1 wire). The engine relies on a bucket's wires all landing
// on one next-stage switch, which holds for both, so a packet's switch
// path is fixed by its input and destination.
type Wiring struct {
	Name   string // rendered in error messages
	Stages []Stage
}

// stage is a Stage plus the engine's per-stage state.
type stage struct {
	Stage
	base    int     // first ring of the stage's input boundary
	live    []bool  // output-label availability; nil = fully live
	liveCap []int32 // [sw*Buckets+bucket] live wires of the bucket under live
}

// Engine is the packet engine behind both fabrics. Its pipelined state
// is one FIFO per stage-input wire plus an occupancy bitmap over them,
// so a cycle's advance costs in proportion to the FIFOs holding packets
// rather than to the wire count. It is not safe for concurrent use; the
// sweep harness builds one per shard.
type Engine struct {
	name    string
	opts    Options
	drop    bool
	st      []stage
	inputs  int
	outputs int

	// Pipelined state (Depth != 0): one FIFO per stage-input wire, the
	// wires of stage s at rings[st[s].base:]. Bit i of occ is set exactly
	// when rings[i] is non-empty: push sets it, and every pop that
	// empties a ring clears it.
	rings []ringbuf.Ring
	occ   []uint64

	// Fault availability, swapped between cycles by SetLive. liveIn
	// masks the network inputs (nil = all live). deadRing (nil when every
	// wire is live) marks rings whose feeding wire is dead: their queued
	// packets are stranded and their heads skipped by arbitration.
	liveIn         []bool
	faulted        bool
	deadRing       []bool
	deadRingBuf    []bool
	strandedQueued int64 // packets parked in dead rings (Backpressure)

	factory      core.ArbiterFactory
	fastPriority bool
	arbiters     [][]switchfab.Arbiter // [stage][switch], lazily built
	used         []int32               // per-bucket wires consumed this cycle
	order        []int                 // arbiter-path arbitration order

	// Unbuffered state (Depth == 0): one in-flight slot per input. The
	// wave buffers carry each boundary's wire occupancy (origin input,
	// -1 empty) through the within-cycle stage sweep; fate records where
	// each pending packet's wave stopped (0 = delivered).
	pending []int
	pendAt  []int64
	waveA   []int32
	waveB   []int32
	fate    []int32

	now       int64
	queued    int64
	totals    Totals
	perStage  []int64 // drops per stage (Policy Drop)
	lat       *stats.Histogram
	idleBatch []int // all-NoRequest injection vector for Drain

	// deliver, when set, observes every retirement (see SetDeliveryHook).
	deliver func(dest int, inject int64)

	// probe, when set, flight-records sampled packets and per-stage heat
	// (see SetProbe). pendTrace holds the unbuffered corner's per-input
	// trace record handles (-1 = untraced), mirroring pending.
	probe     *probe.Probe
	pendTrace []int32

	// anat, when set, mirrors every FIFO and attributes each in-flight
	// packet's cycles to wait/block/service (see SetAnatomy).
	anat *anatomy.Collector
}

// NewEngine builds an engine over w. Options.Faults and Options.Tables
// are ignored: the fabric constructors compile them into the wiring and
// SetLive.
func NewEngine(w Wiring, opts Options) (*Engine, error) {
	if len(w.Stages) == 0 {
		return nil, fmt.Errorf("queuesim: %s has no stages", w.Name)
	}
	if opts.Depth < Unbounded {
		return nil, fmt.Errorf("queuesim: depth %d invalid (want >= 1, 0, or Unbounded)", opts.Depth)
	}
	switch opts.Policy {
	case Backpressure, Drop:
	default:
		return nil, fmt.Errorf("queuesim: unknown policy %d", int(opts.Policy))
	}
	opts = opts.withDefaults()
	n := &Engine{
		name:         w.Name,
		opts:         opts,
		drop:         opts.Policy == Drop,
		st:           make([]stage, len(w.Stages)),
		factory:      opts.Factory,
		fastPriority: opts.Factory == nil,
		arbiters:     make([][]switchfab.Arbiter, len(w.Stages)),
		perStage:     make([]int64, len(w.Stages)),
		lat:          stats.NewHistogram(opts.LatencyBuckets, opts.LatencyBucketWidth),
	}
	if n.factory == nil {
		n.factory = core.PriorityArbiters
	}
	total, widest, buckets := 0, 0, 0
	wires := w.Stages[0].Switches * w.Stages[0].Width
	widestBoundary := wires
	for s, sd := range w.Stages {
		in := sd.Switches * sd.Width
		out := sd.Switches * sd.Buckets * sd.Wires
		if in != wires {
			return nil, fmt.Errorf("queuesim: %s stage %d has %d inputs, fed by %d wires", w.Name, s+1, in, wires)
		}
		if out > math.MaxInt32 {
			return nil, fmt.Errorf("queuesim: %s has %d wires in one stage, beyond the simulable limit", w.Name, out)
		}
		n.st[s] = stage{Stage: sd, base: total, liveCap: make([]int32, sd.Switches*sd.Buckets)}
		n.arbiters[s] = make([]switchfab.Arbiter, sd.Switches)
		total += in
		widest = max(widest, sd.Width)
		buckets = max(buckets, sd.Buckets)
		widestBoundary = max(widestBoundary, out)
		wires = out
	}
	last := w.Stages[len(w.Stages)-1]
	n.inputs = w.Stages[0].Switches * w.Stages[0].Width
	n.outputs = last.Switches * last.Buckets
	n.used = make([]int32, buckets)
	n.order = make([]int, widest)

	if opts.Depth == 0 {
		n.pending = make([]int, n.inputs)
		for i := range n.pending {
			n.pending[i] = NoRequest
		}
		n.pendAt = make([]int64, n.inputs)
		n.fate = make([]int32, n.inputs)
		n.waveA = make([]int32, widestBoundary)
		n.waveB = make([]int32, widestBoundary)
		return n, nil
	}
	n.rings = make([]ringbuf.Ring, total)
	n.occ = make([]uint64, (total+63)/64)
	if opts.Depth >= 1 {
		// One flat backing array, power-of-two slots per ring, so the
		// steady state never allocates and neighbors share cache lines.
		slot := 1
		for slot < opts.Depth {
			slot <<= 1
		}
		backing := make([]uint64, total*slot)
		for i := range n.rings {
			n.rings[i].Buf = backing[i*slot : (i+1)*slot]
		}
	}
	n.deadRingBuf = make([]bool, total)
	return n, nil
}

// SetLive swaps the engine's availability masks in place: liveIn over
// the network inputs, rows[s] over stage s's output labels (a missing
// or nil row is a fully live stage). Packets keep flowing through the
// same rings, tables and arbiter state while the live set changes
// under them. The swap allocates nothing; the engine never writes the
// rows. All nil restores the unmasked fast paths bit-for-bit.
//
// Packets already queued on a wire that dies are stranded and handled
// by policy: under Drop they are discarded immediately and counted in
// Totals.Stranded; under Backpressure they stay parked in place —
// skipped by arbitration, reported each cycle via
// CycleStats.ParkedOnDead — and resume unharmed when the wire is
// repaired. Not safe to call concurrently with Cycle.
func (n *Engine) SetLive(liveIn []bool, rows [][]bool) {
	n.liveIn = liveIn
	n.faulted = liveIn != nil
	for s := range n.st {
		st := &n.st[s]
		st.live = nil
		if s < len(rows) {
			st.live = rows[s]
		}
		if st.live == nil {
			continue
		}
		n.faulted = true
		for b := range st.liveCap {
			liveCnt := int32(0)
			for _, ok := range st.live[b*st.Wires : (b+1)*st.Wires] {
				if ok {
					liveCnt++
				}
			}
			st.liveCap[b] = liveCnt
		}
	}
	if n.opts.Depth != 0 {
		n.refreshDeadRings()
	}
}

// refreshDeadRings recomputes which FIFOs sit on dead wires (a ring is
// the buffer at a wire's downstream end) and strands the packets queued
// in them per policy. O(wires) per mask swap, no allocations.
func (n *Engine) refreshDeadRings() {
	n.deadRing, n.strandedQueued = nil, 0
	if !n.faulted {
		return
	}
	clear(n.deadRingBuf)
	for w, ok := range n.liveIn {
		if !ok {
			n.deadRingBuf[w] = true
			n.deadRing = n.deadRingBuf
		}
	}
	for s := 0; s+1 < len(n.st); s++ {
		st := &n.st[s]
		for o, ok := range st.live {
			if ok {
				continue
			}
			down := o
			if st.Table != nil {
				down = int(st.Table[o])
			}
			n.deadRingBuf[n.st[s+1].base+down] = true
			n.deadRing = n.deadRingBuf
		}
	}
	for i := range n.deadRing {
		r := &n.rings[i]
		if !n.deadRing[i] || r.N == 0 {
			continue
		}
		stranded := int64(r.N)
		if !n.drop {
			n.strandedQueued += stranded
			if n.probe != nil {
				for k := int32(0); k < r.N; k++ {
					pkt := r.Buf[(int(r.Head)+int(k))&(len(r.Buf)-1)]
					if pkt&ringbuf.TraceBit != 0 {
						n.probe.Hop(pkt, n.ringStage(i), probe.EvPark, n.now)
					}
				}
			}
			continue
		}
		for r.N > 0 {
			pkt := n.pop(i)
			if n.probe != nil && pkt&ringbuf.TraceBit != 0 {
				n.probe.Close(pkt, n.ringStage(i), probe.EvStrand, n.now)
			}
			if n.anat != nil {
				n.anat.Strand(i, n.now)
			}
		}
		n.queued -= stranded
		n.totals.Stranded += stranded
	}
}

// Depth returns the configured FIFO depth.
func (n *Engine) Depth() int { return n.opts.Depth }

// Policy returns the configured blocked-packet discipline.
func (n *Engine) Policy() Policy { return n.opts.Policy }

// Stages returns the stage count, the last stage included.
func (n *Engine) Stages() int { return len(n.st) }

// Now returns the number of cycles simulated so far.
func (n *Engine) Now() int64 { return n.now }

// Queued returns the number of packets currently inside the network.
func (n *Engine) Queued() int64 { return n.queued }

// Totals returns the lifetime packet counters.
func (n *Engine) Totals() Totals { return n.totals }

// DroppedPerStage returns a copy of the per-stage drop counters
// (1-based stage s at index s-1; all zeros under Backpressure).
func (n *Engine) DroppedPerStage() []int64 {
	return append([]int64(nil), n.perStage...)
}

// Latency returns the live delivery-latency histogram. Latency is
// measured in cycles from injection to retirement at the destination
// terminal: the pipelined network's floor is Stages() (one hop per
// cycle); the unbuffered corner's floor is 1 (whole-network transit in
// the injection cycle). The histogram keeps accumulating as the network
// runs; ResetLatency starts a fresh measurement window.
func (n *Engine) Latency() *stats.Histogram { return n.lat }

// ResetLatency clears the latency histogram — typically called after
// warmup so measured quantiles exclude the fill transient. Queue state
// and lifetime totals are unaffected.
func (n *Engine) ResetLatency() { n.lat.Reset() }

// SetDeliveryHook installs fn to be called once per retired packet,
// with the packet's destination terminal and its injection cycle
// truncated to the 32 bits the in-flight word carries (compare against
// int64(uint32(cycle))). The hook fires inside Cycle after the
// delivery is counted; it must not call back into the network. A nil
// fn removes the hook. Closed-loop drivers (internal/closedloop) use
// this to match deliveries to outstanding requests without adding any
// per-packet state; installing the hook once at construction keeps the
// steady-state advance allocation-free.
func (n *Engine) SetDeliveryHook(fn func(dest int, inject int64)) { n.deliver = fn }

// ProbeMetrics names the per-stage heat metrics the engine reports, in
// the AddStage index order of the pm* constants.
var ProbeMetrics = []string{"occupancy", "hol_blocked", "parked", "dropped"}

const (
	pmOccupancy = iota
	pmHolBlocked
	pmParked
	pmDropped
)

// SetProbe attaches a flight-recorder probe (nil detaches). The probe
// observes without perturbing: every routing, arbitration and queueing
// decision is identical with or without it, and the nil check costs one
// predictable branch per site (BenchmarkProbeOff pins the nil path at
// 0 allocs/op). Heat rows are bound per stage; sampled packets carry
// ringbuf.TraceBit through the rings. Not safe to swap mid-cycle.
func (n *Engine) SetProbe(p *probe.Probe) {
	n.probe = p
	if p == nil {
		return
	}
	p.Bind(len(n.st), ProbeMetrics)
	if n.opts.Depth == 0 && n.pendTrace == nil {
		n.pendTrace = make([]int32, n.inputs)
	}
	for i := range n.pendTrace {
		n.pendTrace[i] = -1
	}
}

// SetAnatomy attaches a latency-anatomy collector (nil detaches),
// binding it to this network's ring geometry. Like the probe, the
// collector observes without perturbing — no routing, arbitration or
// queueing decision changes, and the detached path costs one branch
// per site (BenchmarkAnatomyOff pins it at 0 allocs/op). Not safe to
// swap mid-cycle.
func (n *Engine) SetAnatomy(a *anatomy.Collector) {
	n.anat = a
	if a == nil {
		return
	}
	lay := anatomy.Layout{Stages: len(n.st), Inputs: n.inputs, Outputs: n.outputs}
	if n.opts.Depth != 0 {
		lay.Rings = len(n.rings)
		lay.RingStage = make([]int32, len(n.rings))
		lay.RingSwitch = make([]int32, len(n.rings))
		lay.TermSwitch = make([]int32, n.outputs)
		for i := range n.rings {
			s := n.ringStage(i)
			lay.RingStage[i] = int32(s)
			lay.RingSwitch[i] = int32((i - n.st[s-1].base) / n.st[s-1].Width)
		}
		last := n.st[len(n.st)-1]
		for t := range lay.TermSwitch {
			lay.TermSwitch[t] = int32(t / last.Buckets)
		}
	}
	a.Bind(lay)
}

// ringStage returns the 1-based stage fed by ring i.
func (n *Engine) ringStage(i int) int {
	s := 1
	for s < len(n.st) && i >= n.st[s].base {
		s++
	}
	return s
}

// recordHeat folds this cycle's occupancy census into the probe and
// closes the heat cycle. Only called with a probe attached; the scan is
// O(wires), a cost the attached probe accepts and the nil path never
// pays.
func (n *Engine) recordHeat() {
	if n.opts.Depth == 0 {
		n.probe.AddStage(pmOccupancy, 0, float64(n.queued))
	} else {
		for s := range n.st {
			hi := len(n.rings)
			if s+1 < len(n.st) {
				hi = n.st[s+1].base
			}
			occ := int64(0)
			for i := n.st[s].base; i < hi; i++ {
				occ += int64(n.rings[i].N)
			}
			n.probe.AddStage(pmOccupancy, s, float64(occ))
		}
	}
	n.probe.EndCycle()
}

// InputFree reports whether input i can accept an injection this cycle:
// its stage-1 FIFO has room (pipelined) or its in-flight slot is empty
// (unbuffered). A dead input is never free. Closed-loop drivers poll it
// to offer exactly when the network can accept.
func (n *Engine) InputFree(i int) bool {
	if n.liveIn != nil && !n.liveIn[i] {
		return false
	}
	if n.opts.Depth == 0 {
		return n.pending[i] == NoRequest
	}
	return n.rings[i].HasSpace(n.opts.Depth)
}

// Cycle advances the network by one cycle and then injects dest:
// dest[i] is the destination terminal for a new packet entering input
// i, or NoRequest. Stages advance downstream-first, so a buffer slot
// freed this cycle is usable by the upstream stage in the same cycle
// and packets sustain one hop per cycle at full throughput. Injections
// that find their input full are counted as Refused and lost (an open
// loop drops at the source; closed-loop drivers use InputFree to offer
// only what fits).
func (n *Engine) Cycle(dest []int) (CycleStats, error) {
	if len(dest) != n.inputs {
		return CycleStats{}, fmt.Errorf("queuesim: %s got %d injections, want %d inputs", n.name, len(dest), n.inputs)
	}
	// Validate the whole injection vector before touching any state: a
	// mid-cycle abort would leave the lifetime Totals out of step with
	// the queue contents and break the conservation invariant forever.
	for i, d := range dest {
		if d != NoRequest && (d < 0 || d >= n.outputs) {
			return CycleStats{}, fmt.Errorf("queuesim: input %d requests output %d out of range [0,%d)", i, d, n.outputs)
		}
	}
	n.now++
	var cs CycleStats
	if n.opts.Depth == 0 {
		n.cycleUnbuffered(dest, &cs)
	} else {
		for s := len(n.st) - 1; s >= 0; s-- {
			n.advanceStage(s, &cs)
		}
		// Packets parked in dead rings never reach arbitration; they
		// still count as parked-on-dead every cycle they wait.
		cs.ParkedOnDead += int(n.strandedQueued)
		for i, d := range dest {
			if d == NoRequest {
				continue
			}
			cs.Injected++
			r := &n.rings[i]
			if (n.liveIn != nil && !n.liveIn[i]) || !r.HasSpace(n.opts.Depth) {
				cs.Refused++ // input full, or its wire severed
				continue
			}
			pkt := ringbuf.Pack(d, n.now)
			if n.probe != nil {
				pkt = n.probe.TagInject(i, pkt, n.now)
			}
			n.push(i, pkt)
			n.queued++
			if n.anat != nil {
				n.anat.Inject(i, i, d, n.now)
			}
		}
		if n.anat != nil {
			n.anat.EndCycle(n.now)
		}
	}
	if n.probe != nil {
		n.recordHeat()
	}
	n.totals.Injected += int64(cs.Injected)
	n.totals.Refused += int64(cs.Refused)
	n.totals.Delivered += int64(cs.Delivered)
	n.totals.Dropped += int64(cs.Dropped)
	return cs, nil
}

// Drain runs idle cycles (no injections) until the network empties,
// returning how many cycles it took. It fails if the network still
// holds packets after maxCycles — under Backpressure with bounded
// depth the network always drains, so hitting the cap indicates a
// deadlocked caller expectation, not a simulator state.
func (n *Engine) Drain(maxCycles int) (int, error) {
	if n.idleBatch == nil {
		n.idleBatch = make([]int, n.inputs)
		for i := range n.idleBatch {
			n.idleBatch[i] = NoRequest
		}
	}
	for c := 0; c < maxCycles; c++ {
		if n.queued == 0 {
			return c, nil
		}
		if _, err := n.Cycle(n.idleBatch); err != nil {
			return c, err
		}
	}
	if n.queued == 0 {
		return maxCycles, nil
	}
	return maxCycles, fmt.Errorf("queuesim: %d packets still queued after %d drain cycles", n.queued, maxCycles)
}

// arbiterOrder returns switch sw of stage s's arbitration order (nil =
// natural order). Callers consult it only for busy switches, so
// stateful arbiters advance exactly as in core.
func (n *Engine) arbiterOrder(s, sw, width int) []int {
	if n.arbiters[s][sw] == nil {
		n.arbiters[s][sw] = n.factory()
	}
	switch a := n.arbiters[s][sw].(type) {
	case switchfab.PriorityArbiter:
		return nil
	case switchfab.InPlaceArbiter:
		order := n.order[:width]
		a.OrderInto(order)
		return order
	default:
		return a.Order(width)
	}
}

// push appends pkt to ring i and marks the ring occupied.
func (n *Engine) push(i int, pkt uint64) {
	n.rings[i].Push(pkt)
	n.occ[i>>6] |= 1 << (i & 63)
}

// pop removes ring i's head packet, marking the ring empty when it was
// the last one.
func (n *Engine) pop(i int) uint64 {
	r := &n.rings[i]
	pkt := r.Pop()
	if r.N == 0 {
		n.occ[i>>6] &^= 1 << (i & 63)
	}
	return pkt
}

// advanceStage runs one cycle of stage s (0-based): head-of-line
// arbitration per switch over the stage's input FIFOs, each head then
// moving on through advanceHead. It walks the stage's occupancy bits in
// ring order, skipping FIFOs parked on a dead wire (Drop strands them at
// swap time). The first live occupied FIFO of a switch opens it: the
// wire counts reset and, under a non-priority arbiter, the switch's
// heads all advance in the arbiter's order; under the fused priority
// default each head advances as the walk reaches it. Advancing a head
// changes no other bit of the stage (pops touch its own ring, pushes
// land in stage s+1, which has already advanced), so the walk may run
// over a copy of each bitmap word, and every decision is the one a scan
// of all the stage's FIFOs would make.
func (n *Engine) advanceStage(s int, cs *CycleStats) {
	st := &n.st[s]
	lo, hi := st.base, st.base+st.Switches*st.Width
	used := n.used[:st.Buckets]
	sw, swEnd := -1, lo // the open switch, and one past its last ring
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := n.occ[wi]
		if wi<<6 < lo {
			w &^= 1<<(lo&63) - 1
		}
		if (wi+1)<<6 > hi {
			w &= 1<<(hi&63) - 1
		}
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if n.deadRing != nil && n.deadRing[i] {
				continue // parked on a dead wire
			}
			if i >= swEnd {
				sw = (i - lo) / st.Width
				swEnd = lo + (sw+1)*st.Width
				clear(used)
				if !n.fastPriority {
					n.advanceArbitrated(s, st, sw, cs)
				}
			}
			if n.fastPriority {
				n.advanceHead(s, st, sw, i, cs)
			}
		}
	}
}

// advanceArbitrated advances every live occupied head of switch sw of
// stage s in the switch arbiter's order.
func (n *Engine) advanceArbitrated(s int, st *stage, sw int, cs *CycleStats) {
	swIn := st.base + sw*st.Width
	order := n.arbiterOrder(s, sw, st.Width)
	for idx := 0; idx < st.Width; idx++ {
		i := swIn + idx
		if order != nil {
			i = swIn + order[idx]
		}
		if n.rings[i].N == 0 || (n.deadRing != nil && n.deadRing[i]) {
			continue
		}
		n.advanceHead(s, st, sw, i, cs)
	}
}

// advanceHead tries to move the head packet of ring i through switch sw
// of stage s: it takes the first live wire of its bucket whose
// downstream FIFO has room (at the last stage, whose terminal is free)
// and crosses the stage table. Each wire carries at most one packet per
// cycle — used counts grants, wires skipped as full and dead wires
// alike. A head that cannot advance is dropped (Drop), parked (its
// bucket has no live wire) or blocked.
func (n *Engine) advanceHead(s int, st *stage, sw, i int, cs *CycleStats) {
	pkt := n.rings[i].Peek()
	d := int((uint32(pkt) >> st.Shift) & st.Mask)
	last := s == len(n.st)-1
	blocker := -1 // anatomy node to blame: first full FIFO, or the terminal
	for int(n.used[d]) < st.Wires {
		o := (sw*st.Buckets+d)*st.Wires + int(n.used[d])
		n.used[d]++
		if st.live != nil && !st.live[o] {
			continue // dead wire: permanently unusable, skip it
		}
		if last {
			n.pop(i)
			n.retire(pkt, cs)
			if n.anat != nil {
				n.anat.Deliver(i, n.now)
			}
			return
		}
		if st.Table != nil {
			o = int(st.Table[o])
		}
		down := n.st[s+1].base + o
		if n.rings[down].HasSpace(n.opts.Depth) {
			n.pop(i)
			n.push(down, pkt)
			if n.probe != nil {
				n.probe.Hop(pkt, s+1, probe.EvTraverse, n.now)
			}
			if n.anat != nil {
				n.anat.Advance(i, down, n.now)
			}
			return
		}
		if blocker < 0 {
			blocker = down // full FIFO: the wire is consumed for the cycle
		}
	}
	parked := st.live != nil && st.liveCap[sw*st.Buckets+d] == 0
	if last && !parked {
		blocker = len(n.rings) + sw*st.Buckets + d
	}
	switch {
	case n.drop:
		n.pop(i)
		n.queued--
		cs.Dropped++
		n.perStage[s]++
		if n.probe != nil {
			n.probe.AddStage(pmDropped, s, 1)
			n.probe.Close(pkt, s+1, probe.EvDrop, n.now)
		}
		if n.anat != nil {
			n.anat.Drop(i, blocker, n.now)
		}
	case parked:
		cs.ParkedOnDead++
		if n.probe != nil {
			n.probe.AddStage(pmParked, s, 1)
			n.probe.Hop(pkt, s+1, probe.EvPark, n.now)
		}
		if n.anat != nil {
			n.anat.Park(i, n.now)
		}
	default:
		if n.probe != nil {
			n.probe.AddStage(pmHolBlocked, s, 1)
			n.probe.Hop(pkt, s+1, probe.EvBlock, n.now)
		}
		if n.anat != nil {
			n.anat.Block(i, blocker, n.now)
		}
	}
}

// retire records one pipelined delivery.
func (n *Engine) retire(pkt uint64, cs *CycleStats) {
	n.lat.Add(ringbuf.Latency(pkt, n.now))
	n.queued--
	cs.Delivered++
	if n.probe != nil {
		n.probe.Close(pkt, len(n.st), probe.EvDeliver, n.now)
	}
	if n.deliver != nil {
		n.deliver(ringbuf.Dest(pkt), int64(uint32(pkt>>32)))
	}
}

// cycleUnbuffered is the Depth == 0 cycle. Every input's in-flight
// packet (retained from a blocked attempt, or freshly injected) sweeps
// the stages within the cycle as one wave: per switch, in arbitration
// order, each packet takes the first free live wire of its bucket —
// core.routeStage's rule, so Drop reproduces the memoryless engine
// packet for packet. A packet pending on a dead input is blocked at
// stage 1 before arbitration. Fates are then applied in input order:
// deliveries retire, and blocked packets are dropped (Drop) or resubmit
// from their input next cycle (Backpressure, the Section 4/5.1
// closed-loop regime).
func (n *Engine) cycleUnbuffered(dest []int, cs *CycleStats) {
	for i := range n.pending {
		if n.pending[i] != NoRequest {
			if dest[i] != NoRequest {
				cs.Injected++
				cs.Refused++ // input busy: the retained packet resubmits
			}
			continue
		}
		d := dest[i]
		if d == NoRequest {
			continue
		}
		cs.Injected++
		if n.liveIn != nil && !n.liveIn[i] {
			cs.Refused++ // severed input wire: refused at the source
			continue
		}
		n.pending[i] = d
		n.pendAt[i] = n.now
		n.queued++
		if n.probe != nil {
			if rec := n.probe.SampleInject(i, d, n.now); rec >= 0 {
				n.pendTrace[i] = rec
				n.probe.HopRec(rec, 0, probe.EvInject, n.now)
			}
		}
		if n.anat != nil {
			n.anat.Inject0(i, i, d, n.now)
		}
	}

	cur := n.waveA[:n.inputs]
	for i, d := range n.pending {
		cur[i], n.fate[i] = -1, 0
		switch {
		case d == NoRequest:
		case n.liveIn != nil && !n.liveIn[i]:
			n.fate[i] = 1 // blocked at stage 1 before arbitration
		default:
			cur[i] = int32(i)
		}
	}
	next := n.waveB
	for s := range n.st {
		st := &n.st[s]
		last := s == len(n.st)-1
		nxt := next[:st.Switches*st.Buckets*st.Wires]
		if !last {
			for i := range nxt {
				nxt[i] = -1
			}
		}
		used := n.used[:st.Buckets]
		for sw := 0; sw < st.Switches; sw++ {
			swIn := sw * st.Width
			var order []int
			if !n.fastPriority {
				busy := false
				for _, org := range cur[swIn : swIn+st.Width] {
					busy = busy || org >= 0
				}
				if !busy {
					continue
				}
				order = n.arbiterOrder(s, sw, st.Width)
			}
			clear(used)
			for idx := 0; idx < st.Width; idx++ {
				p := idx
				if order != nil {
					p = order[idx]
				}
				org := cur[swIn+p]
				if org < 0 {
					continue
				}
				d := int((uint32(n.pending[org]) >> st.Shift) & st.Mask)
				o := -1
				for o < 0 && int(used[d]) < st.Wires {
					k := (sw*st.Buckets+d)*st.Wires + int(used[d])
					used[d]++
					if st.live == nil || st.live[k] {
						o = k
					}
				}
				switch {
				case o < 0:
					n.fate[org] = int32(s + 1)
				case last:
					// delivered: fate stays 0
				case st.Table != nil:
					nxt[st.Table[o]] = org
				default:
					nxt[o] = org
				}
			}
		}
		cur, next = nxt, cur[:cap(cur)]
	}

	for i, d := range n.pending {
		if d == NoRequest {
			continue
		}
		s := int(n.fate[i])
		switch {
		case s == 0:
			// A first-attempt delivery has latency 1: one whole-network
			// transit inside the injection cycle.
			n.lat.Add(float64(n.now-n.pendAt[i]) + 1)
			n.queued--
			cs.Delivered++
			if n.probe != nil {
				n.probe.CloseRec(n.pendTrace[i], len(n.st), probe.EvDeliver, n.now)
				n.pendTrace[i] = -1
			}
			if n.anat != nil {
				n.anat.Deliver0(i, n.now)
			}
			if n.deliver != nil {
				n.deliver(d, int64(uint32(n.pendAt[i])))
			}
			n.pending[i] = NoRequest
		case n.drop:
			n.queued--
			cs.Dropped++
			n.perStage[s-1]++
			if n.probe != nil {
				n.probe.AddStage(pmDropped, s-1, 1)
				n.probe.CloseRec(n.pendTrace[i], s, probe.EvDrop, n.now)
				n.pendTrace[i] = -1
			}
			if n.anat != nil {
				n.anat.Drop0(i, s, n.now)
			}
			n.pending[i] = NoRequest
		default:
			parked := n.faulted && n.pinnedDead(i, d)
			ev, metric := probe.EvBlock, pmHolBlocked
			if parked {
				cs.ParkedOnDead++
				ev, metric = probe.EvPark, pmParked
			}
			if n.probe != nil {
				n.probe.AddStage(metric, s-1, 1)
				n.probe.HopRec(n.pendTrace[i], s, ev, n.now)
			}
			if n.anat != nil {
				n.anat.Block0(i, s, parked, n.now)
			}
		}
	}
	if n.anat != nil {
		n.anat.EndCycle0()
	}
}

// pinnedDead reports whether input i's packet to dest can never deliver
// under the current mask: its input is dead, or a bucket on its switch
// path — the terminal included — has no live wire. The path is unique
// because every bucket's wires land on one next-stage switch.
func (n *Engine) pinnedDead(i, dest int) bool {
	if n.liveIn != nil && !n.liveIn[i] {
		return true
	}
	w := i // the packet's input wire at the current stage
	for s := range n.st {
		st := &n.st[s]
		b := (w/st.Width)*st.Buckets + int((uint32(dest)>>st.Shift)&st.Mask)
		if st.live != nil && st.liveCap[b] == 0 {
			return true
		}
		w = b * st.Wires
		if st.Table != nil {
			w = int(st.Table[w])
		}
	}
	return false
}
