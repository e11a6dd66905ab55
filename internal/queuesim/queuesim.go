// Package queuesim is the one packet engine behind both fabrics of the
// paper's comparison. Where the memoryless router of internal/core
// resolves a whole request batch in one network cycle (losers vanish,
// matching the paper's Section 3.2 model), this package gives every
// stage-input wire a FIFO: packets advance one stage per cycle, losers
// wait (or drop), and each packet carries its injection timestamp so
// the simulator measures what the closed forms cannot — queueing delay,
// tail latency and saturation throughput under temporally correlated
// load.
//
// The Engine runs an internal/wiring Wiring: per stage, the switch
// count and width, the buckets per switch and wires per bucket, the
// routing digit's shift and mask, and the flat int32 interstage table
// into the next stage. New compiles an EDN (topology.Config,
// faults.Masks, topology.Tables) into a wiring; internal/dilatedsim
// compiles the d-dilated delta into another. The engine holds the
// wiring's state by value: its availability masks and its per-switch
// arbiters (the nil-factory default takes the fused priority path).
// All FIFO storage is ring buffers sized at construction, so the
// per-cycle advance is allocation-free in steady state for bounded
// depths (BenchmarkQueueCycle pins this at 0 allocs/op).
//
// Beside its FIFOs the engine keeps an occupancy bitmap, one bit per
// stage-input wire, set exactly while that wire's FIFO holds a packet.
// A stage advances by walking its set bits in wire order, so a cycle
// costs in proportion to the occupied FIFOs rather than the wire count.
// Under windowed request/response traffic almost every FIFO is empty,
// and the walk makes the same decisions in the same order as a scan of
// every FIFO would.
//
// Depth semantics tie the family together:
//
//   - Depth >= 1: bounded per-wire FIFOs. A packet advances only onto an
//     output wire whose downstream FIFO has room (at most one packet per
//     wire per cycle); under Backpressure blocked packets wait at their
//     FIFO head, under Drop they are discarded.
//   - Depth == Unbounded: FIFOs grow without limit — the infinite
//     buffering idealization.
//   - Depth == 0: no interstage buffering at all. Each cycle the wiring's
//     circuit-switched kernel (wiring.State.Route, the kernel behind
//     internal/core) routes every input's in-flight packet through all
//     stages at once; Backpressure then means a blocked packet is
//     resubmitted from its input next cycle — exactly the Section 4/5.1
//     closed-loop regime — and Drop is the memoryless Section 3.2 router
//     packet for packet.
//
// The depth-1 Drop configuration is the bridge between the two worlds:
// batches march through the pipeline in lockstep, one stage per cycle,
// without ever interacting, so its per-batch grant decisions — and
// therefore its bandwidth and per-stage blocking — are bit-identical to
// the kernel's, just time-shifted by the pipeline fill. Because the
// pipelined stages and the kernel are separate loops, that pin compares
// two implementations, for the EDN against core and for the dilated
// delta against depth 0.
package queuesim

import (
	"fmt"

	"edn/internal/faults"
	"edn/internal/ringbuf"
	"edn/internal/topology"
	"edn/internal/wiring"
)

// NoRequest marks an idle input in an injection vector.
const NoRequest = wiring.NoRequest

// Unbounded selects per-wire FIFOs that grow without limit.
const Unbounded = ringbuf.Unbounded

// Policy selects what happens to a head-of-line packet that cannot
// advance this cycle (it lost arbitration, or every wire of its bucket
// leads to a full downstream FIFO).
type Policy int

const (
	// Backpressure retains blocked packets at the head of their FIFO to
	// retry next cycle — the lossless store-and-forward discipline.
	Backpressure Policy = iota
	// Drop discards blocked packets, the circuit-switched discipline of
	// the unbuffered engine.
	Drop
)

// String renders the policy for reports.
func (p Policy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a queueing network.
type Options struct {
	// Depth is the per-wire FIFO depth: >= 1 bounded, Unbounded (-1) for
	// infinite buffers, 0 for the unbuffered single-cycle corner.
	Depth int
	// Policy is the blocked-packet discipline (default Backpressure).
	Policy Policy
	// Factory builds one arbiter per physical switch; nil selects the
	// paper's input-label priority rule via the fused fast path.
	Factory wiring.ArbiterFactory
	// LatencyBuckets and LatencyBucketWidth shape the latency histogram
	// (defaults: 1024 buckets of 1 cycle). Latencies beyond the last
	// bucket are still counted exactly in mean and max but degrade the
	// top quantiles toward the maximum.
	LatencyBuckets     int
	LatencyBucketWidth float64
	// Faults disables network components (see internal/faults): packets
	// only advance onto live wires, injections at dead inputs are
	// refused at the source, and a head-of-line packet whose bucket has
	// no live wire left waits (Backpressure) or dies (Drop). A packet
	// addressed to a dead output terminal can never retire while the
	// fault stands — under Backpressure it parks at the crossbar head,
	// counted every cycle in CycleStats.ParkedOnDead, so degraded-mode
	// measurements normally pair immutable faults with Drop. Nil or
	// empty means fully live and changes nothing. UpdateFaults swaps the
	// masks of a running network in place, which is how time-varying
	// fault processes (internal/lifecycle) drive this engine.
	Faults *faults.Masks
	// Tables, when non-nil, supplies prebuilt interstage routing tables
	// for the same Config: the network shares the read-only slices
	// instead of materializing its own, skipping the dominant O(wires)
	// build cost. Must have been built for the identical Config;
	// results are bit-for-bit those of a fresh build. The serve-layer
	// geometry cache is the intended supplier.
	Tables *topology.Tables
}

func (o Options) withDefaults() Options {
	if o.LatencyBuckets <= 0 {
		o.LatencyBuckets = 1024
	}
	if o.LatencyBucketWidth <= 0 {
		o.LatencyBucketWidth = 1
	}
	return o
}

// Totals are lifetime packet counters. They never reset, so the
// conservation invariant
//
//	Injected == Refused + Delivered + Dropped + Stranded + Queued()
//
// holds after every cycle and after every UpdateFaults — the property
// tests in queuesim_test.go and update_test.go assert it across
// geometries, depths, policies and fault timelines.
type Totals struct {
	Injected  int64 // packets offered at the inputs
	Refused   int64 // injections rejected at the input (FIFO or slot full)
	Delivered int64 // packets retired at their destination terminal
	Dropped   int64 // packets discarded mid-network (Policy Drop only)
	// Stranded counts packets discarded by UpdateFaults because their
	// FIFO's wire died while they were queued on it (Policy Drop only;
	// under Backpressure such packets stay parked and are reported per
	// cycle in CycleStats.ParkedOnDead instead).
	Stranded int64
}

// CycleStats are the Totals deltas of a single Cycle call, plus the
// cycle's dead-component congestion observation.
type CycleStats struct {
	Injected  int
	Refused   int
	Delivered int
	Dropped   int
	// ParkedOnDead is the number of queued packets that could not
	// advance this cycle because a dead component pins them in place
	// (Backpressure only; under Drop they are discarded and counted in
	// Dropped or Stranded): head-of-line packets aimed at a dead output
	// terminal or a bucket with no live wire left, plus packets queued
	// on wires that died under them. At depth 0 it counts the pending
	// packets whose input is dead or whose switch path crosses a bucket
	// with no live wire. It is an observation, not a flow —
	// the same parked packet is counted again every cycle it stays
	// parked — so conservation checks can assert on the parked
	// population directly instead of inferring it from a residue.
	// Parked packets are not lost: a later UpdateFaults that repairs the
	// component releases them.
	ParkedOnDead int
}

// Network is an instantiated queueing EDN: the Engine over the EDN's
// wiring. It is not safe for concurrent use; the sweep harness builds
// one per shard.
type Network struct {
	*Engine
	cfg  topology.Config
	rows [][]bool // [stage-1] fault rows handed to SetLive
}

// New builds a queueing network over cfg. See Options for the depth and
// policy semantics.
func New(cfg topology.Config, opts Options) (*Network, error) {
	w, err := wiring.EDN(cfg, opts.Tables)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(w, opts)
	if err != nil {
		return nil, err
	}
	n := &Network{Engine: e, cfg: cfg, rows: make([][]bool, cfg.Stages())}
	if err := n.UpdateFaults(opts.Faults); err != nil {
		return nil, err
	}
	return n, nil
}

// UpdateFaults swaps the network's availability masks in place (see
// Engine.SetLive): the epoch primitive of an availability-over-time
// simulation. A nil or empty mask restores the unmasked fast paths
// bit-for-bit, and the swap allocates nothing. Masks must have been
// compiled for this network's configuration; on error the previous
// masks remain in effect. Not safe to call concurrently with Cycle.
func (n *Network) UpdateFaults(m *faults.Masks) error {
	liveIn, rows, err := m.EngineRows(n.cfg, n.rows)
	if err != nil {
		return fmt.Errorf("queuesim: %w", err)
	}
	n.SetLive(liveIn, rows)
	return nil
}

// Config returns the network's configuration.
func (n *Network) Config() topology.Config { return n.cfg }
