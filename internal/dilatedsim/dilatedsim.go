// Package dilatedsim is the d-dilated delta network as a wiring of the
// queuesim packet engine — the measured counterpart of the mean-field
// acceptance model in internal/dilated. With it the paper's
// equal-redundancy comparison (EDN versus the dilated delta spending the
// same wire budget on link replication) runs as two measurements of the
// same replayed packet streams on the same engine, instead of a
// measurement against a model, which is what lets the comparison speak
// to latency tails and lifetime churn.
//
// A d-dilated delta(b,l) is the plain delta network EDN(b,b,1,l) with
// every interstage link replicated d times: stage 1 switches are
// H(b -> b x d), interior stages H(bd -> b x d), and each single-wire
// output port accepts one of the up-to-d arrivals on its final link
// group. New makes that statement literal: the group-level interstage
// wiring is taken from topology.Config{b,b,1,l} (the EDN family's c=1
// corner) and expanded sub-wire-wise (see Tables), so at d=1 the network
// is bit-for-bit the plain delta queuesim simulates, and the
// equivalence tests pin exactly that.
//
// Beyond the wiring, the package holds the dilated fault model: Masks
// (compiled sub-wire availability), Plan (nested fault sets) and Churn
// (a sub-wire failure/repair process). A packet's switch path in a delta
// is unique — only the sub-wire within each link group is free — so a
// packet whose path crosses a bucket with no live sub-wire is parked for
// as long as the mask stands: dilation is redundancy without path
// diversity, which is precisely the paper's point against it.
package dilatedsim

import (
	"fmt"

	"edn/internal/dilated"
	"edn/internal/queuesim"
	"edn/internal/ringbuf"
	"edn/internal/topology"
	"edn/internal/wiring"
)

// NoRequest marks an idle input in an injection vector.
const NoRequest = queuesim.NoRequest

// Unbounded selects per-sub-wire FIFOs that grow without limit.
const Unbounded = ringbuf.Unbounded

// Policy is the blocked-packet discipline, shared with queuesim so the
// two fabrics are configured with the same vocabulary.
type Policy = queuesim.Policy

// Backpressure retains blocked packets; Drop discards them.
const (
	Backpressure = queuesim.Backpressure
	Drop         = queuesim.Drop
)

// Totals are lifetime packet counters, the same ledger as queuesim's:
// Injected == Refused + Delivered + Dropped + Stranded + Queued() after
// every cycle and every UpdateFaults.
type Totals = queuesim.Totals

// CycleStats are the Totals deltas of one Cycle call plus the cycle's
// parked-on-dead census, with queuesim's meaning throughout.
type CycleStats = queuesim.CycleStats

// ProbeMetrics names the per-stage heat metrics, the same set as
// queuesim's so EDN/dilated heatmaps compare stage for stage.
var ProbeMetrics = queuesim.ProbeMetrics

// Options configures a dilated queueing network.
type Options struct {
	// Depth is the per-sub-wire FIFO depth: >= 1 bounded, Unbounded (-1)
	// for infinite buffers, 0 for the unbuffered single-cycle corner.
	Depth int
	// Policy is the blocked-packet discipline (default Backpressure).
	Policy Policy
	// Factory builds one arbiter per physical switch (stages 1..L) and
	// one per output port; nil selects input-label priority via the
	// fused fast path.
	Factory wiring.ArbiterFactory
	// LatencyBuckets and LatencyBucketWidth shape the latency histogram
	// (defaults: 1024 buckets of 1 cycle).
	LatencyBuckets     int
	LatencyBucketWidth float64
	// Faults disables sub-wires (see Compile): packets only advance onto
	// live sub-wires and packets queued on dead ones are stranded per
	// policy. Nil or empty means fully live. UpdateFaults swaps the
	// masks of a running network in place.
	Faults *Masks
	// Tables, when non-nil, supplies prebuilt routing tables for the
	// same dilated Config: the network shares the read-only slices
	// instead of materializing its own, skipping the dominant
	// O(ports*d) build cost. Must have been built for the identical
	// Config; results are bit-for-bit those of a fresh build.
	Tables *Tables
}

// Network is an instantiated queueing dilated delta: the queuesim
// Engine over the dilated wiring, whose stages are the l switch stages
// plus the output-port stage. It is not safe for concurrent use; the
// sweep harness builds one per shard.
type Network struct {
	*queuesim.Engine
	dcfg dilated.Config
}

// New builds a queueing network over dcfg. See Options for the depth
// and policy semantics.
func New(dcfg dilated.Config, opts Options) (*Network, error) {
	tables := opts.Tables
	if tables == nil {
		var err error
		if tables, err = NewTables(dcfg); err != nil {
			return nil, err
		}
	} else if tables.Config() != dcfg {
		return nil, fmt.Errorf("dilatedsim: tables built for %v, network is %v", tables.Config(), dcfg)
	}
	b, d, l := dcfg.B, dcfg.D, dcfg.L
	w := wiring.Wiring{Name: dcfg.String(), Stages: make([]wiring.Stage, l+1)}
	for s := 1; s <= l; s++ {
		width := b * d
		if s == 1 {
			width = b // single-wire input ports
		}
		w.Stages[s-1] = wiring.Stage{
			Switches: topology.Pow(b, l-1), Width: width, Buckets: b, Wires: d,
			Shift: uint((l - s) * topology.Log2(b)), Mask: uint32(b - 1), Table: tables.subTab[s-1],
		}
	}
	w.Stages[l] = wiring.Stage{Switches: dcfg.Ports(), Width: d, Buckets: 1, Wires: 1} // output ports
	e, err := queuesim.NewEngine(w, queuesim.Options{
		Depth: opts.Depth, Policy: opts.Policy, Factory: opts.Factory,
		LatencyBuckets: opts.LatencyBuckets, LatencyBucketWidth: opts.LatencyBucketWidth,
	})
	if err != nil {
		return nil, err
	}
	n := &Network{Engine: e, dcfg: dcfg}
	if err := n.UpdateFaults(opts.Faults); err != nil {
		return nil, err
	}
	return n, nil
}

// UpdateFaults swaps the network's sub-wire availability masks in place
// (see queuesim.Engine.SetLive for the stranding and parking rules): the
// epoch primitive of a lifetime simulation. A nil or empty mask restores
// the unmasked fast paths bit-for-bit; the swap allocates nothing. Masks
// must have been compiled for this network's configuration. Not safe to
// call concurrently with Cycle.
func (n *Network) UpdateFaults(m *Masks) error {
	if m.Empty() {
		n.SetLive(nil, nil)
		return nil
	}
	if got := m.Config(); got != n.dcfg {
		return fmt.Errorf("dilatedsim: masks compiled for %v, network is %v", got, n.dcfg)
	}
	n.SetLive(nil, m.rows)
	return nil
}

// Config returns the network's dilated configuration.
func (n *Network) Config() dilated.Config { return n.dcfg }
