// Package wiring describes a multistage switching network as data and
// runs the paper's circuit-switched cycle over it.
//
// A Wiring lists a network's stages in order: per stage, the switch
// count and width, the buckets per switch and wires per bucket, the
// routing digit's shift and mask, and the flat int32 interstage table
// into the next stage. EDN compiles an Expanded Delta Network into a
// wiring; internal/dilatedsim compiles the d-dilated delta into
// another.
//
// State is a wiring made runnable: the fault availability of its
// inputs and stage outputs, its lazily built per-switch arbiters, and
// Route, the one unbuffered kernel. Route resolves a whole request batch
// in one network cycle, as Section 2 describes: the batch sweeps the
// stages as one wave; per switch, in arbitration order, each request
// takes the first free live wire of its bucket, and a request whose
// bucket has none left is blocked there and vanishes. internal/core
// reads the per-input fates as its Outcomes; internal/queuesim's
// depth-0 engine reads them as deliveries, drops and resubmissions, and
// its pipelined stages share the same availability and arbiters.
package wiring

import (
	"fmt"
	"math"

	"edn/internal/switchfab"
	"edn/internal/topology"
)

// NoRequest marks an idle input in a request vector.
const NoRequest = -1

// ArbiterFactory builds one arbiter per physical switch. Stateful
// arbiters (round robin, random) need per-switch instances; stateless
// ones may return a shared value.
type ArbiterFactory func() switchfab.Arbiter

// Stage is one switch stage of a Wiring: Switches identical switches of
// Width inputs, each with Buckets output buckets of Wires wires. A
// request leaves a switch on the bucket named by its routing digit,
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
	// the network output terminal the request reaches.
	Table []int32
}

// Wiring is a network's stages in order, the first stage's inputs being
// the network inputs. Both fabrics of the paper's comparison are
// wirings. The EDN is l stages of a-input hyperbars with b buckets of c
// wires, then c x c crossbars (c buckets of 1 wire). The d-dilated
// delta is l stages of b buckets of d wires, then one output port per
// terminal (d inputs, 1 bucket of 1 wire). A bucket's wires all land on
// one next-stage switch in both, so a request's switch path is fixed by
// its input and destination.
type Wiring struct {
	Name   string // rendered in error messages
	Stages []Stage
}

// EDN compiles the wiring of EDN cfg over its interstage tables, which
// are built here when tables is nil.
func EDN(cfg topology.Config, tables *topology.Tables) (Wiring, error) {
	if tables == nil {
		var err error
		if tables, err = topology.NewTables(cfg); err != nil {
			return Wiring{}, err
		}
	} else if tables.Config() != cfg {
		return Wiring{}, fmt.Errorf("wiring: tables built for %v, network is %v", tables.Config(), cfg)
	}
	logB, logC := topology.Log2(cfg.B), topology.Log2(cfg.C)
	w := Wiring{Name: cfg.String(), Stages: make([]Stage, cfg.Stages())}
	for s := 1; s <= cfg.L; s++ {
		w.Stages[s-1] = Stage{
			Switches: cfg.SwitchesInStage(s), Width: cfg.A, Buckets: cfg.B, Wires: cfg.C,
			Shift: uint(logC + (cfg.L-s)*logB), Mask: uint32(cfg.B - 1), Table: tables.Interstage(s),
		}
	}
	w.Stages[cfg.L] = Stage{ // the c x c output crossbars
		Switches: cfg.SwitchesInStage(cfg.L + 1), Width: cfg.C, Buckets: cfg.C, Wires: 1, Mask: uint32(cfg.C - 1),
	}
	return w, nil
}

// LiveStage is a Stage under the current availability masks.
type LiveStage struct {
	Stage
	Base int    // first input wire of the stage, all stages' inputs numbered in order
	Live []bool // output-label availability; nil = fully live
}

// Dead reports whether bucket b (sw*Buckets + digit) has no live wire.
func (st *LiveStage) Dead(b int) bool {
	if st.Live == nil {
		return false
	}
	for _, ok := range st.Live[b*st.Wires : (b+1)*st.Wires] {
		if ok {
			return false
		}
	}
	return true
}

// State is a Wiring ready to route: its availability, arbiters and the
// unbuffered kernel's buffers. It is not safe for concurrent use.
type State struct {
	Name            string
	Stages          []LiveStage
	Inputs, Outputs int
	LiveIn          []bool // network-input availability; nil = all live
	Faulted         bool   // some input or stage output is dead
	// FastPriority marks the nil-factory default: every switch arbitrates
	// by the stateless input-label priority rule, so no arbiter is ever
	// built or consulted.
	FastPriority bool
	Used         []int32 // per-bucket wires consumed at the switch being arbitrated
	// Fate is Route's result per requesting input: the output terminal
	// the request reached, or -s when it was blocked at stage s.
	Fate []int32

	factory      ArbiterFactory
	arbiters     [][]switchfab.Arbiter // [stage][switch], lazily built
	order        []int                 // in-place arbitration order
	waveA, waveB []int32               // boundary wire -> origin input + 1, 0 empty
}

// New checks that w's stages chain and builds its state, fully live. A
// nil factory selects the paper's input-label priority rule.
func New(w Wiring, factory ArbiterFactory) (State, error) {
	if len(w.Stages) == 0 {
		return State{}, fmt.Errorf("wiring: %s has no stages", w.Name)
	}
	k := State{
		Name:         w.Name,
		Stages:       make([]LiveStage, len(w.Stages)),
		FastPriority: factory == nil,
		factory:      factory,
		arbiters:     make([][]switchfab.Arbiter, len(w.Stages)),
	}
	base, widest, buckets := 0, 0, 0
	wires := w.Stages[0].Switches * w.Stages[0].Width
	boundary := wires
	for s, sd := range w.Stages {
		in := sd.Switches * sd.Width
		out := sd.Switches * sd.Buckets * sd.Wires
		if in != wires {
			return State{}, fmt.Errorf("wiring: %s stage %d has %d inputs, fed by %d wires", w.Name, s+1, in, wires)
		}
		if out > math.MaxInt32 {
			return State{}, fmt.Errorf("wiring: %s has %d wires in one stage, beyond the simulable limit", w.Name, out)
		}
		k.Stages[s] = LiveStage{Stage: sd, Base: base}
		k.arbiters[s] = make([]switchfab.Arbiter, sd.Switches)
		base += in
		widest = max(widest, sd.Width)
		buckets = max(buckets, sd.Buckets)
		boundary = max(boundary, out)
		wires = out
	}
	last := w.Stages[len(w.Stages)-1]
	k.Inputs = w.Stages[0].Switches * w.Stages[0].Width
	k.Outputs = last.Switches * last.Buckets
	k.Used = make([]int32, buckets)
	k.order = make([]int, widest)
	k.Fate = make([]int32, k.Inputs)
	k.waveA = make([]int32, boundary)
	k.waveB = make([]int32, boundary)
	return k, nil
}

// SetLive swaps the availability masks in place: liveIn over the
// network inputs, rows[s] over stage s's output labels (a missing or
// nil row is a fully live stage). The rows are shared, never written;
// the swap allocates nothing and costs O(stages). All nil restores the
// fully live state.
func (k *State) SetLive(liveIn []bool, rows [][]bool) {
	k.LiveIn = liveIn
	k.Faulted = liveIn != nil
	for s := range k.Stages {
		k.Stages[s].Live = nil
		if s < len(rows) && rows[s] != nil {
			k.Stages[s].Live = rows[s]
			k.Faulted = true
		}
	}
}

// ArbiterOrder returns the arbitration order of switch sw of stage s
// (0-based) for this cycle, nil meaning the natural order, and builds
// the switch's arbiter on first use. Callers consult it only for busy
// switches, so a stateful arbiter advances once per cycle in which its
// switch holds a request.
func (k *State) ArbiterOrder(s, sw int) ([]int, error) {
	if k.arbiters[s][sw] == nil {
		k.arbiters[s][sw] = k.factory()
	}
	order, err := switchfab.ArbitrationOrder(k.arbiters[s][sw], k.Stages[s].Width, k.order)
	if err != nil {
		return nil, fmt.Errorf("stage %d switch %d: %w", s+1, sw, err)
	}
	return order, nil
}

// Route runs one circuit-switched cycle over the batch dest, where
// dest[i] is the terminal input i requests (in range) or NoRequest, and
// writes Fate for every requesting input. A request on a dead input is
// blocked at stage 1 before any arbitration. The rest sweep the stages
// as one wave: per switch, in arbitration order, each takes the first
// wire of its bucket that is neither granted this cycle nor dead (a
// dead wire is consumed from the bucket's cursor like a granted one),
// and is blocked at the stage when the bucket has none left. An
// arbiter's malformed order aborts the cycle with an error.
func (k *State) Route(dest []int) error {
	cur := k.waveA[:k.Inputs] // boundary wire -> origin input + 1, 0 = empty
	for i, d := range dest {
		cur[i] = 0
		switch {
		case d == NoRequest:
		case k.LiveIn != nil && !k.LiveIn[i]:
			k.Fate[i] = -1
		default:
			cur[i] = int32(i + 1)
		}
	}
	next := k.waveB
	last := len(k.Stages) - 1
	for s := range k.Stages {
		st := &k.Stages[s]
		live, wires := st.Live, st.Wires
		nxt := next[:st.Switches*st.Buckets*wires]
		if s < last {
			clear(nxt)
		}
		used := k.Used[:st.Buckets]
		for sw := 0; sw < st.Switches; sw++ {
			in := cur[sw*st.Width : (sw+1)*st.Width]
			var order []int
			if !k.FastPriority {
				busy := false
				for _, org := range in {
					busy = busy || org != 0
				}
				if !busy {
					continue
				}
				var err error
				if order, err = k.ArbiterOrder(s, sw); err != nil {
					return err
				}
			}
			clear(used)
			for idx := range in {
				p := idx
				if order != nil {
					p = order[idx]
				}
				org := in[p]
				if org == 0 {
					continue
				}
				d := int((uint32(dest[org-1]) >> st.Shift) & st.Mask)
				b := sw*st.Buckets + d
				u := int(used[d])
				o := b*wires + u
				for live != nil && u < wires && !live[o] {
					u, o = u+1, o+1 // a dead wire is used up like a granted one
				}
				if u == wires {
					used[d] = int32(u)
					k.Fate[org-1] = int32(-s - 1)
					continue
				}
				used[d] = int32(u + 1)
				switch {
				case s == last:
					k.Fate[org-1] = int32(b)
				case st.Table != nil:
					nxt[st.Table[o]] = org
				default:
					nxt[o] = org
				}
			}
		}
		cur, next = nxt, cur[:cap(cur)]
	}
	return nil
}

// PinnedDead reports whether input i's request to dest can never
// deliver under the current masks: its input is dead, or a bucket on
// its switch path, the terminal included, has no live wire. The path is
// unique because every bucket's wires land on one next-stage switch.
func (k *State) PinnedDead(i, dest int) bool {
	if k.LiveIn != nil && !k.LiveIn[i] {
		return true
	}
	w := i // the request's input wire at the current stage
	for s := range k.Stages {
		st := &k.Stages[s]
		b := (w/st.Width)*st.Buckets + int((uint32(dest)>>st.Shift)&st.Mask)
		if st.Dead(b) {
			return true
		}
		w = b * st.Wires
		if st.Table != nil {
			w = int(st.Table[w])
		}
	}
	return false
}
