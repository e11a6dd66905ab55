package core

import (
	"testing"

	"edn/internal/faults"
	"edn/internal/probe"
	"edn/internal/switchfab"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// TestProbeHopsFollowOutcomes pins the core flight record to the
// cycle's Outcomes: a request blocked at stage f traverses stages
// 1..f-1 and drops at f, and a delivered request traverses every
// hyperbar stage and delivers at the crossbar, all within its injection
// cycle. The outcome buffer is reused across cycles, as the measurement
// harnesses do, so a stale slot from the previous cycle must not leak
// into the record.
func TestProbeHopsFollowOutcomes(t *testing.T) {
	cfg := faultCfg(t, 4, 2, 2, 2)
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 40
	net.SetProbe(probe.New(probe.Options{SampleEvery: 1, TraceCap: cycles * cfg.Inputs()}))
	gen := traffic.Uniform{Rate: 0.9, Rng: xrand.New(3)}
	dest := make([]int, cfg.Inputs())
	outcomes := make([]Outcome, cfg.Inputs())
	want := make(map[[2]int64]Outcome) // (cycle, input) -> outcome
	for c := int64(0); c < cycles; c++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := net.RouteCycleInto(dest, outcomes); err != nil {
			t.Fatal(err)
		}
		for i, d := range dest {
			if d == NoRequest {
				continue
			}
			if o := outcomes[i]; o.Delivered() && o.Output != d {
				t.Fatalf("cycle %d input %d: delivered to %d, requested %d", c, i, o.Output, d)
			}
			want[[2]int64{c, int64(i)}] = outcomes[i]
		}
	}
	rep := net.probe.Report()
	if len(rep.Traces) != len(want) {
		t.Fatalf("%d traces, want one per request (%d)", len(rep.Traces), len(want))
	}
	for _, tr := range rep.Traces {
		o := want[[2]int64{tr.Inject, int64(tr.Input)}]
		stop, ev := cfg.Stages(), probe.EvDeliver
		if !o.Delivered() {
			stop, ev = o.BlockedStage, probe.EvDrop
		}
		if !tr.Done || len(tr.Hops) != stop+1 {
			t.Fatalf("trace %+v: want %d hops ending in %v at stage %d", tr, stop+1, ev, stop)
		}
		for s, h := range tr.Hops {
			wantEv := probe.EvTraverse
			switch s {
			case 0:
				wantEv = probe.EvInject
			case stop:
				wantEv = ev
			}
			if h.Stage != s || h.Event != wantEv || h.Cycle != tr.Inject {
				t.Fatalf("trace %+v hop %d: %+v, want %v at stage %d", tr, s, h, wantEv, s)
			}
		}
	}
}

// TestRejectedCycleOpensNoTraces: a batch with an out-of-range
// destination is refused before any state moves, so no probe record is
// opened for its valid requests (an open record would hold its trace
// slot for good).
func TestRejectedCycleOpensNoTraces(t *testing.T) {
	cfg := faultCfg(t, 4, 2, 2, 2)
	net, err := NewNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(probe.New(probe.Options{SampleEvery: 1}))
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = i % cfg.Outputs()
	}
	dest[len(dest)-1] = cfg.Outputs()
	outcomes := make([]Outcome, cfg.Inputs())
	if _, err := net.RouteCycleInto(dest, outcomes); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if rep := net.probe.Report(); len(rep.Traces) != 0 {
		t.Fatalf("rejected cycle left %d traces, want none", len(rep.Traces))
	}
	dest[len(dest)-1] = 0
	for c := 0; c < 5; c++ {
		if _, err := net.RouteCycleInto(dest, outcomes); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range net.probe.Report().Traces {
		if !tr.Done {
			t.Fatalf("trace %+v still open after valid cycles", tr)
		}
	}
}

// shortArbiter returns an arbitration order of the wrong length.
type shortArbiter struct{}

func (shortArbiter) Order(int) []int { return []int{0} }

// TestMalformedArbiterOrderIsAnError: an arbiter whose order has the
// wrong length is reported by RouteCycleInto as an error on a healthy
// and on a faulted network alike, never as a panic.
func TestMalformedArbiterOrderIsAnError(t *testing.T) {
	cfg := faultCfg(t, 4, 2, 2, 2)
	deadWire := faults.MustCompile(cfg, faults.Set{Wires: []faults.WireID{{Boundary: 1, Wire: 1}}})
	for _, tc := range []struct {
		name string
		m    *faults.Masks
	}{{"healthy", nil}, {"faulted", deadWire}} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := NewNetworkWithFaults(cfg, func() switchfab.Arbiter { return shortArbiter{} }, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			dest := make([]int, cfg.Inputs())
			_, err = net.RouteCycleInto(dest, make([]Outcome, cfg.Inputs()))
			if err == nil {
				t.Fatal("malformed arbitration order accepted")
			}
			t.Log(err)
		})
	}
}
