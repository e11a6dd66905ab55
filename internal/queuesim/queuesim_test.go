package queuesim

import (
	"fmt"
	"testing"

	"edn/internal/core"
	"edn/internal/faults"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

func mustCfg(t testing.TB, a, b, c, l int) topology.Config {
	t.Helper()
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

var testGeometries = []struct{ a, b, c, l int }{
	{4, 4, 2, 2},   // small rectangular EDN
	{8, 2, 4, 2},   // wide buckets
	{16, 4, 4, 2},  // square EDN
	{4, 4, 1, 2},   // delta corner (single path)
	{64, 16, 4, 2}, // the MasPar geometry
}

func roundRobinFactory() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }

// TestDepth1DropMatchesUnbufferedEngine pins the bridge between the two
// engines: with depth-1 FIFOs and the Drop policy, batches march
// through the pipeline in lockstep without interacting, so every grant
// decision — bandwidth, per-cycle delivered counts, per-stage blocking —
// must be bit-identical to core.RouteCycleInto on the same traffic
// stream, time-shifted by exactly the pipeline fill of Stages() cycles.
func TestDepth1DropMatchesUnbufferedEngine(t *testing.T) {
	const batches = 60
	for _, g := range testGeometries {
		cfg := mustCfg(t, g.a, g.b, g.c, g.l)
		for _, fac := range []struct {
			name    string
			factory core.ArbiterFactory
		}{
			{"priority", nil},
			{"roundrobin", roundRobinFactory},
		} {
			for _, pat := range []string{"uniform", "permutation"} {
				t.Run(fmt.Sprintf("%v/%s/%s", cfg, fac.name, pat), func(t *testing.T) {
					// Pre-generate the shared traffic stream.
					rng := xrand.New(99)
					var gen traffic.IntoGenerator
					if pat == "uniform" {
						gen = traffic.Uniform{Rate: 1, Rng: rng}
					} else {
						gen = &traffic.RandomPermutation{Rng: rng}
					}
					stream := make([][]int, batches)
					for k := range stream {
						stream[k] = make([]int, cfg.Inputs())
						gen.GenerateInto(stream[k], cfg.Outputs())
					}

					// Reference: the unbuffered engine, batch by batch.
					ref, err := core.NewNetwork(cfg, fac.factory)
					if err != nil {
						t.Fatal(err)
					}
					outcomes := make([]core.Outcome, cfg.Inputs())
					refDelivered := make([]int, batches)
					refBlocked := make([]int64, cfg.Stages())
					var refTotal int64
					for k, dest := range stream {
						cs, err := ref.RouteCycleInto(dest, outcomes)
						if err != nil {
							t.Fatal(err)
						}
						refDelivered[k] = cs.Delivered
						refTotal += int64(cs.Delivered)
						for s, b := range cs.Blocked {
							refBlocked[s] += int64(b)
						}
					}

					// Queueing engine: depth-1 Drop, same stream, plus the
					// pipeline-fill drain.
					q, err := New(cfg, Options{Depth: 1, Policy: Drop, Factory: fac.factory})
					if err != nil {
						t.Fatal(err)
					}
					gotDelivered := make([]int, batches+cfg.Stages())
					for k, dest := range stream {
						cs, err := q.Cycle(dest)
						if err != nil {
							t.Fatal(err)
						}
						if cs.Refused != 0 {
							t.Fatalf("cycle %d: depth-1 drop refused %d injections; stage-1 FIFOs should always clear", k, cs.Refused)
						}
						gotDelivered[k] = cs.Delivered
					}
					idle := make([]int, cfg.Inputs())
					for i := range idle {
						idle[i] = NoRequest
					}
					for k := 0; k < cfg.Stages(); k++ {
						cs, err := q.Cycle(idle)
						if err != nil {
							t.Fatal(err)
						}
						gotDelivered[batches+k] = cs.Delivered
					}

					// Batch k retires exactly Stages() calls after injection.
					shift := cfg.Stages()
					for k := 0; k < batches; k++ {
						if gotDelivered[k+shift] != refDelivered[k] {
							t.Fatalf("batch %d: queuesim delivered %d at call %d, core delivered %d",
								k, gotDelivered[k+shift], k+shift, refDelivered[k])
						}
					}
					for k := 0; k < shift; k++ {
						if gotDelivered[k] != 0 {
							t.Fatalf("call %d: delivered %d before the pipeline could fill", k, gotDelivered[k])
						}
					}
					tot := q.Totals()
					if tot.Delivered != refTotal {
						t.Fatalf("total bandwidth: queuesim %d, core %d", tot.Delivered, refTotal)
					}
					for s, b := range q.DroppedPerStage() {
						if b != refBlocked[s] {
							t.Fatalf("stage %d: queuesim dropped %d, core blocked %d", s+1, b, refBlocked[s])
						}
					}
					if q.Queued() != 0 {
						t.Fatalf("%d packets left after drain", q.Queued())
					}
				})
			}
		}
	}
}

// TestDepth0DropMatchesUnbufferedEngine checks the other degenerate
// corner: depth 0 with Drop is the memoryless engine itself, packet for
// packet within the same cycle and stage for stage in where packets
// die — on the fused and arbitrated paths, healthy and faulted. A
// request core blocks at a dead input is refused at the source here.
func TestDepth0DropMatchesUnbufferedEngine(t *testing.T) {
	roundRobin := func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }
	for _, tc := range []struct {
		dims    [4]int
		arb     string
		factory core.ArbiterFactory
		faults  float64
	}{
		{[4]int{16, 4, 4, 2}, "priority", nil, 0},
		{[4]int{16, 4, 4, 2}, "roundrobin", roundRobin, 0},
		{[4]int{8, 2, 4, 3}, "priority", nil, 0.15},
		{[4]int{4, 4, 1, 2}, "roundrobin", roundRobin, 0.15},
	} {
		cfg := mustCfg(t, tc.dims[0], tc.dims[1], tc.dims[2], tc.dims[3])
		m := faults.MustCompile(cfg, faults.Bernoulli(cfg, faults.MixedFaults, tc.faults, xrand.New(9)))
		t.Run(fmt.Sprintf("%v/%s/faults%g", cfg, tc.arb, tc.faults), func(t *testing.T) {
			gen := traffic.Uniform{Rate: 0.9, Rng: xrand.New(5)}
			ref, err := core.NewNetworkWithFaults(cfg, tc.factory, m)
			if err != nil {
				t.Fatal(err)
			}
			q, err := New(cfg, Options{Depth: 0, Policy: Drop, Factory: tc.factory, Faults: m})
			if err != nil {
				t.Fatal(err)
			}
			dest := make([]int, cfg.Inputs())
			outcomes := make([]core.Outcome, cfg.Inputs())
			prev := q.DroppedPerStage()
			for cycle := 0; cycle < 50; cycle++ {
				gen.GenerateInto(dest, cfg.Outputs())
				cs, err := ref.RouteCycleInto(dest, outcomes)
				if err != nil {
					t.Fatal(err)
				}
				qs, err := q.Cycle(dest)
				if err != nil {
					t.Fatal(err)
				}
				if qs.Delivered != cs.Delivered || qs.Injected != cs.Offered || qs.Dropped+qs.Refused != cs.BlockedTotal() {
					t.Fatalf("cycle %d: queuesim %+v vs core offered=%d delivered=%d blocked=%d",
						cycle, qs, cs.Offered, cs.Delivered, cs.BlockedTotal())
				}
				now := q.DroppedPerStage()
				for s := range now {
					got := now[s] - prev[s]
					if s == 0 {
						got += int64(qs.Refused)
					}
					if got != int64(cs.Blocked[s]) {
						t.Fatalf("cycle %d stage %d: queuesim lost %d, core blocked %d", cycle, s+1, got, cs.Blocked[s])
					}
				}
				prev = now
				if q.Queued() != 0 {
					t.Fatalf("cycle %d: depth-0 drop retained %d packets", cycle, q.Queued())
				}
			}
		})
	}
}

// TestConservationInvariant is the property test of the issue: after
// every cycle, injected = refused + delivered + dropped + still-queued,
// across geometries, depths, policies and arbiter factories.
func TestConservationInvariant(t *testing.T) {
	depths := []int{0, 1, 3, Unbounded}
	policies := []Policy{Backpressure, Drop}
	factories := []struct {
		name    string
		factory core.ArbiterFactory
	}{
		{"priority", nil},
		{"roundrobin", roundRobinFactory},
	}
	for _, g := range testGeometries[:4] { // keep the sweep quick
		cfg := mustCfg(t, g.a, g.b, g.c, g.l)
		for _, depth := range depths {
			for _, pol := range policies {
				for _, fac := range factories {
					name := fmt.Sprintf("%v/depth=%d/%v/%s", cfg, depth, pol, fac.name)
					t.Run(name, func(t *testing.T) {
						q, err := New(cfg, Options{Depth: depth, Policy: pol, Factory: fac.factory})
						if err != nil {
							t.Fatal(err)
						}
						rng := xrand.New(uint64(depth*131 + int(pol)*17 + 3))
						gen := traffic.Uniform{Rate: 0.85, Rng: rng}
						dest := make([]int, cfg.Inputs())
						for cycle := 0; cycle < 120; cycle++ {
							gen.GenerateInto(dest, cfg.Outputs())
							if _, err := q.Cycle(dest); err != nil {
								t.Fatal(err)
							}
							tot := q.Totals()
							if tot.Injected != tot.Refused+tot.Delivered+tot.Dropped+q.Queued() {
								t.Fatalf("cycle %d: conservation broken: %+v queued=%d", cycle, tot, q.Queued())
							}
							if q.Queued() != q.countQueued() {
								t.Fatalf("cycle %d: occupancy counter %d != actual queue contents %d",
									cycle, q.Queued(), q.countQueued())
							}
						}
						tot := q.Totals()
						if pol == Backpressure && tot.Dropped != 0 {
							t.Fatalf("backpressure dropped %d packets", tot.Dropped)
						}
						if depth == Unbounded && tot.Refused != 0 {
							t.Fatalf("unbounded FIFOs refused %d injections", tot.Refused)
						}
						if tot.Delivered == 0 {
							t.Fatal("nothing delivered in 120 loaded cycles")
						}
					})
				}
			}
		}
	}
}

// countQueued recomputes the in-flight packet count from first
// principles, cross-checking the incremental occupancy counter.
func (n *Network) countQueued() int64 {
	var total int64
	if n.opts.Depth == 0 {
		for _, d := range n.pending {
			if d != NoRequest {
				total++
			}
		}
		return total
	}
	for i := range n.rings {
		total += int64(n.rings[i].N)
	}
	return total
}

// TestZeroLoadLatency pins the latency floors: one lone packet crosses
// the pipelined network in exactly Stages() cycles (one hop per cycle)
// and the unbuffered corner in exactly 1.
func TestZeroLoadLatency(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	for _, depth := range []int{1, 4, Unbounded} {
		q, err := New(cfg, Options{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		dest := make([]int, cfg.Inputs())
		for i := range dest {
			dest[i] = NoRequest
		}
		dest[3] = 7
		if _, err := q.Cycle(dest); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Drain(10 * cfg.Stages()); err != nil {
			t.Fatal(err)
		}
		h := q.Latency()
		if h.N() != 1 || h.Min() != float64(cfg.Stages()) || h.Max() != float64(cfg.Stages()) {
			t.Errorf("depth %d: lone-packet latency n=%d min=%g max=%g, want exactly %d",
				depth, h.N(), h.Min(), h.Max(), cfg.Stages())
		}
	}
	q, err := New(cfg, Options{Depth: 0})
	if err != nil {
		t.Fatal(err)
	}
	dest := make([]int, cfg.Inputs())
	for i := range dest {
		dest[i] = NoRequest
	}
	dest[3] = 7
	if _, err := q.Cycle(dest); err != nil {
		t.Fatal(err)
	}
	if h := q.Latency(); h.N() != 1 || h.Max() != 1 {
		t.Errorf("depth 0: lone-packet latency n=%d max=%g, want exactly 1", h.N(), h.Max())
	}
}

// TestBackpressureDeliversEverything: with lossless queues every
// injected-and-accepted packet must eventually retire — the crossbar
// stage always drains, so the network cannot deadlock.
func TestBackpressureDeliversEverything(t *testing.T) {
	for _, depth := range []int{1, 2, Unbounded} {
		cfg := mustCfg(t, 8, 2, 4, 2)
		q, err := New(cfg, Options{Depth: depth, Policy: Backpressure})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(21)
		// A hot-spot load is the adversarial case: everything funnels
		// toward one output and must still drain.
		gen := traffic.HotSpot{Rate: 1, Fraction: 0.5, Hot: 3, Rng: rng}
		dest := make([]int, cfg.Inputs())
		for cycle := 0; cycle < 40; cycle++ {
			gen.GenerateInto(dest, cfg.Outputs())
			if _, err := q.Cycle(dest); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := q.Drain(100000); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		tot := q.Totals()
		if tot.Dropped != 0 {
			t.Fatalf("depth %d: backpressure dropped %d", depth, tot.Dropped)
		}
		if tot.Delivered != tot.Injected-tot.Refused {
			t.Fatalf("depth %d: delivered %d of %d accepted", depth, tot.Delivered, tot.Injected-tot.Refused)
		}
		if q.Latency().Min() < float64(cfg.Stages()) {
			t.Fatalf("depth %d: latency %g below the pipeline floor %d", depth, q.Latency().Min(), cfg.Stages())
		}
	}
}

// TestDeeperBuffersDeliverMore: under sustained overload, raising the
// FIFO depth must not reduce delivered bandwidth — the queues absorb
// collisions the circuit-switched engine would drop. This is the
// qualitative claim the subsystem exists to quantify.
func TestDeeperBuffersDeliverMore(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	delivered := make(map[int]int64)
	for _, depth := range []int{1, 4, 16} {
		q, err := New(cfg, Options{Depth: depth, Policy: Drop})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(33)
		gen := traffic.Uniform{Rate: 1, Rng: rng}
		dest := make([]int, cfg.Inputs())
		for cycle := 0; cycle < 400; cycle++ {
			gen.GenerateInto(dest, cfg.Outputs())
			if _, err := q.Cycle(dest); err != nil {
				t.Fatal(err)
			}
		}
		delivered[depth] = q.Totals().Delivered
	}
	if delivered[4] < delivered[1] || delivered[16] < delivered[4] {
		t.Errorf("delivered bandwidth should not degrade with depth: %v", delivered)
	}
}

func TestOptionValidation(t *testing.T) {
	cfg := mustCfg(t, 4, 4, 2, 2)
	if _, err := New(cfg, Options{Depth: -2}); err == nil {
		t.Error("depth -2 should be rejected")
	}
	if _, err := New(cfg, Options{Policy: Policy(9)}); err == nil {
		t.Error("unknown policy should be rejected")
	}
	if _, err := New(topology.Config{A: 3}, Options{}); err == nil {
		t.Error("invalid topology should be rejected")
	}
	q, err := New(cfg, Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Cycle(make([]int, 3)); err == nil {
		t.Error("wrong injection vector length should be rejected")
	}
	bad := make([]int, cfg.Inputs())
	bad[0] = cfg.Outputs()
	if _, err := q.Cycle(bad); err == nil {
		t.Error("out-of-range destination should be rejected")
	}
	q0, err := New(cfg, Options{Depth: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q0.Cycle(bad); err == nil {
		t.Error("depth-0 out-of-range destination should be rejected")
	}
	// An arbiter whose order has the wrong length is an error at every
	// depth, not a panic.
	short := func() switchfab.Arbiter { return switchfab.RandomArbiter{Perm: func(int) []int { return []int{0} }} }
	for _, depth := range []int{0, 1} {
		qa, err := New(cfg, Options{Depth: depth, Factory: short})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3 && err == nil; c++ {
			_, err = qa.Cycle(make([]int, cfg.Inputs()))
		}
		if err == nil {
			t.Errorf("depth %d: malformed arbitration order accepted", depth)
		}
	}
}

// TestRejectedCycleLeavesStateConsistent pins that a rejected injection
// vector is a no-op: validation happens before any state mutation, so
// the conservation invariant and the clock survive a caller error
// mid-run (a mid-cycle abort would desynchronize Totals from the queue
// contents forever).
func TestRejectedCycleLeavesStateConsistent(t *testing.T) {
	for _, depth := range []int{0, 2} {
		cfg := mustCfg(t, 16, 4, 4, 2)
		q, err := New(cfg, Options{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(19)
		gen := traffic.Uniform{Rate: 0.8, Rng: rng}
		dest := make([]int, cfg.Inputs())
		for cycle := 0; cycle < 10; cycle++ {
			gen.GenerateInto(dest, cfg.Outputs())
			if _, err := q.Cycle(dest); err != nil {
				t.Fatal(err)
			}
		}
		before, nowBefore, queuedBefore := q.Totals(), q.Now(), q.Queued()
		bad := make([]int, cfg.Inputs())
		bad[cfg.Inputs()-1] = -7 // valid entries first, invalid last
		if _, err := q.Cycle(bad); err == nil {
			t.Fatal("bad vector accepted")
		}
		if q.Totals() != before || q.Now() != nowBefore || q.Queued() != queuedBefore {
			t.Errorf("depth %d: rejected cycle mutated state: totals %+v->%+v now %d->%d queued %d->%d",
				depth, before, q.Totals(), nowBefore, q.Now(), queuedBefore, q.Queued())
		}
		// The network must keep working and conserving afterward.
		for cycle := 0; cycle < 10; cycle++ {
			gen.GenerateInto(dest, cfg.Outputs())
			if _, err := q.Cycle(dest); err != nil {
				t.Fatal(err)
			}
			tot := q.Totals()
			if tot.Injected != tot.Refused+tot.Delivered+tot.Dropped+q.Queued() {
				t.Fatalf("depth %d: conservation broken after rejected cycle: %+v queued=%d", depth, tot, q.Queued())
			}
		}
	}
}

// TestCycleAllocationFree pins the acceptance criterion at the unit
// level: a bounded-depth steady-state cycle performs zero allocations
// (the benchmark BenchmarkQueueCycle tracks the same property at 1K/4K
// ports with -benchmem).
func TestCycleAllocationFree(t *testing.T) {
	cfg := mustCfg(t, 16, 4, 4, 2)
	q, err := New(cfg, Options{Depth: 4, Policy: Backpressure})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(8)
	gen := traffic.Uniform{Rate: 0.9, Rng: rng}
	dest := make([]int, cfg.Inputs())
	// Warm into steady state.
	for cycle := 0; cycle < 50; cycle++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := q.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := q.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRefusalAccounting: a bounded depth-1 backpressure network under
// full load must refuse injections (the stage-1 FIFOs stay occupied)
// and count them.
func TestRefusalAccounting(t *testing.T) {
	cfg := mustCfg(t, 8, 2, 4, 2)
	q, err := New(cfg, Options{Depth: 1, Policy: Backpressure})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(14)
	gen := traffic.Uniform{Rate: 1, Rng: rng}
	dest := make([]int, cfg.Inputs())
	for cycle := 0; cycle < 100; cycle++ {
		gen.GenerateInto(dest, cfg.Outputs())
		if _, err := q.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
	tot := q.Totals()
	if tot.Refused == 0 {
		t.Error("full load against depth-1 backpressure should refuse some injections")
	}
	if tot.Injected != tot.Refused+tot.Delivered+tot.Dropped+q.Queued() {
		t.Errorf("conservation broken: %+v queued=%d", tot, q.Queued())
	}
}
