package queuesim_test

import (
	"fmt"
	"testing"

	"edn/internal/core"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/queuesim"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// occFabric is one fabric under the occupancy test: build returns an
// engine with the given options and the first mask of its timeline
// applied (static faults) or none, and swap installs timeline mask e
// (an empty mask restores the healthy network).
type occFabric struct {
	name          string
	build         func(t *testing.T, depth int, pol queuesim.Policy, f core.ArbiterFactory, static bool) (*queuesim.Engine, func(e int) error)
	masks         int
	inputs, ports int
}

func ednOccFabric(t *testing.T, a, b, c, l int) occFabric {
	cfg, err := topology.New(a, b, c, l)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(uint64(a*131 + c))
	var masks []*faults.Masks
	for _, frac := range []float64{0.15, 0.3, 0, 0.2} {
		m, err := faults.Compile(cfg, faults.Bernoulli(cfg, faults.MixedFaults, frac, rng))
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, m)
	}
	return occFabric{
		name:   cfg.String(),
		masks:  len(masks),
		inputs: cfg.Inputs(),
		ports:  cfg.Outputs(),
		build: func(t *testing.T, depth int, pol queuesim.Policy, f core.ArbiterFactory, static bool) (*queuesim.Engine, func(int) error) {
			opts := queuesim.Options{Depth: depth, Policy: pol, Factory: f}
			if static {
				opts.Faults = masks[0]
			}
			n, err := queuesim.New(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			return n.Engine, func(e int) error { return n.UpdateFaults(masks[e]) }
		},
	}
}

func dilatedOccFabric(t *testing.T, b, d, l int) occFabric {
	cfg, err := dilated.New(b, d, l)
	if err != nil {
		t.Fatal(err)
	}
	plan := dilatedsim.NewPlan(cfg, xrand.New(uint64(b*17+d)))
	var masks []*dilatedsim.Masks
	for _, frac := range []float64{0.15, 0.3, 0, 0.2} {
		m, err := dilatedsim.Compile(cfg, plan.At(frac))
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, m)
	}
	return occFabric{
		name:   cfg.String(),
		masks:  len(masks),
		inputs: cfg.Ports(),
		ports:  cfg.Ports(),
		build: func(t *testing.T, depth int, pol queuesim.Policy, f core.ArbiterFactory, static bool) (*queuesim.Engine, func(int) error) {
			opts := dilatedsim.Options{Depth: depth, Policy: pol, Factory: f}
			if static {
				opts.Faults = masks[0]
			}
			n, err := dilatedsim.New(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			return n.Engine, func(e int) error { return n.UpdateFaults(masks[e]) }
		},
	}
}

// TestOccupancyBitmapTracksFIFOs pins the invariant the stage advance
// walks by: after every Cycle and every mask swap, an engine's
// occupancy bit i is set exactly when FIFO i holds a packet. It runs
// both fabrics at bounded and unbounded depths under both policies and
// three arbitration paths (the fused priority default, the arbitrated
// priority rule and round-robin), on healthy networks, under static
// faults, and through mid-run mask swaps that strand queued packets.
func TestOccupancyBitmapTracksFIFOs(t *testing.T) {
	fabrics := []occFabric{
		ednOccFabric(t, 4, 2, 2, 2),
		ednOccFabric(t, 8, 4, 2, 3),
		dilatedOccFabric(t, 2, 2, 4),
		dilatedOccFabric(t, 4, 2, 3),
	}
	arbiters := []struct {
		name string
		f    core.ArbiterFactory
	}{
		{"fused", nil},
		{"priority", core.PriorityArbiters},
		{"roundrobin", func() switchfab.Arbiter { return &switchfab.RoundRobinArbiter{} }},
	}
	const cycles, swapEvery = 120, 17
	var stranded, parked int64
	for _, fab := range fabrics {
		for _, depth := range []int{1, 4, queuesim.Unbounded} {
			for _, pol := range []queuesim.Policy{queuesim.Backpressure, queuesim.Drop} {
				for _, arb := range arbiters {
					for _, faultsMode := range []string{"healthy", "static", "swaps"} {
						name := fmt.Sprintf("%s/depth%d/%v/%s/%s", fab.name, depth, pol, arb.name, faultsMode)
						t.Run(name, func(t *testing.T) {
							e, swap := fab.build(t, depth, pol, arb.f, faultsMode == "static")
							check := func(where string) {
								t.Helper()
								if i := queuesim.OccupancyMismatch(e); i >= 0 {
									t.Fatalf("%s: occupancy bit of FIFO %d disagrees with its contents", where, i)
								}
							}
							check("construction")
							rng := xrand.New(uint64(depth+7) * 977)
							dest := make([]int, fab.inputs)
							for c := 1; c <= cycles; c++ {
								for i := range dest {
									dest[i] = queuesim.NoRequest
									if rng.Bool(0.8) {
										dest[i] = rng.Intn(fab.ports)
									}
								}
								cs, err := e.Cycle(dest)
								if err != nil {
									t.Fatal(err)
								}
								parked += int64(cs.ParkedOnDead)
								check(fmt.Sprintf("cycle %d", c))
								if faultsMode == "swaps" && c%swapEvery == 0 {
									if err := swap((c / swapEvery) % fab.masks); err != nil {
										t.Fatal(err)
									}
									check(fmt.Sprintf("mask swap after cycle %d", c))
								}
							}
							stranded += e.Totals().Stranded
						})
					}
				}
			}
		}
	}
	// The swaps must actually strand packets under Drop and park them
	// under Backpressure, or the dead-ring paths went unexercised.
	if stranded == 0 || parked == 0 {
		t.Fatalf("stranded %d, parked %d: the fault timelines never hit a queued packet", stranded, parked)
	}
}
