package lifecycle_test

import (
	"fmt"
	"testing"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// process is a churn process under test, reduced to what the window
// properties need: Step advances one epoch and returns the dead
// components' ids in emission order (a deterministic sweep, so equal
// slices are equal sets), and dead reports the churn census.
type process struct {
	step func() []string
	dead func() float64
}

// ednProcess is lifecycle's own Process over an EDN.
func ednProcess(t *testing.T, spec lifecycle.Spec, seed uint64) process {
	t.Helper()
	cfg, err := topology.New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lifecycle.New(cfg, spec, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return process{step: func() []string {
		set := p.Step()
		var ids []string
		for _, w := range set.Wires {
			ids = append(ids, fmt.Sprintf("w%v", w))
		}
		for _, sw := range set.Switches {
			ids = append(ids, fmt.Sprintf("s%v", sw))
		}
		return ids
	}, dead: p.DeadFraction}
}

// dilatedProcess is dilatedsim's sub-wire churn, which ticks through
// the same Clock (and ignores Mode and the blast overlay).
func dilatedProcess(t *testing.T, spec lifecycle.Spec, seed uint64) process {
	t.Helper()
	cfg, err := dilated.New(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dilatedsim.NewChurn(cfg, spec, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return process{step: func() []string {
		var ids []string
		for _, id := range c.Step().SubWires {
			ids = append(ids, fmt.Sprintf("%v", id))
		}
		return ids
	}, dead: c.DeadFraction}
}

var processes = map[string]func(*testing.T, lifecycle.Spec, uint64) process{
	"edn":     ednProcess,
	"dilated": dilatedProcess,
}

// RepairWindow 0 and 1 must replay the un-windowed process bit-for-bit:
// same fault set at every epoch, same RNG consumption, including the
// blast overlay — for lifecycle's Process and for the dilated churn
// alike.
func TestRepairWindowOneMatchesImmediate(t *testing.T) {
	base := lifecycle.Spec{
		Mode: faults.MixedFaults, MTBF: 12, MTTR: 5,
		BlastRate: 0.15, BlastRadius: 1, BlastMTTR: 4,
	}
	for name, newProcess := range processes {
		for _, timing := range []lifecycle.Timing{lifecycle.Exponential, lifecycle.Deterministic} {
			for _, window := range []int{0, 1} {
				ref := base
				ref.Timing = timing
				spec := ref
				spec.RepairWindow = window
				refProc, winProc := newProcess(t, ref, 17), newProcess(t, spec, 17)
				for e := 0; e < 400; e++ {
					if got, want := fmt.Sprint(winProc.step()), fmt.Sprint(refProc.step()); got != want {
						t.Fatalf("%s %v window=%d diverges at epoch %d:\n got %s\nwant %s",
							name, timing, window, e, got, want)
					}
				}
				if winProc.dead() != refProc.dead() {
					t.Fatalf("%s %v window=%d: dead fraction %g vs %g",
						name, timing, window, winProc.dead(), refProc.dead())
				}
			}
		}
	}
}

// Under a real window every dead-to-alive transition — churned
// components and blasted blocks alike — must land on a window boundary,
// while failures keep arriving at arbitrary epochs, for lifecycle's
// Process and for the dilated churn alike.
func TestRepairWindowBatchesRepairs(t *testing.T) {
	const window = 4
	spec := lifecycle.Spec{
		Mode: faults.MixedFaults, MTBF: 10, MTTR: 3,
		BlastRate: 0.2, BlastRadius: 1, BlastMTTR: 2,
		RepairWindow: window,
	}
	for name, newProcess := range processes {
		proc := newProcess(t, spec, 99)
		prevDead := map[string]bool{}
		repairs, offBoundaryFailures := 0, 0
		for e := 1; e <= 600; e++ {
			dead := map[string]bool{}
			for _, id := range proc.step() {
				dead[id] = true
			}
			for id := range prevDead {
				if !dead[id] {
					repairs++
					if e%window != 0 {
						t.Fatalf("%s: component %s repaired at epoch %d, not a window boundary", name, id, e)
					}
				}
			}
			for id := range dead {
				if !prevDead[id] && e%window != 0 {
					offBoundaryFailures++
				}
			}
			prevDead = dead
		}
		if repairs == 0 {
			t.Fatalf("%s: no repairs observed; the window property was never exercised", name)
		}
		if offBoundaryFailures == 0 {
			t.Fatalf("%s: no off-boundary failures observed; failures should not be windowed", name)
		}
	}
}

// Windowed repair holds components down longer, so the observed dead
// fraction must sit at or above the immediate-repair steady state.
func TestRepairWindowRaisesDeadFraction(t *testing.T) {
	cfg, err := topology.New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(window int) float64 {
		spec := lifecycle.Spec{Mode: faults.WireFaults, MTBF: 10, MTTR: 2, RepairWindow: window}
		proc, err := lifecycle.New(cfg, spec, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const epochs = 2000
		for e := 0; e < epochs; e++ {
			proc.Step()
			sum += proc.DeadFraction()
		}
		return sum / epochs
	}
	immediate, windowed := run(1), run(8)
	if windowed <= immediate {
		t.Errorf("window=8 mean dead fraction %.3f not above immediate %.3f", windowed, immediate)
	}
}

func TestRepairWindowValidation(t *testing.T) {
	cfg, err := topology.New(4, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := lifecycle.Spec{Mode: faults.WireFaults, MTBF: 10, MTTR: 2, RepairWindow: -1}
	if _, err := lifecycle.New(cfg, spec, xrand.New(1)); err == nil {
		t.Error("negative repair window should be rejected")
	}
}
