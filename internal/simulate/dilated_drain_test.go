package simulate

import (
	"math"
	"reflect"
	"testing"

	"edn/internal/analytic"
	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

// At d=1 the dilated delta and the square EDN(b,b,1,l) are the same
// wiring on the same engine, so every mode whose result type both
// fabrics share must measure them identically: the drain (a fully
// closed-loop workload), a sharded saturation point and a sharded
// closed-loop point, at every depth and policy. Results must be
// reflect.DeepEqual once the Config/Dilated label is zeroed — the guard
// that the one harness drives both fabrics the same way.
func TestDilatedBitEqualAtD1(t *testing.T) {
	dcfg, err := dilated.New(2, 1, 3) // 8 ports, undilated
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := dcfg.EquivalentEDN()
	if err != nil {
		t.Fatal(err)
	}
	unlabel := func(cfg *topology.Config, dcfg *dilated.Config) {
		*cfg, *dcfg = topology.Config{}, dilated.Config{}
	}
	modes := map[string]func(f Fabric, seed uint64) (any, error){
		"drain": func(f Fabric, seed uint64) (any, error) {
			r, err := DrainPermutations(f, 6, Options{Seed: seed})
			unlabel(&r.Config, &r.Dilated)
			return r, err
		},
		"saturation": func(f Fabric, seed uint64) (any, error) {
			var out []LatencyResult
			for i, load := range []float64{0.4, 1} {
				r, err := SaturationPoint(f, load, i, nil, Options{Cycles: 600, Warmup: 100, Seed: seed}, 3)
				if err != nil {
					return nil, err
				}
				unlabel(&r.Config, &r.Dilated)
				out = append(out, r)
			}
			return out, nil
		},
		"closedloop": func(f Fabric, seed uint64) (any, error) {
			lo := closedloop.Options{Window: 2, Timeout: 40, Retry: closedloop.RetryBackoff}
			r, err := ClosedLoopPoint(f, 0.3, 0, lo, Options{Cycles: 600, Warmup: 100, Seed: seed}, 2)
			unlabel(&r.Config, &r.Dilated)
			return r, err
		},
	}
	for name, measure := range modes {
		for _, depth := range []int{0, 2, queuesim.Unbounded} {
			for _, policy := range []queuesim.Policy{queuesim.Backpressure, queuesim.Drop} {
				for seed := uint64(1); seed <= 3; seed++ {
					e, eerr := measure(EDN(cfg, queuesim.Options{Depth: depth, Policy: policy}), seed)
					d, derr := measure(Dilated(dcfg, dilatedsim.Options{Depth: depth, Policy: policy}), seed)
					if (eerr == nil) != (derr == nil) {
						t.Fatalf("%s depth %d %v seed %d: EDN error %v, dilated error %v", name, depth, policy, seed, eerr, derr)
					}
					if eerr != nil {
						if name == "drain" && policy == queuesim.Drop {
							continue // both reject the lossy drain
						}
						t.Fatalf("%s depth %d %v seed %d: %v", name, depth, policy, seed, eerr)
					}
					if !reflect.DeepEqual(e, d) {
						t.Errorf("%s depth %d %v seed %d: results diverge\nEDN     %+v\ndilated %+v", name, depth, policy, seed, e, d)
					}
				}
			}
		}
	}
}

// The depth-0 Backpressure drain of a d=1 dilated delta lives in the
// regime ExpectedPermutationTime models, with the same systematic
// underestimate the EDN-side cross-check documents (blocked messages
// retry the same destination; the model assumes fresh re-addressing).
func TestDilatedDrainMatchesSection51ModelAtD1(t *testing.T) {
	dcfg, err := dilated.New(4, 1, 2) // 16 ports
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := dcfg.EquivalentEDN()
	if err != nil {
		t.Fatal(err)
	}
	const q = 8
	model, err := analytic.ExpectedPermutationTime(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumsq float64
	const seeds = 6
	for seed := uint64(1); seed <= seeds; seed++ {
		res, err := DrainPermutations(Dilated(dcfg, dilatedsim.Options{Depth: 0}), q, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Histogram.N() != int64(q*dcfg.Ports()) {
			t.Fatalf("seed %d: delivered %d packets, want %d", seed, res.Histogram.N(), q*dcfg.Ports())
		}
		x := float64(res.Cycles)
		sum += x
		sumsq += x * x
	}
	mean := sum / seeds
	variance := (sumsq - sum*sum/seeds) / (seeds - 1)
	ci95 := 1.96 * math.Sqrt(variance/seeds)
	lo, hi := model.Cycles()-ci95, 1.5*model.Cycles()+ci95
	if mean < lo || mean > hi {
		t.Errorf("dilated drain mean %.1f cycles outside [%.1f, %.1f] around model %.1f",
			mean, lo, hi, model.Cycles())
	}
}

func TestDilatedDrainValidation(t *testing.T) {
	dcfg, err := dilated.New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DrainPermutations(Dilated(dcfg, dilatedsim.Options{}), 0, Options{}); err == nil {
		t.Error("q=0 should be rejected")
	}
	if _, err := DrainPermutations(Dilated(dcfg, dilatedsim.Options{Policy: dilatedsim.Drop}), 4, Options{}); err == nil {
		t.Error("drop policy should be rejected for a drain")
	}
	if res, err := DrainPermutations(Dilated(dcfg, dilatedsim.Options{Depth: 2}), 2, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	} else if res.Network() != dcfg.String() {
		t.Errorf("Network() = %q, want %q", res.Network(), dcfg.String())
	}
}
