package simulate

import (
	"reflect"
	"testing"

	"edn/internal/anatomy"
	"edn/internal/closedloop"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

// splitCycles is not a multiple of 2 or 3, so at every sharded count
// shard 0 takes the remainder and its share boundary falls mid-run.
const splitCycles = 1201

// TestObservedSplitShardInvariant pins the folded observation run at
// the shard counts that split it. Shard 0 of an observed point runs the
// full budget with the observers attached and takes its measured
// partial at its share boundary, so for every observed entry point,
// every observer combination and shards in {1, 2, 3}:
//
//   - every measured field except Observed deep-equals the unobserved
//     sweep at the same shard count;
//   - Observed and the anatomy reports are identical across shard
//     counts.
func TestObservedSplitShardInvariant(t *testing.T) {
	cfg, err := topology.New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := dilated.Counterpart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.5, 0.9}
	rates := []float64{0.2, 0.5}
	lo := closedloop.Options{
		Window: 4, Timeout: 16, MaxAttempts: 4,
		Retry: closedloop.RetryBackoff, BackoffBase: 2, BackoffCap: 8,
	}
	latency := func(rs []LatencyResult, err error) (any, []*probe.Report, error) {
		obs := make([]*probe.Report, len(rs))
		for i := range rs {
			obs[i], rs[i].Observed = rs[i].Observed, nil
		}
		return rs, obs, err
	}
	loop := func(rs []ClosedLoopResult, err error) (any, []*probe.Report, error) {
		obs := make([]*probe.Report, len(rs))
		for i := range rs {
			obs[i], rs[i].Observed = rs[i].Observed, nil
		}
		return rs, obs, err
	}
	entries := map[string]func(opts Options, shards int) (any, []*probe.Report, error){
		"SaturationSweep": func(opts Options, shards int) (any, []*probe.Report, error) {
			return latency(SaturationSweep(EDN(cfg, queuesim.Options{Depth: 4}), loads, nil, opts, shards))
		},
		"DilatedSaturationSweep": func(opts Options, shards int) (any, []*probe.Report, error) {
			return latency(SaturationSweep(Dilated(dcfg, dilatedsim.Options{Depth: 2, Policy: dilatedsim.Drop}), loads, nil, opts, shards))
		},
		"MeasureClosedLoop": func(opts Options, shards int) (any, []*probe.Report, error) {
			return loop(MeasureClosedLoop(EDN(cfg, queuesim.Options{Depth: 1, Policy: queuesim.Drop}), rates, lo, opts, shards))
		},
		"MeasureDilatedClosedLoop": func(opts Options, shards int) (any, []*probe.Report, error) {
			return loop(MeasureClosedLoop(Dilated(dcfg, dilatedsim.Options{Depth: 2}), rates, lo, opts, shards))
		},
	}
	observers := []struct {
		name  string
		probe bool
		anat  bool
	}{
		{"probe", true, false},
		{"anatomy", false, true},
		{"both", true, true},
	}

	for name, run := range entries {
		t.Run(name, func(t *testing.T) {
			plain := make(map[int]any)
			for _, shards := range []int{1, 2, 3} {
				opts := Options{Cycles: splitCycles, Warmup: 100, Seed: 9}
				measured, _, err := run(opts, shards)
				if err != nil {
					t.Fatal(err)
				}
				plain[shards] = measured
			}
			for _, ob := range observers {
				t.Run(ob.name, func(t *testing.T) {
					var firstObs []*probe.Report
					var firstAnat []*anatomy.Report
					for _, shards := range []int{1, 2, 3} {
						var anat []*anatomy.Report
						opts := Options{Cycles: splitCycles, Warmup: 100, Seed: 9}
						if ob.probe {
							opts.Probe = observeProbeOptions()
						}
						if ob.anat {
							opts.Anatomy = testAnatomyOptions()
							opts.OnAnatomy = func(r *anatomy.Report) { anat = append(anat, r) }
						}
						measured, obs, err := run(opts, shards)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(measured, plain[shards]) {
							t.Fatalf("shards=%d: observed run moved measured results:\n%+v\nvs\n%+v", shards, measured, plain[shards])
						}
						if ob.probe {
							for i, r := range obs {
								if r == nil || r.Sampled == 0 {
									t.Fatalf("shards=%d point %d: empty probe report %+v", shards, i, r)
								}
							}
						} else if !reflect.DeepEqual(obs, make([]*probe.Report, len(obs))) {
							t.Fatalf("shards=%d: probe report without a probe", shards)
						}
						if ob.anat && len(anat) != len(obs) {
							t.Fatalf("shards=%d: %d anatomy reports for %d points", shards, len(anat), len(obs))
						}
						if shards == 1 {
							firstObs, firstAnat = obs, anat
							continue
						}
						if !reflect.DeepEqual(obs, firstObs) {
							t.Fatalf("shards=%d: probe reports differ from shards=1", shards)
						}
						if !reflect.DeepEqual(anat, firstAnat) {
							t.Fatalf("shards=%d: anatomy reports differ from shards=1", shards)
						}
					}
				})
			}
		})
	}
}
