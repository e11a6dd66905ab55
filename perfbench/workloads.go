package main

import (
	"fmt"

	"edn"
)

// defaultSeed is the workload seed whose job results are pinned in
// digests.json.
const defaultSeed = 1

// workload is one closed-loop job stream: which specs it sends, how
// many callers send them, and through which entry point.
type workload struct {
	name string
	// why is the workload's one-line summary and the reason it exists,
	// as BENCHMARK.json records it.
	why string
	// clients is the number of closed-loop callers; workers the serve
	// pool size (0 when jobs run in process through edn.RunJob).
	clients, workers int
	// spec returns job i of the stream generated from seed; warm the
	// jobs that fill a fresh geometry cache during set-up.
	spec func(seed uint64, i int, tiny bool) edn.JobSpec
	warm func(tiny bool) []edn.JobSpec
	// golden is how many default-seed jobs every run re-checks against
	// their pinned digests after the timed window.
	golden int
}

var workloads = []*workload{
	{
		name: "sweep-edn",
		why: "closed loop, 1 caller, edn.RunJob, 2 shards: saturation on EDN(64,16,4,2), depth 4, 4 loads, 2000+200 cycles. " +
			"Engine, traffic and shard fan-out do the work; serve, netcache, JSON almost none",
		clients: 1,
		spec:    sweepSpec,
		warm: func(tiny bool) []edn.JobSpec {
			s := sweepSpec(defaultSeed, 0, tiny)
			s.Loads, s.Sim = []float64{0.5}, edn.SimSpec{Cycles: 1, Shards: 1}
			return []edn.JobSpec{s}
		},
		golden: 1,
	},
	{
		name: "cosim-http",
		why: "closed loop, 2 HTTP clients, serve with 2 workers, 1 shard: estimate on EDN(16,4,4,2)/EDN(8,4,2,3), 100-400 cycles, 1 in 4 with fresh faults. " +
			"Per-request layers dominate",
		clients: 2,
		workers: 2,
		spec:    cosimSpec,
		warm: func(tiny bool) []edn.JobSpec {
			var out []edn.JobSpec
			for _, g := range cosimGeometries {
				out = append(out, edn.JobSpec{Mode: edn.JobEstimate, Geometry: &g,
					Estimate: &edn.EstimateSpec{}, Sim: edn.SimSpec{Cycles: 1, Shards: 1}})
			}
			return out
		},
		golden: 4,
	},
	{
		name: "loop-explain",
		why: "closed loop, 1 caller, edn.RunJob, 2 shards: closedloop on dilated EDN(64,16,4,2), depth 2, window 4, backoff, rates 0.1/0.3, probe and explain attached. " +
			"Other engine, both observers",
		clients: 1,
		spec:    loopSpec,
		warm: func(tiny bool) []edn.JobSpec {
			s := loopSpec(defaultSeed, 0, tiny)
			s.Rates, s.Sim, s.Probe, s.Explain = []float64{0.1}, edn.SimSpec{Cycles: 1, Shards: 1}, nil, nil
			return []edn.JobSpec{s}
		},
		golden: 1,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jobRand returns the stream that draws job i of the workload seeded
// by seed: a pure function of (seed, i), so a job's spec does not
// depend on how many callers share the loop.
func jobRand(seed uint64, i int) *edn.Rand {
	r := edn.NewRand(seed*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9)
	r.Uint64()
	return r
}

func sweepSpec(seed uint64, i int, tiny bool) edn.JobSpec {
	g, cycles, warmup := edn.GeometrySpec{A: 64, B: 16, C: 4, L: 2}, 2000, 200
	if tiny {
		g, cycles, warmup = edn.GeometrySpec{A: 8, B: 4, C: 2, L: 2}, 200, 20
	}
	return edn.JobSpec{
		Mode:     edn.JobSaturation,
		Geometry: &g,
		Queue:    &edn.QueueSpec{Depth: 4},
		Loads:    []float64{0.25, 0.5, 0.75, 1},
		Sim:      edn.SimSpec{Cycles: cycles, Warmup: warmup, Seed: jobRand(seed, i).Uint64(), Shards: 2},
	}
}

var cosimGeometries = [2]edn.GeometrySpec{{A: 16, B: 4, C: 4, L: 2}, {A: 8, B: 4, C: 2, L: 3}}

func cosimSpec(seed uint64, i int, tiny bool) edn.JobSpec {
	r := jobRand(seed, i)
	g := cosimGeometries[r.Intn(len(cosimGeometries))]
	cfg, err := g.Compile()
	if err != nil {
		panic(err) // the two geometries above are valid
	}
	cycles := 100 + r.Intn(301)
	if tiny {
		cycles = 20 + r.Intn(41)
	}
	s := edn.JobSpec{
		Mode:     edn.JobEstimate,
		Geometry: &g,
		Load:     float64(2+r.Intn(19)) / 20,
		Estimate: &edn.EstimateSpec{Src: r.Intn(cfg.Inputs()), Dst: r.Intn(cfg.Outputs())},
		Sim:      edn.SimSpec{Cycles: cycles, Seed: r.Uint64(), Shards: 1},
	}
	if i%4 == 3 {
		// A fresh fault sample forces a mask build beside the table hit.
		s.Faults = &edn.FaultsSpec{Fraction: 0.05, Seed: r.Uint64()}
	}
	return s
}

func loopSpec(seed uint64, i int, tiny bool) edn.JobSpec {
	g, cycles, warmup := edn.GeometrySpec{A: 64, B: 16, C: 4, L: 2}, 400, 100
	if tiny {
		g, cycles, warmup = edn.GeometrySpec{A: 8, B: 4, C: 2, L: 2}, 60, 10
	}
	r := jobRand(seed, i)
	return edn.JobSpec{
		Mode:     edn.JobClosedLoop,
		Engine:   edn.EngineDilated,
		Geometry: &g,
		Queue:    &edn.QueueSpec{Depth: 2},
		Loop:     &edn.ClosedLoopSpec{Window: 4, Timeout: 64, Retry: "backoff"},
		Rates:    []float64{0.1, 0.3},
		Probe:    &edn.ProbeSpec{SampleEvery: 64, Seed: r.Uint64()},
		Explain:  &edn.ExplainSpec{},
		Sim:      edn.SimSpec{Cycles: cycles, Warmup: warmup, Seed: r.Uint64(), Shards: 2},
	}
}
