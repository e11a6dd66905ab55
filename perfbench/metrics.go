package main

import (
	"encoding/json"
	"math"
	"runtime"
	"strconv"

	"edn"
)

// metricDef names one reported metric. For per-layer metrics, module
// is the repo module measured and moves the end-to-end metric (and
// workload) a change to that module should move.
type metricDef struct {
	name, unit, better string
	module, moves      string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off and printed by every --trace 0 run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "latency_ms.p50", unit: "ms", better: "lower"},
	{name: "mhops_per_s", unit: "Mhop/s", better: "higher"},
	{name: "heap_peak_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics of single layers, printed by every --trace 1
// run. A layer a workload does not exercise reads 0 and is marked n/a
// in the table.
var perLayer = []metricDef{
	{"run.validate_us", "us", "lower", "run", "latency_ms.p50 on cosim-http"},
	{"run.marshal_ms", "ms", "lower", "run", "latency_ms.p50 on loop-explain"},
	{"run.result_bytes", "bytes", "lower", "run", "run.marshal_ms"},
	{"netcache.hit_ratio", "fraction", "higher", "netcache", "latency_ms.p50 on cosim-http"},
	{"netcache.build_cold_us", "us", "lower", "netcache", "latency_ms.p99 on cosim-http; setup_s"},
	{"netcache.bytes", "bytes", "lower", "netcache", "heap_peak_mb"},
	{"simulate.shard_ns_per_wsc", "ns", "lower", "simulate", "mhops_per_s on sweep-edn"},
	{"simulate.shard_skew", "ratio", "lower", "simulate", "latency_ms.p50 on sweep-edn"},
	{"simulate.parallel_eff", "fraction", "higher", "simulate", "jobs_per_s on sweep-edn"},
	{"simulate.merge_us", "us", "lower", "simulate", "latency_ms.p50"},
	{"simulate.observe_share", "fraction", "lower", "simulate", "jobs_per_s on loop-explain"},
	{"queuesim.ns_per_hop", "ns", "lower", "queuesim", "mhops_per_s on sweep-edn"},
	{"queuesim.accepted_fraction", "fraction", "higher", "queuesim", "nothing: simulated, fixed under speed-only changes"},
	{"dilatedsim.ns_per_hop", "ns", "lower", "dilatedsim", "mhops_per_s on loop-explain"},
	{"closedloop.issued_per_completed", "ratio", "lower", "closedloop", "nothing: simulated, fixed under speed-only changes"},
	{"closedloop.goodput", "1/src/cycle", "higher", "closedloop", "nothing: simulated, fixed under speed-only changes"},
	{"anatomy.observe_ms_per_point", "ms", "lower", "anatomy", "latency_ms.p50 on loop-explain"},
	{"probe.observed_bytes", "bytes", "lower", "probe", "run.marshal_ms on loop-explain"},
	{"serve.queue_wait_us", "us", "lower", "serve", "latency_ms.p99 on cosim-http"},
	{"serve.execute_ms", "ms", "lower", "serve", "latency_ms.p50 on cosim-http"},
	{"serve.serialize_us", "us", "lower", "serve", "latency_ms.p50 on cosim-http"},
	{"serve.transport_us", "us", "lower", "serve", "latency_ms.p50 and jobs_per_s on cosim-http"},
	{"runtime.alloc_mb_per_job", "MB", "lower", "runtime", "heap_peak_mb and latency_ms.p99"},
	{"runtime.gc_cycles_per_job", "count", "lower", "runtime", "heap_peak_mb and latency_ms.p99"},
	{"runtime.gc_pause_ms", "ms", "lower", "runtime", "latency_ms.p99"},
	{"trace.overhead", "fraction", "lower", "trace", "nothing: tracing is off in end-to-end runs"},
	{"host.spin_ms", "ms", "lower", "host calibration", "context for every time"},
	{"host.parallelism_2v1", "ratio", "higher", "host calibration", "context for simulate.parallel_eff"},
	{"error_rate", "fraction", "lower", "all", "failed, refused or incorrect jobs / jobs attempted"},
}

// jobHops is the simulated packet-hops a job's result counters report:
// delivered packets times stages for the EDN modes, and for the closed
// loop completed round trips times two traversals times the dilated
// network's stages.
func jobHops(spec edn.JobSpec, res *edn.JobResult) int64 {
	if res == nil {
		return 0
	}
	cfg, err := spec.Geometry.Compile()
	if err != nil {
		return 0
	}
	var hops int64
	switch {
	case res.Estimate != nil:
		e := res.Estimate
		hops = int64(math.Round(e.Throughput*float64(e.Cycles))) * int64(e.Hops)
	case spec.Mode == edn.JobClosedLoop:
		dcfg, err := edn.DilatedCounterpart(cfg)
		if err != nil {
			return 0
		}
		for _, p := range res.ClosedLoop {
			hops += 2 * p.Ledger.Completed * int64(dcfg.L)
		}
	default:
		for _, p := range res.Points {
			hops += p.Delivered * int64(cfg.Stages())
		}
	}
	return hops
}

// wireStages is the wire-stage count one simulated cycle of the job's
// network advances: every wire of the fabric, twice for the closed
// loop's request and reply fabrics.
func wireStages(spec edn.JobSpec) float64 {
	cfg, err := spec.Geometry.Compile()
	if err != nil {
		return 0
	}
	if spec.Engine == edn.EngineDilated {
		dcfg, err := edn.DilatedCounterpart(cfg)
		if err != nil {
			return 0
		}
		return 2 * float64(dcfg.WireCount())
	}
	return float64(cfg.WireCount())
}

// layerRun is what computeLayers reads: the traced replay of the
// untraced window's jobs and the traced set-up's warm-up jobs, the
// cache counters around the replay, and the untraced window's runtime
// counters, which the runtime.* metrics divide per job.
type layerRun struct {
	traced, warm        []outcome
	cacheBefore, cache  edn.GeometryCacheStats
	mem0, mem1          runtime.MemStats
	jpsUntraced, jpsTr  float64
	host                calibration
	attempted, failures int
}

// acc sums a quantity and counts its samples.
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }

// computeLayers derives the per-layer metrics from span trees and
// result counters. A metric absent from the returned map was not
// exercised by the workload.
func computeLayers(lr layerRun) map[string]float64 {
	out := make(map[string]float64)
	mean := func(name string, a acc) {
		if a.n > 0 {
			out[name] = a.sum / float64(a.n)
		}
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			out[name] = num / den
		}
	}

	var validate, marshal, resultBytes, cold, merge, observe, skew acc
	var queueWait, execute, serialize, transport, accepted, goodput, observed acc
	var shardNS, wsc, shardSum, shardCap, observePoint, pointNS float64
	var ednNS, ednHops, dilNS, dilHops float64
	var attempts, completed float64

	coldBuilds := func(root *edn.Span) {
		root.Walk(func(_ int, s *edn.Span) {
			if s.Attrs["cache"] == "cold" {
				cold.add(float64(s.DurationNS) / 1e3)
			}
		})
	}
	for _, o := range lr.warm {
		coldBuilds(o.span)
	}
	for _, o := range lr.traced {
		if o.err != nil || o.span == nil {
			continue
		}
		coldBuilds(o.span)
		resultBytes.add(float64(len(o.bytes)))
		perCycle := wireStages(o.spec)
		served := hasChild(o.span, "queue_wait")
		var jobShardNS float64
		o.span.Walk(func(_ int, s *edn.Span) {
			d := float64(s.DurationNS)
			switch s.Name {
			case "validate":
				validate.add(d / 1e3)
			case "marshal":
				marshal.add(d / 1e6)
			case "serialize":
				marshal.add(d / 1e6)
				serialize.add(d / 1e3)
			case "queue_wait":
				queueWait.add(d / 1e3)
			case "execute":
				if served {
					execute.add(d / 1e6)
				}
			case "point":
				var shards []float64
				for _, c := range s.Children {
					cd := float64(c.DurationNS)
					switch c.Name {
					case "shard":
						shards = append(shards, cd)
						cycles := float64(o.spec.Sim.Warmup) + atof(c.Attrs["cycles"])
						shardNS += cd
						wsc += cycles * perCycle
						jobShardNS += cd
					case "merge":
						merge.add(cd / 1e3)
					case "observe":
						observe.add(cd / 1e6)
						observePoint += cd
						pointNS += d
					}
				}
				if len(shards) >= 2 {
					lo, hi := shards[0], shards[0]
					for _, x := range shards {
						lo, hi = min(lo, x), max(hi, x)
					}
					if lo > 0 {
						skew.add(hi / lo)
					}
				}
				for _, x := range shards {
					shardSum += x
				}
				shardCap += float64(len(shards)) * d
			}
		})
		if served {
			transport.add(float64(o.latency.Nanoseconds()-o.span.DurationNS) / 1e3)
		}

		hops := float64(jobHops(o.spec, o.res))
		if o.spec.Engine == edn.EngineDilated {
			dilNS, dilHops = dilNS+jobShardNS, dilHops+hops
		} else {
			ednNS, ednHops = ednNS+jobShardNS, ednHops+hops
		}
		for _, p := range o.res.Points {
			accepted.add(p.AcceptedFraction)
		}
		var jobObserved float64
		for _, p := range o.res.ClosedLoop {
			attempts += float64(p.Ledger.Issued + p.Ledger.Retries)
			completed += float64(p.Ledger.Completed)
			goodput.add(p.Goodput)
			if p.Observed != nil {
				b, err := json.Marshal(p.Observed)
				if err == nil {
					jobObserved += float64(len(b))
				}
			}
		}
		if o.spec.Probe != nil {
			observed.add(jobObserved)
		}
	}

	mean("run.validate_us", validate)
	mean("run.marshal_ms", marshal)
	mean("run.result_bytes", resultBytes)
	hits := float64(lr.cache.Hits - lr.cacheBefore.Hits)
	misses := float64(lr.cache.Misses - lr.cacheBefore.Misses)
	ratio("netcache.hit_ratio", hits, hits+misses)
	mean("netcache.build_cold_us", cold)
	if lr.cache.Bytes > 0 {
		out["netcache.bytes"] = float64(lr.cache.Bytes)
	}
	ratio("simulate.shard_ns_per_wsc", shardNS, wsc)
	mean("simulate.shard_skew", skew)
	ratio("simulate.parallel_eff", shardSum, shardCap)
	mean("simulate.merge_us", merge)
	ratio("simulate.observe_share", observePoint, pointNS)
	ratio("queuesim.ns_per_hop", ednNS, ednHops)
	mean("queuesim.accepted_fraction", accepted)
	ratio("dilatedsim.ns_per_hop", dilNS, dilHops)
	ratio("closedloop.issued_per_completed", attempts, completed)
	mean("closedloop.goodput", goodput)
	mean("anatomy.observe_ms_per_point", observe)
	mean("probe.observed_bytes", observed)
	mean("serve.queue_wait_us", queueWait)
	mean("serve.execute_ms", execute)
	mean("serve.serialize_us", serialize)
	mean("serve.transport_us", transport)
	if len(lr.traced) > 0 {
		n := float64(len(lr.traced))
		out["runtime.alloc_mb_per_job"] = float64(lr.mem1.TotalAlloc-lr.mem0.TotalAlloc) / 1e6 / n
		out["runtime.gc_cycles_per_job"] = float64(lr.mem1.NumGC-lr.mem0.NumGC) / n
		out["runtime.gc_pause_ms"] = float64(lr.mem1.PauseTotalNs-lr.mem0.PauseTotalNs) / 1e6 / n
	}
	if lr.jpsTr > 0 {
		out["trace.overhead"] = lr.jpsUntraced/lr.jpsTr - 1
	}
	out["host.spin_ms"] = lr.host.SpinMS
	out["host.parallelism_2v1"] = lr.host.Parallelism
	ratio("error_rate", float64(lr.failures), float64(lr.attempted))
	return out
}

func hasChild(s *edn.Span, name string) bool {
	for _, c := range s.Children {
		if c.Name == name {
			return true
		}
	}
	return false
}

func atof(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}
