package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"edn"
)

// digests.json pins the sha256 of the result bytes of the first jobs
// of every workload at the default seed, keyed by workload name
// ("<name>/tiny" for the smoke-test geometry). Regenerate it with
// -pin only when a change is meant to move simulated results.
//
//go:embed digests.json
var digestsJSON []byte

func loadPins() (map[string][]string, error) {
	var pins map[string][]string
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

func pinKey(w *workload, tiny bool) string {
	if tiny {
		return w.name + "/tiny"
	}
	return w.name
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pinCount is how many default-seed jobs of each workload are pinned.
var pinCount = map[string]int{"sweep-edn": 2, "cosim-http": 8, "loop-explain": 2}

// writePins runs the pinned default-seed jobs of every workload at both
// scales and writes their digests to path.
func writePins(path string) error {
	pins := make(map[string][]string)
	for _, w := range workloads {
		for _, tiny := range []bool{false, true} {
			r := newRunner(w, false)
			for i := range pinCount[w.name] {
				s := w.spec(defaultSeed, i, tiny)
				o := r.run(bgCtx, s)
				if o.err == nil {
					o.err = identities(s, o.res)
				}
				if o.err != nil {
					r.close()
					return fmt.Errorf("%s job %d: %w", w.name, i, o.err)
				}
				pins[pinKey(w, tiny)] = append(pins[pinKey(w, tiny)], digest(o.bytes))
			}
			r.close()
		}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// verify applies the per-job correctness checks: the job succeeded, the
// counter identities its result carries hold, and, for a pinned
// default-seed job, its result bytes match the pinned digest.
func verify(o outcome, seed uint64, pins []string) error {
	if o.err != nil {
		return o.err
	}
	if err := identities(o.spec, o.res); err != nil {
		return err
	}
	if seed == defaultSeed && o.idx < len(pins) {
		if got := digest(o.bytes); got != pins[o.idx] {
			return fmt.Errorf("result digest %s, pinned %s", got[:12], pins[o.idx][:12])
		}
	}
	return nil
}

// identities checks the relations a result's counters must satisfy
// whatever the seed: the result names the spec that ran, every point
// covers the spec's cycle budget and shard count, each histogram counts
// exactly the packets or round trips the counters report, and every
// derived ratio equals its counters.
func identities(spec edn.JobSpec, res *edn.JobResult) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	want, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	got, err := json.Marshal(res.Spec)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("result carries spec %s, sent %s", got, want)
	}
	cfg, err := spec.Geometry.Compile()
	if err != nil {
		return err
	}
	switch spec.Mode {
	case edn.JobSaturation:
		return saturationIdentities(spec, cfg, res.Points)
	case edn.JobEstimate:
		return estimateIdentities(spec, cfg, res.Estimate)
	case edn.JobClosedLoop:
		dcfg, err := edn.DilatedCounterpart(cfg)
		if err != nil {
			return err
		}
		return closedLoopIdentities(spec, dcfg.Ports(), res.ClosedLoop)
	}
	return fmt.Errorf("no identities for mode %q", spec.Mode)
}

func saturationIdentities(spec edn.JobSpec, cfg edn.Config, pts []edn.LatencyResult) error {
	if len(pts) != len(spec.Loads) {
		return fmt.Errorf("%d points for %d loads", len(pts), len(spec.Loads))
	}
	for i, p := range pts {
		cycles := float64(p.Cycles)
		switch {
		case p.Cycles != spec.Sim.Cycles || p.Shards != spec.Sim.Shards:
			return fmt.Errorf("point %d: %d cycles over %d shards, spec %d over %d", i, p.Cycles, p.Shards, spec.Sim.Cycles, spec.Sim.Shards)
		case p.Histogram == nil || p.Histogram.N() != p.Delivered:
			return fmt.Errorf("point %d: histogram does not count the %d delivered packets", i, p.Delivered)
		case p.Refused > p.Injected || p.Dropped != 0:
			return fmt.Errorf("point %d: refused %d of %d injected, dropped %d under backpressure", i, p.Refused, p.Injected, p.Dropped)
		case p.Throughput != float64(p.Delivered)/cycles:
			return fmt.Errorf("point %d: throughput %g is not delivered/cycles", i, p.Throughput)
		case p.OfferedRate != float64(p.Injected)/float64(p.Cycles*cfg.Inputs()):
			return fmt.Errorf("point %d: offered rate %g is not injected/(cycles*inputs)", i, p.OfferedRate)
		case p.Injected > 0 && p.AcceptedFraction != float64(p.Delivered)/float64(p.Injected):
			return fmt.Errorf("point %d: accepted fraction %g is not delivered/injected", i, p.AcceptedFraction)
		}
		if err := ordered(p.LatencyP50, p.LatencyP95, p.LatencyP99, p.LatencyMax); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}

func estimateIdentities(spec edn.JobSpec, cfg edn.Config, e *edn.EstimateResult) error {
	switch {
	case e == nil:
		return fmt.Errorf("no estimate section")
	case e.Src != spec.Estimate.Src || e.Dst != spec.Estimate.Dst || e.Load != spec.Load:
		return fmt.Errorf("estimate answers (%d,%d,%g), asked (%d,%d,%g)", e.Src, e.Dst, e.Load, spec.Estimate.Src, spec.Estimate.Dst, spec.Load)
	case e.Hops != cfg.Stages():
		return fmt.Errorf("estimate hops %d, network has %d stages", e.Hops, cfg.Stages())
	case e.AnalyticPA != edn.PA(cfg, spec.Load):
		return fmt.Errorf("estimate analytic PA %g, Equation 4 gives %g", e.AnalyticPA, edn.PA(cfg, spec.Load))
	case spec.Faults == nil && !(e.SrcLive && e.DstReachable):
		return fmt.Errorf("fault-free estimate reports src_live=%t dst_reachable=%t", e.SrcLive, e.DstReachable)
	}
	if !(e.SrcLive && e.DstReachable) {
		if e.Cycles != 0 {
			return fmt.Errorf("undeliverable estimate measured %d cycles", e.Cycles)
		}
		return nil
	}
	if e.Cycles != spec.Sim.Cycles {
		return fmt.Errorf("estimate measured %d cycles, spec %d", e.Cycles, spec.Sim.Cycles)
	}
	delivered := e.Throughput * float64(e.Cycles)
	if math.Abs(delivered-math.Round(delivered)) > 1e-6 || delivered < 0 {
		return fmt.Errorf("estimate throughput %g is not a packet count over %d cycles", e.Throughput, e.Cycles)
	}
	return ordered(e.LatencyP50, e.LatencyP95, e.LatencyP99, e.LatencyMax)
}

func closedLoopIdentities(spec edn.JobSpec, inputs int, pts []edn.ClosedLoopResult) error {
	if len(pts) != len(spec.Rates) {
		return fmt.Errorf("%d points for %d rates", len(pts), len(spec.Rates))
	}
	for i, p := range pts {
		led := p.Ledger
		per := float64(p.Cycles * inputs)
		switch {
		case p.Cycles != spec.Sim.Cycles || p.Shards != spec.Sim.Shards:
			return fmt.Errorf("point %d: %d cycles over %d shards, spec %d over %d", i, p.Cycles, p.Shards, spec.Sim.Cycles, spec.Sim.Shards)
		case p.Histogram == nil || p.Histogram.N() != led.Completed:
			return fmt.Errorf("point %d: histogram does not count the %d completed round trips", i, led.Completed)
		case p.Goodput != float64(led.Completed)/per:
			return fmt.Errorf("point %d: goodput %g is not completed/(cycles*inputs)", i, p.Goodput)
		case p.OfferedRate != float64(led.Offered)/per:
			return fmt.Errorf("point %d: offered rate %g is not offered/(cycles*inputs)", i, p.OfferedRate)
		case led.Offered > 0 && p.CompletedFraction != min(1, float64(led.Completed)/float64(led.Offered)):
			return fmt.Errorf("point %d: completed fraction %g is not completed/offered", i, p.CompletedFraction)
		case spec.Probe != nil && p.Observed == nil:
			return fmt.Errorf("point %d: probe attached but no observed report", i)
		}
		if err := ordered(p.LatencyP50, p.LatencyP95, p.LatencyP99, p.LatencyMax); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}

func ordered(p50, p95, p99, max float64) error {
	if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
		return fmt.Errorf("latency quantiles out of order: p50 %g p95 %g p99 %g max %g", p50, p95, p99, max)
	}
	return nil
}
