// Command perfbench is the repository's end-to-end job benchmark. It
// drives one closed-loop workload through the public entry points —
// edn.RunJob in process, or serve.Server over loopback HTTP — for a
// fixed time, checks every job's result bytes, and prints the
// end-to-end metrics (--trace 0) or the per-layer split from a traced
// replay of the same jobs (--trace 1). The last line of standard
// output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload sweep-edn --seed 1 --seconds 10 --trace 0
//
// or, inside perfbench/, with go run . and the same flags. -pin
// regenerates digests.json.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"edn"
)

// procStart is the process start as the benchmark sees it: the first
// set-up is timed from here.
var procStart = time.Now()

var bgCtx = context.Background()

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median.
const setupRepeats = 15

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// tiny swaps in the small smoke-test geometries.
	tiny bool
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sweep-edn, cosim-http or loop-explain")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer split from a traced replay")
	pin := flag.String("pin", "", "write the default-seed digests to this file and exit")
	flag.Parse()
	if *pin != "" {
		if err := writePins(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.seconds, o.trace = time.Duration(seconds)*time.Second, trace == 1

	res, err := run(o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// setup builds a fresh runner and sends the workload's warm-up jobs,
// which fill its empty geometry cache.
func setup(w *workload, tiny, traced bool) (runner, []outcome, error) {
	r := newRunner(w, traced)
	var warm []outcome
	for _, s := range w.warm(tiny) {
		o := r.run(bgCtx, s)
		if o.err != nil {
			r.close()
			return nil, nil, fmt.Errorf("warm-up job: %w", o.err)
		}
		warm = append(warm, o)
	}
	return r, warm, nil
}

// run performs one benchmark run, writing the human-readable report to
// out and failed-job diagnostics to diag, and returns the contract line.
func run(o options, out, diag io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	pinned := pins[pinKey(w, o.tiny)]
	spec := func(i int) edn.JobSpec { return w.spec(o.seed, i, o.tiny) }

	// Set up from scratch several times; the first is timed from process
	// start, and the last runner is the one measured.
	var r runner
	var setups []float64
	for k := range setupRepeats {
		start := time.Now()
		if k == 0 {
			start = procStart
		}
		if r != nil {
			r.close()
		}
		if r, _, err = setup(w, o.tiny, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { r.close() }()

	// The timed window, tracing off. A traced run gives half its time to
	// this window and the rest to the traced replay of the same jobs.
	window := o.seconds
	if o.trace {
		window /= 2
	}
	attempted, failures := 0, 0
	fail := func(what string, idx int, err error) {
		failures++
		if failures <= 5 {
			fmt.Fprintf(diag, "perfbench: %s job %d: %v\n", what, idx, err)
		}
	}
	// Every run re-checks the first default-seed jobs against their
	// pinned digests, whatever its own seed. They run before the timed
	// window, so they also warm the heap and caches it would otherwise
	// start cold.
	for g := range w.golden {
		s := w.spec(defaultSeed, g, o.tiny)
		oc := r.run(bgCtx, s)
		oc.idx, oc.spec = g, s
		attempted++
		err := verify(oc, defaultSeed, pinned)
		if err == nil && g >= len(pinned) {
			err = fmt.Errorf("no pinned digest")
		}
		if err != nil {
			fail("golden", g, err)
		}
	}

	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	// Keep only what the metrics need, so the benchmark's own bookkeeping
	// stays out of heap_peak_mb: a latency per job, and in a traced run
	// the result digest the replay is compared against.
	var lat []float64
	var hops int64
	digests := make(map[int][32]byte)
	heap := startHeapSampler(2 * time.Millisecond)
	t0 := time.Now()
	jobs := drive(bgCtx, r, w.clients, spec, -1, t0.Add(window), func(i int, oc outcome) {
		attempted++
		lat = append(lat, oc.latency.Seconds()*1e3)
		if err := verify(oc, o.seed, pinned); err != nil {
			fail("timed", i, err)
			return
		}
		hops += jobHops(oc.spec, oc.res)
		if o.trace {
			digests[i] = sha256.Sum256(oc.bytes)
		}
	})
	wall := time.Since(t0).Seconds()
	peak := heap.Stop()
	runtime.ReadMemStats(&mem1)
	sort.Float64s(lat)

	// The traced replay of the same jobs, on a freshly set-up traced
	// runner: its result bytes must equal the untraced bytes.
	var lr layerRun
	if o.trace {
		rt, warm, err := setup(w, o.tiny, true)
		if err != nil {
			return nil, err
		}
		before := rt.cache().Stats()
		traced := make([]outcome, jobs)
		t1 := time.Now()
		drive(bgCtx, rt, w.clients, spec, jobs, time.Time{}, func(i int, oc outcome) {
			attempted++
			traced[i] = oc
			err := verify(oc, o.seed, pinned)
			if d, ok := digests[i]; err == nil && (!ok || d != sha256.Sum256(oc.bytes)) {
				err = fmt.Errorf("traced result bytes differ from the untraced run's")
			}
			if err != nil {
				fail("traced", i, err)
			}
		})
		twall := time.Since(t1).Seconds()
		after := rt.cache().Stats()
		rt.close()
		lr = layerRun{traced: traced, warm: warm, cacheBefore: before, cache: after,
			mem0: mem0, mem1: mem1,
			jpsUntraced: float64(jobs) / wall, jpsTr: float64(jobs) / twall}
	}

	host := calibrate()

	e2e := map[string]float64{
		"setup_s":        median(setups),
		"jobs_per_s":     float64(jobs) / wall,
		"latency_ms.p50": median(lat),
		"mhops_per_s":    float64(hops) / wall / 1e6,
		"heap_peak_mb":   float64(peak) / 1e6,
	}
	scale := "full"
	if o.tiny {
		scale = "tiny"
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%t scale=%s\n", w.name, o.seed, o.seconds.Seconds(), o.trace, scale)
	fmt.Fprintf(out, "workload: %s\n", w.why)
	fmt.Fprintf(out, "host: spin_ms=%.3f parallelism_2v1=%.3f GOMAXPROCS=%d NumCPU=%d %s/%s %s\n",
		host.SpinMS, host.Parallelism, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(out, "end-to-end (tracing off, %d jobs in %.3f s, %d set-ups):\n", jobs, wall, setupRepeats)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-16s %14.6g %s\n", d.name, e2e[d.name], d.unit)
	}
	if v, ok := tailPercentile(lat, 0.99); ok {
		fmt.Fprintf(out, "  %-16s %14.6g ms\n", "latency_ms.p99", v)
	} else {
		fmt.Fprintf(out, "  %-16s %14s (%d samples; needs %d beyond it)\n", "latency_ms.p99", "n/a", len(lat), minBeyond)
	}
	fmt.Fprintf(out, "  %-16s %14.6g (%d of %d jobs)\n", "error_rate", float64(failures)/float64(max(1, attempted)), failures, attempted)

	res := &result{Correct: failures == 0 && attempted > 0, Attempted: attempted, Failed: failures,
		Metrics: make(map[string]metric)}
	if !o.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: e2e[d.name], Unit: d.unit}
		}
		return res, nil
	}

	lr.host, lr.attempted, lr.failures = host, attempted, failures
	layers := computeLayers(lr)
	fmt.Fprintf(out, "per-layer (traced replay of the same %d jobs):\n", jobs)
	fmt.Fprintf(out, "  %-32s %14s %-12s %-17s %s\n", "metric", "value", "unit", "module", "should move")
	for _, d := range perLayer {
		v, ok := layers[d.name]
		val := fmt.Sprintf("%.6g", v)
		if !ok {
			val = "n/a"
		}
		fmt.Fprintf(out, "  %-32s %14s %-12s %-17s %s\n", d.name, val, d.unit, d.module, d.moves)
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}
