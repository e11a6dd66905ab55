package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSpecsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		for _, tiny := range []bool{false, true} {
			differs := false
			for i := range 12 {
				a, b := w.spec(7, i, tiny), w.spec(7, i, tiny)
				ja, _ := json.Marshal(a)
				jb, _ := json.Marshal(b)
				if string(ja) != string(jb) {
					t.Fatalf("%s job %d: seed 7 gave two specs:\n%s\n%s", w.name, i, ja, jb)
				}
				if err := a.Validate(); err != nil {
					t.Fatalf("%s job %d: %v", w.name, i, err)
				}
				jo, _ := json.Marshal(w.spec(8, i, tiny))
				differs = differs || string(jo) != string(ja)
			}
			if !differs {
				t.Errorf("%s: seeds 7 and 8 generate the same jobs", w.name)
			}
		}
	}
}

func TestCosimMixOneInFourFaulted(t *testing.T) {
	w, err := findWorkload("cosim-http")
	if err != nil {
		t.Fatal(err)
	}
	geoms := map[int]int{}
	for i := range 400 {
		s := w.spec(3, i, false)
		if (s.Faults != nil) != (i%4 == 3) {
			t.Fatalf("job %d: faults %v", i, s.Faults)
		}
		geoms[s.Geometry.A]++
	}
	if len(geoms) != 2 {
		t.Errorf("geometry mix %v, want both estimate geometries", geoms)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 989},
		{1000, 0.99, true, 989},
		{5000, 0.99, true, 4949},
		{19, 0.5, false, 9},
		{21, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		v, ok := tailPercentile(ramp(c.n), c.p)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("n=%d p=%g: got (%g, %t), want (%g, %t)", c.n, c.p, v, ok, c.want, c.ok)
		}
		if _, beyond := percentile(ramp(c.n), c.p); c.n > 0 && (beyond >= minBeyond) != c.ok {
			t.Errorf("n=%d p=%g: %d beyond", c.n, c.p, beyond)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestIdentitiesCatchTamperedCounters(t *testing.T) {
	for _, w := range workloads {
		r := newRunner(w, false)
		s := w.spec(defaultSeed, 0, true)
		o := r.run(bgCtx, s)
		r.close()
		if o.err != nil {
			t.Fatal(o.err)
		}
		if err := identities(s, o.res); err != nil {
			t.Fatalf("%s: untouched result fails: %v", w.name, err)
		}
		switch {
		case o.res.Points != nil:
			o.res.Points[1].Delivered++
		case o.res.Estimate != nil:
			o.res.Estimate.Hops++
		case o.res.ClosedLoop != nil:
			o.res.ClosedLoop[0].Ledger.Completed++
		}
		if identities(s, o.res) == nil {
			t.Errorf("%s: tampered counters pass the identities", w.name)
		}
	}
}

// TestSmokeTinyWorkloads runs every workload on the small geometries,
// untraced and traced, and requires error_rate 0 and the contract's
// metric sets.
func TestSmokeTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, c := range []struct {
			seed  uint64
			trace bool
		}{{defaultSeed, false}, {defaultSeed, true}, {5, false}} {
			o := options{workload: w.name, seed: c.seed, seconds: 300 * time.Millisecond, trace: c.trace, tiny: true}
			res, err := run(o, io.Discard, testWriter{t})
			if err != nil {
				t.Fatalf("%s %+v: %v", w.name, c, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("%s %+v: correct=%t failed=%d attempted=%d", w.name, c, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if c.trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s %+v: %d metrics, want %d", w.name, c, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s %+v: metric %s = %+v", w.name, c, d.name, m)
				}
				if !c.trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json
// in step with the workloads and metric tables it describes.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v", i, doc.Workloads[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, tables %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		e := doc.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, table %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		p := doc.PerLayer[i]
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, table %+v", i, p, d)
		}
	}
}
