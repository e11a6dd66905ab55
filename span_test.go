package edn

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestSpanCollectorNilSafe(t *testing.T) {
	var c *SpanCollector
	s := c.Start("anything")
	c.SetAttr(s, "k", "v")
	c.ObserveStage("shard", 0, 10, time.Now(), time.Millisecond)
	c.End(s)
	if got := c.Finish(); got != nil {
		t.Fatalf("nil collector returned a tree: %+v", got)
	}
	var nilSpan *Span
	nilSpan.Walk(func(int, *Span) { t.Fatal("walked a nil span") })
}

func TestSpanCollectorShardOrderIsScheduleIndependent(t *testing.T) {
	c := NewSpanCollector("job")
	exec := c.Start("execute")
	// Shard observations arrive in scrambled goroutine order; merge and
	// observe arrive afterwards, sequentially.
	var wg sync.WaitGroup
	for _, shard := range []int{3, 0, 2, 1} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.ObserveStage("shard", w, 100, time.Now(), time.Millisecond)
		}(shard)
	}
	wg.Wait()
	c.ObserveStage("merge", -1, 0, time.Now(), time.Microsecond)
	c.ObserveStage("observe", -1, 400, time.Now(), time.Microsecond)
	c.End(exec)
	root := c.Finish()

	if len(root.Children) != 1 || root.Children[0] != exec {
		t.Fatalf("root shape wrong: %+v", root.Children)
	}
	want := []string{"shard", "shard", "shard", "shard", "merge", "observe"}
	if len(exec.Children) != len(want) {
		t.Fatalf("execute has %d children, want %d", len(exec.Children), len(want))
	}
	for i, child := range exec.Children {
		if child.Name != want[i] {
			t.Errorf("child %d = %q, want %q", i, child.Name, want[i])
		}
		if i < 4 {
			if got := child.Attrs["shard"]; got != string(rune('0'+i)) {
				t.Errorf("shard child %d has shard attr %q", i, got)
			}
			if got := child.Attrs["cycles"]; got != "100" {
				t.Errorf("shard child %d cycles = %q", i, got)
			}
		}
	}
}

func TestSpanCollectorFinishIdempotent(t *testing.T) {
	c := NewSpanCollector("job")
	s := c.Start("validate", "mode", "estimate")
	c.End(s)
	first := c.Finish()
	second := c.Finish()
	if first != second {
		t.Fatal("Finish returned different trees")
	}
	if first.DurationNS <= 0 {
		t.Errorf("root duration not set: %d", first.DurationNS)
	}
	if s.Attrs["mode"] != "estimate" {
		t.Errorf("start attrs lost: %+v", s.Attrs)
	}
}

// TestRunJobObservedSpanShape pins the span tree of an observed job
// across shard counts, including the ones that cut shard 0's run at its
// share boundary: every point span holds one "shard" child per shard
// (in shard order, with the cycle shares of the budget split), then
// "merge", then "observe" carrying the observed cycles beyond shard 0's
// share. The explain report is the same at every shard count, and the
// traced result equals the untraced one.
func TestRunJobObservedSpanShape(t *testing.T) {
	const cycles = 301 // shard 0 takes the remainder at 2 and 3 shards
	geo := &GeometrySpec{A: 16, B: 4, C: 4, L: 2}
	probe := &ProbeSpec{SampleEvery: 4, TraceCap: 64, Bins: 8}
	specs := map[string]JobSpec{
		"saturation": {Mode: JobSaturation, Geometry: geo, Loads: []float64{0.5, 0.9},
			Queue: &QueueSpec{Depth: 2}, Probe: probe, Explain: &ExplainSpec{}},
		"closedloop-dilated": {Mode: JobClosedLoop, Engine: EngineDilated, Geometry: geo, Rates: []float64{0.3},
			Queue: &QueueSpec{Depth: 2}, Loop: &ClosedLoopSpec{Window: 4, Timeout: 32, Retry: "backoff"},
			Probe: probe, Explain: &ExplainSpec{}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			var firstExplain []byte
			for _, shards := range []int{1, 2, 3} {
				spec.Sim = SimSpec{Cycles: cycles, Warmup: 40, Seed: 3, Shards: shards}
				tr := NewSpanCollector("job")
				var explain *AnatomyReport
				res, err := RunJob(context.Background(), spec, RunOptions{Trace: tr, OnExplain: func(r *AnatomyReport) { explain = r }})
				if err != nil {
					t.Fatal(err)
				}
				root := tr.Finish()
				plain, err := Run(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := json.Marshal(res)
				want, _ := json.Marshal(plain)
				if !bytes.Equal(got, want) {
					t.Fatalf("shards=%d: traced result differs from untraced", shards)
				}
				exp, _ := json.Marshal(explain)
				if explain == nil || (firstExplain != nil && !bytes.Equal(exp, firstExplain)) {
					t.Fatalf("shards=%d: explain report missing or differs across shard counts", shards)
				}
				firstExplain = exp

				points := 0
				root.Walk(func(_ int, s *Span) {
					if s.Name != "point" {
						return
					}
					points++
					var names []string
					for _, c := range s.Children {
						names = append(names, c.Name)
					}
					want := make([]string, 0, shards+2)
					for w := 0; w < shards; w++ {
						want = append(want, "shard")
					}
					want = append(want, "merge", "observe")
					if !reflect.DeepEqual(names, want) {
						t.Fatalf("shards=%d: point children %v, want %v", shards, names, want)
					}
					shares := make([]int, shards)
					for w := range shares {
						shares[w] = cycles / shards
						if w < cycles%shards {
							shares[w]++
						}
						c := s.Children[w]
						if c.Attrs["shard"] != strconv.Itoa(w) || c.Attrs["cycles"] != strconv.Itoa(shares[w]) {
							t.Fatalf("shards=%d: shard child %d attrs %v", shards, w, c.Attrs)
						}
					}
					obs := s.Children[shards+1]
					if rest := cycles - shares[0]; rest > 0 && obs.Attrs["cycles"] != strconv.Itoa(rest) {
						t.Fatalf("shards=%d: observe attrs %v, want cycles %d", shards, obs.Attrs, rest)
					}
				})
				if points == 0 {
					t.Fatalf("shards=%d: no point spans", shards)
				}
			}
		})
	}
}
