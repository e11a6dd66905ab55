package topology

import (
	"testing"
	"testing/quick"

	"edn/internal/gamma"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		a, b, c, l int
		ok         bool
	}{
		{8, 4, 2, 3, true},
		{16, 4, 4, 2, true},  // Figure 4
		{64, 16, 4, 2, true}, // Figure 5 (MasPar MP-1 equivalent)
		{8, 8, 1, 4, true},   // delta family
		{8, 8, 8, 1, true},   // a/c = 1
		{7, 4, 2, 3, false},  // a not a power of two
		{8, 3, 2, 3, false},  // b not a power of two
		{8, 4, 3, 3, false},  // c not a power of two
		{4, 4, 8, 1, false},  // c > a
		{8, 4, 2, 0, false},  // no stages
		{8, 2, 1, 60, false}, // size guard
	}
	for _, cse := range cases {
		_, err := New(cse.a, cse.b, cse.c, cse.l)
		if (err == nil) != cse.ok {
			t.Errorf("New(%d,%d,%d,%d) err=%v want ok=%v", cse.a, cse.b, cse.c, cse.l, err, cse.ok)
		}
	}
}

// TestFigure4Structure checks EDN(16,4,4,2) against Figure 4: two stages
// of four H(16->4x4) hyperbars and a final stage of sixteen 4x4 crossbars,
// 64 inputs and 64 outputs.
func TestFigure4Structure(t *testing.T) {
	cfg, err := New(16, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Inputs(); got != 64 {
		t.Errorf("Inputs = %d, want 64", got)
	}
	if got := cfg.Outputs(); got != 64 {
		t.Errorf("Outputs = %d, want 64", got)
	}
	if got := cfg.SwitchesInStage(1); got != 4 {
		t.Errorf("stage 1 switches = %d, want 4", got)
	}
	if got := cfg.SwitchesInStage(2); got != 4 {
		t.Errorf("stage 2 switches = %d, want 4", got)
	}
	if got := cfg.SwitchesInStage(3); got != 16 {
		t.Errorf("stage 3 crossbars = %d, want 16", got)
	}
	if !cfg.IsSquare() {
		t.Error("EDN(16,4,4,2) should be square")
	}
	if got := cfg.PathCount(); got != 16 {
		t.Errorf("PathCount = %d, want c^l = 16", got)
	}
}

// TestFigure5Structure checks EDN(64,16,4,2) against Figure 5: 1024
// inputs, sixteen hyperbars per stage, 256 4x4 crossbars. This is the
// network the paper identifies as logically equivalent to the 16K-PE
// MasPar MP-1 router.
func TestFigure5Structure(t *testing.T) {
	cfg, err := New(64, 16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Inputs(); got != 1024 {
		t.Errorf("Inputs = %d, want 1024", got)
	}
	if got := cfg.Outputs(); got != 1024 {
		t.Errorf("Outputs = %d, want 1024", got)
	}
	if got := cfg.SwitchesInStage(1); got != 16 {
		t.Errorf("stage 1 switches = %d, want 16", got)
	}
	if got := cfg.SwitchesInStage(2); got != 16 {
		t.Errorf("stage 2 switches = %d, want 16", got)
	}
	if got := cfg.SwitchesInStage(3); got != 256 {
		t.Errorf("stage 3 crossbars = %d, want 256", got)
	}
}

func TestDegenerateCases(t *testing.T) {
	xb, err := NewCrossbar(8)
	if err != nil {
		t.Fatal(err)
	}
	if !xb.IsCrossbarNetwork() || !xb.IsDelta() {
		t.Errorf("EDN(8,8,1,1) should be a crossbar network")
	}
	if xb.Inputs() != 8 || xb.Outputs() != 8 || xb.PathCount() != 1 {
		t.Errorf("crossbar dims wrong: %d x %d, paths %d", xb.Inputs(), xb.Outputs(), xb.PathCount())
	}

	delta, err := NewDelta(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.IsDelta() || delta.IsCrossbarNetwork() {
		t.Errorf("EDN(2,2,1,4) should be a (non-crossbar) delta network")
	}
	if delta.Inputs() != 16 || delta.Outputs() != 16 || delta.PathCount() != 1 {
		t.Errorf("delta dims wrong: %d x %d, paths %d", delta.Inputs(), delta.Outputs(), delta.PathCount())
	}
}

func TestWireConservation(t *testing.T) {
	// Between consecutive stages, outputs of stage i must equal inputs of
	// stage i+1, and the gamma permutation must act on exactly that count.
	cfgs := []Config{
		{A: 16, B: 4, C: 4, L: 2},
		{A: 64, B: 16, C: 4, L: 2},
		{A: 8, B: 2, C: 4, L: 3},
		{A: 8, B: 8, C: 1, L: 3},
		{A: 4, B: 8, C: 2, L: 2}, // expanding network (outputs > inputs)
	}
	for _, cfg := range cfgs {
		if cfg.WiresAfterStage(0) != cfg.Inputs() {
			t.Errorf("%v: WiresAfterStage(0) != Inputs", cfg)
		}
		if cfg.WiresAfterStage(cfg.L+1) != cfg.Outputs() {
			t.Errorf("%v: WiresAfterStage(l+1) != Outputs", cfg)
		}
		for i := 1; i <= cfg.L; i++ {
			fromSwitches := cfg.SwitchesInStage(i) * cfg.Hyperbar().Outputs()
			if fromSwitches != cfg.WiresAfterStage(i) {
				t.Errorf("%v stage %d: switch outputs %d != wires %d", cfg, i, fromSwitches, cfg.WiresAfterStage(i))
			}
			nextWidth := cfg.A
			if i == cfg.L {
				nextWidth = cfg.C
			}
			intoSwitches := cfg.SwitchesInStage(i+1) * nextWidth
			if intoSwitches != cfg.WiresAfterStage(i) {
				t.Errorf("%v stage %d: next-stage inputs %d != wires %d", cfg, i, intoSwitches, cfg.WiresAfterStage(i))
			}
			g := cfg.InterstageGamma(i)
			if g.Size() != cfg.WiresAfterStage(i) {
				t.Errorf("%v stage %d: gamma size %d != wires %d", cfg, i, g.Size(), cfg.WiresAfterStage(i))
			}
			if !gamma.IsPermutationTable(g.Table()) {
				t.Errorf("%v stage %d: interstage wiring is not a permutation", cfg, i)
			}
		}
		// Last interstage connection is the identity: buckets feed crossbars.
		if !cfg.InterstageGamma(cfg.L).IsIdentity() {
			t.Errorf("%v: stage l -> crossbar wiring should be identity", cfg)
		}
	}
}

func TestCostClosedForms(t *testing.T) {
	// The closed forms of Equations 2 and 3 must agree with the exact sums
	// for both the geometric (a/c != b) and degenerate (a/c == b) branches.
	cfgs := []Config{
		{A: 16, B: 4, C: 4, L: 2},  // a/c == b
		{A: 64, B: 16, C: 4, L: 2}, // a/c == b
		{A: 8, B: 2, C: 4, L: 3},   // a/c < b
		{A: 8, B: 8, C: 1, L: 3},   // a/c > b (delta)
		{A: 16, B: 2, C: 8, L: 4},  // a/c == b == 2
		{A: 8, B: 4, C: 2, L: 5},   // a/c == b == 4
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		wantCs := float64(cfg.CrosspointCount())
		if got := cfg.CrosspointCostClosedForm(); !close(got, wantCs) {
			t.Errorf("%v: crosspoint closed form %.1f != exact %.1f", cfg, got, wantCs)
		}
		wantCw := float64(cfg.WireCount())
		if got := cfg.WireCostClosedForm(); !close(got, wantCw) {
			t.Errorf("%v: wire closed form %.1f != exact %.1f", cfg, got, wantCw)
		}
	}
}

func TestCrossbarCostMatchesAB(t *testing.T) {
	// An a x b crossbar has cost ab (Section 3.1).
	cfg, err := New(8, 16, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.CrosspointCount(); got != 8*16+16 {
		// One H(8->16x1) hyperbar (8*16 crosspoints) plus 16 trivial 1x1
		// crossbars of cost 1 each: Definition 2 always appends the final
		// stage, so the degenerate network carries b^l unit crossbars.
		t.Errorf("CrosspointCount = %d, want %d", got, 8*16+16)
	}
}

// TestTheorem2PathCount enumerates all paths on small networks and checks
// there are exactly c^l distinct ones, all valid.
func TestTheorem2PathCount(t *testing.T) {
	cfgs := []Config{
		{A: 4, B: 2, C: 2, L: 2},
		{A: 8, B: 2, C: 4, L: 2},
		{A: 8, B: 4, C: 2, L: 3},
		{A: 4, B: 4, C: 1, L: 2}, // delta: unique path
	}
	for _, cfg := range cfgs {
		for src := 0; src < cfg.Inputs(); src += max(1, cfg.Inputs()/4) {
			for dst := 0; dst < cfg.Outputs(); dst += max(1, cfg.Outputs()/4) {
				paths, err := cfg.EnumeratePaths(src, dst)
				if err != nil {
					t.Fatalf("%v src=%d dst=%d: %v", cfg, src, dst, err)
				}
				if len(paths) != cfg.PathCount() {
					t.Fatalf("%v src=%d dst=%d: %d paths, want %d", cfg, src, dst, len(paths), cfg.PathCount())
				}
				seen := map[string]bool{}
				for _, p := range paths {
					if p[0] != src || p[len(p)-1] != dst {
						t.Fatalf("%v: path %v does not join %d to %d", cfg, p, src, dst)
					}
					key := fingerprint(p)
					if seen[key] {
						t.Fatalf("%v src=%d dst=%d: duplicate path %v", cfg, src, dst, p)
					}
					seen[key] = true
				}
			}
		}
	}
}

// TestTheorem1Connected walks every (src, dst) pair of several small
// networks with an arbitrary choice vector: Lemma 1 guarantees arrival.
func TestTheorem1Connected(t *testing.T) {
	cfgs := []Config{
		{A: 4, B: 2, C: 2, L: 2},
		{A: 8, B: 2, C: 4, L: 2},
		{A: 8, B: 4, C: 2, L: 2},
		{A: 4, B: 4, C: 1, L: 3},
		{A: 4, B: 8, C: 2, L: 2},
		{A: 8, B: 2, C: 2, L: 2}, // contracting network (inputs > outputs)
	}
	for _, cfg := range cfgs {
		choices := make([]int, cfg.L)
		for src := 0; src < cfg.Inputs(); src++ {
			for dst := 0; dst < cfg.Outputs(); dst++ {
				for i := range choices {
					choices[i] = (src + dst + i) % cfg.C
				}
				if _, err := cfg.Walk(src, dst, choices); err != nil {
					t.Fatalf("%v: walk(%d -> %d) failed: %v", cfg, src, dst, err)
				}
			}
		}
	}
}

func TestWalkRejectsBadArguments(t *testing.T) {
	cfg := Config{A: 4, B: 2, C: 2, L: 2}
	if _, err := cfg.Walk(-1, 0, []int{0, 0}); err == nil {
		t.Error("expected error for negative source")
	}
	if _, err := cfg.Walk(0, cfg.Outputs(), []int{0, 0}); err == nil {
		t.Error("expected error for destination out of range")
	}
	if _, err := cfg.Walk(0, 0, []int{0}); err == nil {
		t.Error("expected error for short choice vector")
	}
	if _, err := cfg.Walk(0, 0, []int{0, 2}); err == nil {
		t.Error("expected error for wire choice out of range")
	}
}

func TestFamilyConfigs(t *testing.T) {
	fam := Family{A: 8, B: 4, C: 2}
	cfgs, err := fam.Configs(1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) == 0 {
		t.Fatal("no configs")
	}
	prev := 0
	for _, cfg := range cfgs {
		if cfg.A != 8 || cfg.B != 4 || cfg.C != 2 {
			t.Fatalf("family drifted: %v", cfg)
		}
		if cfg.Inputs() <= prev {
			t.Fatalf("sizes not strictly increasing: %d after %d", cfg.Inputs(), prev)
		}
		if cfg.Inputs() > 100000 {
			t.Fatalf("config %v exceeds max size", cfg)
		}
		prev = cfg.Inputs()
	}

	// a == c families have constant size; Configs must terminate.
	flat := Family{A: 8, B: 8, C: 8}
	cfgs, err = flat.Configs(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 1 {
		t.Fatalf("a==c family returned %d configs, want 1", len(cfgs))
	}
}

// Property test: for random valid configurations, the exact cost sums and
// closed forms agree and structural invariants hold.
func TestQuickStructuralInvariants(t *testing.T) {
	f := func(rawA, rawB, rawC, rawL uint8) bool {
		a := 1 << (rawA%4 + 1) // 2..16
		c := 1 << (rawC % 4)   // 1..8
		if c > a {
			c = a
		}
		b := 1 << (rawB % 4) // 1..8
		l := int(rawL%3) + 1 // 1..3
		cfg := Config{A: a, B: b, C: c, L: l}
		if err := cfg.Validate(); err != nil {
			return true // skip invalid draws
		}
		if !close(float64(cfg.CrosspointCount()), cfg.CrosspointCostClosedForm()) {
			return false
		}
		if !close(float64(cfg.WireCount()), cfg.WireCostClosedForm()) {
			return false
		}
		// Tag width must describe exactly the output space.
		if 1<<uint(cfg.DigitBits()) != cfg.Outputs() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func close(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := b
	if scale < 1 {
		scale = 1
	}
	return diff <= 1e-9*scale
}

func fingerprint(p []int) string {
	out := make([]byte, 0, len(p)*4)
	for _, v := range p {
		out = append(out, byte(v), byte(v>>8), byte(v>>16), ',')
	}
	return string(out)
}

// TestBucketLandsOnOneSwitch pins the property the packet engine's
// parked census rests on: the c wires of every hyperbar bucket land on
// one next-stage switch, so a packet's switch path is fixed by its input
// and destination and only the wire within each bucket is free. It
// covers every valid EDN(a,b,c,l) with a,b <= 64, c <= 16, l <= 4 and
// at most 64K ports.
func TestBucketLandsOnOneSwitch(t *testing.T) {
	configs := 0
	for a := 1; a <= 64; a *= 2 {
		for b := 1; b <= 64; b *= 2 {
			for c := 1; c <= 16; c *= 2 {
				for l := 1; l <= 4; l++ {
					cfg, err := New(a, b, c, l)
					if err != nil || max(cfg.Inputs(), cfg.Outputs()) > 1<<16 {
						continue
					}
					configs++
					for s := 1; s <= l; s++ {
						tab := cfg.InterstageTable(s)
						for bucket := 0; bucket < cfg.WiresAfterStage(s)/c; bucket++ {
							first := -1
							for k := 0; k < c; k++ {
								line := bucket*c + k
								if tab != nil {
									line = int(tab[line])
								}
								sw, _ := cfg.SwitchOfLine(s+1, line)
								if first < 0 {
									first = sw
								} else if sw != first {
									t.Fatalf("%v stage %d bucket %d: wire %d lands on switch %d, wire 0 on %d", cfg, s, bucket, k, sw, first)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d configurations", configs)
}
