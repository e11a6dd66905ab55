package netcache

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/queuesim"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// TestHitEqualsColdBuild is the property the package doc cites: for
// every artifact kind, the first request is a cold build, the second a
// hit returning the very same value, and that value deep-equals a fresh
// build outside the cache — also after engines holding the cached masks
// have churned them with UpdateFaults.
func TestHitEqualsColdBuild(t *testing.T) {
	c := New(0)
	for _, g := range [][4]int{{4, 2, 2, 2}, {16, 4, 4, 2}, {8, 4, 2, 3}} {
		cfg, err := topology.New(g[0], g[1], g[2], g[3])
		if err != nil {
			t.Fatal(err)
		}
		dcfg, err := dilated.Counterpart(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(cfg.String(), func(t *testing.T) {
			cold, err := topology.NewTables(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkHit(t, "edn tables", cold, func() (any, bool, error) { return c.Tables(cfg) })

			dcold, err := dilatedsim.NewTables(dcfg)
			if err != nil {
				t.Fatal(err)
			}
			checkHit(t, "dilated tables", dcold, func() (any, bool, error) { return c.DilatedTables(dcfg) })

			for _, mode := range []faults.Mode{faults.WireFaults, faults.SwitchFaults, faults.MixedFaults} {
				mcold, err := faults.Compile(cfg, faults.Bernoulli(cfg, mode, 0.2, xrand.New(7)))
				if err != nil {
					t.Fatal(err)
				}
				m := checkHit(t, fmt.Sprintf("edn masks mode %d", mode), mcold, func() (any, bool, error) {
					return c.Masks(cfg, mode, 0.2, 7)
				}).(*faults.Masks)
				// An engine built on the cached masks and churned in
				// place must leave them untouched.
				net, err := queuesim.New(cfg, queuesim.Options{Depth: 2, Faults: m})
				if err != nil {
					t.Fatal(err)
				}
				churn, err := faults.Compile(cfg, faults.Bernoulli(cfg, mode, 0.5, xrand.New(8)))
				if err != nil {
					t.Fatal(err)
				}
				runQueue(t, net, cfg.Inputs(), cfg.Outputs())
				if err := net.UpdateFaults(churn); err != nil {
					t.Fatal(err)
				}
				runQueue(t, net, cfg.Inputs(), cfg.Outputs())
				checkHit(t, fmt.Sprintf("edn masks mode %d after churn", mode), mcold, func() (any, bool, error) {
					return c.Masks(cfg, mode, 0.2, 7)
				})
			}

			dmcold, err := dilatedsim.Compile(dcfg, dilated.BernoulliSubWires(dcfg, 0.2, xrand.New(7)))
			if err != nil {
				t.Fatal(err)
			}
			dm := checkHit(t, "dilated masks", dmcold, func() (any, bool, error) {
				return c.DilatedMasks(dcfg, 0.2, 7)
			}).(*dilatedsim.Masks)
			dnet, err := dilatedsim.New(dcfg, dilatedsim.Options{Depth: 2, Faults: dm})
			if err != nil {
				t.Fatal(err)
			}
			dchurn, err := dilatedsim.Compile(dcfg, dilated.BernoulliSubWires(dcfg, 0.5, xrand.New(8)))
			if err != nil {
				t.Fatal(err)
			}
			runDilated(t, dnet, dcfg.Ports())
			if err := dnet.UpdateFaults(dchurn); err != nil {
				t.Fatal(err)
			}
			runDilated(t, dnet, dcfg.Ports())
			checkHit(t, "dilated masks after churn", dmcold, func() (any, bool, error) {
				return c.DilatedMasks(dcfg, 0.2, 7)
			})
		})
	}
}

// checkHit fetches one artifact through get, which must report a hit on
// every call after the first, return the same value each time, and
// deep-equal the cold build. It returns the cached value.
func checkHit(t *testing.T, what string, cold any, get func() (any, bool, error)) any {
	t.Helper()
	first, _, err := get()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	again, hit, err := get()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !hit {
		t.Fatalf("%s: second request missed", what)
	}
	if again != first {
		t.Fatalf("%s: hit returned a different value than the build", what)
	}
	if !reflect.DeepEqual(again, cold) {
		t.Fatalf("%s: cached artifact differs from a cold build", what)
	}
	return again
}

func runQueue(t *testing.T, net *queuesim.Network, inputs, outputs int) {
	t.Helper()
	rng := xrand.New(3)
	dest := make([]int, inputs)
	for c := 0; c < 50; c++ {
		for i := range dest {
			dest[i] = rng.Intn(outputs)
		}
		if _, err := net.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
}

func runDilated(t *testing.T, net *dilatedsim.Network, ports int) {
	t.Helper()
	rng := xrand.New(3)
	dest := make([]int, ports)
	for c := 0; c < 50; c++ {
		for i := range dest {
			dest[i] = rng.Intn(ports)
		}
		if _, err := net.Cycle(dest); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLRUEvictionKeepsBudget fills a small cache past its budget: the
// resident bytes never exceed it, the least recently used entries go
// first, and an artifact larger than the whole budget is served but
// never retained.
func TestLRUEvictionKeepsBudget(t *testing.T) {
	const budget = 100
	c := New(budget)
	sized := func(key string, bytes int64) {
		t.Helper()
		v, err := c.GetOrBuild(key, func() (any, int64, error) { return key, bytes, nil })
		if err != nil || v != key {
			t.Fatalf("GetOrBuild(%s) = %v, %v", key, v, err)
		}
		if st := c.Stats(); st.Bytes > st.Budget {
			t.Fatalf("after %s: %d bytes resident over the %d budget", key, st.Bytes, st.Budget)
		}
	}
	resident := func(key string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.items[key]
		return ok
	}

	for i := 0; i < 4; i++ {
		sized(fmt.Sprintf("k%d", i), 25) // exactly fills the budget
	}
	sized("k0", 25) // a hit: k0 becomes most recently used
	sized("k4", 30) // must evict k1 and k2 (LRU), not k0
	if resident("k1") || resident("k2") || !resident("k0") || !resident("k3") || !resident("k4") {
		t.Fatalf("LRU order violated: resident k0..k4 = %v %v %v %v %v",
			resident("k0"), resident("k1"), resident("k2"), resident("k3"), resident("k4"))
	}
	sized("huge", budget+1)
	if resident("huge") {
		t.Fatal("an artifact over the whole budget was retained")
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Bytes != 80 || st.Entries != 3 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	for i := 0; i < 50; i++ {
		sized(fmt.Sprintf("churn%d", i), int64(1+i%40))
	}
}

// TestConcurrentMissBuildsOnce: many goroutines missing on one key
// block on a single construction and all receive its value.
func TestConcurrentMissBuildsOnce(t *testing.T) {
	const callers = 16
	c := New(0)
	var builds atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	build := func() (any, int64, error) {
		builds.Add(1)
		close(started)
		<-release
		return new(int), 8, nil
	}

	results := make([]any, callers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _ = c.GetOrBuild("key", build)
	}()
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = c.GetOrBuild("key", build)
		}(i)
	}
	// Release the build only once every peer is parked on it.
	for c.Stats().SingleflightWaits < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key", n)
	}
	for i, r := range results {
		if r == nil || r != results[0] {
			t.Fatalf("caller %d got %v, want the single build %v", i, r, results[0])
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.SingleflightWaits != callers-1 {
		t.Fatalf("stats: %+v", st)
	}
}
