package dilatedsim

import (
	"fmt"
	"math"

	"edn/internal/dilated"
	"edn/internal/topology"
)

// Tables is the prebuilt, immutable routing geometry of one dilated
// delta: the group-level delta tables expanded to sub-wire labels —
// the O(ports*d) arrays New spends its construction time on. One
// Tables value can back any number of concurrently running networks;
// nothing mutates it after construction. It plays the role
// topology.Tables plays for the EDN.
type Tables struct {
	dcfg   dilated.Config
	subTab [][]int32 // [interstage] sub-wire tables; nil = identity
	bytes  int64
}

// NewTables validates dcfg and materializes the sub-wire tables.
// Networks built from the same Tables value share the slices (no copy)
// and are bit-for-bit identical to networks that built their own.
func NewTables(dcfg dilated.Config) (*Tables, error) {
	if err := dcfg.Validate(); err != nil {
		return nil, err
	}
	ports := dcfg.Ports()
	if int64(ports)*int64(dcfg.D) > math.MaxInt32 {
		return nil, fmt.Errorf("dilatedsim: %v has %d sub-wires per boundary, beyond the simulable limit", dcfg, int64(ports)*int64(dcfg.D))
	}
	delta, err := topology.New(dcfg.B, dcfg.B, 1, dcfg.L)
	if err != nil {
		return nil, fmt.Errorf("dilatedsim: %v has no delta skeleton: %w", dcfg, err)
	}
	t := &Tables{dcfg: dcfg, subTab: make([][]int32, dcfg.L)}
	for s := 1; s <= dcfg.L; s++ {
		tab := delta.InterstageTable(s) // nil at s == l: groups feed ports
		if tab != nil && dcfg.D > 1 {
			// Sub-wire w of group g lands on sub-wire w of g's image.
			sub := make([]int32, ports*dcfg.D)
			for o := range sub {
				sub[o] = tab[o/dcfg.D]*int32(dcfg.D) + int32(o%dcfg.D)
			}
			tab = sub
		}
		t.subTab[s-1] = tab
		t.bytes += int64(len(tab)) * 4
	}
	return t, nil
}

// Config returns the configuration the tables were built for.
func (t *Tables) Config() dilated.Config { return t.dcfg }

// Bytes returns the memory footprint of the table payload, the unit of
// the serve-layer cache's byte budget.
func (t *Tables) Bytes() int64 { return t.bytes }
