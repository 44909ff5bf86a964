package telemetry

import (
	"math"
	"runtime"
	"slices"
	"testing"
)

func TestPerFlowGetLookupEachReset(t *testing.T) {
	var tab PerFlow[int]
	if tab.Get(NoFlow) != nil || tab.Lookup(NoFlow) != nil {
		t.Fatal("a negative id has an entry")
	}
	if tab.Lookup(5) != nil {
		t.Fatal("Lookup created storage")
	}
	five := tab.Get(5)
	*five = 50
	ids := []int32{math.MaxInt32, 70, maxDenseFlow, 0, maxDenseFlow - 1}
	for _, id := range ids {
		*tab.Get(id) = int(id%1000) + 1
	}
	if tab.Get(5) != five || tab.Lookup(5) != five || *five != 50 {
		t.Fatal("an entry moved or lost its value as the table grew")
	}
	if v := tab.Lookup(6); v == nil || *v != 0 {
		t.Fatalf("Lookup(6) = %v, want the zero entry on 5's page", v)
	}
	if tab.Lookup(1000) != nil || tab.Lookup(maxDenseFlow+1) != nil {
		t.Fatal("Lookup found storage for an id never seen")
	}

	var seen []int32
	tab.Each(func(id int32, v *int) {
		if *v != 0 {
			seen = append(seen, id)
		}
	})
	want := []int32{0, 5, 70, maxDenseFlow - 1, maxDenseFlow, math.MaxInt32}
	if !slices.Equal(seen, want) {
		t.Fatalf("Each visited %v, want %v in id order", seen, want)
	}

	tab.Reset()
	tab.Each(func(id int32, v *int) {
		if *v != 0 {
			t.Fatalf("entry %d = %d after Reset", id, *v)
		}
	})
	if tab.Lookup(maxDenseFlow) != nil {
		t.Fatal("a sparse entry survived Reset")
	}
	if tab.Lookup(5) != five {
		t.Fatal("Reset dropped a dense page")
	}
}

// Entries are carved from pages on first sight: a new flow costs nothing
// until its page is new, and the largest dense id costs one page.
func TestPerFlowGrowsByPages(t *testing.T) {
	var tab PerFlow[[8]int64]
	tab.Get(0)
	if avg := testing.AllocsPerRun(100, func() { tab.Get(flowPage - 1) }); avg != 0 {
		t.Fatalf("an id on an allocated page allocates %.2f times", avg)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab.Get(maxDenseFlow - 1)
	runtime.ReadMemStats(&after)
	// One 4 kB page and the 8 kB directory; a slice grown to the id
	// would take 4 MB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("the largest dense id allocated %d bytes, want about 12 kB", grew)
	}
}
