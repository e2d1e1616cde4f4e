package metrics

import (
	"sync"
	"testing"
)

func TestCountersRenderStable(t *testing.T) {
	var c Counters
	c.Add("runs", 2)
	c.Add("cache_hits", 1)
	c.Add("runs", 1)
	if got := c.snapshot()["runs"]; got != 3 {
		t.Errorf("Get(runs) = %d, want 3", got)
	}
	if got := c.snapshot()["never"]; got != 0 {
		t.Errorf("Get(never) = %d, want 0", got)
	}
	want := "dmamem_cache_hits 1\ndmamem_runs 3\n"
	if got := c.Render("dmamem_"); got != want {
		t.Errorf("Render = %q, want %q (sorted, stable)", got, want)
	}
	snap := c.snapshot()
	snap["runs"] = 99
	if c.snapshot()["runs"] != 3 {
		t.Error("snapshot aliases the live map")
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.snapshot()["n"]; got != 8000 {
		t.Errorf("n = %d, want 8000", got)
	}
}
