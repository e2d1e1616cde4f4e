package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// TestLayoutMatchesWarmCache holds the OLTP-Db layout table to the
// bufferpool it replaced: a bufferCache warmed with the whole dataset
// insert by insert, in ID order. Every object must sit where the cache
// put it, with the cache's page count, for the default mixture and
// MixedSizes; and one (Objects, Sizes) pair must share one table.
func TestLayoutMatchesWarmCache(t *testing.T) {
	frames := DefaultDatabase().Frames
	for _, objects := range []int{1, 1001, DefaultDatabase().Objects} {
		for _, sizes := range [][]synth.SizeClass{synth.DefaultSizes(), synth.MixedSizes()} {
			name := fmt.Sprintf("objects %d, sizes %v", objects, sizes)
			var totalWeight float64
			for _, s := range sizes {
				totalWeight += s.Weight
			}
			pool, err := newBufferCache(frames, objects)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < objects; id++ {
				pool.insert(objectID(id), objectPages(objectID(id), sizes, totalWeight))
			}
			l := layoutOf(objects, sizes)
			if len(l.start) != objects+1 || l.pages != int64(l.start[objects]) {
				t.Fatalf("%s: %d starts, %d pages in all", name, len(l.start), l.pages)
			}
			for id := 0; id < objects; id++ {
				start, pages, ok := pool.lookup(objectID(id))
				if !ok {
					t.Fatalf("%s: warm pool missed object %d", name, id)
				}
				if got := l.start[id]; got != start || int(l.start[id+1]-got) != pages {
					t.Fatalf("%s: object %d at frame %d, %d pages; the warm pool has it at %d, %d pages",
						name, id, got, l.start[id+1]-got, start, pages)
				}
			}
			if layoutOf(objects, slices.Clone(sizes)) != l {
				t.Fatalf("%s: an equal mixture got another table", name)
			}
		}
	}
	if layoutOf(1001, synth.DefaultSizes()) == layoutOf(1001, []synth.SizeClass{{Pages: 2, Weight: 1}}) {
		t.Fatal("two mixtures share one table")
	}
}

// TestMergeRunsMatchesSortByTime holds queryMerger to the stable sort
// it replaced, on random query sets shaped like OLTP-Db's: arrival
// times that repeat and never fall, each query's records in time order
// from its arrival, empty queries among them, and times on a coarse
// grid so that records of different queries tie, as they must to test
// which goes first.
func TestMergeRunsMatchesSortByTime(t *testing.T) {
	crossTies := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var all []trace.Record
		var query []int // query of each record, by Page
		m := newQueryMerger(0, rng.Intn(4))
		arrive := sim.Time(0)
		for q := rng.Intn(40); q >= 0; q-- {
			arrive += sim.Time(rng.Intn(3))
			recs := m.begin(arrive)
			at := arrive
			for n := rng.Intn(12); n > 0; n-- {
				at += sim.Time(rng.Intn(3))
				r := trace.Record{Time: at, Page: memsys.PageID(len(all))}
				recs = append(recs, r)
				all = append(all, r)
				query = append(query, q)
			}
			m.end(recs)
		}
		want := &trace.Trace{Records: all}
		want.SortByTime()
		got := m.finish()
		if !slices.Equal(got, want.Records) {
			t.Fatalf("seed %d: merged %v, sorted %v", seed, got, want.Records)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Time == got[i-1].Time && query[got[i].Page] != query[got[i-1].Page] {
				crossTies++
			}
		}
	}
	if crossTies == 0 {
		t.Fatal("no two queries ever tied")
	}
}
