package server

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveCache is a deliberately plain model of BufferCache's placement
// and replacement rules: an LRU order kept as a slice (least recent
// first), a map of resident runs, a next-fit scan over the frames that
// always rescans after an eviction, and the hit/miss/eviction counters.
// It keeps no free-frame count and no ID-indexed table, so it checks
// that neither changes where an object lands or which one is evicted.
type naiveCache struct {
	owner []ObjectID
	hint  int
	lru   []ObjectID
	runs  map[ObjectID][2]int // start, pages

	hits, misses, evictions int64
	evicted                 map[ObjectID]bool // ever evicted by replacement
}

func newNaiveCache(frames int) *naiveCache {
	n := &naiveCache{owner: make([]ObjectID, frames), runs: map[ObjectID][2]int{}, evicted: map[ObjectID]bool{}}
	for i := range n.owner {
		n.owner[i] = -1
	}
	return n
}

func (n *naiveCache) findRun(pages int) (int, bool) {
	if n.hint >= len(n.owner) {
		n.hint = 0
	}
	for pass := 0; pass < 2; pass++ {
		start, end := n.hint, len(n.owner)
		if pass == 1 {
			start, end = 0, min(n.hint+pages-1, len(n.owner))
		}
		run := 0
		for f := start; f < end; f++ {
			if n.owner[f] != -1 {
				run = 0
				continue
			}
			if run++; run == pages {
				n.hint = f + 1
				return f - pages + 1, true
			}
		}
	}
	return 0, false
}

func (n *naiveCache) drop(id ObjectID) {
	r := n.runs[id]
	for f := r[0]; f < r[0]+r[1]; f++ {
		n.owner[f] = -1
	}
	delete(n.runs, id)
	for i, o := range n.lru {
		if o == id {
			n.lru = append(n.lru[:i], n.lru[i+1:]...)
			break
		}
	}
}

func (n *naiveCache) insert(id ObjectID, pages int) int {
	start, ok := n.findRun(pages)
	for !ok {
		n.evicted[n.lru[0]] = true
		n.drop(n.lru[0])
		n.evictions++
		start, ok = n.findRun(pages)
	}
	for f := start; f < start+pages; f++ {
		n.owner[f] = id
	}
	n.runs[id] = [2]int{start, pages}
	n.lru = append(n.lru, id)
	return start
}

func (n *naiveCache) lookup(id ObjectID) bool {
	if _, ok := n.runs[id]; !ok {
		n.misses++
		return false
	}
	n.hits++
	for i, o := range n.lru {
		if o == id {
			n.lru = append(append(n.lru[:i:i], n.lru[i+1:]...), id)
			break
		}
	}
	return true
}

// lruOrder walks the cache's LRU list from least to most recent.
func lruOrder(c *BufferCache) []ObjectID {
	var out []ObjectID
	for id := c.tail; id >= 0; id = c.links[id].prev {
		out = append(out, id)
	}
	return out
}

// TestCacheMatchesNaiveReference drives random Insert/Lookup/Remove
// sequences through BufferCache and naiveCache and requires every
// insert to land on the same frame run, every lookup and removal to
// agree, the LRU order and the Hits/Misses/Evictions counters to match
// throughout, and the final frame ownership to be identical. IDs are
// sparse over the whole object range, including both of its ends, so
// the dense index is exercised far from zero; removals of absent IDs
// and re-inserts of evicted ones are required to occur.
func TestCacheMatchesNaiveReference(t *testing.T) {
	var absentRemoves, reinserts int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frames := 16 + rng.Intn(240)
		objects := 1 + rng.Intn(1<<16)
		c, err := NewBufferCache(frames, objects)
		if err != nil {
			t.Fatal(err)
		}
		ref := newNaiveCache(frames)
		ids := []ObjectID{0, ObjectID(objects - 1)}
		for len(ids) < 120 {
			ids = append(ids, ObjectID(rng.Intn(objects)))
		}
		maxPages := 1 + rng.Intn(frames/4)
		for op := 0; op < 3000; op++ {
			id := ids[rng.Intn(len(ids))]
			switch rng.Intn(4) {
			case 0, 1:
				_, _, hit := c.Lookup(id)
				if hit != ref.lookup(id) {
					t.Fatalf("seed %d op %d: lookup(%d) disagrees", seed, op, id)
				}
				if !hit {
					if ref.evicted[id] {
						reinserts++
					}
					pages := 1 + rng.Intn(maxPages)
					got, want := c.Insert(id, pages), ref.insert(id, pages)
					if int(got) != want {
						t.Fatalf("seed %d op %d: Insert(%d, %d) at frame %d, reference %d",
							seed, op, id, pages, got, want)
					}
				}
			case 2:
				removed := c.Remove(id)
				_, had := ref.runs[id]
				if removed != had {
					t.Fatalf("seed %d op %d: Remove(%d) = %v, reference resident %v", seed, op, id, removed, had)
				}
				if had {
					ref.drop(id)
				} else {
					absentRemoves++
				}
			case 3:
				c.Lookup(id)
				ref.lookup(id)
			}
			if c.Hits != ref.hits || c.Misses != ref.misses || c.Evictions != ref.evictions {
				t.Fatalf("seed %d op %d: hits/misses/evictions %d/%d/%d, reference %d/%d/%d",
					seed, op, c.Hits, c.Misses, c.Evictions, ref.hits, ref.misses, ref.evictions)
			}
			if c.Len() != len(ref.lru) {
				t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, c.Len(), len(ref.lru))
			}
			if op%16 == 0 && !slices.Equal(lruOrder(c), ref.lru) {
				t.Fatalf("seed %d op %d: LRU order %v, reference %v", seed, op, lruOrder(c), ref.lru)
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(lruOrder(c), ref.lru) {
			t.Fatalf("seed %d: LRU order %v, reference %v", seed, lruOrder(c), ref.lru)
		}
		for f, id := range c.frameOwner {
			if ref.owner[f] != id {
				t.Fatalf("seed %d: frame %d owned by %d, reference %d", seed, f, id, ref.owner[f])
			}
		}
	}
	if absentRemoves == 0 || reinserts == 0 {
		t.Fatalf("sequence never exercised absent removes (%d) or re-inserts after eviction (%d)",
			absentRemoves, reinserts)
	}
}
